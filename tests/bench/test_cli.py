"""Tests for the ``python -m repro.bench`` command-line entry point."""

from repro.bench.__main__ import main


class TestCli:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_selected_experiment_runs(self, capsys):
        assert main(["fig11a"]) == 0
        out = capsys.readouterr().out
        assert "fig11a" in out
        assert "Random" in out
        assert "scale=quick" in out

    def test_json_dump(self, capsys, tmp_path):
        import json

        path = tmp_path / "out.json"
        assert main(["--json", str(path), "fig11a"]) == 0
        data = json.loads(path.read_text())
        assert data["scale"] == "quick"
        assert "Random" in data["figures"]["fig11a"]["series"]["io_ms"]

    def test_json_without_path(self, capsys):
        assert main(["--json"]) == 2

    def test_obs_writes_artifacts(self, capsys, tmp_path):
        import json

        obs_dir = tmp_path / "obs"
        assert main(["--obs", str(obs_dir), "fig11a"]) == 0
        # metrics.json is the one metrics artifact: no OpenMetrics copy
        assert sorted(p.name for p in obs_dir.iterdir()) == [
            "metrics.json", "trace.jsonl",
        ]

        metrics = json.loads((obs_dir / "metrics.json").read_text())
        assert {"counters", "gauges", "histograms"} <= set(metrics)
        assert any(c["name"] == "queries_total" for c in metrics["counters"])

        trace_lines = (obs_dir / "trace.jsonl").read_text().strip().splitlines()
        assert trace_lines
        spans = [json.loads(line) for line in trace_lines]
        assert any(s["name"] == "cbcs.query" for s in spans)

    def test_obs_report_flag_is_gone(self, capsys):
        assert main(["--obs-report", "fig11a"]) == 2

    def test_obs_without_path(self, capsys):
        assert main(["--obs"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["--bogus-flag", "fig11a"]) == 2

    def test_list_prints_figure_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "fig11a" in out

    def test_query_log_streams_outcomes(self, capsys, tmp_path):
        import json

        log = tmp_path / "queries.jsonl"
        assert main(["--query-log", str(log), "fig11a"]) == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records
        assert {"method", "case", "timings", "io"} <= set(records[0])
        assert "total_ms" not in records[0]

    def test_save_bench_writes_schema_versioned_snapshot(self, capsys, tmp_path):
        import json

        from repro.bench.regress import SCHEMA, SCHEMA_VERSION

        path = tmp_path / "BENCH_ci.json"
        assert main(["--save-bench", str(path), "fig11a"]) == 0
        snap = json.loads(path.read_text())
        assert snap["schema"] == SCHEMA
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["scale"] == "quick"
        methods = snap["figures"]["fig11a"]["methods"]
        assert methods, "snapshot recorded no methods"
        entry = next(iter(methods.values()))
        assert {"queries", "points_read", "range_queries", "stage_ms"} <= set(entry)
        assert "fetch_io" in entry["stage_ms"]
        # snapshots are compared by `python -m repro.bench.regress` alone
        assert main(["--baseline", str(path), "fig11a"]) == 2

    def test_calibration_lands_in_the_snapshot_and_audit_flag_is_gone(
        self, capsys, tmp_path
    ):
        import json

        path = tmp_path / "BENCH_cal.json"
        assert main(["--save-bench", str(path), "--calibration", "fig11a"]) == 0
        out = capsys.readouterr().out
        assert "# calibration" in out
        snapshot = json.loads(path.read_text())
        assert "audit" not in snapshot
        block = snapshot["calibration"]
        assert block["queries"] > 0 and block["skipped"] == 0
        assert set(block["overall"]) == {"points", "pages", "io_ms"}
        # without a ledger the snapshot simply has no such block
        plain = tmp_path / "BENCH_plain.json"
        assert main(["--save-bench", str(plain), "fig11a"]) == 0
        assert "calibration" not in json.loads(plain.read_text())
        # the second auditor's flag was retired with its module
        assert main(["--audit", "fig11a"]) == 2


class TestShardSweepCli:
    def test_shard_sweep_alone_runs_and_passes(self, capsys):
        assert main(["--shard-sweep", "3"]) == 0
        out = capsys.readouterr().out
        assert "# shards soak" in out
        assert "PASS" in out

    def test_shard_sweep_needs_positive_count(self, capsys):
        assert main(["--shard-sweep", "0"]) == 2
        assert "positive query count" in capsys.readouterr().out

    def test_shard_sweep_with_faults_and_workers(self, capsys):
        sweep = ["--shard-sweep", "3", "--faults", "default"]
        assert main(sweep) == 0
        out = capsys.readouterr().out
        assert "faults=default" in out
        assert "stale_serves" in out
        # --workers sizes the overload soak's service and nothing else
        assert main(sweep + ["--workers", "2"]) == 2
        assert "--overload" in capsys.readouterr().out

    def test_overload_needs_two_workers(self, capsys, monkeypatch):
        from repro.bench import soak

        calls = []

        def recorded_overload(**kwargs):
            calls.append(kwargs["workers"])
            return soak.SoakReport("overload", 0, "none")

        monkeypatch.setattr(soak, "overload", recorded_overload)
        for workers in ("1", "0", "-3"):
            assert main(["--overload", "5", "--workers", workers]) == 2
            out = capsys.readouterr().out
            assert "usage:" in out and "at least 2" in out
        assert calls == []
        assert main(["--overload", "5", "--workers", "3"]) == 0
        assert main(["--overload", "5"]) == 0
        assert calls == [3, 2]

    def test_shard_sweep_json_dump(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(["--shard-sweep", "2", "--json", str(target)]) == 0
        import json

        payload = json.loads(target.read_text())
        assert payload["shard_sweep"]["passed"] is True
        assert payload["shard_sweep"]["counts"]["cells"] > 0

    def test_failing_sweep_exits_7(self, capsys, monkeypatch):
        from repro.bench import soak

        def broken_sweep(**kwargs):
            return soak.SoakReport("shards", 0, "none", errors=["answer differs"])

        monkeypatch.setattr(soak, "shards", broken_sweep)
        assert main(["--shard-sweep", "1"]) == 7
        assert "shards soak FAILED" in capsys.readouterr().out

    def test_sharding_figure_in_snapshot(self, capsys, tmp_path):
        target = tmp_path / "BENCH_x.json"
        assert main(["--save-bench", str(target), "sharding"]) == 0
        import json

        snap = json.loads(target.read_text())
        section = snap["figures"]["sharding"]["sharding"]
        points = [section[f"points_read_{c}"] for c in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(points, points[1:]))
