"""Tests for benchmark snapshots and regression detection."""

import copy
import json

import pytest

from repro.bench.regress import (
    SCHEMA,
    SCHEMA_VERSION,
    SnapshotError,
    Thresholds,
    build_snapshot,
    compare_snapshots,
    load_snapshot,
    main,
    save_snapshot,
    summarize_registry,
)
from repro.obs.metrics import MetricsRegistry


def registry_for(method="Baseline", n=10, ms=8.0, points=100.0, rq=2.0):
    reg = MetricsRegistry()
    reg.inc("queries_total", n, method=method)
    reg.inc("points_read_total", points * n, method=method)
    reg.inc("range_queries_total", rq * n, method=method)
    for _ in range(n):
        reg.observe("stage_ms", ms, method=method, stage="fetch_io")
        reg.observe("stage_ms", ms / 2, method=method, stage="processing")
    reg.inc("cache_lookups_total", 6, strategy="MaxOverlapSP", outcome="hit")
    reg.inc("cache_lookups_total", 4, strategy="MaxOverlapSP", outcome="miss")
    return reg


def snapshot_for(ms=8.0, points=100.0, rq=2.0, scale="quick", run_id="base"):
    figures = {
        "fig5a": {
            "title": "t",
            "seconds": 1.0,
            **summarize_registry(registry_for(ms=ms, points=points, rq=rq)),
        }
    }
    return build_snapshot(scale=scale, figures=figures, rev="deadbeef", run_id=run_id)


class TestSummarizeRegistry:
    def test_per_method_means(self):
        summary = summarize_registry(registry_for())
        entry = summary["methods"]["Baseline"]
        assert entry["queries"] == 10
        assert "total_ms" not in entry
        assert entry["stage_ms"]["fetch_io"] == pytest.approx(8.0)
        assert entry["points_read"] == pytest.approx(100.0)
        assert entry["range_queries"] == pytest.approx(2.0)
        assert entry["stage_ms"]["processing"] == pytest.approx(4.0)
        assert summary["cache"]["hit_rate"] == pytest.approx(0.6)

    def test_empty_registry(self):
        summary = summarize_registry(MetricsRegistry())
        assert summary["methods"] == {}
        assert summary["cache"]["hit_rate"] is None
        assert "warmstart" not in summary

    def test_warmstart_gauges_become_snapshot_section(self):
        reg = registry_for()
        reg.set_gauge("warmstart_cold_io_ms", 30.0)
        reg.set_gauge("warmstart_mem_io_ms", 0.5)
        reg.set_gauge("warmstart_warm_io_ms", 0.6)
        reg.set_gauge("warmstart_cold_hit_rate", 0.8)
        reg.set_gauge("warmstart_mem_hit_rate", 1.0)
        reg.set_gauge("warmstart_warm_hit_rate", 1.0)
        reg.set_gauge("warmstart_restored_items", 12)
        section = summarize_registry(reg)["warmstart"]
        assert section["cold_io_ms"] == pytest.approx(30.0)
        assert section["warm_io_ms"] == pytest.approx(0.6)
        assert section["restored_items"] == pytest.approx(12)


class TestSnapshotIO:
    def test_schema_versioned_round_trip(self, tmp_path):
        snap = snapshot_for()
        assert snap["schema"] == SCHEMA
        assert snap["schema_version"] == SCHEMA_VERSION
        assert snap["git_rev"] == "deadbeef"
        path = save_snapshot(snap, tmp_path / "BENCH_x.json")
        assert load_snapshot(path) == json.loads(json.dumps(snap))

    def test_directory_target_gets_runid_name(self, tmp_path):
        snap = snapshot_for(run_id="r1")
        path = save_snapshot(snap, tmp_path)
        assert path.endswith("BENCH_r1.json")

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other", "figures": {}}))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_load_rejects_wrong_version(self, tmp_path):
        snap = snapshot_for()
        snap["schema_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(snap))
        with pytest.raises(SnapshotError, match="schema_version"):
            load_snapshot(bad)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "nope.json")


class TestCompare:
    def test_identical_snapshots_pass(self):
        report = compare_snapshots(snapshot_for(), snapshot_for(run_id="new"))
        assert not report.has_regressions
        assert all(f.status == "ok" for f in report.findings)
        # fetch_io_ms, points_read, range_queries
        assert len(report.findings) == 3

    def test_noise_within_thresholds_passes(self):
        # +5% on an 8 ms simulated-I/O mean is inside rel_io=0.10
        report = compare_snapshots(snapshot_for(), snapshot_for(ms=8.4, run_id="new"))
        assert not report.has_regressions

    def test_fetch_io_regression_needs_no_absolute_floor(self):
        # simulated I/O is deterministic: +20% regresses even at +0.1 ms
        report = compare_snapshots(
            snapshot_for(ms=0.5), snapshot_for(ms=0.6, run_id="new")
        )
        assert [f.metric for f in report.regressions] == ["fetch_io_ms"]
        assert not hasattr(Thresholds(), "rel_ms")

    def test_points_read_regression(self):
        report = compare_snapshots(
            snapshot_for(points=100.0), snapshot_for(points=150.0, run_id="new")
        )
        assert [f.metric for f in report.regressions] == ["points_read"]
        finding = report.regressions[0]
        assert finding.rel_delta == pytest.approx(0.5)

    def test_improvement_is_flagged_not_failed(self):
        report = compare_snapshots(
            snapshot_for(points=100.0), snapshot_for(points=40.0, run_id="new")
        )
        assert not report.has_regressions
        assert any(f.status == "improved" for f in report.findings)

    def test_missing_method_and_figure_reported(self):
        base = snapshot_for()
        cur = copy.deepcopy(snapshot_for(run_id="new"))
        del cur["figures"]["fig5a"]["methods"]["Baseline"]
        report = compare_snapshots(base, cur)
        assert any(f.status == "missing" for f in report.findings)
        assert any("Baseline" in w for w in report.warnings)
        cur["figures"] = {}
        report = compare_snapshots(base, cur)
        assert any(f.status == "missing" for f in report.findings)
        assert any("fig5a" in w for w in report.warnings)
        assert not report.has_regressions  # warnings never fail the check

    def test_extra_figure_warned(self):
        base = snapshot_for()
        cur = copy.deepcopy(snapshot_for(run_id="new"))
        cur["figures"]["fig9z"] = {"methods": {}}
        report = compare_snapshots(base, cur)
        assert any(f.status == "new" for f in report.findings)
        assert any("fig9z" in w for w in report.warnings)

    def test_malformed_entries_become_warnings_not_errors(self):
        base = snapshot_for()
        cur = copy.deepcopy(snapshot_for(run_id="new"))
        cur["figures"]["fig5a"]["methods"]["Baseline"]["stage_ms"] = "garbage"
        report = compare_snapshots(base, cur)  # must not raise
        assert any("fetch_io_ms" in w for w in report.warnings)
        # the intact metrics are still compared
        assert any(f.metric == "points_read" for f in report.findings)

        cur["figures"]["fig5a"] = ["not", "a", "dict"]
        report = compare_snapshots(base, cur)
        assert any("malformed" in w for w in report.warnings)

    def test_warnings_rendered_and_serialized(self):
        base = snapshot_for()
        cur = copy.deepcopy(snapshot_for(run_id="new"))
        del cur["figures"]["fig5a"]["methods"]["Baseline"]
        report = compare_snapshots(base, cur)
        assert "warning:" in report.render_text()
        assert report.as_dict()["warnings"]
        json.dumps(report.as_dict())

    def test_scale_mismatch_rejected(self):
        with pytest.raises(SnapshotError, match="scale mismatch"):
            compare_snapshots(snapshot_for(), snapshot_for(scale="full", run_id="n"))
        report = compare_snapshots(
            snapshot_for(),
            snapshot_for(scale="full", run_id="n"),
            require_same_scale=False,
        )
        assert report.findings

    def test_render_and_as_dict(self):
        report = compare_snapshots(
            snapshot_for(ms=8.0), snapshot_for(ms=20.0, run_id="new")
        )
        text = report.render_text()
        assert "REGRESSED" in text and "FAIL" in text
        payload = report.as_dict()
        assert payload["has_regressions"] is True
        json.dumps(payload)
        ok = compare_snapshots(snapshot_for(), snapshot_for(run_id="new"))
        assert "OK" in ok.render_text()


class TestRegressCli:
    def write(self, tmp_path, name, **kwargs):
        path = tmp_path / name
        path.write_text(json.dumps(snapshot_for(**kwargs)))
        return str(path)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        base = self.write(tmp_path, "a.json")
        cur = self.write(tmp_path, "b.json", run_id="new")
        assert main([base, cur]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression_and_json_report(self, tmp_path, capsys):
        base = self.write(tmp_path, "a.json")
        cur = self.write(tmp_path, "b.json", ms=30.0, run_id="new")
        out = tmp_path / "report.json"
        assert main([base, cur, "--json", str(out)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert json.loads(out.read_text())["has_regressions"] is True

    def test_custom_thresholds(self, tmp_path):
        base = self.write(tmp_path, "a.json")
        cur = self.write(tmp_path, "b.json", ms=30.0, run_id="new")
        assert main([base, cur, "--rel-io", "5.0"]) == 0
        assert main([base, cur, "--rel-ms", "5.0"]) == 2
        assert main([base, cur, "--rel-serving", "5.0"]) == 2

    def test_exit_two_on_bad_inputs(self, tmp_path, capsys):
        base = self.write(tmp_path, "a.json")
        assert main([base, str(tmp_path / "missing.json")]) == 2
        other_scale = self.write(tmp_path, "c.json", scale="full", run_id="n")
        assert main([base, other_scale]) == 2
        assert main([base, other_scale, "--allow-scale-mismatch"]) == 0
        assert main(["--bogus"]) == 2

    def test_truncated_snapshot_reported_not_raised(self, tmp_path, capsys):
        """S1: a snapshot cut mid-write (pre-atomic-writes failure mode)
        must surface as a diagnostic + exit 2, never a raw traceback."""
        base = self.write(tmp_path, "a.json")
        truncated = tmp_path / "truncated.json"
        blob = json.dumps(snapshot_for(run_id="new"))
        truncated.write_text(blob[: len(blob) // 2])
        assert main([base, str(truncated)]) == 2
        out = capsys.readouterr().out
        assert "truncated.json" in out

    def test_load_truncated_file_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "snap.json"
        blob = json.dumps(snapshot_for())
        path.write_text(blob[: len(blob) // 3])
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestShardingSection:
    def sharded_snapshot(self, points8=12000.0, run_id="base"):
        reg = registry_for()
        for count, points in (
            (1, 30000.0), (2, 24000.0), (4, 17000.0), (8, points8)
        ):
            reg.set_gauge(f"sharding_points_read_{count}", points)
        # a stray wall-clock gauge is not carried into the snapshot
        reg.set_gauge("sharding_wall_ms_8", 40.0)
        figures = {
            "sharding": {"title": "t", "seconds": 1.0, **summarize_registry(reg)}
        }
        return build_snapshot(
            scale="quick", figures=figures, rev="deadbeef", run_id=run_id
        )

    def test_gauges_become_snapshot_section(self):
        section = self.sharded_snapshot()["figures"]["sharding"]["sharding"]
        assert section["points_read_1"] == pytest.approx(30000.0)
        assert section["points_read_8"] == pytest.approx(12000.0)
        assert set(section) == {f"points_read_{n}" for n in (1, 2, 4, 8)}

    def test_identical_snapshots_pass(self):
        base = self.sharded_snapshot()
        cur = self.sharded_snapshot(run_id="cur")
        assert not compare_snapshots(base, cur).has_regressions

    def test_points_read_regression_is_gated_tightly(self):
        base = self.sharded_snapshot()
        cur = self.sharded_snapshot(points8=15000.0, run_id="cur")  # +25%
        report = compare_snapshots(base, cur)
        assert report.has_regressions
        assert any(
            f.metric == "points_read_8" and f.status == "regressed"
            for f in report.findings
        )
