"""Crash-recovery drill: scenarios pass, determinism, artifacts, CLI exit."""

import json

import pytest

from repro.bench.crashdrill import (
    DEFAULT_SCENARIOS,
    CrashScenario,
    run_crash_drill,
)

_QUICK = dict(n_points=150, ndim=3, n_ops=12, n_check_queries=5, fsync=False)


@pytest.fixture(scope="module")
def drill_report():
    return run_crash_drill(seed=0, profile="none", **_QUICK)


class TestDrill:
    def test_all_default_scenarios_pass(self, drill_report):
        assert drill_report.passed
        assert len(drill_report.scenarios) == len(DEFAULT_SCENARIOS)
        for scenario in drill_report.scenarios:
            assert scenario.passed, scenario.errors
            assert scenario.queries_checked > 0
            assert scenario.mismatches == 0

    def test_crash_scenarios_actually_crash(self, drill_report):
        by_name = {s.name: s for s in drill_report.scenarios}
        control = by_name.pop("warm-restart")
        assert not control.crashed
        # Clean shutdown commits the whole schedule and warm-restarts.
        assert control.committed_ops == control.total_ops
        assert control.cache_restored_from != "cold"
        for scenario in by_name.values():
            assert scenario.crashed, f"{scenario.name} never hit its point"
            # A crash never commits more than the schedule attempted.
            assert scenario.committed_ops <= scenario.total_ops

    def test_torn_scenario_reports_torn_tail(self, drill_report):
        (torn,) = [
            s for s in drill_report.scenarios if s.name == "wal-append-torn"
        ]
        assert torn.crashed
        # The torn prefix landed on whichever WAL hit the point; either way
        # recovery must have seen and truncated it.
        assert "torn" in (torn.tail_status, torn.cache_tail_status)

    def test_seeded_determinism(self, drill_report):
        again = run_crash_drill(seed=0, profile="none", **_QUICK)
        a = drill_report.as_dict()
        b = again.as_dict()
        assert a == b

    def test_different_seed_changes_schedule(self, drill_report):
        other = run_crash_drill(seed=42, profile="none", **_QUICK)
        assert other.passed
        committed = [s.committed_ops for s in other.scenarios]
        baseline = [s.committed_ops for s in drill_report.scenarios]
        assert committed != baseline or other.as_dict() != drill_report.as_dict()

    def test_report_artifact_written(self, tmp_path):
        report = run_crash_drill(
            seed=1,
            profile="none",
            scenarios=(CrashScenario("wal-append-clean", "wal.append", after=3),),
            out_dir=tmp_path,
            **_QUICK,
        )
        assert report.passed
        payload = json.loads((tmp_path / "recovery_report.json").read_text())
        assert payload["passed"] is True
        assert payload["scenarios"][0]["name"] == "wal-append-clean"

    def test_drill_under_fault_profile(self):
        report = run_crash_drill(
            seed=2,
            profile="default",
            scenarios=(
                CrashScenario("warm-restart", None),
                CrashScenario("wal-append-torn", "wal.append", after=5,
                              torn_fraction=0.5),
            ),
            **_QUICK,
        )
        assert report.passed, [s.errors for s in report.scenarios]

    def test_render_text_mentions_every_scenario(self, drill_report):
        text = drill_report.render_text()
        for scenario in drill_report.scenarios:
            assert scenario.name in text
        assert text.endswith("PASS")


class TestCli:
    def test_crash_drill_flag_exits_zero(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        out_dir = tmp_path / "drill"
        assert main(["--crash-drill", "--crash-out", str(out_dir)]) == 0
        assert "crash-recovery drill" in capsys.readouterr().out
        assert (out_dir / "recovery_report.json").exists()
