"""Crash-recovery drill (:func:`repro.bench.soak.crash`): scenarios pass,
determinism, artifacts, temp files, CLI exit."""

import json
import tempfile

import pytest

from repro.bench.soak import CRASH_SCENARIOS, crash


NAMES = [s[0] for s in CRASH_SCENARIOS]


@pytest.fixture(scope="module")
def drill_report():
    return crash("none", seed=0)


def scenario_rows(report) -> dict:
    """The report's per-scenario rows, by name (its other facts are the
    soak-wide ``rungs`` and ``breaker_transitions`` tallies)."""
    return {name: report.facts[name] for name in NAMES}


class TestDrill:
    def test_all_default_scenarios_pass(self, drill_report):
        assert drill_report.passed, drill_report.errors
        assert list(drill_report.facts) == NAMES + ["rungs", "breaker_transitions"]
        assert drill_report.counts["scenarios"] == len(CRASH_SCENARIOS)
        for row in scenario_rows(drill_report).values():
            assert row["passed"], row["errors"]
            assert row["queries_checked"] > 0
            assert row["mismatches"] == 0

    def test_crash_scenarios_actually_crash(self, drill_report):
        rows = scenario_rows(drill_report)
        control = rows.pop("warm-restart")
        assert not control["crashed"]
        # Clean shutdown commits the whole schedule and warm-restarts.
        assert control["committed_ops"] == control["total_ops"]
        assert control["cache_restored_from"] != "cold"
        for row in rows.values():
            assert row["crashed"], f"{row['name']} never hit its point"
            # A crash never commits more than the schedule attempted.
            assert row["committed_ops"] <= row["total_ops"]

    def test_torn_scenario_reports_torn_tail(self, drill_report):
        torn = drill_report.facts["wal-append-torn"]
        assert torn["crashed"]
        # The torn prefix landed on whichever WAL hit the point; either way
        # recovery must have seen and truncated it.
        assert "torn" in (torn["tail_status"], torn["cache_tail_status"])

    def test_seeded_determinism(self, drill_report):
        assert crash("none", seed=0).as_dict() == drill_report.as_dict()

    def test_different_seed_changes_schedule(self, drill_report):
        other = crash("none", seed=42)
        assert other.passed, other.errors
        committed = [r["committed_ops"] for r in scenario_rows(other).values()]
        baseline = [r["committed_ops"] for r in scenario_rows(drill_report).values()]
        assert committed != baseline or other.as_dict() != drill_report.as_dict()

    def test_report_artifact_written(self, tmp_path):
        report = crash("none", seed=1, out_dir=tmp_path)
        assert report.passed, report.errors
        payload = json.loads((tmp_path / "recovery_report.json").read_text())
        assert set(payload) == {"seed", "profile", "scenarios", "passed"}
        assert payload["passed"] is True
        assert [s["name"] for s in payload["scenarios"]] == [
            s[0] for s in CRASH_SCENARIOS
        ]
        assert (tmp_path / "wal-append-torn" / "durability").is_dir()

    def test_drill_under_fault_profile(self):
        report = crash("default", seed=2)
        assert report.passed, report.errors

    def test_render_text_mentions_every_scenario(self, drill_report):
        text = drill_report.render_text()
        for name, *_ in CRASH_SCENARIOS:
            assert name in text
        assert text.endswith("PASS")

    def test_no_out_dir_leaves_nothing_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert crash("none", seed=0).passed
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_crash_drill_flag_exits_zero(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        out_dir = tmp_path / "drill"
        assert main(["--crash-drill", "--crash-out", str(out_dir)]) == 0
        assert "crash soak" in capsys.readouterr().out
        assert (out_dir / "recovery_report.json").exists()
