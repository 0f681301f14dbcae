"""Tests for the chaos soak (:func:`repro.bench.soak.chaos`) and the CLI exit codes."""

import dataclasses
import json

import pytest

from repro.bench.soak import MIN_EXACT_FRACTION, SoakReport, chaos
from repro.core.cbcs import CBCS
from repro.storage.faults import FaultInjector


@pytest.fixture(scope="module")
def soak():
    return chaos(40, "default", seed=0)


class TestChaosSoak:
    def test_soak_passes_acceptance_criteria(self, soak):
        assert soak.errors == []
        assert soak.passed
        stale = soak.counts["stale_serves"] / soak.counts["queries"]
        assert 1 - stale >= MIN_EXACT_FRACTION

    def test_breaker_drill_cycles_all_states(self, soak):
        assert {"open", "half_open", "closed"} <= set(soak.facts["breaker_states_seen"])
        assert soak.counts["drill_queries"] > 0

    def test_fallbacks_and_breaker_transitions_are_reported(self, soak):
        # a failed pass falls straight to the cache: every degraded answer
        # is a flagged one
        rungs = soak.facts["rungs"]
        assert set(rungs) <= {"stale", "unavailable"}
        assert sum(rungs.values()) == soak.counts["stale_serves"]
        transitions = soak.facts["breaker_transitions"]
        for change in ("closed->open", "open->half_open", "half_open->closed"):
            assert transitions.get(change, 0) >= 1, transitions

    def test_faults_were_actually_injected(self, soak):
        assert sum(soak.facts["faults_injected"].values()) > 0

    def test_deterministic_replay(self, soak):
        assert chaos(40, "default", seed=0).as_dict() == soak.as_dict()

    def test_report_serializes_and_renders(self, soak):
        payload = json.loads(json.dumps(soak.as_dict()))
        assert payload["passed"] is True and payload["scenario"] == "chaos"
        text = soak.render_text()
        assert "PASS" in text
        assert "faults_injected" in text

    def test_heavy_profile_never_raises(self):
        report = chaos(30, "heavy", seed=1)
        # Heavy faults may push answers below the stale floor; nothing may
        # escape the engine and no unflagged answer may be wrong.
        assert all(err.startswith("stale floor") for err in report.errors)


class TestChaosVerdict:
    def test_failed_report_renders_fail(self):
        report = SoakReport("chaos", 0, "default", errors=["query 3: boom"])
        assert not report.passed
        assert report.as_dict()["passed"] is False
        assert "FAIL" in report.render_text()

    def test_stale_floor_enforced(self, monkeypatch):
        honest = CBCS.query

        def every_tenth_stale(self, constraints, **kwargs):
            outcome = honest(self, constraints, **kwargs)
            every_tenth_stale.calls += 1
            if every_tenth_stale.calls % 10:
                return outcome
            return dataclasses.replace(outcome, stale=True, degraded="stale")

        every_tenth_stale.calls = 0
        monkeypatch.setattr(CBCS, "query", every_tenth_stale)
        report = chaos(40, "default", seed=0)
        assert report.counts["stale_serves"] == 4
        assert [e for e in report.errors if e.startswith("stale floor")]

    def test_incomplete_breaker_cycle_fails(self, monkeypatch):
        monkeypatch.setattr(FaultInjector, "force_outage", lambda self, calls: None)
        report = chaos(20, "none", seed=0)
        assert "open" not in report.facts["breaker_states_seen"]
        assert [e for e in report.errors if e.startswith("breaker cycle")]


class TestChaosCli:
    def test_chaos_flag_runs_soak_only(self, capsys):
        from repro.bench.__main__ import main

        code = main(["--chaos", "25", "--faults", "default"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos soak" in out
        assert "fig" not in out.split("chaos soak")[0]  # no figures ran
        assert "crash soak" not in out  # --crash-drill is its own flag

    def test_bad_profile_rejected(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--chaos", "10", "--faults", "bogus"]) == 2

    def test_nonpositive_chaos_rejected(self):
        from repro.bench.__main__ import main

        assert main(["--chaos", "0"]) == 2

    def test_figure_failure_exits_3_and_continues(self, capsys, monkeypatch):
        import repro.bench.__main__ as bench_main

        def boom():
            raise RuntimeError("mid-workload crash")

        experiments = dict(bench_main.ALL_EXPERIMENTS)
        experiments["figboom"] = boom
        monkeypatch.setattr(bench_main, "ALL_EXPERIMENTS", experiments)
        code = bench_main.main(["figboom", "fig11a"])
        out = capsys.readouterr().out
        assert code == 3
        assert "figboom FAILED" in out
        assert "mid-workload crash" in out
        assert "fig11a regenerated" in out  # later figures still ran
