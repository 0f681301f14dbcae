"""Tests for the open-loop overload soak (:func:`repro.bench.soak.overload`)
and its regression wiring."""

import json
import math
import time

import numpy as np
import pytest

from repro.bench import soak
from repro.bench.regress import (
    build_snapshot,
    compare_snapshots,
    summarize_registry,
)
from repro.bench.soak import PacedEngine, overload
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService
from repro.service import service as service_module
from repro.stats import QueryOutcome, StageTimings

TERMINAL = ("answered", "shed", "rejected_queue_full", "deadline_exceeded", "error_count")


@pytest.fixture(scope="module")
def smoke():
    """A tiny but real open-loop soak: every pass condition holds at
    miniature scale in well under a second."""
    return overload(40, seed=0, workers=2)


def _named(report, name):
    return [err for err in report.errors if err.startswith(name)]


def _skewed_stats(monkeypatch, **delta):
    """The service's counters, each shifted by ``delta``."""
    honest = QueryService.stats

    def stats(self):
        counts = honest(self)
        for key, by in delta.items():
            counts[key] += by
        return counts

    monkeypatch.setattr(QueryService, "stats", stats)


class TestServingReport:
    def test_closed_accounting_passes(self, smoke):
        c = smoke.counts
        assert c["submitted"] == sum(c[key] for key in TERMINAL)
        coalesced = c["coalesced_dedup"] + c["coalesced_subsumed"]
        assert smoke.facts["coalesce_rate"] == pytest.approx(coalesced / c["submitted"])
        shed = c["shed"] + c["rejected_queue_full"]
        assert smoke.facts["shed_rate"] == pytest.approx(shed / c["submitted"])
        assert smoke.passed, smoke.errors

    def test_a_leaked_request_fails(self, monkeypatch):
        _skewed_stats(monkeypatch, answered=-1)  # one request vanished
        report = overload(40, seed=0, workers=2)
        assert _named(report, "accounting closed")
        assert not report.passed

    def test_incorrect_answer_fails(self, lossy_table):
        report = overload(40, seed=0, workers=2)
        assert [e for e in report.errors if "answer differs from the reference" in e]

    def test_unhandled_exception_fails(self, monkeypatch):
        # the service counts an error no request raised
        _skewed_stats(monkeypatch, answered=-1, errors=1)
        report = overload(40, seed=0, workers=2)
        assert [e for e in _named(report, "accounting closed") if "raised" in e]

    def test_unbounded_p99_fails(self, monkeypatch):
        monkeypatch.setattr(soak, "P99_SLACK_MS", -1e9)
        report = overload(40, seed=0, workers=2)
        assert _named(report, "p99 bound")

    def test_p99_bound_is_vacuous_with_no_answers(self, monkeypatch):
        monkeypatch.setattr(soak, "P99_SLACK_MS", -1e9)
        monkeypatch.setattr(service_module, "shed_reason", lambda *args: "shed all")
        report = overload(40, seed=0, workers=2)
        assert report.counts["answered"] == 0 and report.counts["shed"] == 40
        assert math.isnan(report.facts["p99_ms"])
        assert not _named(report, "p99 bound")
        assert not _named(report, "accounting closed")

    def test_an_overload_that_sheds_nothing_fails(self, monkeypatch):
        # 40 requests are ten 4-slot queues: the run must shed or bounce
        # something, so hiding every rejection fails it
        monkeypatch.setattr(soak, "QUEUE_CAPACITY", 4)
        honest = QueryService.stats

        def stats(self):
            counts = honest(self)
            counts["answered"] += counts["shed"] + counts["rejected_queue_full"]
            counts["shed"] = counts["rejected_queue_full"] = 0
            return counts

        monkeypatch.setattr(QueryService, "stats", stats)
        report = overload(40, seed=0, workers=2)
        assert _named(report, "overloaded")
        assert not _named(report, "accounting closed")

    def test_the_shed_gate_needs_a_run_four_queues_long(self, smoke):
        # 40 requests from 20 regions cannot fill a 64-slot queue, so the
        # gate does not apply
        assert smoke.facts["universe"] == 20
        assert smoke.counts["submitted"] < 4 * soak.QUEUE_CAPACITY
        assert not _named(smoke, "overloaded")

    def test_fallbacks_and_breaker_transitions_are_reported(self, smoke):
        assert set(smoke.facts["rungs"]) <= {"stale", "unavailable"}
        assert isinstance(smoke.facts["breaker_transitions"], dict)

    def test_missing_coalescing_fails(self, monkeypatch):
        monkeypatch.setattr(soak, "MIN_COALESCED", 10**6)
        report = overload(40, seed=0, workers=2)
        assert _named(report, "coalescing")

    def test_as_dict_serializes_verdict_inputs(self, smoke):
        payload = json.loads(json.dumps(smoke.as_dict()))
        assert payload["passed"] is True
        assert payload["counts"]["submitted"] == 40
        assert payload["facts"]["p99_limit_ms"] > 0

    def test_render_text_mentions_the_verdict(self, smoke, monkeypatch):
        assert "PASS" in smoke.render_text()
        _skewed_stats(monkeypatch, answered=-1)
        leaked = overload(40, seed=0, workers=2).render_text()
        assert "error: accounting closed" in leaked and "FAIL" in leaked


class _InstantEngine:
    """Zero-cost engine so PacedEngine's floor is the only wall time."""

    def __init__(self, io_ms=0.0, processing_ms=0.0):
        self._outcome = QueryOutcome(
            skyline=np.empty((0, 2)),
            method="instant",
            timings=StageTimings(fetch_io_ms=io_ms, processing_ms=processing_ms),
        )
        self.closed = False

    def query(self, constraints, query_id=None, deadline=None):
        return self._outcome

    def close(self):
        self.closed = True


class TestPacedEngine:
    def test_floor_paces_a_free_answer(self, monkeypatch):
        monkeypatch.setattr(soak, "FLOOR_MS", 20.0)
        # a reported CPU time is not replayed: only simulated I/O is
        paced = PacedEngine(_InstantEngine(processing_ms=500.0))
        t0 = time.perf_counter()
        paced.query(None)
        assert 18.0 <= (time.perf_counter() - t0) * 1000.0 < 400.0

    def test_simulated_cost_becomes_wall_time(self):
        paced = PacedEngine(_InstantEngine(io_ms=40.0))
        t0 = time.perf_counter()
        outcome = paced.query(None)
        assert (time.perf_counter() - t0) * 1000.0 >= 35.0
        assert outcome.timings.fetch_io_ms == pytest.approx(40.0)

    def test_close_delegates(self):
        inner = _InstantEngine()
        PacedEngine(inner).close()
        assert inner.closed

    def test_validation(self):
        with pytest.raises(ValueError):
            overload(0)


class TestOverloadSoakSmoke:
    def test_soak_passes(self, smoke):
        assert smoke.passed, smoke.render_text()

    def test_accounting_closes_exactly(self, smoke):
        assert smoke.counts["submitted"] == 40
        assert not _named(smoke, "accounting closed")
        # the per-priority tallies close too
        by_priority = smoke.facts["by_priority"]
        assert sum(sum(tally.values()) for tally in by_priority.values()) == 40

    def test_admitted_answers_were_bit_checked(self, smoke):
        assert smoke.errors == []
        assert smoke.counts["answered"] > 0

    def test_latency_was_measured_and_bounded(self, smoke):
        facts = smoke.facts
        assert facts["p50_ms"] <= facts["p95_ms"] <= facts["p99_ms"]
        assert facts["p99_ms"] <= facts["p99_limit_ms"]

    def test_reference_checks_do_not_count_as_service_time(self, monkeypatch):
        """``achieved_rps`` is the service's rate: a slow answer check after
        the run must not lower it."""
        honest = soak._check

        def slow_check(*args):
            time.sleep(0.05)
            honest(*args)

        monkeypatch.setattr(soak, "_check", slow_check)
        slowed = overload(40, seed=0, workers=2)
        assert slowed.passed, slowed.errors
        # a clock that ran to the end of the checks could not exceed this rate
        checking_s = 0.05 * slowed.counts["answered"]
        assert slowed.facts["achieved_rps"] > 40 / checking_s

    def test_calibration_derived_the_schedule(self, smoke):
        facts = smoke.facts
        assert facts["mean_service_ms"] > 0
        assert facts["target_rps"] == pytest.approx(
            soak.RATE_MULTIPLIER * facts["saturation_rps"]
        )
        assert facts["achieved_rps"] > 0


class TestServingRegression:
    """The serving figure's gauges reach the bench snapshot, and the
    compare gates none of them."""

    def registry(self, p99=100.0):
        reg = MetricsRegistry()
        reg.set_gauge("serving_p50_ms", p99 / 4)
        reg.set_gauge("serving_p95_ms", p99 / 2)
        reg.set_gauge("serving_p99_ms", p99)
        reg.set_gauge("serving_shed_rate", 0.1)
        reg.set_gauge("serving_coalesce_rate", 0.4)
        reg.set_gauge("serving_deadline_exceeded", 1.0)
        reg.set_gauge("serving_submitted", 200.0)
        reg.set_gauge("serving_answered", 180.0)
        reg.set_gauge("serving_target_rps", 500.0)
        return reg

    def snapshot(self, p99=100.0, run_id="base"):
        figures = {
            "serving": {
                "title": "t",
                "seconds": 1.0,
                **summarize_registry(self.registry(p99=p99)),
            }
        }
        return build_snapshot(
            scale="quick", figures=figures, rev="deadbeef", run_id=run_id
        )

    def test_summarize_exports_a_serving_section(self):
        summary = summarize_registry(self.registry())
        assert summary["serving"]["p99_ms"] == pytest.approx(100.0)
        assert summary["serving"]["coalesce_rate"] == pytest.approx(0.4)

    def test_wall_clock_latency_gates_nothing(self):
        """A latency measured on another host is no baseline: the snapshot
        keeps the serving section, and the compare reads no finding from
        it however far the percentiles move."""
        base = self.snapshot(100.0)
        assert base["figures"]["serving"]["serving"]["p99_ms"] == 100.0
        for p99 in (140.0, 260.0, 1000.0):
            report = compare_snapshots(base, self.snapshot(p99))
            assert not report.has_regressions
            assert not any(f.method == "serving" for f in report.findings)
