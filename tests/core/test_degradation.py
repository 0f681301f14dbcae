"""Tests for resilient CBCS: retries, the cache fallback of a failed pass,
and the never-raise / never-silently-wrong contract under storage faults."""

import pytest

from repro.core.ampr import ExactMPR
from repro.core.cbcs import CBCS
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.explain import ExplainRecorder
from repro.resilience import CircuitBreaker, DeadlineExceeded, Resilience, RetryPolicy
from repro.resilience.deadline import Deadline
from repro.skyline.reference import constrained_reference as reference
from repro.skyline.reference import same_multiset
from repro.storage.faults import (
    FaultInjector,
    FaultProfile,
    FaultyDiskTable,
)
from repro.storage.table import DiskTable


@pytest.fixture
def data():
    return independent(400, 2, seed=1)


def make_engine(data, profile, seed=0, resilience=True, **cbcs_kwargs):
    injector = FaultInjector(profile, seed=seed)
    table = FaultyDiskTable(DiskTable(data), injector)
    return CBCS(table, resilience=resilience, **cbcs_kwargs), injector


class TestRetriesOnTransientFaults:
    def test_transient_faults_retried_to_exact_answer(self, data):
        engine, _ = make_engine(data, FaultProfile(transient_io=0.4), seed=5)
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        outcome = engine.query(c)
        assert outcome.degraded is None
        assert same_multiset(outcome.skyline, reference(data, c))
        # At 40% fault rate the first queries are bound to retry.
        total = sum(engine.query(
            Constraints([0.05 * i, 0.05], [0.05 * i + 0.4, 0.6])
        ).retries for i in range(8))
        assert total > 0

    def test_corruption_and_truncation_never_silently_wrong(self, data):
        engine, _ = make_engine(
            data, FaultProfile(truncate=0.25, corrupt=0.25), seed=3
        )
        for i in range(12):
            c = Constraints([0.04 * i, 0.1], [0.04 * i + 0.5, 0.9])
            outcome = engine.query(c)
            if outcome.degraded is None:
                assert same_multiset(outcome.skyline, reference(data, c))
            else:
                assert outcome.stale

    def test_resilience_off_raises(self, data):
        engine, _ = make_engine(
            data, FaultProfile(transient_io=1.0), resilience=None
        )
        with pytest.raises(IOError):
            engine.query(Constraints([0.1, 0.1], [0.8, 0.8]))


#: One failed fetch + one retry exhausts the pass; the 10 ms backoff is
#: charged to the request deadline (no jitter, so the walk is exact).
TWO_TRIES = RetryPolicy(max_attempts=2, base_delay_ms=10.0, jitter=0.0)

WIDE = Constraints([0.0, 0.0], [0.9, 0.9])
NARROW = Constraints([0.05, 0.05], [0.6, 0.6])


class TestDegradationLadder:
    """One walk -- the configured pass, then the cache -- fed every way a
    query can end."""

    def walk(
        self,
        data,
        rung,
        region=None,
        warm=True,
        outage=10_000,
        budget_ms=None,
        retries=1,
    ):
        """Run NARROW with storage failing ``outage`` times and check what
        served it (``rung``): flags, the answer, the pass's retries, and
        exactly one explain record describing the configured pass."""
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        recorder = obs.explainer = ExplainRecorder(keep=4)
        injector = FaultInjector("none", seed=0)
        engine = CBCS(
            FaultyDiskTable(DiskTable(data), injector),
            region_computer=region,
            resilience=Resilience(policy=TWO_TRIES),
            obs=obs,
        )
        if warm:
            warmed = engine.query(WIDE)
        injector.force_outage(outage)
        deadline = None
        if budget_ms is not None:
            # a frozen clock: only simulated charges move this deadline
            deadline = Deadline(budget_ms, clock=lambda: 0.0)
        before = recorder.records_emitted

        if rung is DeadlineExceeded:
            with pytest.raises(DeadlineExceeded):
                engine.query(NARROW, deadline=deadline)
            assert recorder.records_emitted == before  # no outcome, no record
            return
        outcome = engine.query(NARROW, deadline=deadline)

        assert outcome.degraded == rung
        assert outcome.retries == retries
        assert outcome.stale == (rung in ("stale", "unavailable"))
        if not outcome.stale:
            assert same_multiset(outcome.skyline, reference(data, NARROW))
        elif rung == "stale":
            # Served points are the cached skyline filtered to the region.
            assert NARROW.satisfied_mask(outcome.skyline).all()
            served = {tuple(p) for p in outcome.skyline}
            assert served <= {tuple(p) for p in warmed.skyline}
        else:
            assert outcome.skyline.shape == (0, 2)
        expired = obs.metrics.counter_value(
            "query_deadline_exceeded_total", method=engine.name
        )
        assert expired == (1 if budget_ms is not None else 0)

        assert recorder.records_emitted == before + 1
        record = recorder.records[-1]
        assert record["query_id"] == outcome.query_id
        assert record["degraded"] == rung
        assert "attempts" not in record
        # the record describes the configured pass, whichever way it ended
        assert record["plan"]["item_id"] == (1 if warm else None)
        assert record["no_candidates_reason"] == (None if warm else "empty-cache")
        executed = rung is None
        assert (record["actual"] is not None) == executed
        assert all((b["actual"] is not None) == executed for b in record["boxes"])

    def test_total_outage_empty_cache_serves_unavailable(self, data):
        self.walk(data, "unavailable", warm=False)

    def test_outage_with_cache_serves_stale_subset(self, data):
        self.walk(data, "stale")

    def test_exact_mpr_engine_serves_stale_once_its_pass_fails(self, data):
        # Both tries of the exact plan fail; no aMPR re-plan follows: the
        # query goes straight to the cache.
        self.walk(data, "stale", region=ExactMPR(), outage=2)

    def test_ampr_engine_serves_stale_once_its_pass_fails(self, data):
        # Both tries of the aMPR plan fail; no cache-bypassing bounding
        # fetch follows: the query goes straight to the cache.
        self.walk(data, "stale", outage=2)

    @pytest.mark.parametrize(
        "rung, kwargs",
        [
            # the configured plan just works
            (None, dict(outage=0, retries=0)),
            # the first backoff spends the deadline *inside* the pass:
            # the retry fails and the query is served stale
            ("stale", dict(region=ExactMPR(), budget_ms=5.0)),
            # ... and with a cold cache, to the typed outcome
            (DeadlineExceeded, dict(region=ExactMPR(), budget_ms=5.0, warm=False)),
        ],
    )
    def test_every_other_way_down_the_ladder(self, data, rung, kwargs):
        self.walk(data, rung, **kwargs)

    @staticmethod
    def stepping_deadline(budget_ms):
        """A deadline whose clock moves 1 ms each time it is read."""
        ticks = iter(range(1_000_000))
        return Deadline(budget_ms, clock=lambda: next(ticks) / 1000.0)

    def test_a_deadline_expiring_between_rungs_reports_the_pass_that_ran(
        self, data
    ):
        """The pass spends its retries with the deadline still open; the
        deadline has expired by the time the pass gives up, and the query
        is served stale.  The record describes the pass -- its item, no
        actuals."""
        obs = Observability()
        recorder = obs.explainer = ExplainRecorder(keep=4)
        injector = FaultInjector("none", seed=0)
        engine = CBCS(
            FaultyDiskTable(DiskTable(data), injector),
            resilience=Resilience(policy=RetryPolicy(max_attempts=2, jitter=0.0)),
            obs=obs,
        )
        engine.query(WIDE)
        injector.force_outage(10_000)
        outcome = engine.query(NARROW, deadline=self.stepping_deadline(5.0))
        assert outcome.degraded == "stale" and outcome.stale
        assert outcome.retries == 1
        assert obs.metrics.counter_value(
            "query_deadline_exceeded_total", method=engine.name
        ) == 1
        record = recorder.records[-1]
        assert record["plan"]["item_id"] == 1
        assert record["no_candidates_reason"] is None
        assert record["actual"] is None
        assert all(box["actual"] is None for box in record["boxes"])

    def test_a_pass_whose_planning_raised_records_the_outcome_head(self, data):
        """Verification healing writes to a durable cache's log, so planning
        itself can raise: that pass leaves no plan, the query is served
        stale, and the record is the outcome head alone."""
        obs = Observability()
        recorder = obs.explainer = ExplainRecorder(keep=4)
        engine = CBCS(DiskTable(data), resilience=True, obs=obs)
        engine.query(WIDE)
        heal = engine.cache.verify_and_heal
        failures = [OSError("cache log write failed")]

        def failing_once(item):
            if failures:
                raise failures.pop()
            return heal(item)

        engine.cache.verify_and_heal = failing_once
        outcome = engine.query(NARROW, deadline=self.stepping_deadline(1.0))
        assert not failures
        assert outcome.degraded == "stale" and outcome.stale
        record = recorder.records[-1]
        assert record["query_id"] == outcome.query_id
        assert record["degraded"] == "stale"
        assert "plan" not in record and "boxes" not in record

    def test_breaker_open_skips_storage_and_degrades(self, data):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_calls=1000)
        engine, injector = make_engine(
            data, "none", resilience=Resilience(breaker=breaker)
        )
        injector.force_outage(10_000)
        engine.query(Constraints([0.1, 0.1], [0.8, 0.8]))
        assert breaker.state == "open"
        calls_before = injector.calls
        outcome = engine.query(Constraints([0.2, 0.2], [0.7, 0.7]))
        assert outcome.degraded is not None
        assert injector.calls == calls_before  # rejected before storage

    def test_a_query_is_one_breaker_call(self, data):
        """A query whose pass fails records one breaker failure, and one
        query while the breaker is open is exactly one rejected call --
        there is no second pass to charge the breaker again."""
        breaker = CircuitBreaker(failure_threshold=3, cooldown_calls=1000)
        engine, injector = make_engine(
            data, "none", resilience=Resilience(breaker=breaker)
        )
        injector.force_outage(10_000)
        for i in range(3):
            assert breaker.state == "closed"
            before = breaker.calls
            engine.query(Constraints([0.1 + 0.01 * i, 0.1], [0.8, 0.8]))
            assert breaker.calls == before + 1
        assert breaker.state == "open"
        before = breaker.calls
        outcome = engine.query(Constraints([0.2, 0.2], [0.7, 0.7]))
        assert outcome.degraded == "unavailable"
        assert breaker.calls == before + 1


class TestOutcomeAccounting:
    def test_degraded_and_stale_metrics_recorded(self, data):
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        injector = FaultInjector("none", seed=0)
        table = FaultyDiskTable(DiskTable(data), injector)
        engine = CBCS(table, obs=obs, resilience=True)
        injector.force_outage(10_000)
        engine.query(Constraints([0.1, 0.1], [0.8, 0.8]))
        m = obs.metrics
        assert (
            m.counter_value(
                "degraded_queries_total", method=engine.name, rung="unavailable"
            )
            == 1
        )
        assert m.counter_value("stale_serves_total", method=engine.name) == 1
        assert m.counter_value("degradation_entered_total", method=engine.name) == 1

    def test_outcome_records_carry_new_fields(self, data):
        engine, _ = make_engine(data, "none")
        record = engine.query(Constraints([0.1, 0.1], [0.8, 0.8])).as_record()
        assert record["degraded"] is None
        assert record["stale"] is False
        assert record["retries"] == 0
