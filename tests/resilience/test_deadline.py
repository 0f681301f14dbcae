"""Tests for per-request deadline budgets and their propagation through
retry backoff, the storage backend, and the engine's cache fallback."""

import numpy as np
import pytest

from repro.core.cbcs import RUNG_STALE, CBCS
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.resilience import (
    DEGRADABLE,
    RETRYABLE,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    RetryState,
    call_with_retry,
)
from repro.skyline.sfs import sfs_skyline
from repro.storage.faults import (
    FaultInjector,
    FaultProfile,
    FaultyDiskTable,
    TransientStorageError,
)
from repro.storage.table import DiskTable


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def reference(data, constraints):
    region = data[constraints.satisfied_mask(data)]
    return region[sfs_skyline(region)] if len(region) else region


def same_multiset(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if len(a) == 0:
        return True
    return np.array_equal(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5.0)

    def test_nan_budget_rejected(self):
        # a NaN budget never expired: no charge made it >= NaN
        with pytest.raises(ValueError):
            Deadline(float("nan"))
        with pytest.raises(ValueError):
            Deadline.normalize(float("nan"))

    def test_bool_is_not_a_budget(self):
        # True used to arm a 1 ms budget
        for value in (True, False):
            with pytest.raises(TypeError):
                Deadline(value)
            with pytest.raises(TypeError):
                Deadline.normalize(value)

    def test_service_rejects_a_nan_deadline(self):
        from repro.service import QueryService

        engine = CBCS(DiskTable(independent(50, 2, seed=0)), resilience=True)
        service = QueryService(engine, workers=1)
        try:
            with pytest.raises(ValueError):
                service.submit(
                    Constraints([0.1, 0.1], [0.8, 0.8]), deadline_ms=float("nan")
                )
            assert service.stats()["submitted"] == 0
        finally:
            service.close()

    def test_normalize(self):
        assert Deadline.normalize(None) is None
        d = Deadline(100.0)
        assert Deadline.normalize(d) is d
        fresh = Deadline.normalize(250)
        assert isinstance(fresh, Deadline)
        assert fresh.budget_ms == 250.0
        with pytest.raises(TypeError):
            Deadline.normalize("soon")

    def test_wall_clock_elapse(self):
        clock = FakeClock()
        d = Deadline(100.0, clock=clock)
        assert not d.expired
        clock.t = 0.05
        assert d.elapsed_ms == pytest.approx(50.0)
        assert d.remaining_ms == pytest.approx(50.0)
        clock.t = 0.11
        assert d.expired
        assert d.remaining_ms == 0.0

    def test_charged_simulated_time_counts(self):
        d = Deadline(100.0, clock=FakeClock())
        d.charge(40.0)
        d.charge(70.0)
        assert d.charged_ms == pytest.approx(110.0)
        assert d.expired  # simulated charges alone can expire the budget

    def test_check_raises_typed_with_detail(self):
        clock = FakeClock()
        d = Deadline(10.0, clock=clock)
        d.check("ingress")  # within budget: no-op
        clock.t = 1.0
        with pytest.raises(DeadlineExceeded) as excinfo:
            d.check("fetch")
        assert "fetch" in str(excinfo.value)
        assert "10.0" in str(excinfo.value)

    def test_not_retryable_not_degradable(self):
        """A deadline expiry must stop work, so the generic recovery
        machinery may never swallow it."""
        assert not issubclass(DeadlineExceeded, RETRYABLE)
        assert not issubclass(DeadlineExceeded, DEGRADABLE)


class TestDeadlineMidRetry:
    def flaky(self, fail_times):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise TransientStorageError("boom")
            return "ok"

        return fn, calls

    def test_backoff_charges_expire_the_deadline(self):
        """Each retry backoff charges simulated ms; once they exhaust the
        budget the loop stops with DeadlineExceeded instead of burning
        every remaining attempt."""
        fn, calls = self.flaky(10)
        deadline = Deadline(25.0, clock=FakeClock())
        state = RetryState(
            RetryPolicy(
                max_attempts=20, base_delay_ms=10.0, multiplier=2.0, jitter=0.0
            ),
            deadline=deadline,
        )
        with pytest.raises(DeadlineExceeded):
            call_with_retry(fn, state)
        assert deadline.expired
        # 10ms + 20ms of backoff exceed 25ms: aborted well before attempt 20.
        assert calls["n"] <= 3

    def test_untouched_budget_retries_to_success(self):
        fn, calls = self.flaky(2)
        state = RetryState(
            RetryPolicy(max_attempts=5, base_delay_ms=1.0, jitter=0.0),
            deadline=Deadline(1000.0, clock=FakeClock()),
        )
        assert call_with_retry(fn, state) == "ok"
        assert calls["n"] == 3

    def test_no_deadline_means_no_limit(self):
        fn, _ = self.flaky(3)
        state = RetryState(RetryPolicy(max_attempts=5, base_delay_ms=1.0))
        assert state.deadline is None
        assert call_with_retry(fn, state) == "ok"


class TestDeadlineThroughEngine:
    """Deadline x cache-fallback semantics: an expired budget yields a
    stale-*flagged* best-so-far answer when the cache has one, or a typed
    DeadlineExceeded -- never a partial answer without a flag, never a
    silent hang."""

    @pytest.fixture
    def data(self):
        return independent(400, 2, seed=1)

    def make_engine(self, data, profile=None, seed=0):
        if profile is None:
            return CBCS(DiskTable(data), resilience=True)
        injector = FaultInjector(profile, seed=seed)
        return CBCS(
            FaultyDiskTable(DiskTable(data), injector), resilience=True
        )

    def test_generous_deadline_is_invisible(self, data):
        engine = self.make_engine(data)
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        outcome = engine.query(c, deadline=1e9)
        assert outcome.degraded is None and not outcome.stale
        assert same_multiset(outcome.skyline, reference(data, c))

    def test_expired_deadline_with_cold_cache_raises_typed(self, data):
        engine = self.make_engine(data)
        dead = Deadline(1e-6, clock=FakeClock())
        dead.charge(1.0)  # already over budget at ingress
        with pytest.raises(DeadlineExceeded):
            engine.query(Constraints([0.1, 0.1], [0.8, 0.8]), deadline=dead)

    def test_exact_cache_hit_beats_an_expired_deadline(self, data):
        """Completed work is returned even past the deadline: an exact
        cache hit needs no storage, so the (better-than-stale) exact
        answer comes back unflagged."""
        engine = self.make_engine(data)
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        engine.query(c)
        dead = Deadline(1e-6, clock=FakeClock())
        dead.charge(1.0)
        outcome = engine.query(c, deadline=dead)
        assert outcome.degraded is None and not outcome.stale
        assert same_multiset(outcome.skyline, reference(data, c))

    def test_expired_deadline_serves_stale_flagged_from_cache(self, data):
        engine = self.make_engine(data)
        engine.query(Constraints([0.1, 0.1], [0.8, 0.8]))  # warm overlap
        # A wider region needs a storage fetch the expired budget forbids;
        # the query falls back to the overlapping cached item instead.
        wider = Constraints([0.05, 0.05], [0.9, 0.9])
        dead = Deadline(1e-6, clock=FakeClock())
        dead.charge(1.0)
        outcome = engine.query(wider, deadline=dead)
        assert outcome.degraded == RUNG_STALE
        assert outcome.stale
        # Best-so-far is the overlapping cached answer, clearly flagged --
        # a subset of the data, never fabricated points.
        region = data[wider.satisfied_mask(data)]
        for point in np.asarray(outcome.skyline):
            assert any(np.allclose(point, row) for row in region)

    def test_mid_query_expiry_under_faults_never_partial_unflagged(self, data):
        """Seeded-fault variant: a tight budget expires mid-retry.
        Whatever comes back is either exact, stale-flagged, or a typed
        DeadlineExceeded -- never an unflagged partial answer."""
        engine = self.make_engine(
            data,
            FaultProfile(transient_io=0.5, latency=0.3, latency_ms=40.0),
            seed=7,
        )
        outcomes = {"exact": 0, "stale": 0, "typed": 0}
        for i in range(12):
            c = Constraints([0.04 * i, 0.05], [0.04 * i + 0.5, 0.9])
            try:
                # The budget covers a clean first fetch but not much
                # retrying: some queries finish, some expire mid-pass.
                outcome = engine.query(c, deadline=30.0)
            except DeadlineExceeded:
                outcomes["typed"] += 1
                continue
            if outcome.stale:
                outcomes["stale"] += 1
            else:
                assert outcome.degraded is None
                assert same_multiset(outcome.skyline, reference(data, c))
                outcomes["exact"] += 1
        # The schedule is seeded, so the mix is reproducible: both the
        # success path and at least one deadline-hit path must occur.
        assert outcomes["exact"] > 0
        assert outcomes["typed"] + outcomes["stale"] > 0

    def test_deadline_metrics_exported(self, data):
        from repro.obs import MetricsRegistry, Observability, Tracer

        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        engine = CBCS(DiskTable(data), obs=obs, resilience=True)
        engine.query(Constraints([0.1, 0.1], [0.8, 0.8]))
        dead = Deadline(1e-6, clock=FakeClock())
        dead.charge(1.0)
        outcome = engine.query(
            Constraints([0.05, 0.05], [0.9, 0.9]), deadline=dead
        )
        assert outcome.stale
        assert (
            obs.metrics.counter_value(
                "query_deadline_exceeded_total", method=engine.name
            )
            >= 1
        )
