"""Tests for the storage-backend protocol and its stacking decorators."""

import numpy as np
import pytest

from repro.core.executor import Executor
from repro.data.generator import independent
from repro.geometry.box import Box
from repro.geometry.constraints import Constraints
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.resilience import CircuitBreaker, Resilience, RetryPolicy
from repro.resilience.errors import CircuitOpenError, RetriesExhausted
from repro.storage.backend import (
    InstrumentedBackend,
    ResilientBackend,
    StorageBackend,
    build_backend,
    unwrap,
)
from repro.storage.faults import FaultInjector, FaultProfile, FaultyDiskTable
from repro.storage.table import DiskTable


@pytest.fixture
def data():
    return independent(300, 2, seed=3)


@pytest.fixture
def table(data):
    return DiskTable(data)


BOX = Constraints([0.1, 0.1], [0.8, 0.8]).region()
HALVES = [
    Constraints([0.0, 0.0], [0.5, 1.0]).region(),
    Constraints([0.5, 0.0], [1.0, 1.0]).region(),
]


class TestProtocol:
    def test_every_layer_satisfies_the_protocol(self, table):
        injector = FaultInjector(FaultProfile(), seed=0)
        faulty = FaultyDiskTable(table, injector)
        resilient = ResilientBackend(faulty, Resilience())
        instrumented = InstrumentedBackend(resilient)
        for layer in (table, faulty, resilient, instrumented):
            assert isinstance(layer, StorageBackend)

    def test_both_base_tables_satisfy_the_protocol(self, data):
        """The protocol names what ``CBCS`` reads from its table -- ``stats``
        on every query, ``obs`` / ``bind_obs``, ``cost_model`` -- not only
        what the executor calls."""
        from repro.storage.sharding import ShardedTable

        assert isinstance(DiskTable(data), StorageBackend)
        assert isinstance(ShardedTable(data, 3), StorageBackend)
        for member in ("stats", "cost_model", "obs", "bind_obs"):
            assert member in dir(StorageBackend)

        class ReadsOnly:
            ndim = 2
            range_query = estimate_count = None

        assert not isinstance(ReadsOnly(), StorageBackend)

    def test_decorators_delegate_attributes(self, table):
        stack = InstrumentedBackend(ResilientBackend(table, Resilience()))
        assert stack.ndim == table.ndim
        assert stack.stats is table.stats
        assert stack.estimate_count(0, 0.0, 1.0) == table.estimate_count(
            0, 0.0, 1.0
        )

    def test_unwrap_reaches_the_base_table(self, table):
        stack = InstrumentedBackend(ResilientBackend(table, Resilience()))
        assert unwrap(stack) is table


def _bare(table):
    return table


def _fault_wrapped(table):
    return FaultyDiskTable(table, FaultInjector("none", seed=0))


def _resilient(table):
    return build_backend(_fault_wrapped(table), resilience=Resilience())


def _instrumented(table):
    obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
    return build_backend(_fault_wrapped(table), resilience=Resilience(), obs=obs)


class TestOneGatherer:
    """``Executor.fetch`` is the only place per-box results are merged: on
    every stack the merged record carries all four per-box actuals."""

    def test_no_boxes_gather_to_an_empty_result(self, table):
        # built from ``backend.ndim``, not from a private table method
        backend = build_backend(_fault_wrapped(table), resilience=Resilience())
        merged = Executor().fetch(backend, []).result
        assert merged.points.shape == (0, 2) and merged.rowids.dtype == np.int64
        assert (merged.rows_fetched, merged.io_ms, merged.seeks) == (0, 0.0, 0)

    @pytest.mark.parametrize(
        "stack", [_bare, _fault_wrapped, _resilient, _instrumented]
    )
    def test_merged_result_sums_every_counter(self, table, stack):
        before = table.stats.snapshot()
        outcome = Executor().fetch(stack(table), HALVES)
        delta = table.stats.delta_since(before)
        merged, parts = outcome.result, outcome.parts
        assert len(parts) == len(HALVES) == delta.range_queries
        assert merged.rows_fetched == sum(p.rows_fetched for p in parts)
        assert merged.rows_fetched == delta.points_read > 0
        assert merged.io_ms == pytest.approx(sum(p.io_ms for p in parts))
        assert merged.io_ms == pytest.approx(delta.simulated_io_ms)
        assert merged.pages_read == sum(p.pages_read for p in parts)
        assert merged.pages_read == delta.pages_read > 0
        assert merged.seeks == sum(p.seeks for p in parts)
        assert merged.seeks == delta.seeks > 0
        assert np.array_equal(
            merged.rowids, np.concatenate([p.rowids for p in parts])
        )


class TestBuildBackend:
    def test_bare_table_passes_through(self, table):
        assert build_backend(table) is table

    def test_resilience_wraps_once(self, table):
        backend = build_backend(table, resilience=Resilience())
        assert isinstance(backend, ResilientBackend)
        assert backend.inner is table

    def test_obs_stacks_outermost(self, table):
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        backend = build_backend(table, resilience=Resilience(), obs=obs)
        assert isinstance(backend, InstrumentedBackend)
        assert isinstance(backend.inner, ResilientBackend)
        assert backend.inner.inner is table

    def test_disabled_obs_adds_no_layer(self, table):
        from repro.obs import NULL_OBS

        backend = build_backend(table, resilience=None, obs=NULL_OBS)
        assert backend is table


class TestResilientRangeQuery:
    def test_clean_call_matches_raw_table(self, data, table):
        backend = ResilientBackend(table, Resilience())
        raw = DiskTable(data).range_query(BOX)
        result = backend.range_query(BOX)
        assert np.array_equal(result.points, raw.points)
        assert np.array_equal(result.rowids, raw.rowids)

    def test_transient_fault_retried_to_success(self, data):
        injector = FaultInjector(FaultProfile(transient_io=0.3), seed=7)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(policy=RetryPolicy(max_attempts=6))
        backend = ResilientBackend(faulty, res)
        state = res.new_state()
        # Enough calls that some hit faults; all must come back clean.
        for _ in range(12):
            result = backend.range_query(BOX, retry_state=state)
            assert np.isfinite(result.points).all()
        assert state.retries > 0

    def test_truncation_detected_and_retried(self, data):
        injector = FaultInjector(FaultProfile(truncate=0.5), seed=11)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience()
        backend = ResilientBackend(faulty, res)
        clean = DiskTable(data).range_query(BOX)
        for _ in range(8):
            result = backend.range_query(BOX, retry_state=res.new_state())
            # validation forces a refetch: points and rowids always agree
            assert len(result.points) == len(result.rowids)
            assert len(result.points) == len(clean.points)

    def test_internal_state_used_when_none_passed(self, data):
        injector = FaultInjector(FaultProfile(transient_io=0.4), seed=5)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        backend = ResilientBackend(faulty, Resilience())
        for _ in range(10):
            result = backend.range_query(BOX)
            assert np.isfinite(result.points).all()

    def test_exhausted_retries_raise(self, data):
        injector = FaultInjector(FaultProfile(transient_io=1.0), seed=1)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(policy=RetryPolicy(max_attempts=2))
        backend = ResilientBackend(faulty, res)
        with pytest.raises(RetriesExhausted):
            backend.range_query(BOX, retry_state=res.new_state())


class TestBreakerIntegration:
    def make_stack(self, data, threshold=2):
        injector = FaultInjector(FaultProfile(), seed=0)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(
            policy=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=threshold, cooldown_calls=50),
        )
        return ResilientBackend(faulty, res), injector, res.breaker

    def test_failures_open_the_breaker(self, data):
        backend, injector, breaker = self.make_stack(data)
        injector.force_outage(10)
        for _ in range(2):
            with pytest.raises(RetriesExhausted):
                backend.range_query(BOX)
        assert breaker.state == "open"

    def test_open_breaker_rejects_before_storage(self, data):
        backend, injector, breaker = self.make_stack(data)
        injector.force_outage(10)
        for _ in range(2):
            with pytest.raises(RetriesExhausted):
                backend.range_query(BOX)
        calls_before = injector.calls
        with pytest.raises(CircuitOpenError):
            backend.range_query(BOX)
        assert injector.calls == calls_before  # rejected before any I/O

    def test_executor_fetch_is_per_box_protected(self, data):
        backend, injector, breaker = self.make_stack(data, threshold=5)
        result = Executor().fetch(backend, HALVES).result
        raw = Executor().fetch(DiskTable(data), HALVES).result
        assert injector.calls == len(HALVES)  # one guarded operation per box
        assert np.array_equal(
            np.sort(result.rowids), np.sort(raw.rowids)
        )
        assert result.rows_fetched == raw.rows_fetched


class TestInstrumentedBackend:
    def test_counts_outcomes(self, data):
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        backend = InstrumentedBackend(DiskTable(data), obs)
        backend.range_query(BOX)
        assert (
            obs.metrics.counter_value(
                "backend_range_queries_total", outcome="ok"
            )
            == 1.0
        )

    def test_error_outcome_labeled(self, data):
        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        injector = FaultInjector(FaultProfile(transient_io=1.0), seed=2)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        backend = InstrumentedBackend(faulty, obs)
        with pytest.raises(IOError):
            backend.range_query(BOX)
        assert (
            obs.metrics.counter_value(
                "backend_range_queries_total", outcome="TransientStorageError"
            )
            == 1.0
        )
