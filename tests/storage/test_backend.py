"""Tests for the storage protocol and the one guarded read,
:meth:`repro.resilience.Resilience.read`, that ``Executor.fetch`` issues
per box when resilience is on."""

import inspect

import numpy as np
import pytest

from repro.core.executor import Executor
from repro.data.generator import independent
from repro.geometry.box import BoxSet
from repro.obs import MetricsRegistry
from repro.resilience import CircuitBreaker, Resilience, RetryPolicy
from repro.resilience.errors import CircuitOpenError, RetriesExhausted
from repro.storage.backend import StorageBackend
from repro.storage.faults import FaultInjector, FaultProfile, FaultyDiskTable
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable, concat_results


@pytest.fixture
def data():
    return independent(300, 2, seed=3)


@pytest.fixture
def table(data):
    return DiskTable(data)


#: one closed box as the ``(lo, hi)`` a range query takes
BOX = (np.array([0.1, 0.1]), np.array([0.8, 0.8]))
HALVES = BoxSet(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[0.5, 1.0], [1.0, 1.0]]))


class TestProtocol:
    def test_every_layer_satisfies_the_protocol(self, table):
        injector = FaultInjector(FaultProfile(), seed=0)
        for layer in (table, FaultyDiskTable(table, injector)):
            assert isinstance(layer, StorageBackend)

    def test_both_base_tables_satisfy_the_protocol(self, data):
        """The protocol names what ``CBCS`` reads from its table -- ``stats``
        on every query, ``obs`` / ``bind_obs``, ``cost_model`` -- not only
        what the executor calls."""
        assert isinstance(DiskTable(data), StorageBackend)
        assert isinstance(ShardedTable(data, 3), StorageBackend)
        for member in ("stats", "cost_model", "obs", "bind_obs"):
            assert member in dir(StorageBackend)

        class ReadsOnly:
            ndim = 2
            range_query = estimate_count = None

        assert not isinstance(ReadsOnly(), StorageBackend)

    def test_decorators_delegate_attributes(self, table):
        """``FaultyDiskTable`` forwards what it does not override to the
        table it wraps."""
        faulty = FaultyDiskTable(table, FaultInjector("none", seed=0))
        assert faulty.ndim == table.ndim
        assert faulty.stats is table.stats
        assert faulty.estimate_count(0, 0.0, 1.0) == table.estimate_count(
            0, 0.0, 1.0
        )

    def test_range_query_takes_only_a_box(self):
        """One closed box, as its two corners, and nothing else."""
        for cls in (StorageBackend, DiskTable, ShardedTable, FaultyDiskTable):
            params = list(inspect.signature(cls.range_query).parameters)
            assert params == ["self", "lo", "hi"], cls


def _bare(table):
    return table, None


def _fault_wrapped(table):
    return FaultyDiskTable(table, FaultInjector("none", seed=0)), None


def _resilient(table):
    return _fault_wrapped(table)[0], Resilience()


def _instrumented(table):
    return _fault_wrapped(table)[0], Resilience().bind_metrics(MetricsRegistry())


class TestOneGatherer:
    """``Executor.fetch`` returns the per-box results and ``concat_results``
    is the one place they are merged: on every read path the merged record
    carries all four per-box actuals."""

    def test_no_boxes_gather_to_an_empty_result(self, table):
        # built from ``table.ndim``, not from a private table method
        faulty, resilience = _resilient(table)
        parts = Executor().fetch(faulty, BoxSet.empty(2), resilience)
        merged = concat_results(parts, faulty.ndim)
        assert merged.points.shape == (0, 2) and merged.rowids.dtype == np.int64
        assert (merged.rows_fetched, merged.io_ms, merged.seeks) == (0, 0.0, 0)

    @pytest.mark.parametrize(
        "stack", [_bare, _fault_wrapped, _resilient, _instrumented]
    )
    def test_merged_result_sums_every_counter(self, table, stack):
        before = table.stats.snapshot()
        read_from, resilience = stack(table)
        parts = Executor().fetch(read_from, HALVES, resilience)
        delta = table.stats.delta_since(before)
        merged = concat_results(parts, 2)
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


class TestResilientRangeQuery:
    def test_clean_call_matches_raw_table(self, data, table):
        res = Resilience()
        raw = DiskTable(data).range_query(*BOX)
        result = res.read(table, *BOX, res.new_state())
        assert np.array_equal(result.points, raw.points)
        assert np.array_equal(result.rowids, raw.rowids)

    def test_transient_fault_retried_to_success(self, data):
        injector = FaultInjector(FaultProfile(transient_io=0.3), seed=7)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(policy=RetryPolicy(max_attempts=6))
        state = res.new_state()
        # Enough calls that some hit faults; all must come back clean.
        for _ in range(12):
            result = res.read(faulty, *BOX, state)
            assert np.isfinite(result.points).all()
        assert state.retries > 0

    def test_truncation_detected_and_retried(self, data):
        injector = FaultInjector(FaultProfile(truncate=0.5), seed=11)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience()
        clean = DiskTable(data).range_query(*BOX)
        for _ in range(8):
            result = res.read(faulty, *BOX, res.new_state())
            # validation forces a refetch: points and rowids always agree
            assert len(result.points) == len(result.rowids)
            assert len(result.points) == len(clean.points)

    def test_internal_state_used_when_none_passed(self, data):
        """A guarded fetch without a caller's retry state gets its own."""
        injector = FaultInjector(FaultProfile(transient_io=0.4), seed=5)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience()
        for _ in range(10):
            (result,) = Executor().fetch(
                faulty, BoxSet(BOX[0][None], BOX[1][None]), res
            )
            assert np.isfinite(result.points).all()

    def test_exhausted_retries_raise(self, data):
        injector = FaultInjector(FaultProfile(transient_io=1.0), seed=1)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(policy=RetryPolicy(max_attempts=2))
        with pytest.raises(RetriesExhausted):
            res.read(faulty, *BOX, res.new_state())

    def test_retries_report_to_the_bound_registry(self, data):
        injector = FaultInjector(FaultProfile(transient_io=0.5), seed=7)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        metrics = MetricsRegistry()
        res = Resilience(policy=RetryPolicy(max_attempts=8)).bind_metrics(metrics)
        state = res.new_state()
        for _ in range(6):
            res.read(faulty, *BOX, state)
        assert state.retries > 0
        assert metrics.counter_value("storage_retries_total", op="fetch") == (
            state.retries
        )


class TestBreakerIntegration:
    def make_stack(self, data, threshold=2):
        injector = FaultInjector(FaultProfile(), seed=0)
        faulty = FaultyDiskTable(DiskTable(data), injector)
        res = Resilience(
            policy=RetryPolicy(max_attempts=1),
            breaker=CircuitBreaker(failure_threshold=threshold, cooldown_calls=50),
        )
        return faulty, res, injector

    def test_failures_open_the_breaker(self, data):
        faulty, res, injector = self.make_stack(data)
        injector.force_outage(10)
        for _ in range(2):
            with pytest.raises(RetriesExhausted):
                res.read(faulty, *BOX, res.new_state())
        assert res.breaker.state == "open"

    def test_open_breaker_rejects_before_storage(self, data):
        faulty, res, injector = self.make_stack(data)
        injector.force_outage(10)
        for _ in range(2):
            with pytest.raises(RetriesExhausted):
                res.read(faulty, *BOX, res.new_state())
        calls_before = injector.calls
        with pytest.raises(CircuitOpenError):
            res.read(faulty, *BOX, res.new_state())
        assert injector.calls == calls_before  # rejected before any I/O

    def test_executor_fetch_is_per_box_protected(self, data):
        faulty, res, injector = self.make_stack(data, threshold=5)
        parts = Executor().fetch(faulty, HALVES, res, res.new_state())
        result = concat_results(parts, 2)
        raw = concat_results(Executor().fetch(DiskTable(data), HALVES), 2)
        assert injector.calls == len(HALVES)  # one guarded operation per box
        assert np.array_equal(
            np.sort(result.rowids), np.sort(raw.rowids)
        )
        assert result.rows_fetched == raw.rows_fetched
