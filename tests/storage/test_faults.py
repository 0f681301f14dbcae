"""Tests for deterministic fault injection (profiles, injector, wrapper)."""

import numpy as np
import pytest

from repro.core.executor import Executor
from repro.data.generator import independent
from repro.geometry.box import BoxSet
from repro.storage.faults import (
    PROFILES,
    FaultInjector,
    FaultProfile,
    FaultyDiskTable,
    TransientStorageError,
    get_profile,
)
from repro.storage.table import DiskTable, concat_results


def full_box(ndim):
    """The closed unit box as the ``(lo, hi)`` a range query takes."""
    return np.zeros(ndim), np.ones(ndim)


class TestFaultProfile:
    def test_named_profiles_resolve(self):
        assert get_profile("default") is PROFILES["default"]
        assert get_profile(PROFILES["heavy"]) is PROFILES["heavy"]
        with pytest.raises(ValueError, match="unknown fault profile"):
            get_profile("nope")

    def test_default_profile_is_five_percent(self):
        assert PROFILES["default"].total_rate == pytest.approx(0.05)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultProfile(transient_io=1.5)
        with pytest.raises(ValueError):
            FaultProfile(transient_io=0.6, latency=0.6)

    def test_scaled(self):
        doubled = PROFILES["default"].scaled(2.0)
        assert doubled.total_rate == pytest.approx(0.10)
        assert doubled.latency_ms == PROFILES["default"].latency_ms


class TestDeterministicReplay:
    def drive(self, seed, calls=500):
        injector = FaultInjector(profile="heavy", seed=seed)
        for _ in range(calls):
            injector.draw("range_query")
        return injector.trace

    def test_same_seed_identical_trace(self):
        assert self.drive(seed=42) == self.drive(seed=42)

    def test_different_seed_different_trace(self):
        assert self.drive(seed=1) != self.drive(seed=2)

    def test_trace_records_op_and_ordering(self):
        injector = FaultInjector(profile="heavy", seed=0)
        for op in ("range_query", "full_scan") * 200:
            injector.draw(op)
        indices = [e.index for e in injector.trace]
        assert indices == sorted(indices)
        assert {e.op for e in injector.trace} <= {"range_query", "full_scan"}

    def test_fault_counts_match_trace(self):
        injector = FaultInjector(profile="heavy", seed=3)
        for _ in range(400):
            injector.draw("range_query")
        counts = injector.fault_counts()
        assert sum(counts.values()) == len(injector.trace)
        assert sum(counts.values()) > 0  # 20% rate over 400 draws

    def test_outage_does_not_consume_prng_state(self):
        baseline = self.drive(seed=7, calls=100)
        injector = FaultInjector(profile="heavy", seed=7)
        injector.force_outage(10)
        for _ in range(10):
            assert injector.draw("range_query") == "transient_io"
        assert not injector.in_outage
        for _ in range(100):
            injector.draw("range_query")
        post_outage = [e for e in injector.trace if e.index > 10]
        assert [(e.op, e.kind) for e in post_outage] == [
            (e.op, e.kind) for e in baseline
        ]


class TestFaultyDiskTable:
    def setup_method(self):
        self.data = independent(300, 2, seed=0)
        self.table = DiskTable(self.data)

    def faulty(self, profile, seed=0):
        return FaultyDiskTable(self.table, FaultInjector(profile, seed=seed))

    def test_none_profile_is_transparent(self):
        clean = self.table.range_query(*full_box(2))
        wrapped = self.faulty("none").range_query(*full_box(2))
        np.testing.assert_array_equal(clean.points, wrapped.points)
        np.testing.assert_array_equal(clean.rowids, wrapped.rowids)

    def test_delegates_metadata(self):
        wrapped = self.faulty("none")
        assert wrapped.ndim == self.table.ndim
        assert wrapped.n == self.table.n
        assert wrapped.stats is self.table.stats

    def test_transient_raises_ioerror(self):
        wrapped = self.faulty(FaultProfile(transient_io=1.0))
        with pytest.raises(TransientStorageError):
            wrapped.range_query(*full_box(2))
        assert isinstance(TransientStorageError("x"), IOError)

    def test_latency_charges_simulated_io(self):
        before = self.table.stats.simulated_io_ms
        self.table.range_query(*full_box(2))
        clean_cost = self.table.stats.simulated_io_ms - before

        profile = FaultProfile(latency=1.0, latency_ms=33.0)
        wrapped = self.faulty(profile)
        before = self.table.stats.simulated_io_ms
        wrapped.range_query(*full_box(2))
        spiked_cost = self.table.stats.simulated_io_ms - before
        assert spiked_cost == pytest.approx(clean_cost + 33.0)

    def test_truncation_leaves_detectable_mismatch(self):
        wrapped = self.faulty(FaultProfile(truncate=1.0))
        result = wrapped.range_query(*full_box(2))
        assert len(result.points) < len(result.rowids)

    def test_truncation_survives_executor_merge(self):
        wrapped = self.faulty(FaultProfile(truncate=1.0))
        halves = BoxSet(
            np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[0.5, 1.0], [1.0, 1.0]])
        )
        result = concat_results(Executor().fetch(wrapped, halves), 2)
        assert len(result.points) != len(result.rowids)

    def test_corruption_injects_nan(self):
        wrapped = self.faulty(FaultProfile(corrupt=1.0))
        result = wrapped.range_query(*full_box(2))
        assert np.isnan(result.points).any()
        # The underlying table is untouched (corruption on the read path).
        assert np.isfinite(self.table.range_query(*full_box(2)).points).all()

    def test_faults_counted_in_metrics(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        injector = FaultInjector(FaultProfile(transient_io=1.0), metrics=metrics)
        wrapped = FaultyDiskTable(self.table, injector)
        with pytest.raises(TransientStorageError):
            wrapped.range_query(*full_box(2))
        assert (
            metrics.counter_value(
                "faults_injected_total", kind="transient_io", op="range_query"
            )
            == 1
        )
