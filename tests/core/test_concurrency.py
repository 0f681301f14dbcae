"""Concurrent-executor tests: parallel fetches must change only latency.

The acceptance contract of the planner/executor split: with ``workers=4``
the engine returns bit-identical skylines and identical ``points_read`` /
``range_queries`` counters to the serial engine on the quick experiment
set, and under a latency-spike fault profile the effective fetch latency
(``fetch_io_ms``) is measurably lower than serial while the aggregate disk
work (``io_ms_total``) stays the same.
"""

import numpy as np
import pytest

from repro.core.ampr import ExactMPR
from repro.core.cbcs import CBCS
from repro.core.executor import Executor, effective_latency_ms
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.storage.faults import FaultInjector, FaultProfile, FaultyDiskTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def data():
    return independent(2_000, 3, seed=42)


def quick_queries(data, n=30):
    gen = WorkloadGenerator(data, seed=9)
    return list(gen.exploratory_stream(n // 2)) + list(
        gen.independent_queries(n - n // 2)
    )


def make_engine(data, workers, region=None):
    return CBCS(
        DiskTable(data), region_computer=region, workers=workers
    )


QUADRANTS = [
    Constraints([0.0, 0.0, 0.0], [0.5, 0.5, 1.0]).region(),
    Constraints([0.5, 0.0, 0.0], [1.0, 0.5, 1.0]).region(),
    Constraints([0.0, 0.5, 0.0], [0.5, 1.0, 1.0]).region(),
    Constraints([0.5, 0.5, 0.0], [1.0, 1.0, 1.0]).region(),
]


class TestBitIdenticalAnswers:
    @pytest.mark.parametrize("region", [None, ExactMPR()])
    def test_workers_4_matches_serial_on_quick_set(self, data, region):
        serial = make_engine(data, workers=1, region=region)
        parallel = make_engine(
            data, workers=4, region=type(region)() if region else None
        )
        try:
            for c in quick_queries(data):
                a = serial.query(c)
                b = parallel.query(c)
                assert a.skyline.tobytes() == b.skyline.tobytes()
                assert a.points_read == b.points_read
                assert a.range_queries == b.range_queries
                assert a.io.as_dict() == b.io.as_dict()
                assert (a.case, a.stable, a.cache_hit) == (
                    b.case,
                    b.stable,
                    b.cache_hit,
                )
        finally:
            parallel.close()

    def test_serial_engine_timings_unchanged_shape(self, data):
        engine = make_engine(data, workers=1)
        outcome = engine.query(Constraints([0.1] * 3, [0.9] * 3))
        # serial: the Figure-10 fetching stage equals the aggregate I/O
        assert outcome.timings.fetch_io_ms == outcome.timings.io_ms_total
        assert outcome.timings.io_ms_total == pytest.approx(
            outcome.io.simulated_io_ms
        )


class TestExecutorMerging:
    def test_parallel_merge_matches_serial_fetch(self, data):
        table = DiskTable(data)
        reference = DiskTable(data)
        parallel = Executor(workers=4)
        try:
            outcome = parallel.fetch(table, QUADRANTS)
        finally:
            parallel.close()
        expected = Executor(workers=1).fetch(reference, QUADRANTS).result
        assert outcome.result.points.tobytes() == expected.points.tobytes()
        assert np.array_equal(outcome.result.rowids, expected.rowids)
        assert table.stats.range_queries == reference.stats.range_queries
        assert table.stats.points_read == reference.stats.points_read

    def test_empty_plan_is_free(self, data):
        table = DiskTable(data)
        outcome = Executor(workers=1).fetch(table, [])
        assert len(outcome.result) == 0
        assert outcome.io_ms_total == 0.0
        assert table.stats.range_queries == 0


class TestEffectiveLatency:
    def test_greedy_makespan(self):
        # lanes fill greedily: (4 then 1) and (3 then 2) -> makespan 5
        assert effective_latency_ms([4.0, 3.0, 2.0, 1.0], workers=2) == 5.0
        assert effective_latency_ms([5.0, 1.0, 1.0, 1.0], workers=2) == 5.0
        assert effective_latency_ms([2.0, 2.0], workers=1) == 4.0
        assert effective_latency_ms([], workers=4) == 0.0

    def test_latency_spikes_overlap_under_parallel_fetch(self, data):
        profile = FaultProfile(latency=1.0, latency_ms=10.0)

        def spiky_table():
            return FaultyDiskTable(
                DiskTable(data), FaultInjector(profile, seed=0)
            )

        serial = Executor(workers=1).fetch(spiky_table(), QUADRANTS)
        parallel_exec = Executor(workers=4)
        try:
            parallel = parallel_exec.fetch(spiky_table(), QUADRANTS)
        finally:
            parallel_exec.close()
        # same total disk work, strictly lower effective latency
        assert parallel.io_ms_total == pytest.approx(serial.io_ms_total)
        assert serial.effective_io_ms == pytest.approx(serial.io_ms_total)
        assert parallel.effective_io_ms < 0.5 * serial.effective_io_ms
        assert (
            parallel.result.points.tobytes() == serial.result.points.tobytes()
        )

    def test_engine_fetch_stage_drops_under_latency_faults(self, data):
        profile = FaultProfile(latency=1.0, latency_ms=10.0)

        def make(workers):
            table = FaultyDiskTable(
                DiskTable(data), FaultInjector(profile, seed=0)
            )
            return CBCS(table, region_computer=ExactMPR(), workers=workers)

        base = Constraints([0.2] * 3, [0.7] * 3)
        # widen two bounds: a general refinement decomposed into >= 2 boxes
        refined = Constraints([0.15] * 3, [0.75] * 3)

        serial, parallel = make(1), make(4)
        try:
            s_warm, p_warm = serial.query(base), parallel.query(base)
            assert s_warm.skyline.tobytes() == p_warm.skyline.tobytes()
            s, p = serial.query(refined), parallel.query(refined)
        finally:
            parallel.close()
        assert s.skyline.tobytes() == p.skyline.tobytes()
        assert s.range_queries == p.range_queries
        assert s.range_queries >= 2  # the plan actually fanned out
        assert p.timings.io_ms_total == pytest.approx(s.timings.io_ms_total)
        assert p.timings.fetch_io_ms < s.timings.fetch_io_ms
