"""The fetch contract, and the concurrency that is left.

A plan's boxes reach the table one way: in plan order, on the calling
thread, stopping at the first box that raises.  The one simulated clock is
``fetch_io_ms``.  What still runs concurrently is whole queries
(``QueryService`` workers calling ``engine.query`` on one engine), and each
of them must be billed for its own I/O only.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from repro.core.ampr import ExactMPR
from repro.core.cbcs import CBCS
from repro.core.executor import Executor
from repro.data.generator import independent
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from repro.skyline.baseline import BaselineMethod
from repro.skyline.bbs import BBSMethod
from repro.stats import StageTimings
from repro.storage.faults import TransientStorageError
from repro.storage.pager import IOStats
from repro.storage.table import DiskTable, concat_results
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def data():
    return independent(2_000, 3, seed=42)


QUADRANTS = BoxSet(
    np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.5, 0.5, 0.0]]),
    np.array([[0.5, 0.5, 1.0], [1.0, 0.5, 1.0], [0.5, 1.0, 1.0], [1.0, 1.0, 1.0]]),
)


@pytest.fixture
def eager_thread_switches():
    """Hand the GIL over every few bytecodes, so four threads really do
    interleave inside one another's queries."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestBitIdenticalAnswers:
    @pytest.mark.parametrize("region", [None, ExactMPR()])
    def test_workers_4_matches_serial_on_quick_set(
        self, data, region, eager_thread_switches
    ):
        """Four threads on one engine (what ``QueryService(workers=4)``
        does): every outcome carries its own I/O, not its neighbours'."""
        gen = WorkloadGenerator(data, seed=9)
        warm = list(gen.independent_queries(40))
        queries = list(gen.independent_queries(120))

        def warmed():
            engine = CBCS(
                DiskTable(data),
                region_computer=type(region)() if region else None,
            )
            engine.warm(warm)
            # answers no longer depend on the order the queries finish in
            engine.cache_results = False
            return engine

        serial, shared = warmed(), warmed()
        expected = [serial.query(c) for c in queries]
        before = shared.table.stats.snapshot()
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(shared.query, queries))

        billed = IOStats()
        for twin, outcome in zip(expected, outcomes):
            assert outcome.skyline.tobytes() == twin.skyline.tobytes()
            assert outcome.io == twin.io
            billed.add(outcome.io)
        assert billed.range_queries > len(queries)  # plans did fan out
        assert billed == shared.table.stats.delta_since(before)

    def test_baseline_workers_4_bills_each_query_its_own_fetch(
        self, data, eager_thread_switches
    ):
        """Four threads on one ``BaselineMethod``: each outcome's ``io`` is
        what its own range query charged, and the charges add up to what the
        table counted."""
        queries = list(WorkloadGenerator(data, seed=11).independent_queries(120))
        table = DiskTable(data)
        method = BaselineMethod(table)
        fetched = {}
        range_query = table.range_query

        def recording(lo, hi):
            result = range_query(lo, hi)
            fetched[(tuple(lo), tuple(hi))] = result
            return result

        table.range_query = recording
        before = table.stats.snapshot()
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(method.query, queries))

        serial = BaselineMethod(DiskTable(data))
        billed = IOStats()
        for c, outcome in zip(queries, outcomes):
            assert outcome.io == fetched[c.key()].io_stats()
            assert outcome.io == serial.query(c).io
            billed.add(outcome.io)
        assert len(fetched) == len(queries)
        assert billed == table.stats.delta_since(before)

    def test_serial_engine_timings_unchanged_shape(self, data):
        """One simulated clock, whatever the method."""
        c = Constraints([0.1] * 3, [0.9] * 3)
        for method in (
            CBCS(DiskTable(data)),
            BaselineMethod(DiskTable(data)),
            BBSMethod(data),
        ):
            outcome = method.query(c)
            assert outcome.io.simulated_io_ms > 0
            assert (
                outcome.timings.io_ms_total
                == outcome.timings.fetch_io_ms
                == outcome.io.simulated_io_ms
            )
        assert "io_ms_total" not in {f.name for f in fields(StageTimings)}
        assert "io_ms_total" not in outcome.as_record()["timings"]


class FailsOnSecondCall:
    """A backend whose second range query raises before it reaches the disk."""

    def __init__(self, table):
        self.table = table
        self.ndim = table.ndim
        self.calls = 0

    def range_query(self, lo, hi):
        self.calls += 1
        if self.calls == 2:
            raise TransientStorageError("second box")
        return self.table.range_query(lo, hi)


class TestExecutorMerging:
    def test_fetch_stops_at_the_first_failing_box(self, data):
        table, reference = DiskTable(data), DiskTable(data)
        backend = FailsOnSecondCall(table)
        with pytest.raises(TransientStorageError):
            Executor().fetch(backend, QUADRANTS)
        assert backend.calls == 2
        # boxes three and four were never issued: the table was charged
        # for the first box and nothing else
        reference.range_query(QUADRANTS.lo[0], QUADRANTS.hi[0])
        assert table.stats == reference.stats

    def test_fetch_gathers_in_plan_order(self, data):
        table = DiskTable(data)
        parts = Executor().fetch(table, QUADRANTS)
        assert len(parts) == 4
        assert [p.range_queries for p in parts] == [1, 1, 1, 1]
        merged = concat_results(parts, table.ndim)
        assert merged.rowids.tolist() == [r for p in parts for r in p.rowids.tolist()]
        assert len(merged) == len(data)
        assert merged.io_stats() == table.stats

    def test_empty_plan_is_free(self, data):
        table = DiskTable(data)
        parts = Executor().fetch(table, BoxSet.empty(3))
        assert parts == ()
        merged = concat_results(parts, table.ndim)
        assert len(merged) == 0
        assert merged.io_stats() == IOStats()
        assert table.stats.range_queries == 0
