"""The storage protocol: what the CBCS engine calls on its table.

The engine holds one storage handle, ``CBCS.table``, and reads it in one
place: :meth:`repro.core.executor.Executor.fetch` issues one
``table.range_query(lo, hi)`` per row of the plan's box set -- or, with
resilience on, one :meth:`repro.resilience.Resilience.read` of it, which
validates, retries and guards the same call with the circuit breaker.
Anything satisfying
:class:`StorageBackend` can be that table:

    DiskTable | ShardedTable       the simulated disk (or a fleet of them)
    -> FaultyDiskTable             (optional) deterministic fault injection

Faults are injected *below* the guarded read, so a retry re-draws the fault
schedule, like re-issuing a real SQL query.  ``range_query`` takes one
closed box as two ``(d,)`` float arrays, ``lo`` and ``hi`` (a face may be
+-inf), and nothing else -- the form the region algebra
(:class:`~repro.geometry.box.BoxSet`) plans in, so no box object is built
between the planner and the disk.  It is looked up on the table per call, so
a wrapper put on the table instance after the engine is built sees every
read.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import IOStats
from repro.storage.table import Forecast, RangeResult


@runtime_checkable
class StorageBackend(Protocol):
    """What the engine calls on its table.

    Structural: anything with these members qualifies -- ``DiskTable``,
    ``ShardedTable`` and ``FaultyDiskTable`` (by delegation) all do, and
    tests substitute fakes.  The executor issues ``range_query``; the
    planner prices boxes with ``forecast`` while planning, so it must be
    free of (simulated) disk I/O; ``stats`` is the
    table's running total (a query is billed from the charges stamped on its
    own range results, not from a window on it); ``CBCS`` hands its
    observability down through ``obs`` / ``bind_obs``, the EXPLAIN
    record turns forecast seeks and pages into latency with ``cost_model``,
    and ``write_count`` (moved by every write that changes the live rows)
    tells the engine, before each query, whether its cache is still current.
    """

    @property
    def ndim(self) -> int: ...

    @property
    def stats(self) -> IOStats: ...

    @property
    def cost_model(self) -> DiskCostModel: ...

    @property
    def write_count(self) -> int: ...

    @property
    def obs(self): ...

    def bind_obs(self, obs): ...

    def range_query(self, lo, hi) -> RangeResult: ...

    def forecast(self, lo, hi) -> Forecast: ...
