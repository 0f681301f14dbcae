"""Simulated disk-resident storage.

The paper evaluates against data "stored in PostgreSQL 9.1.13 with each
dimension indexed by a standard B-tree" (Section 7).  This subpackage
reproduces that substrate in-process:

- :class:`~repro.storage.table.DiskTable` -- a heap file of points split into
  fixed-size pages, each dimension indexed by its sorted column (the
  ordered ``(key, row id)`` sequence a B-tree's leaves hold), and a simple
  range-query planner;
- :class:`~repro.storage.costmodel.DiskCostModel` -- charges simulated
  latency for seeks and page reads so that experiments expose the paper's
  dominant cost (random access to fetch points) without real spinning rust;
- :class:`~repro.storage.pager.IOStats` -- counters for range queries,
  empty queries, seeks, pages and points read, matching the quantities
  reported in the paper's Figures 8 and 9;
- :class:`~repro.storage.backend.StorageBackend` -- the structural protocol
  of what the engine calls on its table (``DiskTable``, ``ShardedTable``
  and the fault-injecting ``FaultyDiskTable`` satisfy it); fault tolerance
  is not a storage layer but one guarded read,
  :meth:`repro.resilience.Resilience.read`;
- :class:`~repro.storage.wal.CheckpointedLog` -- a write-ahead log plus the
  snapshot it is checkpointed into: the table's
  :class:`~repro.storage.durability.DurabilityManager` and a durable
  :class:`~repro.core.cache.SkylineCache` are each one.
"""

from repro.storage.backend import StorageBackend
from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import IOStats
from repro.storage.table import CorruptTableError, DiskTable, RangeResult

__all__ = [
    "CorruptTableError",
    "DiskCostModel",
    "DiskTable",
    "IOStats",
    "RangeResult",
    "StorageBackend",
]

