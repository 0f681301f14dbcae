"""Dynamic data support (paper Section 6.2) with an optional durable write path.

"Dynamic data can be supported by viewing each cache item as a separate
dataset with a continuous skyline query maintained by any existing method."
The paper defers the evaluation; this module implements the mechanism:

- **insert**: a new point inside an item's constraint region either is
  dominated by the cached skyline (nothing changes) or enters the skyline,
  evicting the cached points it dominates.  This is exact: points that the
  evicted members used to dominate are, by transitivity, dominated by the
  new point too.
- **delete**: a deleted point that coordinate-matches a cached skyline row
  loses one occurrence; since its dominance may have suppressed other
  points, the item is either *refreshed* (recomputed with one range query
  against the table -- the simplest "existing method") or *evicted*,
  according to ``on_delete``.  Deleted points that were not in the cached
  skyline were dominated and change nothing.

:class:`DynamicCBCS` wires the maintenance into the engine so that queries
interleaved with updates stay exact -- verified against brute force in
``tests/core/test_dynamic.py``.

Durability.  With ``durability=`` set (a directory or a
:class:`~repro.storage.durability.DurabilityManager`), every update batch
is WAL-logged *before* it is applied -- the PostgreSQL write path -- and
:meth:`DynamicCBCS.recover` rebuilds a crashed engine from the last
checkpoint plus the log tail, provably converging to the committed
pre-crash state (asserted by :func:`repro.bench.soak.crash`).
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np

from repro.core.cbcs import CBCS
from repro.geometry.box import BoxSet
from repro.geometry.dominance import dominated_mask
from repro.resilience import DEGRADABLE
from repro.skyline.sfs import sfs_skyline
from repro.storage.durability import DurabilityManager

DeletePolicy = Literal["refresh", "evict"]


class DynamicCBCS(CBCS):
    """A CBCS engine whose table may change between queries.

    ``on_delete`` selects the maintenance of items that lose a skyline
    point: ``"refresh"`` recomputes the item from the table (keeps the cache
    warm at the cost of one range query), ``"evict"`` simply drops it.

    ``durability`` enables the WAL-backed write path: a directory (or a
    prepared :class:`~repro.storage.durability.DurabilityManager`) where
    update batches are journaled before they apply and the table is
    checkpointed.  The default ``None`` keeps updates in-memory only,
    bit-identical to the historic behavior.
    """

    def __init__(
        self,
        *args,
        on_delete: DeletePolicy = "refresh",
        durability=None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if on_delete not in ("refresh", "evict"):
            raise ValueError(f"unknown delete policy {on_delete!r}")
        self.on_delete: DeletePolicy = on_delete
        if durability is not None and not isinstance(durability, DurabilityManager):
            durability = DurabilityManager(durability)
        self.durability: Optional[DurabilityManager] = durability
        #: set by :meth:`recover` on recovered engines
        self.recovery_report = None
        if self.durability is not None:
            # A fresh durability directory needs the base snapshot:
            # recovery rebuilds "checkpoint + tail", never from nothing.
            self.durability.ensure_checkpoint(self.table)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_points(self, rows: np.ndarray) -> np.ndarray:
        """Append rows to the table and maintain every affected cache item.

        With durability on, the batch is WAL-logged (and fsynced) first;
        the update is committed the moment the log record is durable.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.table.ndim:
            raise ValueError("inserted rows must match the table's dimensionality")
        if rows.size and not np.isfinite(rows).all():
            raise ValueError("inserted rows must be finite")
        if self.durability is not None:
            self.durability.log_insert(rows, start=self.table.n)
        new_ids = self.table.append(rows)
        for row in rows:
            self._maintain_insert(row)
        if self.durability is not None:
            self.durability.maybe_checkpoint(self.table)
        return new_ids

    def delete_points(self, rowids) -> int:
        """Delete table rows and maintain every affected cache item."""
        rowids = np.atleast_1d(np.asarray(rowids, dtype=np.int64))
        # each id once, in the order given: a repeated id is one row, to be
        # logged, killed and maintained once
        rowids = rowids[np.sort(np.unique(rowids, return_index=True)[1])]
        # Reading the coordinates first also validates the row ids, so an
        # invalid request fails before anything reaches the WAL.
        coords = [self.table.row(int(r)) for r in rowids]
        if self.durability is not None:
            self.durability.log_delete(rowids, np.asarray(coords))
        killed = self.table.delete(rowids)
        for row in coords:
            self._maintain_delete(np.asarray(row))
        if self.durability is not None:
            self.durability.maybe_checkpoint(self.table)
        return killed

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint the table's log (and the cache's, if it is durable)."""
        if self.durability is not None:
            self.durability.checkpoint(self.table)
        self.cache.checkpoint()

    def close(self) -> None:
        """Close the table's log and then the cache's, each through
        :meth:`~repro.storage.wal.CheckpointedLog.close`: a final
        checkpoint, then the WAL closes."""
        if self.durability is not None:
            self.durability.close(self.table)
        super().close()

    @classmethod
    def recover(cls, source, table_wrapper=None, **kwargs) -> "DynamicCBCS":
        """Rebuild a durable engine after a crash.

        ``source`` is the durability directory (or a prepared
        :class:`~repro.storage.durability.DurabilityManager`, e.g. one
        carrying the drill's fault injector); remaining ``kwargs`` go to
        the engine constructor (cache, resilience, ...).
        ``table_wrapper`` optionally re-wraps the recovered table (e.g. in
        a :class:`~repro.storage.faults.FaultyDiskTable`) before the
        engine adopts it.

        Recovery: load the last table checkpoint, replay the WAL tail
        (torn tail truncated), then *reconcile the cache* -- every cache
        item whose region contains a replayed row is dropped, because the
        crash may have swallowed that item's in-memory maintenance.  Over-
        evicting costs a cache miss; under-evicting would serve stale
        skylines, so reconciliation always errs on eviction.  The
        :class:`~repro.storage.durability.RecoveryReport` lands on
        ``engine.recovery_report``.
        """
        manager = (
            source
            if isinstance(source, DurabilityManager)
            else DurabilityManager(source)
        )
        table, report = manager.recover()
        if table_wrapper is not None:
            table = table_wrapper(table)
        engine = cls(table, durability=manager, **kwargs)
        for _op, rows in report.replayed:
            for row in np.atleast_2d(rows):
                for item in engine.cache.containing(row):
                    engine.cache.remove(item)
        engine.recovery_report = report
        # Seal the recovered state so the next restart replays nothing.
        manager.checkpoint(engine.table)
        return engine

    # ------------------------------------------------------------------
    # Per-item continuous skyline maintenance
    # ------------------------------------------------------------------
    def _maintain_insert(self, row: np.ndarray) -> None:
        for item in self.cache.containing(row):
            sky = item.skyline
            if dominated_mask(row.reshape(1, -1), sky)[0]:
                continue  # dominated within the item: skyline unchanged
            keep = ~dominated_mask(sky, row.reshape(1, -1))
            new_sky = np.vstack([sky[keep], row.reshape(1, -1)])
            self._replace_item(item, new_sky)

    def _maintain_delete(self, row: np.ndarray) -> None:
        for item in self.cache.containing(row):
            matches = np.flatnonzero(np.all(item.skyline == row, axis=1))
            if len(matches) == 0:
                continue  # dominated point: its absence changes nothing
            if self.on_delete == "evict":
                self._evict_item(item)
                continue
            # refresh: one range query re-derives the item's skyline.  It is
            # a one-box fetch on the query path, so with resilience on it is
            # validated and retried; a refresh that still fails falls back
            # to eviction (a miss, never staleness).
            c = item.constraints
            try:
                result = self.executor.fetch(
                    self.table, BoxSet(c.lo[None], c.hi[None]), self.resilience
                ).result
            except DEGRADABLE:
                self._evict_item(item)
                continue
            new_sky = result.points[sfs_skyline(result.points)]
            if len(new_sky):
                self._replace_item(item, new_sky)
            else:
                self._evict_item(item)

    def _replace_item(self, item, new_skyline: np.ndarray) -> None:
        self.cache.replace_skyline(item, new_skyline)

    def _evict_item(self, item) -> None:
        self.cache.remove(item)
