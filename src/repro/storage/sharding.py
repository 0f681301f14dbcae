"""A table horizontally partitioned into per-shard :class:`DiskTable`\\ s.

Real estate listings are naturally partitioned (by city/region -- here by a
*partition key*, one of the data dimensions), and a constrained skyline
query rarely touches every partition.  :class:`ShardedTable` is that layout
as a **base table**: it satisfies
:class:`~repro.storage.backend.StorageBackend` and the table write API, so
``CBCS(ShardedTable(...))`` is the fleet engine, writes included -- how the
rows are laid out on disks stays below the line the algorithm draws
(DESIGN.md section 5, item 15).

- rows are split into N shards by **range** (quantile boundaries over the
  key dimension, the city/region analogue), **hash** (CRC32 of the key
  value -- uniform placement), or **explicit** per-row assignments (tests);
- each shard is an independent :class:`~repro.storage.table.DiskTable`
  (its own heap, indexes, I/O counters and simulated disk);
- ``range_query(lo, hi)`` tests the closed box against the shards' MBRs
  in one broadcast, reads the overlapping non-empty shards in shard order and
  concatenates -- a plan box that cannot hold rows of a shard never reaches
  that shard's disk;
- rows are named by fleet-global ``int64`` ids (``row(i) == data[i]`` for
  the initial rows, appended rows continue the sequence), the shape
  :meth:`DiskTable.append` returns.

The shard bounds live in one place: ``mbr_lo`` / ``mbr_hi`` (``(n_shards,
d)``) and ``counts`` (live rows).  Writers replace each array by reference
assignment under the metadata lock; readers take no lock.  An append extends
the MBR; a delete keeps it as a superset (a too-large MBR can only cost a
read, never a row).  A write made straight to one shard's table is
reconciled by :meth:`ShardedTable.note_write`, which every shard write
calls: rows past the directory get the next global ids, and the MBR and
counts follow the shard.

With ``n_shards=1`` the single shard holds the whole dataset and every
answer, row order and I/O counter equals the plain table's -- the anchor of
the shard soak (:func:`repro.bench.soak.shards`).
"""

from __future__ import annotations

import itertools
import numbers
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, List, Literal, Optional, Sequence

import numpy as np

from repro.obs import NULL_OBS
from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import IOStats
from repro.storage.table import (
    DiskTable,
    Forecast,
    RangeResult,
    checked_rowids,
    checked_rows,
    concat_results,
)

PartitionMode = Literal["range", "hash", "explicit"]

__all__ = ["Shard", "ShardedTable", "hash_key"]


def hash_key(value: float, n_shards: int) -> int:
    """Deterministic shard id for one partition-key value (CRC32 bucket).

    Stable across processes and runs (unlike Python's salted ``hash``), so
    a recovered or restarted deployment routes a row to the same shard.
    Equal keys hash alike: ``-0.0`` is hashed as ``0.0``.
    """
    payload = np.float64(value + 0.0).tobytes()
    return zlib.crc32(payload) % n_shards


@dataclass
class Shard:
    """One partition.  ``table`` may be reassigned to a wrapper around the
    shard's own table (e.g. a :class:`~repro.storage.faults.FaultyDiskTable`)
    to fault one shard; the fleet looks it up on every call.  Any other
    table raises ``ValueError``: the fleet's directory, MBRs and counts
    describe the rows of the table the shard was built with."""

    shard_id: int
    table: DiskTable
    fleet: Optional["ShardedTable"] = field(default=None, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if (
            name == "table"
            and self.fleet is not None
            and getattr(value, "base", None) is not self.table.base
        ):
            raise ValueError(
                f"shard {self.shard_id} takes only its own table or a wrapper "
                "around it"
            )
        object.__setattr__(self, name, value)


class _FleetColumn:
    """Dimension ``dim`` of every shard's index, seen as one.  It exists for
    callers that walk ``table.index(dim)`` (the benchmark's tracer wraps
    ``range_rows`` on the instance, so :meth:`ShardedTable.index` hands out
    one stable object per dimension); it holds no copy of the keys."""

    def __init__(self, fleet: "ShardedTable", dim: int):
        self._fleet = fleet
        self._dim = dim

    def range_rows(self, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
        """Global row ids whose key lies in the closed interval ``[lo, hi]``,
        shard by shard (key order within a shard)."""
        fleet = self._fleet
        return np.concatenate(
            [
                global_of[shard.table.index(self._dim).range_rows(lo, hi)]
                for shard, global_of in zip(fleet.shards, fleet._global_of)
            ]
        )


class ShardedTable:
    """A dataset partitioned into per-shard :class:`DiskTable` heaps.

    ``mode="range"`` splits on quantile boundaries of ``data[:, key_dim]``
    (the city/region partitioning of the paper's real-estate scenario);
    ``"hash"`` buckets the key value by CRC32; ``"explicit"`` takes a
    per-row ``assignments`` array (used by tests to place coordinate
    duplicates on different shards) and accepts no later ``append``.
    ``table_factory`` builds each shard's table from its rows -- the default
    plain :class:`DiskTable` -- letting callers thread cost models or plans
    per shard.
    """

    def __init__(
        self,
        data: np.ndarray,
        n_shards: int,
        mode: PartitionMode = "range",
        key_dim: int = 0,
        assignments: Optional[Sequence[int]] = None,
        table_factory: Optional[Callable[[np.ndarray], DiskTable]] = None,
    ):
        data = np.ascontiguousarray(np.asarray(data, dtype=float))
        if data.ndim != 2:
            raise ValueError("data must be an (n, d) array")
        if isinstance(n_shards, bool) or not isinstance(n_shards, numbers.Integral):
            raise TypeError(f"n_shards must be an integer, got {n_shards!r}")
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if not 0 <= key_dim < data.shape[1]:
            raise ValueError(f"key_dim {key_dim} out of range for {data.shape[1]} dims")
        if mode not in ("range", "hash", "explicit"):
            raise ValueError(f"unknown partition mode {mode!r}")
        if (assignments is None) != (mode != "explicit"):
            raise ValueError("assignments required iff mode='explicit'")
        self.n_shards = int(n_shards)
        self.mode: PartitionMode = mode
        self.key_dim = int(key_dim)
        self.ndim = int(data.shape[1])
        self.obs = NULL_OBS
        #: serializes writes through the fleet, held across the shard writes
        self._lock = threading.Lock()
        #: guards the directory, MBRs and counts; never held while a shard
        #: table is called, so a shard write's note_write can always take it
        self._meta = threading.Lock()
        self._boundaries = np.empty(0)
        #: moves whenever a write changes the live rows of any shard, through
        #: the fleet or not (see :meth:`note_write`)
        self.write_count = 0
        self._write_clock = itertools.count(1)

        keys = data[:, self.key_dim]
        if mode == "explicit":
            assigned = np.asarray(assignments, dtype=np.int64)
            if assigned.shape != (len(data),):
                raise ValueError("one shard assignment per row required")
            if len(assigned) and (
                assigned.min() < 0 or assigned.max() >= n_shards
            ):
                raise ValueError("assignment out of shard range")
        else:
            if mode == "range" and len(keys) and n_shards > 1:
                self._boundaries = np.quantile(
                    keys, np.arange(1, n_shards) / n_shards
                )
            assigned = self._assign(keys)

        factory = table_factory or DiskTable
        self.shards: List[Shard] = []
        #: the directory: global row id -> shard, and per shard the global
        #: ids of its rows, ascending -- so a row's id inside its shard is
        #: its position there (by index one way, by bisection the other)
        self._shard_of = assigned
        self._global_of: List[np.ndarray] = []
        self.mbr_lo = np.full((self.n_shards, self.ndim), np.inf)
        self.mbr_hi = np.full((self.n_shards, self.ndim), -np.inf)
        self.counts = np.zeros(self.n_shards, dtype=np.int64)
        for sid in range(self.n_shards):
            members = np.flatnonzero(assigned == sid)
            rows = data[members]
            table = factory(rows)
            table.watch_writes(self)
            self.shards.append(Shard(sid, table, self))
            self._global_of.append(members)
            if len(members):
                self.mbr_lo[sid] = rows.min(axis=0)
                self.mbr_hi[sid] = rows.max(axis=0)
                self.counts[sid] = len(members)
        self._columns = [_FleetColumn(self, dim) for dim in range(self.ndim)]
        #: each shard table's ``write_count`` as :meth:`note_write` last saw
        #: it: a shard whose count and row total have not moved is skipped
        self._seen = [shard.table.write_count for shard in self.shards]

    # ------------------------------------------------------------------
    # Metadata / aggregates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_shards

    def __iter__(self):
        return iter(self.shards)

    def __getitem__(self, shard_id: int) -> Shard:
        return self.shards[shard_id]

    @property
    def n(self) -> int:
        """Rows ever stored (the next global row id)."""
        return len(self._shard_of)

    @property
    def live_count(self) -> int:
        return int(self.counts.sum())

    @property
    def n_pages(self) -> int:
        return sum(s.table.n_pages for s in self.shards)

    @property
    def cost_model(self) -> DiskCostModel:
        """The shards' cost model (one ``table_factory`` builds them all)."""
        return self.shards[0].table.cost_model

    @property
    def stats(self) -> IOStats:
        """The shard tables' I/O counters, summed (a fresh object per read).

        ``range_queries`` therefore counts shard reads -- what the disks
        served -- not the boxes the engine asked for.  A fault-wrapped
        shard delegates ``stats`` to the table inside it, so it reconciles
        too.
        """
        total = IOStats()
        for shard in self.shards:
            total.add(shard.table.stats)
        return total

    def note_write(self) -> None:
        """A shard table's live rows changed: reconcile the fleet's metadata
        with the shard tables and move :attr:`write_count`.

        Every shard table calls it (:meth:`DiskTable.watch_writes`), so a
        write straight to one shard counts like one through the fleet, and
        the engine's check before each query reads one attribute, not every
        shard's counter.  Each call stores a value no earlier call stored,
        so writers on two shards cannot leave the counter at a value an
        engine has already seen.

        A shard's rows past the directory (appended straight to its table)
        get the next global ids, in local order, and widen its MBR; every
        shard's count is set to its table's ``live_count``.  A write through
        the fleet publishes all of that before it writes the shard, so on
        that path there is nothing left to reconcile.  Runs inside the
        shard's write, so it takes only the metadata lock (the fleet lock is
        held around :meth:`append`'s shard writes).  A write straight to a
        shard must not race a fleet write to the same shard: the directory
        names local rows by position."""
        with self._meta:
            self._reconcile()
        self.write_count = next(self._write_clock)

    def _reconcile(self) -> None:
        """The body of :meth:`note_write`, under the metadata lock."""
        for sid, shard in enumerate(self.shards):
            table = shard.table
            writes, known, n = table.write_count, len(self._global_of[sid]), table.n
            if writes == self._seen[sid] and n == known:
                continue
            self._seen[sid] = writes
            if n > known:
                fresh = np.arange(self.n, self.n + n - known, dtype=np.int64)
                self._global_of[sid] = np.concatenate([self._global_of[sid], fresh])
                self._shard_of = np.concatenate(
                    [self._shard_of, np.full(len(fresh), sid, dtype=np.int64)]
                )
                rows = table.data_view()[known:n]
                lo, hi = self.mbr_lo.copy(), self.mbr_hi.copy()
                lo[sid] = np.minimum(lo[sid], rows.min(axis=0))
                hi[sid] = np.maximum(hi[sid], rows.max(axis=0))
                self.mbr_lo, self.mbr_hi = lo, hi
            live = table.live_count
            if self.counts[sid] != live:
                counts = self.counts.copy()
                counts[sid] = live
                self.counts = counts

    def bind_obs(self, obs) -> "ShardedTable":
        """Attach (or detach, with None) observability to every shard."""
        self.obs = NULL_OBS if obs is None else obs
        for shard in self.shards:
            shard.table.bind_obs(obs)
        return self

    def index(self, dim: int) -> _FleetColumn:
        """The fleet-wide view of the index on dimension ``dim``."""
        return self._columns[dim]

    def estimate_count(self, dim: int, lo: float, hi: float) -> int:
        """Index entries in ``[lo, hi]`` on one dimension, summed over the
        shards (no I/O): always ``len(self.index(dim).range_rows(lo, hi))``."""
        return sum(s.table.estimate_count(dim, lo, hi) for s in self.shards)

    def forecast(self, lo: np.ndarray, hi: np.ndarray) -> Forecast:
        """Price the closed boxes ``[lo[i], hi[i]]`` shard by shard (no
        I/O): a box costs the seeks of the shards it will actually touch,
        and a shard with an empty marginal is not one of them.

        Only the shards whose MBR meets the bounding box of all the boxes
        are priced: any other one has an empty marginal for every box and
        every :meth:`~repro.storage.table.Forecast.hull`, so it adds
        nothing under ``bitmap`` and ``best_index`` (and under ``seqscan``
        no box reads it).  The pruning is by the bounding box, not per box,
        because a hull of boxes in two shards can span a third.  With no
        box, or no shard met, the first shard alone is priced:
        :class:`~repro.storage.table.Forecast` takes its plan and cost model
        from its first table."""
        met = []
        if len(lo):
            meets = (self.mbr_lo <= hi.max(axis=0)) & (self.mbr_hi >= lo.min(axis=0))
            met = [
                s.table for s, m in zip(self.shards, meets.all(axis=1).tolist()) if m
            ]
        return Forecast(met or [self.shards[0].table], lo, hi)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def range_query(self, lo, hi) -> RangeResult:
        """The points inside the closed box ``[lo, hi]``, from the shards
        that can hold any.

        A shard is read iff it has live rows and its MBR meets the box;
        shards answer in shard order and the result carries global row ids.
        A box no shard can meet costs no I/O.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.shape != (self.ndim,) or hi.shape != (self.ndim,):
            raise ValueError("box dimensionality does not match the table")
        touched = np.flatnonzero(
            (self.mbr_lo <= hi).all(axis=1)
            & (self.mbr_hi >= lo).all(axis=1)
            & (self.counts > 0)
        )
        parts = []
        for sid in touched.tolist():
            part = self.shards[sid].table.range_query(lo, hi)
            parts.append(replace(part, rowids=self._global_of[sid][part.rowids]))
        return concat_results(parts, self.ndim)

    # ------------------------------------------------------------------
    # Routing + writes
    # ------------------------------------------------------------------
    def _assign(self, keys: np.ndarray) -> np.ndarray:
        """Shard id per partition-key value (range and hash modes)."""
        if self.mode == "range":
            return np.searchsorted(self._boundaries, keys, side="right")
        if self.mode == "hash":
            return np.fromiter(
                (hash_key(v, self.n_shards) for v in keys),
                dtype=np.int64,
                count=len(keys),
            )
        raise ValueError(
            "explicit-mode tables have no routing function: "
            "rows can only be placed at construction"
        )

    def route(self, row: Sequence[float]) -> int:
        """Shard id a new row belongs to (deterministic per mode)."""
        key = np.asarray(row, dtype=float)[self.key_dim : self.key_dim + 1]
        return int(self._assign(key)[0])

    def append(self, rows: np.ndarray) -> np.ndarray:
        """Route rows to their shards; returns their global row ids, in
        input order.  The whole batch is validated -- and an explicit-mode
        table refuses -- before any shard is touched."""
        rows = checked_rows(rows, self.ndim)
        assigned = self._assign(rows[:, self.key_dim])
        with self._lock:
            with self._meta:
                new_ids = np.arange(self.n, self.n + len(rows), dtype=np.int64)
                self._shard_of = np.concatenate([self._shard_of, assigned])
            for sid in np.unique(assigned).tolist():
                members = np.flatnonzero(assigned == sid)
                block = rows[members]
                # metadata first: a concurrent reader must be able to name
                # every row the shard can already return, and note_write
                # finds the write already accounted for
                with self._meta:
                    self._global_of[sid] = np.concatenate(
                        [self._global_of[sid], new_ids[members]]
                    )
                    lo, hi = self.mbr_lo.copy(), self.mbr_hi.copy()
                    counts = self.counts.copy()
                    lo[sid] = np.minimum(lo[sid], block.min(axis=0))
                    hi[sid] = np.maximum(hi[sid], block.max(axis=0))
                    counts[sid] += len(members)
                    self.mbr_lo, self.mbr_hi, self.counts = lo, hi, counts
                self.shards[sid].table.append(block)
        return new_ids

    def delete(self, rowids: np.ndarray) -> int:
        """Mark rows deleted by global id; returns how many died.  An id
        outside the table, or one that is not a whole number, fails the
        batch before any shard is touched."""
        rowids = checked_rowids(rowids)
        with self._lock:
            if len(rowids) and (rowids.min() < 0 or rowids.max() >= self.n):
                raise IndexError("row id out of range")
            sids = self._shard_of[rowids]
            killed = 0
            for sid in np.unique(sids).tolist():
                local = self._global_of[sid].searchsorted(rowids[sids == sid])
                killed += self.shards[sid].table.delete(local)  # note_write counts it
        return killed

    def row(self, rowid: int) -> np.ndarray:
        """One live row's values by global id (no I/O charge)."""
        if not 0 <= rowid < self.n:
            raise IndexError(f"row id {rowid} out of range")
        sid = self._shard_of[rowid]
        try:
            return self.shards[sid].table.row(
                int(self._global_of[sid].searchsorted(rowid))
            )
        except KeyError:
            raise KeyError(f"row {rowid} is deleted") from None

    def vacuum(self) -> int:
        """Vacuum every shard; returns the number of rows vacuumed."""
        return sum(s.table.vacuum() for s in self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedTable(shards={self.n_shards}, mode={self.mode!r}, "
            f"key_dim={self.key_dim}, n={self.n})"
        )
