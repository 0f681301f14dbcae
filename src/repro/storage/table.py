"""A simulated disk-resident table of multidimensional points.

:class:`DiskTable` reproduces the storage substrate of the paper's
experiments: a heap file of points with one index per dimension
(PostgreSQL-style; each index is the column in key order, what the leaves of
the paper's B-trees hold -- DESIGN.md section 5, item 14).  Multidimensional
range queries are planned like a DBMS would; two plan models select how heap
I/O is charged:

- ``bitmap`` (default): models PostgreSQL's BitmapAnd over the per-dimension
  indexes -- row-id sets are intersected inside the (memory-resident)
  indexes and only the exactly-matching heap rows are fetched, so
  ``points_read`` equals the true result size.  This matches the paper's
  reported points-read numbers (Figure 8) and its observation that empty
  queries never reach the disk.
- ``best_index``: a plain single-index scan -- candidate row ids come from
  the most selective dimension's index alone and every candidate row is
  fetched and then filtered, so ``points_read`` includes the plan's false
  positives.

Both plans *execute* the same way in-process (most-selective index slice +
vectorized filter; selectivity counted in O(log n) on the same sorted keys
the slice is cut from, standing in for an index histogram); they differ
only in what disk activity is charged.

Empty range queries are answered from the index alone with *no* disk seek --
the behaviour the paper observes for PostgreSQL: "the remaining queries were
discarded by the DBMS without any disk seeks because the B-trees detect the
empty queries" (Section 7.3.2).  Under the ``bitmap`` plan a query whose
candidate sets intersect to nothing is likewise detected index-side.

All disk activity is recorded in :attr:`DiskTable.stats`; simulated fetch
latency follows the table's :class:`~repro.storage.costmodel.DiskCostModel`.
"""

from __future__ import annotations

import math
import threading
import zlib
from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.box import _holds_double
from repro.ioutil import atomic_savez
from repro.obs import NULL_OBS
from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import BufferPool, IOStats, page_runs

PlanKind = Literal["best_index", "bitmap", "seqscan"]


class CorruptTableError(ValueError):
    """A persisted table archive failed integrity validation on load."""


#: Keys every saved table archive must carry (see :meth:`DiskTable.save`).
_REQUIRED_ARCHIVE_KEYS = frozenset(
    {
        "data",
        "alive",
        "columns",
        "has_columns",
        "plan",
        "buffer_pages",
        "cost_model",
    }
)


def _archive_checksum(data: np.ndarray, alive: np.ndarray) -> int:
    """CRC32 over the heap payload and tombstone bitmap."""
    crc = zlib.crc32(np.ascontiguousarray(data).tobytes())
    return zlib.crc32(np.ascontiguousarray(alive).tobytes(), crc)


@dataclass(frozen=True)
class RangeResult:
    """Result of one range query: matching points, their row ids, and the
    number of heap rows fetched to produce them (candidates incl. false
    positives of the chosen plan).

    The remaining fields are what this one call added to
    :attr:`DiskTable.stats`, stamped under the table lock: ``io_ms`` the
    simulated disk latency, ``pages_read`` / ``seeks`` the physical I/O,
    ``range_queries`` / ``empty_queries`` / ``buffer_hits`` the counters of
    the same name (``points_read`` is ``rows_fetched``).  They are the only
    I/O evidence that belongs to one caller: the engine bills a query from
    the results of its own fetch (:meth:`io_stats`), never from a window on
    the shared counters, and the explain/calibration layer joins them per
    box against the plan's :class:`Forecast`.
    """

    points: np.ndarray
    rowids: np.ndarray
    rows_fetched: int
    io_ms: float = 0.0
    pages_read: int = 0
    seeks: int = 0
    range_queries: int = 0
    empty_queries: int = 0
    buffer_hits: int = 0

    def __len__(self) -> int:
        return len(self.rowids)

    def io_stats(self) -> IOStats:
        """What this result charged, in the shape of the table's counters
        (a range query never takes the full-scan path)."""
        return IOStats(
            range_queries=self.range_queries,
            empty_queries=self.empty_queries,
            points_read=self.rows_fetched,
            pages_read=self.pages_read,
            seeks=self.seeks,
            simulated_io_ms=self.io_ms,
            buffer_hits=self.buffer_hits,
        )


def concat_results(parts: Sequence[RangeResult], ndim: int) -> RangeResult:
    """Concatenate range results in the order given, summing their charges.

    The one gatherer: the engine joins a plan's disjoint boxes with it and
    a sharded table the shards one box touches.  Points and row ids are
    concatenated independently, so a fault-truncated part (points shorter
    than row ids) keeps its mismatched signature for
    :func:`~repro.resilience.validate.validate_range_result`.  The parts are
    disjoint, so the union needs no deduplication.
    """
    if len(parts) == 1:
        return parts[0]
    points = [p.points for p in parts if len(p.points)]
    rowids = [p.rowids for p in parts if len(p.rowids)]
    return RangeResult(
        points=np.concatenate(points) if points else np.empty((0, ndim)),
        rowids=np.concatenate(rowids) if rowids else np.empty(0, dtype=np.int64),
        rows_fetched=sum(p.rows_fetched for p in parts),
        io_ms=float(sum(p.io_ms for p in parts)),
        pages_read=sum(p.pages_read for p in parts),
        seeks=sum(p.seeks for p in parts),
        range_queries=sum(p.range_queries for p in parts),
        empty_queries=sum(p.empty_queries for p in parts),
        buffer_hits=sum(p.buffer_hits for p in parts),
    )


def _inside(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The mask of the rows of ``points`` inside the closed box ``[lo, hi]``.

    One column at a time, skipping infinite faces: on the few short columns
    of a range query's candidates this is faster than one ``(n, d)``
    comparison reduced over its short axis (DESIGN.md section 5, item 19).
    """
    keep = np.ones(len(points), dtype=bool)
    for dim, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
        column = points[:, dim]
        if low > -math.inf:
            keep &= column >= low
        if high < math.inf:
            keep &= column <= high
    return keep


def checked_rows(rows, ndim: int) -> np.ndarray:
    """``rows`` as a ``(k, ndim)`` float array, or ``ValueError``: what a
    base table checks before an append touches anything."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != ndim:
        raise ValueError("appended rows must match the table's dimensionality")
    if rows.size and not np.isfinite(rows).all():
        raise ValueError("appended rows must be finite")
    return rows


def checked_rowids(rowids) -> np.ndarray:
    """``rowids`` as a 1-D ``int64`` array, or ``ValueError`` when one is not
    a whole number: what a base table checks before a delete touches
    anything (a cast alone would truncate 1.5 to row 1)."""
    ids = np.atleast_1d(np.asarray(rowids))
    if ids.dtype.kind not in "iu" and not (
        ids.dtype.kind == "f" and (np.isfinite(ids) & (np.trunc(ids) == ids)).all()
    ):
        raise ValueError(f"row ids must be whole numbers, got {rowids!r}")
    return ids.astype(np.int64, copy=False)


class _SortedColumn:
    """One dimension's index: ``keys``, the column's values ascending,
    beside ``rows``, the heap row holding each (equal keys in ascending row
    id).  :meth:`range_rows` and :meth:`DiskTable.estimate_count` bisect the
    same ``keys``, so a count and a scan cannot disagree.  Writers replace
    each array by one reference assignment under the table lock; a reader
    that takes only ``keys`` needs no lock."""

    def __init__(self, column: np.ndarray):
        order = np.argsort(column, kind="stable")
        self.keys = column[order]
        self.rows = order.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return len(self.keys)

    def range_rows(self, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
        """Row ids whose key lies in the closed interval ``[lo, hi]``, in key
        order."""
        keys = self.keys
        return self.rows[keys.searchsorted(lo, "left") : keys.searchsorted(hi, "right")]

    def insert(self, column: np.ndarray, rowids: np.ndarray) -> None:
        """Merge the keys of new rows (``rowids`` ascending, above every id
        present).  The batch is sorted first: ``np.insert`` keeps values
        bound for one gap in the order given."""
        order = np.argsort(column, kind="stable")
        column = column[order]
        at = self.keys.searchsorted(column, "right")
        self.keys = np.insert(self.keys, at, column)
        self.rows = np.insert(self.rows, at, rowids[order])

    def keep(self, alive: np.ndarray) -> int:
        """Drop the entries of rows not ``alive``; returns how many."""
        kept = alive[self.rows]
        if not kept.all():
            self.keys = self.keys[kept]
            self.rows = self.rows[kept]
        return len(kept) - len(self.rows)


class Forecast:
    """What fetching each of ``n`` closed boxes ``[lo[i], hi[i]]`` would
    charge, from the sorted columns alone -- no simulated I/O, no lock.

    ``rows`` / ``pages`` / ``seeks`` are ``(n,)`` arrays, summed over
    ``tables`` (one :class:`DiskTable`, or the shards of a fleet, which share
    a plan and a cost model).  Rows follow what the plan charges: ``n * prod_j
    (c_j / n)`` over the exact per-dimension counts ``c_j`` under ``bitmap``
    (independence between dimensions is the only assumption), ``min_j c_j``
    under ``best_index``, the heap under ``seqscan``; a table with an empty
    marginal contributes nothing, as it answers such a box without a seek.
    Pages and seeks are :meth:`DiskCostModel.fetch_shape` of the rows.

    Each bound is bisected once, here, and its *rank* kept: the marginal
    count of the bounding box of any subset of the boxes is ``max(rank_hi) -
    min(rank_lo)``, so :meth:`hull` prices it without another bisect.
    ``model`` is the tables' :class:`DiskCostModel`.
    """

    def __init__(self, tables: Sequence["DiskTable"], lo: np.ndarray, hi: np.ndarray):
        first = tables[0]
        self._plan, self.model = first.plan, first.cost_model
        ndim = self._ndim = first.ndim
        # (tables, 2d, n): each lower bound's rank, then each upper bound's
        # negated, so one ``min`` over boxes is their hull's ranks
        ranks = self._ranks = np.empty((len(tables), 2 * ndim, len(lo)))
        for row, table in zip(ranks, tables):
            for dim, (lows, highs) in enumerate(zip(lo.T, hi.T)):
                keys = table.index(dim).keys
                row[dim] = keys.searchsorted(lows, "left")
                row[ndim + dim] = keys.searchsorted(highs, "right")
        ranks[:, ndim:] *= -1.0
        # (tables, 1): index entries (as the factor that turns a product of
        # marginal counts into rows), heap pages
        size = self._size = np.array([[float(len(t.index(0).keys))] for t in tables])
        self._per_product = 1.0 / np.maximum(size, 1.0) ** (ndim - 1)
        self._heap_pages = (
            None if self.model.clustered else np.array([[t.n_pages] for t in tables])
        )
        self.rows, self.pages, self.seeks = self._price(ranks)

    def hull(self, members: np.ndarray) -> Tuple[float, int, int]:
        """``(rows, pages, seeks)`` of the bounding box of ``members``."""
        rows, pages, seeks = self._price(
            self._ranks[:, :, members].min(axis=2, keepdims=True)
        )
        return float(rows[0]), int(pages[0]), int(seeks[0])

    def io_ms(self) -> float:
        """Predicted latency of issuing every box, one by one."""
        return self.model.fetch_cost_ms(int(self.seeks.sum()), int(self.pages.sum()))

    def _price(self, ranks: np.ndarray) -> tuple:
        ndim = self._ndim
        counts = np.maximum(-(ranks[:, :ndim] + ranks[:, ndim:]), 0.0)
        if self._plan == "bitmap":
            rows = counts.prod(axis=1) * self._per_product
        elif self._plan == "best_index":
            rows = counts.min(axis=1)
        else:
            rows = np.broadcast_to(self._size, counts.shape[::2])
        pages, seeks = self.model.fetch_shape(rows, self._heap_pages)
        if len(rows) == 1:  # one table: nothing to sum, on the planning path
            return rows[0], pages[0], seeks[0]
        return rows.sum(axis=0), pages.sum(axis=0), seeks.sum(axis=0)


class DiskTable:
    """A read-mostly table of ``(n, d)`` float points with per-dim indexes."""

    def __init__(
        self,
        data: np.ndarray,
        cost_model: Optional[DiskCostModel] = None,
        plan: PlanKind = "bitmap",
        buffer_pages: Optional[int] = None,
        columns: Optional[Sequence[str]] = None,
        obs=None,
    ):
        """``buffer_pages`` enables an LRU heap-page cache (default off --
        the paper's cold-cache methodology; see
        :class:`~repro.storage.pager.BufferPool`).  ``columns`` optionally
        names the dimensions, enabling :meth:`constraints` by name.
        ``obs`` attaches an :class:`~repro.obs.Observability`: every range
        query then runs inside a ``table.range_query`` span and feeds the
        ``table_*`` counters."""
        data = np.ascontiguousarray(np.asarray(data, dtype=float))
        if data.ndim != 2:
            raise ValueError("data must be an (n, d) array")
        if data.size and not np.isfinite(data).all():
            raise ValueError("data must be finite (no NaN/inf coordinates)")
        if plan not in ("best_index", "bitmap", "seqscan"):
            raise ValueError(f"unknown plan kind: {plan!r}")
        self._data = data
        self.cost_model = cost_model or DiskCostModel()
        self.plan: PlanKind = plan
        self.stats = IOStats()
        # One disk head: concurrent queries (``QueryService`` workers)
        # serialize on this lock, so IOStats read-modify-writes stay exact
        # and each result is stamped with what its own call charged.
        self._lock = threading.RLock()
        self.obs = NULL_OBS if obs is None else obs
        self._alive = np.ones(len(data), dtype=bool)
        self.buffer = BufferPool(buffer_pages) if buffer_pages else None
        #: bumped by every append or delete that changes the live rows
        #: (never by :meth:`vacuum`): an engine caching answers over this
        #: table compares it to tell whether someone else wrote
        self.write_count = 0
        #: what :meth:`watch_writes` registered, told of each such write
        self._write_watchers: list = []
        if columns is not None:
            columns = tuple(columns)
            if len(columns) != data.shape[1]:
                raise ValueError("one column name per dimension required")
            if len(set(columns)) != len(columns):
                raise ValueError("column names must be unique")
        self.columns: Optional[tuple] = columns

        n, d = data.shape
        self._indexes: List[_SortedColumn] = [
            _SortedColumn(data[:, i]) for i in range(d)
        ]
        if n:
            self.domain_lo = data.min(axis=0)
            self.domain_hi = data.max(axis=0)
        else:
            self.domain_lo = np.zeros(d)
            self.domain_hi = np.zeros(d)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Heap size, including rows deleted but not yet vacuumed."""
        return len(self._data)

    @property
    def live_count(self) -> int:
        """Number of rows not marked deleted."""
        return int(self._alive.sum())

    @property
    def base(self) -> "DiskTable":
        """The table that holds the rows: this one.  A wrapper that delegates
        attribute lookups (a fault injector) answers with the wrapped
        table's, so ``a.base is b.base`` tells whether two handles read and
        write the same rows."""
        return self

    @property
    def ndim(self) -> int:
        return self._data.shape[1]

    @property
    def n_pages(self) -> int:
        return math.ceil(self.n / self.cost_model.page_size)

    def index(self, dim: int) -> _SortedColumn:
        """Return the index on dimension ``dim``."""
        return self._indexes[dim]

    def constraints(self, **ranges) -> "Constraints":
        """Build constraints by column name; unnamed dimensions default to
        the full data domain.

        Each value is ``(lo, hi)``; ``None`` on either side means
        unconstrained on that side.  Requires the table to have been
        constructed with ``columns``::

            table = DiskTable(rows, columns=("price", "distance"))
            c = table.constraints(price=(60, 160), distance=(None, 4.0))
        """
        from repro.geometry.constraints import Constraints

        if self.columns is None:
            raise ValueError("this table has no column names; pass columns=")
        lo = self.domain_lo.copy()
        hi = self.domain_hi.copy()
        for name, bound in ranges.items():
            if name not in self.columns:
                raise KeyError(
                    f"unknown column {name!r}; available: {self.columns}"
                )
            dim = self.columns.index(name)
            low, high = bound
            if low is not None:
                lo[dim] = float(low)
            if high is not None:
                hi[dim] = float(high)
        return Constraints(lo, hi)

    def data_view(self) -> np.ndarray:
        """Return a read-only view of the raw data (for index building by
        other components, e.g. the BBS R-tree; charges no simulated I/O)."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------
    # Selectivity estimation (histogram stand-in; O(log n), no I/O)
    # ------------------------------------------------------------------
    def estimate_count(self, dim: int, lo: float, hi: float) -> int:
        """Count the index entries in ``[lo, hi]`` on one dimension: always
        ``len(self.index(dim).range_rows(lo, hi))``, an estimate of the live
        rows because rows deleted but not yet vacuumed are counted.  Needs
        no table lock."""
        keys = self._indexes[dim].keys
        left = int(keys.searchsorted(lo, "left"))
        right = int(keys.searchsorted(hi, "right"))
        return max(0, right - left)

    def forecast(self, lo: np.ndarray, hi: np.ndarray) -> Forecast:
        """Price the closed boxes ``[lo[i], hi[i]]`` (``(n, d)`` arrays)
        from the live sorted columns: nothing is maintained for it, so it is
        never stale, and it charges no simulated I/O."""
        return Forecast([self], lo, hi)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def bind_obs(self, obs) -> "DiskTable":
        """Attach (or detach, with None) observability to this table."""
        self.obs = NULL_OBS if obs is None else obs
        return self

    def range_query(self, lo, hi) -> RangeResult:
        """Execute one range query for the points inside the closed box
        ``[lo[j], hi[j]]`` per dimension ``j`` (a face may be +-inf).

        Each call models one SQL range predicate sent to the DBMS; the MPR
        fetch issues one call per decomposed hyper-rectangle.
        """
        obs = self.obs
        if not obs.enabled:
            return self._locked_range_query(lo, hi)
        # Instrumented path: one span per range query plus table counters.
        # The span's I/O figures come from the result itself (stamped under
        # the table lock), so they stay exact under concurrent queries.
        with obs.tracer.span("table.range_query", plan=self.plan) as span:
            result = self._locked_range_query(lo, hi)
            span.set(
                rows=len(result),
                rows_fetched=result.rows_fetched,
                points_read=result.rows_fetched,
                simulated_io_ms=round(result.io_ms, 6),
            )
        m = obs.metrics
        m.inc("table_range_queries_total", plan=self.plan)
        if result.rows_fetched == 0:
            m.inc("table_empty_queries_total", plan=self.plan)
        else:
            m.inc("table_points_read_total", result.rows_fetched, plan=self.plan)
        return result

    def _locked_range_query(self, lo, hi) -> RangeResult:
        """Run one range query under the table lock, stamping on the result
        every counter the call moved."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if lo.shape != (self.ndim,) or hi.shape != (self.ndim,):
            raise ValueError("box dimensionality does not match the table")
        stats = self.stats
        with self._lock:
            io_ms, pages, seeks = stats.simulated_io_ms, stats.pages_read, stats.seeks
            empty, hits = stats.empty_queries, stats.buffer_hits
            points, rowids, rows_fetched = self._execute_range_query(lo, hi)
            return RangeResult(
                points,
                rowids,
                rows_fetched,
                io_ms=stats.simulated_io_ms - io_ms,
                pages_read=stats.pages_read - pages,
                seeks=stats.seeks - seeks,
                range_queries=1,
                empty_queries=stats.empty_queries - empty,
                buffer_hits=stats.buffer_hits - hits,
            )

    def charge_io(self, ms: float) -> None:
        """Charge extra simulated I/O latency (e.g. an injected latency
        spike) to the table's stats, safely under the table lock."""
        with self._lock:
            self.stats.simulated_io_ms += ms

    def _execute_range_query(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """``(points, rowids, rows_fetched)``, charging :attr:`stats`."""
        self.stats.range_queries += 1
        if self.n == 0 or not _holds_double(lo.tolist(), hi.tolist()):
            self.stats.empty_queries += 1
            return self._empty_result()

        if self.plan == "seqscan":
            return self._seqscan_query(lo, hi)

        candidates = self._best_index_candidates(lo, hi)
        if candidates is None or len(candidates) == 0:
            self.stats.empty_queries += 1
            return self._empty_result()

        points = self._data[candidates]
        keep = _inside(points, lo, hi)
        matches = candidates[keep]
        if self.plan == "bitmap":
            # BitmapAnd plan: the indexes intersect to the exact row set;
            # only matching heap rows are read (none, if the set is empty).
            if len(matches) == 0:
                self.stats.empty_queries += 1
                return self._empty_result()
            self._charge_fetch(matches)
            rows_fetched = len(matches)
        else:
            self._charge_fetch(candidates)
            rows_fetched = len(candidates)
        return points[keep], matches, rows_fetched

    def full_scan(self) -> RangeResult:
        """Sequentially scan the whole table."""
        if self.obs.enabled:
            self.obs.metrics.inc("table_full_scans_total")
            with self.obs.tracer.span("table.full_scan", rows=self.n):
                return self._execute_full_scan()
        return self._execute_full_scan()

    def _execute_full_scan(self) -> RangeResult:
        with self._lock:
            self.stats.full_scans += 1
            n_pages = self.n_pages
            scan_ms = self.cost_model.sequential_scan_cost_ms(n_pages)
            self.stats.pages_read += n_pages
            self.stats.seeks += 1 if n_pages else 0
            self.stats.points_read += self.n
            self.stats.simulated_io_ms += scan_ms
            alive_ids = np.flatnonzero(self._alive)
        return RangeResult(
            points=self._data[alive_ids].copy(),
            rowids=alive_ids,
            rows_fetched=self.n,
            io_ms=scan_ms,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path, crashpoint=None) -> None:
        """Save the table (rows, tombstones, schema, cost model) to ``.npz``.

        Indexes are not stored (:meth:`load` re-sorts each column), so
        vacuumed-away index entries reappear as tombstones, with identical
        query behaviour.
        A CRC32 checksum over the heap payload and tombstone bitmap is
        stored and verified by :meth:`load`.

        The archive is committed atomically (temp file + rename), so a
        crash mid-save leaves the previous checkpoint intact;
        ``crashpoint`` threads the fault injector's seeded crash hook into
        the commit (point ``"table.checkpoint"``) for the recovery drill.
        """
        atomic_savez(
            path,
            crashpoint=crashpoint,
            point="table.checkpoint",
            data=self._data,
            alive=self._alive,
            checksum=np.array(
                _archive_checksum(self._data, self._alive), dtype=np.uint32
            ),
            columns=np.array(self.columns or (), dtype="U64"),
            has_columns=np.array(self.columns is not None),
            plan=np.array(self.plan),
            buffer_pages=np.array(
                self.buffer.capacity if self.buffer is not None else 0
            ),
            cost_model=np.array(
                [
                    self.cost_model.seek_ms,
                    self.cost_model.page_read_ms,
                    float(self.cost_model.page_size),
                    1.0 if self.cost_model.clustered else 0.0,
                ]
            ),
        )

    @classmethod
    def load(cls, path) -> "DiskTable":
        """Load a table saved with :meth:`save`, validating its integrity.

        Raises :class:`CorruptTableError` -- and nothing else -- when the
        archive is unreadable, is missing required keys, carries a malformed
        heap or tombstone bitmap, contains non-finite rows, or fails its
        stored checksum.  Archives written before checksums existed (no
        ``checksum`` key) are accepted after the structural checks, and
        unknown keys (older archives carry a B+-tree leaf size) are ignored.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                missing = _REQUIRED_ARCHIVE_KEYS - set(archive.files)
                if missing:
                    raise CorruptTableError(
                        f"table archive {path} is missing required keys: "
                        f"{sorted(missing)}"
                    )
                data = np.asarray(archive["data"])
                alive = np.asarray(archive["alive"])
                if data.ndim != 2:
                    raise CorruptTableError(
                        f"table archive {path}: data must be 2-D, got {data.ndim}-D"
                    )
                if not np.issubdtype(data.dtype, np.number):
                    raise CorruptTableError(
                        f"table archive {path}: data has non-numeric dtype {data.dtype}"
                    )
                if alive.ndim != 1 or len(alive) != len(data):
                    raise CorruptTableError(
                        f"table archive {path}: alive bitmap length {alive.shape} "
                        f"does not match {len(data)} heap rows"
                    )
                if alive.dtype != np.bool_:
                    raise CorruptTableError(
                        f"table archive {path}: alive bitmap has dtype "
                        f"{alive.dtype}, expected bool"
                    )
                if data.size and not np.isfinite(data).all():
                    live_bad = bool(np.any(~np.isfinite(data[alive])))
                    where = "live rows" if live_bad else "tombstoned rows"
                    raise CorruptTableError(
                        f"table archive {path}: non-finite values in {where}"
                    )
                if "checksum" in archive.files:
                    stored = int(archive["checksum"])
                    actual = _archive_checksum(data, alive)
                    if stored != actual:
                        raise CorruptTableError(
                            f"table archive {path}: checksum mismatch "
                            f"(stored {stored:#010x}, computed {actual:#010x})"
                        )
                cost = np.asarray(archive["cost_model"], dtype=float)
                if cost.shape != (4,):
                    raise CorruptTableError(
                        f"table archive {path}: cost_model must hold 4 values, "
                        f"got shape {cost.shape}"
                    )
                plan = str(archive["plan"])
                if plan not in ("best_index", "bitmap", "seqscan"):
                    raise CorruptTableError(
                        f"table archive {path}: unknown plan kind {plan!r}"
                    )
                model = DiskCostModel(
                    seek_ms=float(cost[0]),
                    page_read_ms=float(cost[1]),
                    page_size=int(cost[2]),
                    clustered=bool(cost[3]),
                )
                buffer_pages = int(archive["buffer_pages"])
                columns = (
                    tuple(str(c) for c in archive["columns"])
                    if bool(archive["has_columns"])
                    else None
                )
                table = cls(
                    data,
                    cost_model=model,
                    plan=plan,
                    buffer_pages=buffer_pages or None,
                    columns=columns,
                )
                table._alive = alive.copy()
        except CorruptTableError:
            raise
        except Exception as exc:
            # A flipped byte in the zip container can surface almost any
            # stdlib exception type (BadZipFile, zlib.error, ValueError,
            # NotImplementedError, ...); any parse failure IS corruption.
            raise CorruptTableError(
                f"table archive {path} is unreadable: {exc}"
            ) from exc
        return table

    # ------------------------------------------------------------------
    # Updates (Section 6.2 dynamic-data support)
    # ------------------------------------------------------------------
    def append(self, rows: np.ndarray) -> np.ndarray:
        """Append rows to the heap and merge them into every index; returns
        the new row ids.  Writes are charged one page per touched heap page;
        an empty batch changes and charges nothing."""
        rows = checked_rows(rows, self.ndim)
        if not len(rows):
            return np.empty(0, dtype=np.int64)
        with self._lock:
            start = self.n
            new_ids = np.arange(start, start + len(rows), dtype=np.int64)
            self._data = np.ascontiguousarray(np.vstack([self._data, rows]))
            self._alive = np.concatenate(
                [self._alive, np.ones(len(rows), dtype=bool)]
            )
            for i, index in enumerate(self._indexes):
                index.insert(rows[:, i], new_ids)
            self.domain_lo = np.minimum(self.domain_lo, rows.min(axis=0))
            self.domain_hi = np.maximum(self.domain_hi, rows.max(axis=0))
            n_pages = math.ceil(len(rows) / self.cost_model.page_size)
            self.stats.pages_read += n_pages
            self.stats.seeks += 1
            self.stats.simulated_io_ms += self.cost_model.fetch_cost_ms(1, n_pages)
            self._wrote()
        return new_ids

    def delete(self, rowids: np.ndarray) -> int:
        """Mark rows deleted (tombstones, PostgreSQL-style: indexes keep the
        entries, queries filter dead rows).  Returns how many rows died."""
        rowids = checked_rowids(rowids)
        with self._lock:
            if len(rowids) and (rowids.min() < 0 or rowids.max() >= self.n):
                raise IndexError("row id out of range")
            killed = int(self._alive[rowids].sum())
            self._alive[rowids] = False
            if killed:
                self._wrote()
        return killed

    def _wrote(self) -> None:
        """Count one write that changed the live rows, here and in every
        watcher."""
        self.write_count += 1
        for watcher in self._write_watchers:
            watcher.note_write()

    def watch_writes(self, watcher) -> bool:
        """Call ``watcher.note_write()`` after every write that changes the
        live rows from now on (a :class:`~repro.storage.sharding.ShardedTable`
        over this table as one of its shards).  Returns False, registering
        nothing, when ``watcher`` already watches this table."""
        if any(w is watcher for w in self._write_watchers):
            return False
        self._write_watchers.append(watcher)
        return True

    def vacuum(self) -> int:
        """Remove dead rows' entries from every index (PostgreSQL VACUUM).

        Heap row ids stay stable (no physical compaction); index scans and
        selectivity estimates stop seeing the dead rows.  Returns the number
        of rows vacuumed.
        """
        removed = 0
        with self._lock:
            for index in self._indexes:  # each holds, and drops, the same rows
                removed = index.keep(self._alive)
        return removed

    def row(self, rowid: int) -> np.ndarray:
        """Return one live row's values (no I/O charge; test/maintenance aid)."""
        if not 0 <= rowid < self.n:
            raise IndexError(f"row id {rowid} out of range")
        if not self._alive[rowid]:
            raise KeyError(f"row {rowid} is deleted")
        return self._data[rowid].copy()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _empty_result(self) -> tuple:
        return np.empty((0, self.ndim)), np.empty(0, dtype=np.int64), 0

    def _seqscan_query(self, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """Answer a range query by scanning the whole heap.

        The paper's preliminary experiments "also tested a baseline using
        sequential scan, but it was consistently slower than the baseline
        using the indexes"; this plan exists to reproduce that comparison.
        """
        n_pages = self.n_pages
        self.stats.pages_read += n_pages
        self.stats.seeks += 1 if n_pages else 0
        self.stats.points_read += self.n
        self.stats.simulated_io_ms += self.cost_model.sequential_scan_cost_ms(n_pages)
        keep = _inside(self._data, lo, hi) & self._alive
        rowids = np.flatnonzero(keep)
        return self._data[rowids], rowids, self.n

    def _best_index_candidates(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> Optional[np.ndarray]:
        best_dim, best_count = 0, None
        for i, (low, high) in enumerate(zip(lo.tolist(), hi.tolist())):
            count = self.estimate_count(i, low, high)
            if best_count is None or count < best_count:
                best_dim, best_count = i, count
            if count == 0:
                return None
        candidates = self._indexes[best_dim].range_rows(lo[best_dim], hi[best_dim])
        return candidates[self._alive[candidates]]

    def _charge_fetch(self, rowids: np.ndarray) -> None:
        """Account for reading the given heap rows from disk."""
        if self.buffer is not None:
            page_ids = np.asarray(rowids, dtype=np.int64) // self.cost_model.page_size
            total_pages = len(np.unique(page_ids))
            n_pages = self.buffer.access(page_ids)
            self.stats.buffer_hits += total_pages - n_pages
            n_runs = 1 if n_pages else 0
        elif self.cost_model.clustered:
            n_pages = math.ceil(len(rowids) / self.cost_model.page_size)
            n_runs = 1 if n_pages else 0
        else:
            rowids_sorted = np.sort(rowids)
            n_pages, n_runs = page_runs(rowids_sorted, self.cost_model.page_size)
        self.stats.pages_read += n_pages
        self.stats.seeks += n_runs
        self.stats.points_read += len(rowids)
        self.stats.simulated_io_ms += self.cost_model.fetch_cost_ms(n_runs, n_pages)
