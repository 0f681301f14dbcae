"""The in-memory constrained-skyline cache (paper Definition 3, Section 6).

Each cache item is the paper's 3-tuple ``<Sky(S,C), MBR, C>``: the result of
an earlier query, the minimum bounding rectangle of that result, and the
constraints that produced it.  A lookup for new constraints ``C'`` returns
every item whose MBR intersects ``R_C'``.  The paper organizes the cache "by
an R*-tree indexing the MBR of each cached skyline"; here the MBRs are
columns of a flat bounds table and the lookup is one broadcast overlap test,
which is faster than the tree at every cache size measured (DESIGN.md
section 5, item 10) and returns candidates in a documented order: ascending
``item_id``.  The same table holds each item's constraint bounds, handed to
the search strategies with the candidates, and its replacement stamps
(item 19).

Cache replacement (Section 6.2) is supported by insertion and use counters
on the items: this module implements LRU (least recently used) and LCU
(least commonly used) eviction over a configurable capacity.

A cache built with ``log=`` (a :class:`~repro.storage.wal.CheckpointedLog`)
is durable: every mutation is journaled as it applies, the whole cache is
snapshotted every ``checkpoint_every`` records, and constructing a cache
over the same directory restores the snapshot plus the WAL tail (warm
restart).  A snapshot that fails validation cold-starts the cache.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Literal, Optional

import numpy as np

from repro.geometry.constraints import Constraints, all_columns
from repro.geometry.dominance import dominated_mask
from repro.ioutil import atomic_savez, decode_array, encode_array
from repro.obs.metrics import NULL_METRICS, MetricsRegistry

ReplacementPolicy = Literal["lru", "lcu"]


class CorruptCacheError(ValueError):
    """A persisted cache archive failed integrity validation on load.

    Sibling of :class:`repro.storage.table.CorruptTableError`: loading a
    bit-flipped cache snapshot must raise, never silently hand back garbage
    skylines that would poison every query pruning with them.
    """


def _cache_checksum(arrays: Dict[str, np.ndarray]) -> int:
    """CRC32 over every payload array, in sorted-key order."""
    crc = 0
    for key in sorted(arrays):
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(np.ascontiguousarray(arrays[key]).tobytes(), crc)
    return crc


@dataclass(eq=False)  # identity semantics: items are unique live objects
class CacheItem:
    """One cached constrained-skyline result: ``<Sky(S,C), MBR, C>``."""

    constraints: Constraints
    skyline: np.ndarray
    mbr_lo: np.ndarray
    mbr_hi: np.ndarray
    item_id: int
    inserted_at: int
    last_used: int = 0
    use_count: int = 0

    @property
    def skyline_size(self) -> int:
        return len(self.skyline)

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the cached skyline payload."""
        return int(self.skyline.nbytes)

    def __repr__(self) -> str:
        return (
            f"CacheItem(id={self.item_id}, |sky|={self.skyline_size}, "
            f"C={self.constraints!r})"
        )


class Candidates(list):
    """The cache items a query's region overlaps, in ascending ``item_id``,
    with their constraint bounds as columns: ``lo`` / ``hi`` are ``(d, k)``
    arrays whose column ``j`` is ``self[j].constraints.lo`` / ``.hi``.

    :meth:`SkylineCache.candidates` cuts both from its bounds table in the
    same gather as the items, so a strategy scores every candidate without
    touching one :class:`CacheItem`; the short dimension axis leads, so each
    reduction over it is a few whole-row operations.  :meth:`without` is the
    one way to drop a candidate, keeping items and columns aligned.

    ``exact`` marks the key probe's answer: the one item cached under the
    query's own constraints, found without the overlap search.
    """

    __slots__ = ("lo", "hi", "exact")

    def __init__(self, items, lo: np.ndarray, hi: np.ndarray, exact: bool = False):
        list.__init__(self, items)
        self.lo = lo
        self.hi = hi
        self.exact = exact

    @classmethod
    def of(cls, items) -> "Candidates":
        """``items`` (at least one) with their columns built from each item's
        constraints; a :class:`Candidates` is returned as it is."""
        if isinstance(items, Candidates):
            return items
        items = list(items)
        return cls(
            items,
            np.stack([item.constraints.lo for item in items], axis=1),
            np.stack([item.constraints.hi for item in items], axis=1),
        )

    def without(self, item: CacheItem) -> "Candidates":
        """The candidates other than ``item`` (compared by identity)."""
        keep = [j for j, other in enumerate(self) if other is not item]
        return Candidates([self[j] for j in keep], self.lo[:, keep], self.hi[:, keep])


class _BoundsTable:
    """The live items in ascending ``item_id``, and beside them, as columns,
    what the cache search and the strategies read of each (replacement
    reads the items' own ``last_used`` / ``use_count``).

    Column ``j < len(self)`` belongs to ``items[j]``: ``_bounds[:, :, j]``
    holds its MBR's lower and upper corner and its constraints' ``lo`` and
    ``hi`` (a ``(4, d, capacity)`` float array).  Item ids only grow, so
    appending keeps the order: a column is found by bisecting ``ids``, and
    a search answers in ``item_id`` order.  Columns past ``len(self)`` are
    spare room, so an insert or a delete moves data in place rather than
    reallocating.
    """

    def __init__(self):
        #: None until the first item fixes the dimensionality
        self.ndim: Optional[int] = None
        self.ids: List[int] = []
        self.items: List[CacheItem] = []
        self._bounds = np.empty((4, 0, 0))

    def __len__(self) -> int:
        return len(self.ids)

    def _column(self, item_id: int) -> Optional[int]:
        j = bisect_left(self.ids, item_id)
        return j if j < len(self.ids) and self.ids[j] == item_id else None

    def get(self, item_id: int) -> Optional[CacheItem]:
        j = self._column(item_id)
        return None if j is None else self.items[j]

    def append(self, item: CacheItem) -> None:
        """Add a column for ``item``, whose id is above every id present."""
        n = len(self.ids)
        if self.ndim is None:
            self.ndim = item.constraints.ndim
            self._bounds = np.empty((4, self.ndim, 0))
        if n == self._bounds.shape[2]:
            room = max(16, n)
            self._bounds = np.concatenate(
                [self._bounds, np.empty((4, self.ndim, room))], axis=2
            )
        self.ids.append(item.item_id)
        self.items.append(item)
        column = self._bounds[:, :, n]
        column[0], column[1] = item.mbr_lo, item.mbr_hi
        column[2], column[3] = item.constraints.lo, item.constraints.hi

    def set_mbr(self, item: CacheItem) -> None:
        """Copy ``item``'s MBR into its column."""
        self._bounds[:2, :, self._column(item.item_id)] = item.mbr_lo, item.mbr_hi

    def delete(self, item_id: int) -> bool:
        """Shift-delete ``item_id``'s column; False when it has none."""
        j = self._column(item_id)
        if j is None:
            return False
        n = len(self.ids)
        del self.ids[j]
        del self.items[j]
        self._bounds[:, :, j : n - 1] = self._bounds[:, :, j + 1 : n]
        return True

    def overlapping(self, lo: np.ndarray, hi: np.ndarray) -> Candidates:
        """The items whose MBR intersects ``[lo, hi]``, ascending, with their
        constraint columns."""
        n = len(self.ids)
        if n == 0:
            return Candidates([], np.empty((len(lo), 0)), np.empty((len(lo), 0)))
        bounds = self._bounds[:, :, :n]
        hit = all_columns((bounds[0] <= hi[:, None]) & (bounds[1] >= lo[:, None]))
        columns = hit.nonzero()[0]
        constraints = bounds[2:].take(columns, axis=2)
        items = self.items
        return Candidates(
            [items[j] for j in columns.tolist()], constraints[0], constraints[1]
        )

    def containing(self, point: np.ndarray) -> List[CacheItem]:
        """The items whose constraint region holds ``point``, ascending."""
        n = len(self.ids)
        if n == 0:
            return []
        column = np.asarray(point, dtype=float)[:, None]
        lo, hi = self._bounds[2:, :, :n]
        columns = all_columns((lo <= column) & (column <= hi)).nonzero()[0]
        items = self.items
        return [items[j] for j in columns.tolist()]

    def victim(self, policy: "ReplacementPolicy") -> CacheItem:
        """The item replacement evicts: least ``last_used`` (LRU), or least
        ``use_count`` then ``last_used`` (LCU), the lower ``item_id`` on a
        tie -- ``min`` keeps the first minimum and ``items`` is in id order."""
        if policy == "lru":
            return min(self.items, key=attrgetter("last_used"))
        return min(self.items, key=attrgetter("use_count", "last_used"))


class SkylineCache:
    """An in-memory cache of constrained skylines with a flat MBR table."""

    def __init__(
        self,
        capacity: Optional[int] = None,
        policy: ReplacementPolicy = "lru",
        metrics: Optional[MetricsRegistry] = None,
        log=None,
    ):
        """``capacity`` of None means unbounded (the paper's experiments
        never evict; replacement is exercised by our extension tests).
        ``metrics`` optionally mirrors the hit/miss/eviction counters into a
        shared :class:`~repro.obs.metrics.MetricsRegistry`.

        ``log`` (a :class:`~repro.storage.wal.CheckpointedLog`, named
        ``"cache"`` by convention) makes the cache durable: its snapshot and
        WAL tail are restored into this cache right here in the constructor
        (warm restart), and every later mutation is journaled to it.  The
        default None keeps the cache in process memory only.
        """
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        if policy not in ("lru", "lcu"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.capacity = capacity
        self.policy: ReplacementPolicy = policy
        # Reentrant: verify_and_heal -> quarantine and replace_skyline ->
        # remove/insert nest under one acquisition.  Shared by every
        # engine/service worker querying through this cache concurrently.
        self._lock = threading.RLock()
        #: the key probe: each live item's ``Constraints.key()`` -> the
        #: item alone as the probe's answer, ``Candidates(exact=True)``,
        #: built once at insertion (an item's constraints never change)
        self._by_constraints: dict[tuple, Candidates] = {}
        self._table = _BoundsTable()
        self._clock = itertools.count(1)
        self._id_counter = itertools.count(1)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self.refreshes = 0
        self.quarantined = 0
        self.metrics = NULL_METRICS if metrics is None else metrics
        #: a durable cache's restore source: ``"snapshot"``, ``"wal"``,
        #: ``"snapshot+wal"`` or ``"cold"`` (None without a log)
        self.restored_from: Optional[str] = None
        # attached after the restore, so replayed records are not re-logged
        self.log = None
        if log is not None:
            self.restored_from = self._restore(log)
            self.log = log

    def bind_metrics(self, metrics: Optional[MetricsRegistry]) -> "SkylineCache":
        """Attach (or detach, with None) a shared metrics registry."""
        self.metrics = NULL_METRICS if metrics is None else metrics
        return self

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, constraints: Constraints, skyline: np.ndarray) -> Optional[CacheItem]:
        """Cache a query result; returns the item, or None if not cacheable.

        Empty skylines are not cached: they have no MBR to index and no
        points to prune with.  Re-inserting identical constraints refreshes
        the existing item: if the newly computed skyline differs (the data
        changed, or the stored copy rotted), the stored skyline, MBR and
        bounds-table row are replaced, so re-answered queries can never
        resurrect a stale entry.  Raises ``ValueError``, leaving the cache
        unchanged, when the dimensionality differs from the cached items'.
        """
        return self._put(constraints, skyline)

    def _put(self, constraints, skyline, stamps=None) -> Optional[CacheItem]:
        """:meth:`insert`, or with ``stamps`` the restore of a persisted item.

        ``stamps`` are an item's saved ``(inserted_at, last_used,
        use_count)`` (snapshot load and WAL replay).  They are in place
        before the capacity check, so replacement sees the saved recency
        order, and the clock ends past them, so whatever is inserted or
        touched next is newer than anything restored.
        """
        skyline = np.asarray(skyline, dtype=float)
        if len(skyline) == 0:
            return None
        if skyline.ndim != 2 or skyline.shape[1] != constraints.ndim:
            raise ValueError("skyline must be a (k, d) array matching constraints")

        with self._lock:
            self._check_ndim(constraints)
            probe = self._by_constraints.get(constraints.key())
            if probe is not None:
                item = probe[0]
                if not np.array_equal(item.skyline, skyline):
                    self._reindex(item, skyline)
                    self.refreshes += 1
                    self.metrics.inc("cache_refreshes_total")
                    self._journal("put", item)
                self.touch(item)
                self._restore_stamps(item, stamps)
                return item

            item = CacheItem(
                constraints=constraints,
                skyline=skyline.copy(),
                mbr_lo=skyline.min(axis=0),
                mbr_hi=skyline.max(axis=0),
                item_id=next(self._id_counter),
                inserted_at=next(self._clock),
            )
            item.last_used = item.inserted_at
            self._table.append(item)
            self._by_constraints[constraints.key()] = Candidates(
                [item], constraints.lo[:, None], constraints.hi[:, None], exact=True
            )
            self._restore_stamps(item, stamps)
            self.insertions += 1
            self.metrics.inc("cache_insertions_total")
            self._journal("put", item)
            self._evict_if_needed()
            self.metrics.set_gauge("cache_items", len(self._table))
            return item

    def _restore_stamps(self, item: CacheItem, stamps) -> None:
        if stamps is None:
            return
        inserted_at, last_used, use_count = map(int, stamps)
        item.inserted_at = inserted_at
        item.last_used, item.use_count = last_used, use_count
        self._clock = itertools.count(
            max(next(self._clock), inserted_at + 1, last_used + 1)
        )

    def _check_ndim(self, constraints: Constraints) -> None:
        ndim = self._table.ndim
        if ndim is not None and constraints.ndim != ndim:
            raise ValueError(
                f"constraints are {constraints.ndim}-dimensional, "
                f"the cache holds {ndim}-dimensional items"
            )

    def remove(self, item: CacheItem) -> None:
        """Drop one item (used by dynamic-data maintenance, Section 6.2)."""
        with self._lock:
            if self._table.get(item.item_id) is not None:
                self._remove(item)

    def replace_skyline(self, item: CacheItem, skyline: np.ndarray) -> Optional[CacheItem]:
        """Swap an item's skyline (and MBR) after a data update, keeping its
        constraints; returns the refreshed item (use counters carry over)."""
        skyline = np.asarray(skyline, dtype=float)
        with self._lock:
            self.remove(item)
            refreshed = self.insert(item.constraints, skyline)
            if refreshed is not None:
                refreshed.last_used = item.last_used
                refreshed.use_count = item.use_count
                # Re-journal with the carried-over counters so a warm
                # restart restores the same LRU/LCU ordering.
                self._journal("put", refreshed)
            return refreshed

    def touch(self, item: CacheItem) -> None:
        """Record a use of ``item`` (feeds the LRU/LCU counters)."""
        with self._lock:
            item.last_used, item.use_count = next(self._clock), item.use_count + 1

    def _reindex(self, item: CacheItem, skyline: np.ndarray) -> None:
        """Swap ``item``'s skyline/MBR in place and overwrite its table row."""
        item.skyline = skyline.copy()
        item.mbr_lo = skyline.min(axis=0)
        item.mbr_hi = skyline.max(axis=0)
        self._table.set_mbr(item)

    def clear(self) -> None:
        """Drop every item."""
        with self._lock:
            self._by_constraints.clear()
            self._table = _BoundsTable()
            self._journal("clear")
        self.metrics.set_gauge("cache_items", 0)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def candidates(self, query: Constraints, record: bool = True) -> Candidates:
        """Return the item cached under ``C'`` itself, or else all items
        whose skyline MBR intersects ``R_C'``.

        The first step is a key probe: an item cached under identical
        constraints answers the query with nothing to fetch (C' = C, Section
        6), so it comes back alone, flagged ``exact``, and no other item is
        looked at.  Otherwise this is the paper's cache search, "fetching
        all cache items where R_C' intersects MBR != empty" (Section 6), as
        one broadcast overlap test over the bounds table; the items come
        back as :class:`Candidates`, with their constraint bounds cut from
        the same table.  Items come back in ascending ``item_id`` --
        insertion order -- on every path, so strategy ties break the same
        way however the cache contents were built.  Hit/miss counters are
        updated unless ``record`` is False (used by dry-run paths such as
        :meth:`repro.core.cbcs.CBCS.explain`).  Raises ``ValueError`` when
        ``query``'s dimensionality differs from the cached items'.
        """
        with self._lock:
            self._check_ndim(query)
            items = self._by_constraints.get(query.key())
            if items is None:
                items = self._table.overlapping(query.lo, query.hi)
        if record:
            if items:
                self.hits += 1
                self.metrics.inc("cache_hits_total")
            else:
                self.misses += 1
                self.metrics.inc("cache_misses_total")
        return items

    def containing(self, point) -> List[CacheItem]:
        """Return the items whose constraint region holds ``point`` (faces
        included), in ascending ``item_id``: the items a write of ``point``
        touches, found by one comparison over the bounds table."""
        with self._lock:
            return self._table.containing(point)

    def exact_match(self, query: Constraints) -> Optional[CacheItem]:
        """Return the item cached under exactly these constraints, if any."""
        with self._lock:
            probe = self._by_constraints.get(query.key())
        return None if probe is None else probe[0]

    # ------------------------------------------------------------------
    # Self-healing (invariant verification and quarantine)
    # ------------------------------------------------------------------
    def verify_item(self, item: CacheItem, sample: int = 16) -> List[str]:
        """Check ``item``'s invariants; return violation slugs (empty = ok).

        A cached skyline that violates any of these would poison every
        later query pruning with it (a wrong dominance region suppresses
        points that belong in the answer):

        - ``malformed``: not a non-empty ``(k, d)`` array matching the
          item's constraints;
        - ``non-finite``: NaN/inf coordinates (bit rot);
        - ``mbr-mismatch``: stored MBR differs from the skyline's true
          bounding box (would mis-route cache lookups);
        - ``out-of-constraints``: a point outside the item's own region;
        - ``dominated``: a sampled point dominated by another cached point
          (skyline-minimality spot check on ``sample`` evenly spaced rows).
        """
        sky = item.skyline
        if (
            not isinstance(sky, np.ndarray)
            or sky.ndim != 2
            or len(sky) == 0
            or sky.shape[1] != item.constraints.ndim
        ):
            return ["malformed"]
        problems: List[str] = []
        if not np.isfinite(sky).all():
            return ["non-finite"]
        if not (
            np.array_equal(item.mbr_lo, sky.min(axis=0))
            and np.array_equal(item.mbr_hi, sky.max(axis=0))
        ):
            problems.append("mbr-mismatch")
        if not item.constraints.satisfied_mask(sky).all():
            problems.append("out-of-constraints")
        probe = (
            np.arange(len(sky))
            if len(sky) <= sample
            else np.linspace(0, len(sky) - 1, sample).astype(int)
        )
        if dominated_mask(sky[probe], sky).any():
            problems.append("dominated")
        return problems

    def quarantine(self, item: CacheItem, reason: str = "invariant-violation") -> None:
        """Evict a corrupt item, counting it separately from replacement.

        The bounds-table row is found by ``item_id``, so an item whose
        stored MBR rotted is still removed cleanly.
        """
        with self._lock:
            if not self._table.delete(item.item_id):
                return
            self._by_constraints.pop(item.constraints.key(), None)
            self.quarantined += 1
            self._journal("del", item)
        self.metrics.inc("cache_quarantined_total", reason=reason)
        self.metrics.set_gauge("cache_items", len(self._table))

    def verify_and_heal(self, item: CacheItem, sample: int = 16) -> bool:
        """Verify ``item``; quarantine it on violation.  True = healthy."""
        with self._lock:
            problems = self.verify_item(item, sample=sample)
            if not problems:
                return True
            self.quarantine(item, reason=problems[0])
            return False

    def stats(self) -> dict:
        """Summary of the cache's bookkeeping counters.

        ``hit_rate`` is hits over recorded lookups (0.0 before any lookup);
        the same numbers flow into the bound metrics registry as
        ``cache_hits_total`` / ``cache_misses_total`` /
        ``cache_evictions_total`` / ``cache_insertions_total`` and the
        ``cache_items`` gauge.
        """
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "items": len(self._table),
            "capacity": self.capacity,
            "policy": self.policy,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "refreshes": self.refreshes,
            "quarantined": self.quarantined,
        }

    def checkpoint(self) -> None:
        """Snapshot a durable cache now and prune its WAL (no log: no-op)."""
        if self.log is not None:
            self.log.checkpoint(self)

    def close(self) -> None:
        """A durable cache's final checkpoint, then its WAL closes (no log:
        no-op)."""
        if self.log is not None:
            self.log.close(self)

    def __len__(self) -> int:
        return len(self._table.ids)

    def __iter__(self):
        with self._lock:
            return iter(list(self._table.items))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _snapshot_arrays(self) -> Dict[str, np.ndarray]:
        """The archive payload for :meth:`save` (caller holds no lock)."""
        with self._lock:
            arrays = {
                "n_items": np.array(len(self._table)),
                "capacity": np.array(
                    self.capacity if self.capacity is not None else -1
                ),
                "policy": np.array(self.policy),
            }
            for i, item in enumerate(self._table.items):
                arrays[f"lo_{i}"] = np.asarray(item.constraints.lo)
                arrays[f"hi_{i}"] = np.asarray(item.constraints.hi)
                arrays[f"sky_{i}"] = item.skyline
                arrays[f"meta_{i}"] = np.array(
                    [item.inserted_at, item.last_used, item.use_count]
                )
        return arrays

    def save(self, path, crashpoint=None) -> None:
        """Save every cached item (constraints, skyline, use counters) to
        ``.npz`` so a service can restart with a warm semantic cache.

        The archive carries a CRC32 checksum over the payload (validated by
        :meth:`load`) and is written atomically (temp file + rename), so a
        crash mid-save leaves the previous snapshot intact and a
        bit-flipped snapshot is rejected instead of silently loaded.
        """
        arrays = self._snapshot_arrays()
        arrays["checksum"] = np.array(_cache_checksum(arrays), dtype=np.uint32)
        atomic_savez(path, crashpoint=crashpoint, point="cache.snapshot", **arrays)

    @staticmethod
    def _validated_archive_items(archive, path):
        """Yield ``(constraints, skyline, meta)`` after integrity checks."""
        for key in ("n_items", "capacity", "policy"):
            if key not in archive.files:
                raise CorruptCacheError(
                    f"cache archive {path} is missing required key {key!r}"
                )
        if "checksum" in archive.files:
            payload = {
                key: np.asarray(archive[key])
                for key in archive.files
                if key != "checksum"
            }
            stored = int(archive["checksum"])
            actual = _cache_checksum(payload)
            if stored != actual:
                raise CorruptCacheError(
                    f"cache archive {path}: checksum mismatch "
                    f"(stored {stored:#010x}, computed {actual:#010x})"
                )
        for i in range(int(archive["n_items"])):
            for key in (f"lo_{i}", f"hi_{i}", f"sky_{i}", f"meta_{i}"):
                if key not in archive.files:
                    raise CorruptCacheError(
                        f"cache archive {path} is missing item key {key!r}"
                    )
            sky = np.asarray(archive[f"sky_{i}"])
            if sky.ndim != 2 or not np.isfinite(sky).all():
                raise CorruptCacheError(
                    f"cache archive {path}: item {i} has a malformed or "
                    "non-finite skyline"
                )
            yield (
                Constraints(archive[f"lo_{i}"], archive[f"hi_{i}"]),
                sky,
                archive[f"meta_{i}"],
            )

    @classmethod
    def _read_archive(cls, path):
        """Return ``(capacity, policy, [(constraints, skyline, meta), ...])``
        from a saved archive, or raise :class:`CorruptCacheError`."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                entries = list(cls._validated_archive_items(archive, path))
                capacity = int(archive["capacity"])
                policy = str(archive["policy"])
        except Exception as exc:
            # A flipped byte in the zip container can surface almost any
            # stdlib exception type (BadZipFile, zlib.error, EOFError,
            # NotImplementedError, ...); any parse failure IS corruption.
            if isinstance(exc, CorruptCacheError):
                raise
            raise CorruptCacheError(
                f"cache archive {path} is unreadable: {exc}"
            ) from exc
        return (None if capacity < 0 else capacity), policy, entries

    def load_into(self, path) -> int:
        """Merge a saved archive's items into this cache; returns #loaded.

        Items keep their saved use counters and recency stamps.  Used by
        :meth:`load` and a durable cache's warm restart; raises
        :class:`CorruptCacheError` on any integrity failure *before*
        mutating the cache.
        """
        return self._restore_entries(self._read_archive(path)[2])

    def _restore_entries(self, entries) -> int:
        for constraints, sky, meta in entries:
            self._put(constraints, sky, meta)
        return len(entries)

    @classmethod
    def load(cls, path) -> "SkylineCache":
        """Load a cache saved with :meth:`save`.

        Raises :class:`CorruptCacheError` when the archive is unreadable,
        missing keys, carries malformed skylines, or fails its stored
        checksum.  Archives written before checksums existed (no
        ``checksum`` key) are accepted after the structural checks.
        """
        capacity, policy, entries = cls._read_archive(path)
        try:
            cache = cls(capacity=capacity, policy=policy)
        except ValueError as exc:  # a pre-checksum archive with a rotted header
            raise CorruptCacheError(f"cache archive {path}: {exc}") from exc
        cache._restore_entries(entries)
        return cache

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def _evict_if_needed(self) -> None:
        while self.capacity is not None and len(self._table) > self.capacity:
            self._remove(self._table.victim(self.policy))
            self.evictions += 1
            self.metrics.inc("cache_evictions_total", policy=self.policy)

    def _remove(self, item: CacheItem) -> None:
        del self._by_constraints[item.constraints.key()]
        if not self._table.delete(item.item_id):
            raise RuntimeError("cache index out of sync with item store")
        self._journal("del", item)

    # ------------------------------------------------------------------
    # Durability (only with a log)
    # ------------------------------------------------------------------
    def _journal(self, op: str, item: Optional[CacheItem] = None) -> None:
        """Log one mutation (under the lock, after it applied) and take the
        checkpoint it makes due; a no-op for an in-memory cache."""
        if self.log is None:
            return
        payload: dict = {"op": op}
        if item is not None:
            payload["lo"] = list(map(float, item.constraints.lo))
            payload["hi"] = list(map(float, item.constraints.hi))
        if op == "put":
            payload["sky"] = encode_array(item.skyline)
            payload["meta"] = [item.inserted_at, item.last_used, item.use_count]
        self.log.append(payload)
        self.log.maybe_checkpoint(self)

    def _restore(self, log) -> str:
        """Load ``log``'s snapshot, replay its tail; returns the source.

        A snapshot that fails validation cold-starts the cache, counted by
        ``cache_restore_corrupt_total``, and the empty cache is checkpointed
        at once: the WAL tail assumes the rejected snapshot, so it is pruned
        with it, and the records logged from here on replay onto a valid
        snapshot after a crash.  Replay is idempotent over a snapshot newer
        than the checkpoint LSN (puts are upserts, dels tolerate misses).
        """
        sources = []
        if log.snapshot_path.exists():
            try:
                self.load_into(log.snapshot_path)
            except CorruptCacheError:
                log.metrics.inc("cache_restore_corrupt_total")
                log.checkpoint(self)
                return "cold"
            sources.append("snapshot")
        replayed = 0
        for record in log.tail():
            payload = record.payload
            op = payload.get("op")
            if op == "put":
                self._put(
                    Constraints(payload["lo"], payload["hi"]),
                    decode_array(payload["sky"]),
                    payload.get("meta"),
                )
            elif op == "del":
                existing = self.exact_match(Constraints(payload["lo"], payload["hi"]))
                if existing is not None:
                    self.remove(existing)
            elif op == "clear":
                self.clear()
            replayed += 1
        if replayed:
            sources.append("wal")
        if len(self._table):
            log.metrics.inc("cache_restored_items_total", len(self._table))
        return "+".join(sources) or "cold"
