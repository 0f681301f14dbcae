"""Pluggable persistence backends behind :class:`~repro.core.cache.SkylineCache`.

The cache API (insert / candidates / quarantine / ...) is unchanged; a
backend only decides what happens to mutations *besides* the in-memory
items and bounds table.  Mirroring PartitionCache's ``cache_handler``
hierarchy (one abstract contract, many swappable backends):

- :class:`MemoryCacheBackend` -- the default; every hook is a no-op, so a
  cache built with it is bit-identical to the historic backend-less cache.
- :class:`DiskCacheBackend` -- durable: every mutation is journaled to a
  CRC-framed :class:`~repro.storage.wal.WriteAheadLog` *as it happens*,
  and every ``checkpoint_every`` mutations the whole cache is snapshotted
  atomically (checksummed ``.npz``, temp-file + rename) and the WAL
  pruned.  Reopening the same directory warm-restarts the cache: last
  snapshot + WAL tail replay, with torn tails truncated and corrupt
  snapshots rejected (cold start) instead of silently loaded.

Layout of a :class:`DiskCacheBackend` directory::

    cache-dir/
      snapshot.npz      checksummed cache snapshot (atomic replace)
      meta.json         {"checkpoint_lsn": N}      (atomic replace)
      wal/wal-*.log     mutation journal (put/del/clear records)

Stacked under an engine, the write order per mutation is WAL append ->
in-memory apply -> (maybe) checkpoint, so recovery converges on the
pre-crash cache no matter where the crash lands (see
``docs/robustness.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Protocol, runtime_checkable

from repro.geometry.constraints import Constraints
from repro.ioutil import atomic_write_json
from repro.ioutil import decode_array as _decode_array
from repro.ioutil import encode_array as _encode_array
from repro.obs.metrics import NULL_METRICS

__all__ = [
    "CacheBackend",
    "MemoryCacheBackend",
    "DiskCacheBackend",
]


@runtime_checkable
class CacheBackend(Protocol):
    """What a :class:`~repro.core.cache.SkylineCache` needs from a backend.

    ``attach`` is called exactly once, from the cache constructor, and is
    where a persistent backend restores saved state into the (still empty)
    cache.  The ``record_*`` hooks fire under the cache lock, after the
    in-memory structures already reflect the mutation.
    """

    def attach(self, cache) -> None: ...

    def record_put(self, item) -> None: ...

    def record_del(self, item) -> None: ...

    def record_clear(self) -> None: ...

    def checkpoint(self) -> None: ...

    def close(self) -> None: ...


class MemoryCacheBackend:
    """Today's behavior: the cache lives in process memory only."""

    persistent = False

    def attach(self, cache) -> None:
        self.cache = cache

    def record_put(self, item) -> None:
        pass

    def record_del(self, item) -> None:
        pass

    def record_clear(self) -> None:
        pass

    def checkpoint(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "MemoryCacheBackend()"


class DiskCacheBackend:
    """WAL-journaled, checkpointed persistence for the skyline cache.

    ``fsync=True`` makes each mutation durable before the cache applies
    it; ``checkpoint_every=N`` snapshots after every N journaled
    mutations (None disables automatic checkpoints -- call
    :meth:`checkpoint` yourself, e.g. at shutdown).

    ``on_corrupt`` selects the warm-restart policy when the snapshot fails
    validation: ``"cold"`` (default) starts empty -- the WAL tail is
    discarded too, because its records assume the snapshot state -- and
    counts ``cache_restore_corrupt_total``; ``"raise"`` propagates the
    :class:`~repro.core.cache.CorruptCacheError` to the caller.
    """

    persistent = True

    def __init__(
        self,
        directory,
        fsync: bool = True,
        checkpoint_every: Optional[int] = 64,
        injector=None,
        metrics=None,
        on_corrupt: str = "cold",
    ):
        from repro.storage.wal import WriteAheadLog

        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        if on_corrupt not in ("cold", "raise"):
            raise ValueError(f"unknown on_corrupt policy {on_corrupt!r}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.directory / "snapshot.npz"
        self.meta_path = self.directory / "meta.json"
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.on_corrupt = on_corrupt
        self.wal = WriteAheadLog(
            self.directory / "wal",
            fsync=fsync,
            injector=injector,
            metrics=self.metrics,
        )
        # Checkpoints prune covered segments; restore the LSN horizon from
        # the checkpoint meta so fresh appends never reuse skipped LSNs.
        self.wal.last_lsn = max(self.wal.last_lsn, self._checkpoint_lsn())
        self.cache = None
        self._restoring = False
        self._mutations_since_checkpoint = 0
        #: set by :meth:`attach`: items restored from snapshot + WAL tail
        self.restored_items = 0
        self.restored_from: Optional[str] = None

    # ------------------------------------------------------------------
    # Warm restart
    # ------------------------------------------------------------------
    def _checkpoint_lsn(self) -> int:
        try:
            with open(self.meta_path) as handle:
                return int(json.load(handle).get("checkpoint_lsn", 0))
        except (OSError, ValueError):
            return 0

    def attach(self, cache) -> None:
        """Restore persisted state (snapshot + WAL tail) into ``cache``."""
        from repro.core.cache import CorruptCacheError

        self.cache = cache
        self._restoring = True
        try:
            restored = 0
            source = None
            checkpoint_lsn = 0
            if self.snapshot_path.exists():
                try:
                    restored = cache.load_into(self.snapshot_path)
                    checkpoint_lsn = self._checkpoint_lsn()
                    source = "snapshot"
                except CorruptCacheError:
                    if self.on_corrupt == "raise":
                        raise
                    # Cold start: the WAL tail is relative to the snapshot
                    # we just rejected, so it must be discarded with it.
                    self.metrics.inc("cache_restore_corrupt_total")
                    cache.clear()
                    self.wal.rotate()
                    self.wal.prune(self.wal.last_lsn)
                    self.restored_items = 0
                    self.restored_from = "cold"
                    return
            replayed = self._replay_tail(after_lsn=checkpoint_lsn)
            if replayed:
                source = "snapshot+wal" if source else "wal"
            self.restored_items = len(cache)
            self.restored_from = source or "cold"
            if restored or replayed:
                self.metrics.inc("cache_restored_items_total", len(cache))
        finally:
            self._restoring = False

    def _replay_tail(self, after_lsn: int) -> int:
        """Apply WAL records past the checkpoint onto the live cache."""
        replayed = 0
        for record in self.wal.replay(after_lsn=after_lsn):
            payload = record.payload
            op = payload.get("op")
            if op == "put":
                self.cache._put(
                    Constraints(payload["lo"], payload["hi"]),
                    _decode_array(payload["sky"]),
                    payload.get("meta"),
                )
            elif op == "del":
                existing = self.cache.exact_match(
                    Constraints(payload["lo"], payload["hi"])
                )
                if existing is not None:
                    self.cache.remove(existing)
            elif op == "clear":
                self.cache.clear()
            replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # Journaling hooks (called under the cache lock)
    # ------------------------------------------------------------------
    def record_put(self, item) -> None:
        if self._restoring:
            return
        self.wal.append(
            {
                "op": "put",
                "lo": list(map(float, item.constraints.lo)),
                "hi": list(map(float, item.constraints.hi)),
                "sky": _encode_array(item.skyline),
                "meta": [item.inserted_at, item.last_used, item.use_count],
            }
        )
        self._after_mutation()

    def record_del(self, item) -> None:
        if self._restoring:
            return
        self.wal.append(
            {
                "op": "del",
                "lo": list(map(float, item.constraints.lo)),
                "hi": list(map(float, item.constraints.hi)),
            }
        )
        self._after_mutation()

    def record_clear(self) -> None:
        if self._restoring:
            return
        self.wal.append({"op": "clear"})
        self._after_mutation()

    def _after_mutation(self) -> None:
        self._mutations_since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._mutations_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the cache atomically, then prune the covered WAL.

        Commit order: snapshot replace -> meta (checkpoint LSN) replace ->
        WAL rotate + prune.  A crash between any two steps recovers: an
        old meta means some WAL records replay onto a newer snapshot,
        which is idempotent (puts are upserts, dels tolerate misses).
        """
        if self.cache is None:
            return
        crashpoint = (
            self.injector.crash_check if self.injector is not None else None
        )
        lsn = self.wal.last_lsn
        self.cache.save(self.snapshot_path, crashpoint=crashpoint)
        atomic_write_json(self.meta_path, {"checkpoint_lsn": lsn})
        self.wal.rotate()
        self.wal.prune(lsn)
        self._mutations_since_checkpoint = 0
        self.metrics.inc("cache_checkpoints_total")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Checkpoint once more (cheap warm start next time) and close."""
        self.checkpoint()
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DiskCacheBackend({str(self.directory)!r}, "
            f"checkpoint_every={self.checkpoint_every})"
        )
