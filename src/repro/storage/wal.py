"""An append-only write-ahead log with CRC framing and torn-write recovery.

The durability playbook is PostgreSQL's (see ``docs/robustness.md``): every
state mutation is appended to the log -- and fsynced -- *before* it is
applied to the in-memory structures, so after a crash the last checkpoint
plus the log tail reconstructs the exact pre-crash state.

Physical format.  The log is a directory of segment files
(``wal-00000001.log``, ``wal-00000002.log``, ...).  Each record is framed

    [lsn u64][length u32][crc u32][payload bytes]

with the CRC32 computed over ``lsn || length || payload``, so a bit flip in
either the header or the payload is detected.  LSNs (log sequence numbers)
are assigned densely from 1 by :meth:`WriteAheadLog.append`.

Torn writes.  A crash can leave a partial record at the end of the last
segment (a torn write / partial fsync).  :meth:`WriteAheadLog.replay` stops
at the first frame that is short or fails its CRC and reports it via
``tail_status``; reopening the log for append truncates the torn tail to
the last valid record boundary, exactly like PostgreSQL treating the first
invalid record as end-of-log.  A *mid-file* CRC mismatch (valid frames
following a bad one) is real corruption, not a torn tail, and raises
:class:`CorruptWALError`.

Rotation and compaction.  :meth:`rotate` seals the active segment and
starts the next; :meth:`prune` deletes sealed segments whose records are
all covered by a checkpoint.  :class:`CheckpointedLog` -- a log plus the
snapshot it is checkpointed into, the one durable-state primitive of the
table and of the cache -- calls both after each successful checkpoint,
bounding log size.

Crash points.  An optional fault ``injector``
(:class:`~repro.storage.faults.FaultInjector`) is consulted at
``wal.append`` (before the frame is written; a torn order persists only a
prefix of the frame) and ``wal.fsync`` (frame written, fsync "lost"),
making the crash-recovery drill's schedules seeded and replayable.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.ioutil import atomic_write_json, fsync_directory
from repro.storage.faults import SimulatedCrash

__all__ = ["CheckpointedLog", "CorruptWALError", "WalRecord", "WriteAheadLog"]

#: ``[lsn u64][length u32][crc u32]``
_HEADER = struct.Struct("<QII")
#: Sanity bound on one record's payload (a malformed length field must not
#: make replay attempt a multi-gigabyte read).
_MAX_PAYLOAD = 1 << 28
_SEGMENT_GLOB = "wal-*.log"


class CorruptWALError(ValueError):
    """A WAL segment failed integrity validation *before* its tail.

    Sibling of :class:`repro.storage.table.CorruptTableError` and
    :class:`repro.core.cache.CorruptCacheError`: an invalid frame followed
    by valid data is bit rot, not a torn write, and recovery must not
    silently drop the suffix.
    """


@dataclass(frozen=True)
class WalRecord:
    """One replayed record: its LSN and decoded JSON payload."""

    lsn: int
    payload: dict


def _frame(lsn: int, payload: bytes) -> bytes:
    crc = zlib.crc32(struct.pack("<QI", lsn, len(payload)) + payload)
    return _HEADER.pack(lsn, len(payload), crc) + payload


def _segment_path(directory: Path, seq: int) -> Path:
    return directory / f"wal-{seq:08d}.log"


def _segment_seq(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _scan_segment(path: Path) -> Tuple[List[Tuple[int, bytes]], int, str]:
    """Parse one segment; returns ``(records, valid_bytes, tail_status)``.

    ``tail_status`` is ``"clean"`` (file ends exactly on a record boundary)
    or ``"torn"`` (trailing partial/invalid frame).  Raises
    :class:`CorruptWALError` if a bad frame is *followed* by a valid one.
    """
    blob = path.read_bytes()
    records: List[Tuple[int, bytes]] = []
    offset = 0
    while True:
        if offset == len(blob):
            return records, offset, "clean"
        if len(blob) - offset < _HEADER.size:
            break  # short header: torn tail
        lsn, length, crc = _HEADER.unpack_from(blob, offset)
        if length > _MAX_PAYLOAD:
            break  # absurd length: treat the frame as garbage
        start = offset + _HEADER.size
        payload = blob[start : start + length]
        if len(payload) < length:
            break  # short payload: torn tail
        if zlib.crc32(struct.pack("<QI", lsn, length) + payload) != crc:
            break  # CRC mismatch: torn (if at the tail) or corrupt
        records.append((lsn, payload))
        offset = start + length
    # The frame at ``offset`` is invalid.  If anything beyond it parses as
    # a valid frame, this is mid-file corruption, not a torn tail.
    for probe in range(offset + 1, len(blob) - _HEADER.size + 1):
        lsn, length, crc = _HEADER.unpack_from(blob, probe)
        if length > _MAX_PAYLOAD:
            continue
        start = probe + _HEADER.size
        payload = blob[start : start + length]
        if len(payload) == length and zlib.crc32(
            struct.pack("<QI", lsn, length) + payload
        ) == crc:
            raise CorruptWALError(
                f"WAL segment {path}: invalid frame at byte {offset} is "
                f"followed by a valid frame at byte {probe} -- corruption, "
                "not a torn tail"
            )
    return records, offset, "torn"


class WriteAheadLog:
    """Append-only, CRC-framed, segmented write-ahead log.

    ``fsync=True`` (the default) makes :meth:`append` durable before it
    returns -- the commit point.  ``fsync=False`` trades durability of the
    last few records for speed (still torn-write safe on replay); tests and
    quick benchmarks use it.
    """

    def __init__(self, directory, fsync: bool = True, injector=None, metrics=None):
        from repro.obs.metrics import NULL_METRICS

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.injector = injector
        self.metrics = NULL_METRICS if metrics is None else metrics
        #: tail state observed while opening (surfaced in recovery reports)
        self.opened_tail_status = "clean"
        self._handle = None
        #: the active segment was created and its directory entry not yet
        #: fsynced (the first durable append does it)
        self._new_segment = False
        self._open_existing()

    # ------------------------------------------------------------------
    # Opening / recovery scan
    # ------------------------------------------------------------------
    def _segments(self) -> List[Path]:
        return sorted(self.directory.glob(_SEGMENT_GLOB), key=_segment_seq)

    def _open_existing(self) -> None:
        """Scan existing segments, truncate any torn tail, position append."""
        segments = self._segments()
        self.last_lsn = 0
        if not segments:
            self._active_seq = 1
            self._active_path = _segment_path(self.directory, 1)
            self._active_path.touch()
            self._new_segment = True
            return
        for path in segments[:-1]:
            records, _, tail = _scan_segment(path)
            if tail != "clean":
                raise CorruptWALError(
                    f"WAL segment {path}: torn tail in a sealed (non-final) "
                    "segment -- segments are only ever appended to while last"
                )
            if records:
                self.last_lsn = records[-1][0]
        tail_path = segments[-1]
        records, valid_bytes, tail = _scan_segment(tail_path)
        if records:
            self.last_lsn = records[-1][0]
        self.opened_tail_status = tail
        if tail == "torn":
            # Truncate to the last valid record boundary so future appends
            # never interleave with garbage.
            with open(tail_path, "rb+") as handle:
                handle.truncate(valid_bytes)
            self.metrics.inc("wal_torn_tails_truncated_total")
        self._active_seq = _segment_seq(tail_path)
        self._active_path = tail_path

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self._active_path, "ab")
        return self._handle

    def append(self, payload: dict) -> int:
        """Append one JSON-serializable record; returns its LSN.

        The record is durable (written, and fsynced when ``fsync=True``)
        when this returns -- the WAL contract callers rely on to apply the
        mutation only after logging it.
        """
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        lsn = self.last_lsn + 1
        frame = _frame(lsn, data)
        handle = self._ensure_handle()
        order = (
            self.injector.crashpoint("wal.append")
            if self.injector is not None
            else None
        )
        if order is not None:
            if order.torn_fraction is not None:
                # Torn write: persist only a prefix of the frame, then die.
                handle.write(frame[: max(1, int(len(frame) * order.torn_fraction))])
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            raise SimulatedCrash(order.point)
        handle.write(frame)
        handle.flush()
        if self.injector is not None:
            self.injector.crash_check("wal.fsync")
        if self.fsync:
            os.fsync(handle.fileno())
            if self._new_segment:
                # A power loss must not take the file holding the record.
                fsync_directory(self.directory)
                self._new_segment = False
            self.metrics.inc("wal_fsyncs_total")
        self.last_lsn = lsn
        self.metrics.inc("wal_records_total")
        self.metrics.inc("wal_bytes_total", len(frame))
        return lsn

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, after_lsn: int = 0) -> Iterator[WalRecord]:
        """Yield every valid record with ``lsn > after_lsn``, in order.

        Stops at a torn tail (see :attr:`tail_status` afterwards); raises
        :class:`CorruptWALError` on mid-file corruption or an undecodable
        payload that passed its CRC (impossible short of a bug, so loud).
        """
        self.tail_status = "clean"
        segments = self._segments()
        for i, path in enumerate(segments):
            records, _, tail = _scan_segment(path)
            if tail == "torn":
                if i != len(segments) - 1:
                    raise CorruptWALError(
                        f"WAL segment {path}: torn tail in a sealed segment"
                    )
                self.tail_status = "torn"
            for lsn, payload in records:
                if lsn <= after_lsn:
                    continue
                try:
                    decoded = json.loads(payload.decode("utf-8"))
                except ValueError as exc:
                    raise CorruptWALError(
                        f"WAL segment {path}: record lsn={lsn} passed its "
                        f"CRC but is not valid JSON: {exc}"
                    ) from exc
                yield WalRecord(lsn=lsn, payload=decoded)

    def records(self, after_lsn: int = 0) -> List[WalRecord]:
        """Eager :meth:`replay` (sets :attr:`tail_status` before returning)."""
        return list(self.replay(after_lsn=after_lsn))

    # ------------------------------------------------------------------
    # Rotation / compaction
    # ------------------------------------------------------------------
    def rotate(self) -> Path:
        """Seal the active segment and open the next; returns the new path."""
        self.close()
        self._active_seq += 1
        self._active_path = _segment_path(self.directory, self._active_seq)
        self._active_path.touch()
        self._new_segment = True
        return self._active_path

    def prune(self, upto_lsn: int) -> int:
        """Delete sealed segments whose records all have ``lsn <= upto_lsn``.

        The active segment is never deleted.  Returns how many segments
        were removed.  Call after a checkpoint with the checkpoint's LSN.
        """
        removed = 0
        for path in self._segments():
            if path == self._active_path:
                continue
            records, _, _ = _scan_segment(path)
            if records and records[-1][0] > upto_lsn:
                continue
            path.unlink()
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the append handle; the next :meth:`append` reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, last_lsn={self.last_lsn}, "
            f"segments={len(self._segments())}, fsync={self.fsync})"
        )


class CheckpointedLog:
    """A write-ahead log plus the snapshot it is checkpointed into.

    The table's :class:`~repro.storage.durability.DurabilityManager` is one
    (named ``"table"``), and a :class:`~repro.core.cache.SkylineCache` built
    with ``log=`` journals into another (named ``"cache"``); both share this
    checkpoint, LSN horizon and close path.  Each owns one directory::

        directory/
          <name>.npz    last snapshot (atomic replace, CRC-validated)
          meta.json     {"checkpoint_lsn": N} (atomic replace)
          wal/wal-*.log the records logged since

    The owner appends one record per mutation and rebuilds itself from
    :attr:`snapshot_path` plus :meth:`tail`; whatever is checkpointed only
    needs ``save(path, crashpoint=None, fsync=False)``, with ``fsync``
    meaning "the bytes are on disk before the rename and the directory
    entry after it".  An owner whose state changes without a record (a
    durable cache's recency stamps) sets :attr:`unlogged`, so :meth:`close`
    still checkpoints it.  ``checkpoint_every=N`` checkpoints after every N
    appended records when the owner calls :meth:`maybe_checkpoint` (None
    leaves it to explicit :meth:`checkpoint` calls); ``fsync=False`` trades
    durability for speed in tests: the records' and the checkpoint's alike.
    The optional ``injector`` threads seeded crash points into every commit
    site (``wal.append``, ``wal.fsync`` and the snapshot's own ``save``).
    """

    def __init__(
        self,
        directory,
        name: str,
        fsync: bool = True,
        checkpoint_every: Optional[int] = 64,
        injector=None,
        metrics=None,
    ):
        from repro.obs.metrics import NULL_METRICS

        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.snapshot_path = self.directory / f"{name}.npz"
        self.meta_path = self.directory / "meta.json"
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.wal = WriteAheadLog(
            self.directory / "wal", fsync=fsync, injector=injector, metrics=self.metrics
        )
        #: the last LSN the snapshot covers (0: no checkpoint yet)
        self.checkpoint_lsn = self._read_checkpoint_lsn()
        # Checkpoints prune covered segments, so a reopened WAL may hold no
        # record of the LSN horizon -- restore it from the checkpoint meta,
        # or fresh appends would reuse LSNs that replay then skips.
        self.wal.last_lsn = max(self.wal.last_lsn, self.checkpoint_lsn)
        self._since_checkpoint = 0
        #: the owner's state changed since the last checkpoint without a
        #: record (cleared by :meth:`checkpoint`)
        self.unlogged = False

    def _read_checkpoint_lsn(self) -> int:
        try:
            with open(self.meta_path) as handle:
                return int(json.load(handle).get("checkpoint_lsn", 0))
        except (OSError, ValueError):
            return 0

    def append(self, payload: dict) -> int:
        """Journal one record; returns its LSN (durable on return)."""
        lsn = self.wal.append(payload)
        self._since_checkpoint += 1
        return lsn

    def tail(self) -> Iterator[WalRecord]:
        """The records the snapshot does not cover, in LSN order."""
        return self.wal.replay(after_lsn=self.checkpoint_lsn)

    def checkpoint(self, state) -> None:
        """Snapshot ``state`` atomically, then prune the covered WAL.

        Commit order: snapshot replace -> meta replace -> rotate + prune.
        With ``fsync`` each replace is durable before the next step starts
        (the bytes fsynced before the rename, the directory after it), so
        no WAL segment is deleted while a power loss could still take the
        snapshot or the meta that covers it.  A crash between two steps
        leaves the meta behind the snapshot, so a few records replay onto a
        snapshot that already holds them; each owner's replay is idempotent
        for exactly that case.
        """
        crashpoint = (
            self.injector.crash_check if self.injector is not None else None
        )
        fsync = self.wal.fsync
        lsn = self.wal.last_lsn
        state.save(self.snapshot_path, crashpoint=crashpoint, fsync=fsync)
        atomic_write_json(self.meta_path, {"checkpoint_lsn": lsn}, fsync=fsync)
        self.checkpoint_lsn = lsn
        self.unlogged = False
        self.wal.rotate()
        self.wal.prune(lsn)
        self._since_checkpoint = 0
        self.metrics.inc(f"{self.name}_checkpoints_total")

    def ensure_checkpoint(self, state) -> None:
        """Checkpoint ``state`` if this directory holds no snapshot yet."""
        if not self.snapshot_path.exists():
            self.checkpoint(state)

    def maybe_checkpoint(self, state) -> bool:
        """Checkpoint once ``checkpoint_every`` records accumulated."""
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(state)
            return True
        return False

    def seal(self, state) -> None:
        """Checkpoint ``state`` unless the snapshot already holds all of it:
        one exists, no record was logged past it and nothing is
        :attr:`unlogged`."""
        if (
            self.unlogged
            or self.wal.last_lsn != self.checkpoint_lsn
            or not self.snapshot_path.exists()
        ):
            self.checkpoint(state)

    def close(self, state=None) -> None:
        """:meth:`seal` ``state`` (when given), then close the WAL."""
        if state is not None:
            self.seal(state)
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.directory)!r}, "
            f"last_lsn={self.wal.last_lsn})"
        )
