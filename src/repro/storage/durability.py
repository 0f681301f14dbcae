"""Durable table state: WAL-backed writes, checkpoints, crash recovery.

:class:`DurabilityManager` gives :class:`~repro.core.dynamic.DynamicCBCS`
the PostgreSQL write path for its table updates:

1. **Log.** Every ``insert_points`` / ``delete_points`` batch is appended
   to a :class:`~repro.storage.wal.WriteAheadLog` -- and fsynced -- *before*
   it touches the :class:`~repro.storage.table.DiskTable`.  The update is
   committed the moment its WAL record is durable.
2. **Checkpoint.** Periodically (and at shutdown) the whole table is
   snapshotted atomically (checksummed ``.npz``, temp file + rename), the
   checkpoint LSN recorded, and the covered WAL segments pruned.
3. **Recover.** :meth:`recover` loads the last checkpoint, replays the WAL
   tail past its LSN (torn tails truncated, mid-file corruption loud), and
   returns a table provably equal to "checkpoint + committed updates" --
   the contract the crash soak (:func:`repro.bench.soak.crash`) asserts
   against the reference skyline of the committed rows.

Directory layout::

    durability-dir/
      table.npz     last table checkpoint (atomic replace, CRC-validated)
      meta.json     {"checkpoint_lsn": N} (atomic replace)
      wal/wal-*.log update journal ({"op": "insert"|"delete"} records)

Single-writer assumption: like the engine's update path itself, the
manager serializes log-then-apply per batch; concurrent *queries* are fine
(they never touch the WAL), concurrent *updates* must be externally
serialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.ioutil import atomic_write_json, decode_array, encode_array
from repro.obs.metrics import NULL_METRICS
from repro.storage.table import CorruptTableError, DiskTable
from repro.storage.wal import WriteAheadLog

__all__ = ["DurabilityManager", "RecoveryReport"]

_TABLE_NAME = "table.npz"
_META_NAME = "meta.json"


@dataclass
class RecoveryReport:
    """What :meth:`DurabilityManager.recover` reconstructed, and how.

    ``replayed`` keeps the decoded tail operations (op kind + row payload)
    so the engine can reconcile its cache with updates whose in-memory
    maintenance the crash swallowed; :meth:`to_dict` serializes only the
    scalar evidence for the recovery-report artifact.
    """

    checkpoint_lsn: int
    last_lsn: int
    replayed_ops: int
    tail_status: str
    live_rows: int
    #: decoded tail ops: ``[("insert"|"delete", (k, d) rows array), ...]``
    replayed: List[Tuple[str, np.ndarray]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "replayed_ops": self.replayed_ops,
            "tail_status": self.tail_status,
            "live_rows": self.live_rows,
        }


class DurabilityManager:
    """WAL + checkpoint + recovery for one engine's table updates.

    ``checkpoint_every=N`` checkpoints after every N logged update batches
    (None leaves checkpointing to explicit :meth:`checkpoint` calls);
    ``fsync=False`` trades commit durability for speed in tests.  The
    optional ``injector`` threads seeded crash points into every commit
    site (``wal.append``, ``wal.fsync``, ``table.checkpoint``).
    """

    def __init__(
        self,
        directory,
        fsync: bool = True,
        checkpoint_every: Optional[int] = 64,
        injector=None,
        metrics=None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.table_path = self.directory / _TABLE_NAME
        self.meta_path = self.directory / _META_NAME
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.wal = WriteAheadLog(
            self.directory / "wal",
            fsync=fsync,
            injector=injector,
            metrics=self.metrics,
        )
        # Checkpoints prune covered segments, so a reopened WAL may hold no
        # record of the LSN horizon -- restore it from the checkpoint meta,
        # or fresh appends would reuse LSNs that replay then skips.
        self.wal.last_lsn = max(self.wal.last_lsn, self._checkpoint_lsn())
        self._ops_since_checkpoint = 0

    # ------------------------------------------------------------------
    # Logging (call BEFORE applying the update to the table)
    # ------------------------------------------------------------------
    def log_insert(self, rows: np.ndarray, start: int) -> int:
        """Journal one insert batch; returns its LSN (durable on return).

        ``start`` is the heap size the batch will be appended at.  Replay
        uses it to recognize batches already covered by a newer snapshot
        (a crash can land between the snapshot replace and the meta
        replace), making insert replay idempotent.
        """
        return self._log(
            {"op": "insert", "start": int(start), "rows": encode_array(rows)}
        )

    def log_delete(self, rowids, coords: np.ndarray) -> int:
        """Journal one delete batch (ids + their coordinates, so recovery
        and cache reconciliation never need the pre-delete heap)."""
        return self._log(
            {
                "op": "delete",
                "rowids": [int(r) for r in np.atleast_1d(rowids)],
                "rows": encode_array(coords),
            }
        )

    def _log(self, payload: dict) -> int:
        lsn = self.wal.append(payload)
        self._ops_since_checkpoint += 1
        return lsn

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, table: DiskTable) -> None:
        """Snapshot ``table`` atomically, then prune the covered WAL.

        Commit order mirrors :meth:`DiskCacheBackend.checkpoint
        <repro.core.cache_backend.DiskCacheBackend.checkpoint>`: table
        replace -> meta replace -> rotate + prune.  A crash between steps
        replays a few extra records onto the newer snapshot; deletes are
        idempotent and inserts are covered by the checkpoint-LSN horizon,
        so recovery still converges.
        """
        crashpoint = (
            self.injector.crash_check if self.injector is not None else None
        )
        lsn = self.wal.last_lsn
        table.save(self.table_path, crashpoint=crashpoint)
        atomic_write_json(self.meta_path, {"checkpoint_lsn": lsn})
        self.wal.rotate()
        self.wal.prune(lsn)
        self._ops_since_checkpoint = 0
        self.metrics.inc("table_checkpoints_total")

    def ensure_checkpoint(self, table: DiskTable) -> None:
        """Write the base checkpoint if this directory has none yet.

        Recovery rebuilds "checkpoint + tail"; without a base snapshot the
        initial dataset would be unrecoverable, so a durable engine seeds
        one the moment it adopts a fresh directory.
        """
        if not self.table_path.exists():
            self.checkpoint(table)

    def maybe_checkpoint(self, table: DiskTable) -> bool:
        """Auto-checkpoint once ``checkpoint_every`` batches accumulated."""
        if (
            self.checkpoint_every is not None
            and self._ops_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint(table)
            return True
        return False

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _checkpoint_lsn(self) -> int:
        try:
            with open(self.meta_path) as handle:
                return int(json.load(handle).get("checkpoint_lsn", 0))
        except (OSError, ValueError):
            return 0

    def recover(self) -> Tuple[DiskTable, RecoveryReport]:
        """Rebuild the table: last checkpoint + WAL tail replay.

        Raises :class:`~repro.storage.table.CorruptTableError` when the
        checkpoint is corrupt or absent -- unlike the cache, the table is
        the source of truth and cannot be cold-started from nothing -- or
        when a logged record cannot apply to it (a missing insert batch, a
        delete of a row outside the heap, an unknown op), naming the LSN.
        """
        if not self.table_path.exists():
            raise CorruptTableError(
                f"no table checkpoint at {self.table_path}; nothing to recover"
            )
        table = DiskTable.load(self.table_path)
        checkpoint_lsn = self._checkpoint_lsn()
        replayed: List[Tuple[str, np.ndarray]] = []
        for record in self.wal.replay(after_lsn=checkpoint_lsn):
            payload = record.payload
            op = payload.get("op")
            rows = decode_array(payload["rows"])
            if op == "insert":
                start = int(payload.get("start", table.n))
                if start > table.n:
                    raise CorruptTableError(
                        f"WAL record lsn={record.lsn} appends at heap "
                        f"offset {start} but the table holds {table.n} "
                        "rows -- a batch is missing"
                    )
                if start == table.n:
                    table.append(rows)
                # else: the batch is already inside the checkpoint (crash
                # landed between snapshot and meta replace) -- skip.
            elif op == "delete":
                # Tombstoning is idempotent: rows already dead (a crash
                # *after* apply, checkpoint behind) just stay dead.
                try:
                    table.delete(np.asarray(payload["rowids"], dtype=np.int64))
                except IndexError as exc:
                    raise CorruptTableError(
                        f"WAL record lsn={record.lsn} deletes row ids "
                        f"{payload['rowids']} but the table holds "
                        f"{table.n} rows"
                    ) from exc
            else:
                raise CorruptTableError(
                    f"WAL record lsn={record.lsn} has unknown op {op!r}"
                )
            replayed.append((op, rows))
        report = RecoveryReport(
            checkpoint_lsn=checkpoint_lsn,
            last_lsn=self.wal.last_lsn,
            replayed_ops=len(replayed),
            # A torn tail is truncated the moment the WAL reopens, so the
            # replay above always sees a clean log; report what the open
            # found -- that truncation *is* the torn-write recovery.
            tail_status=(
                "torn"
                if self.wal.opened_tail_status == "torn"
                else self.wal.tail_status
            ),
            live_rows=table.live_count,
            replayed=replayed,
        )
        if replayed:
            self.metrics.inc("table_recovered_ops_total", len(replayed))
        return table, report

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, table: Optional[DiskTable] = None) -> None:
        """Optionally checkpoint ``table`` one last time, then close."""
        if table is not None:
            self.checkpoint(table)
        self.wal.close()

    def __repr__(self) -> str:
        return (
            f"DurabilityManager({str(self.directory)!r}, "
            f"last_lsn={self.wal.last_lsn})"
        )
