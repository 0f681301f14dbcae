"""Durable table state: WAL-backed writes, checkpoints, crash recovery.

:class:`DurabilityManager` gives :class:`~repro.core.cbcs.CBCS` (built with
``durability=``) the PostgreSQL write path for its table updates:

1. **Log.** Every ``insert_points`` / ``delete_points`` batch is appended
   to a :class:`~repro.storage.wal.WriteAheadLog` -- and fsynced -- *before*
   it touches the :class:`~repro.storage.table.DiskTable`.  The update is
   committed the moment its WAL record is durable.
2. **Checkpoint.** Every ``checkpoint_every`` batches, and at shutdown
   when a batch was logged since the last one, the whole table is
   snapshotted atomically (checksummed ``.npz``, temp file + rename,
   fsynced with the log), the checkpoint LSN recorded, and only then the
   covered WAL segments pruned.
3. **Recover.** :meth:`recover` loads the last checkpoint, replays the WAL
   tail past its LSN (torn tails truncated, mid-file corruption loud), and
   returns a table provably equal to "checkpoint + committed updates" --
   the contract the crash soak (:func:`repro.bench.soak.crash`) asserts
   against the reference skyline of the committed rows.

Directory layout (a :class:`~repro.storage.wal.CheckpointedLog` named
``"table"``)::

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

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.ioutil import decode_array, encode_array
from repro.storage.table import CorruptTableError, DiskTable
from repro.storage.wal import CheckpointedLog

__all__ = [
    "DurabilityManager",
    "RecoveryReport",
    "UnrecoveredLogError",
    "UnsupportedDurableTable",
]


class UnsupportedDurableTable(TypeError):
    """``durability=`` over a table the log cannot checkpoint or recover.

    The log snapshots the table with its ``save`` and recovery rebuilds a
    :class:`~repro.storage.table.DiskTable`, so only a ``DiskTable`` (or a
    wrapper of one) can be made durable; a durable
    :class:`~repro.storage.sharding.ShardedTable` is the "durable fleet"
    item ROADMAP.md parks.
    """


class UnrecoveredLogError(RuntimeError):
    """``durability=`` over a directory whose WAL holds records its
    checkpoint does not cover (a crashed engine's directory).

    Opening it with a table would checkpoint that table over the snapshot
    and prune the tail, losing committed writes; ``CBCS.recover(dir)``
    rebuilds the table from the checkpoint plus the tail instead.
    """


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


class DurabilityManager(CheckpointedLog):
    """The table's checkpointed log: update batches, checkpoints, recovery.

    A :class:`~repro.storage.wal.CheckpointedLog` named ``"table"``, so it
    checkpoints, keeps its LSN horizon and closes exactly like the cache's
    log.  ``checkpoint_every=N`` checkpoints after every N logged update
    batches (None leaves checkpointing to explicit :meth:`checkpoint`
    calls); ``fsync=False`` trades commit durability for speed in tests.
    The optional ``injector`` threads seeded crash points into every commit
    site (``wal.append``, ``wal.fsync``, ``table.checkpoint``).
    """

    def __init__(self, directory, **kwargs):
        super().__init__(directory, "table", **kwargs)
        #: the last LSN :meth:`recover` replayed into the table it returned
        self.replayed_lsn = 0

    def check_recovered(self) -> None:
        """Raise :class:`UnrecoveredLogError` when the WAL holds records
        past the checkpoint that :meth:`recover` has not replayed: a table
        adopted now would lack them."""
        if self.wal.last_lsn > max(self.checkpoint_lsn, self.replayed_lsn):
            raise UnrecoveredLogError(
                f"{self.directory} holds WAL records up to lsn="
                f"{self.wal.last_lsn} past its checkpoint (lsn="
                f"{self.checkpoint_lsn}); open it with CBCS.recover(dir), "
                "not CBCS(table, durability=dir)"
            )

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
        return self.append(
            {"op": "insert", "start": int(start), "rows": encode_array(rows)}
        )

    def log_delete(self, rowids, coords: np.ndarray) -> int:
        """Journal one delete batch (ids + their coordinates, so recovery
        and cache reconciliation never need the pre-delete heap)."""
        return self.append(
            {
                "op": "delete",
                "rowids": [int(r) for r in np.atleast_1d(rowids)],
                "rows": encode_array(coords),
            }
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self) -> Tuple[DiskTable, RecoveryReport]:
        """Rebuild the table: last checkpoint + WAL tail replay.

        Raises :class:`~repro.storage.table.CorruptTableError` when the
        checkpoint is corrupt or absent -- unlike the cache, the table is
        the source of truth and cannot be cold-started from nothing -- or
        when a logged record cannot apply to it (a missing insert batch, a
        delete of a row outside the heap, an unknown op), naming the LSN.
        """
        if not self.snapshot_path.exists():
            raise CorruptTableError(
                f"no table checkpoint at {self.snapshot_path}; nothing to recover"
            )
        table = DiskTable.load(self.snapshot_path)
        replayed: List[Tuple[str, np.ndarray]] = []
        for record in self.tail():
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
            checkpoint_lsn=self.checkpoint_lsn,
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
        self.replayed_lsn = self.wal.last_lsn
        return table, report
