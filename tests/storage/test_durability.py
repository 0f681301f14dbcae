"""DurabilityManager: log-before-apply, checkpoints, crash recovery."""

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs.metrics import MetricsRegistry
from repro.storage.durability import DurabilityManager, UnsupportedDurableTable
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.sharding import ShardedTable
from repro.storage.table import CorruptTableError, DiskTable
from repro.storage.wal import CheckpointedLog


def _table(n=20, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return DiskTable(rng.random((n, d)))


def _live_rows(table):
    rows = [table.row(i) for i in range(table.n) if table._alive[i]]
    return np.sort(np.asarray(rows), axis=0)


class TestLogApplyRecover:
    def test_recover_replays_tail_onto_checkpoint(self, tmp_path):
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)

        rng = np.random.default_rng(1)
        new_rows = rng.random((3, 3))
        manager.log_insert(new_rows, start=table.n)
        table.append(new_rows)
        manager.log_delete([0, 5], table._data[[0, 5]])
        table.delete(np.array([0, 5], dtype=np.int64))
        manager.close()  # no checkpoint: the tail must carry the updates

        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        assert report.replayed_ops == 2
        assert report.tail_status == "clean"
        assert recovered.n == table.n
        assert recovered.live_count == table.live_count
        np.testing.assert_array_equal(_live_rows(recovered), _live_rows(table))

    def test_recover_without_checkpoint_raises(self, tmp_path):
        manager = DurabilityManager(tmp_path, fsync=False)
        with pytest.raises(CorruptTableError):
            manager.recover()

    def test_recover_over_damaged_checkpoint_raises_the_typed_error(
        self, tmp_path
    ):
        manager = DurabilityManager(tmp_path, fsync=False)
        manager.ensure_checkpoint(_table())
        manager.close()
        blob = bytearray(manager.snapshot_path.read_bytes())
        blob[0] ^= 0xFF  # the first member's zip signature: never ignorable
        manager.snapshot_path.write_bytes(bytes(blob))
        with pytest.raises(CorruptTableError):
            DurabilityManager(tmp_path, fsync=False).recover()

    def test_insert_replay_is_idempotent_over_newer_snapshot(self, tmp_path):
        """A crash between snapshot replace and meta replace leaves the WAL
        holding batches the snapshot already contains; ``start`` skips them."""
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)

        rows = np.random.default_rng(2).random((2, 3))
        manager.log_insert(rows, start=table.n)
        table.append(rows)
        # Simulate the half-finished checkpoint: table snapshot written,
        # meta (and WAL prune) never happened.
        table.save(manager.snapshot_path)
        manager.close()

        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        # The batch was replayed as a record but skipped as an append.
        assert report.replayed_ops == 1
        assert recovered.n == table.n
        np.testing.assert_array_equal(_live_rows(recovered), _live_rows(table))

    def test_insert_replay_gap_is_loud(self, tmp_path):
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)
        # Log a batch claiming a heap offset beyond the checkpointed size:
        # a missing predecessor batch, which recovery must not paper over.
        manager.log_insert(np.ones((1, 3)), start=table.n + 4)
        manager.close()
        with pytest.raises(CorruptTableError):
            DurabilityManager(tmp_path, fsync=False, checkpoint_every=None).recover()

    @pytest.mark.parametrize("rowid", [-1, 20])
    def test_delete_replay_outside_the_heap_is_loud(self, tmp_path, rowid):
        """A logged delete naming a row the heap never held is a corrupt
        log, reported with its LSN like a missing batch -- not a bare
        IndexError out of the table."""
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)
        lsn = manager.log_delete([rowid], np.zeros((1, 3)))
        manager.close()
        with pytest.raises(CorruptTableError, match=f"lsn={lsn}"):
            DurabilityManager(tmp_path, fsync=False, checkpoint_every=None).recover()

    @pytest.mark.parametrize("rowid", [-1, 20])
    def test_invalid_delete_request_never_reaches_the_wal(self, tmp_path, rowid):
        """``delete_points`` validates ids before logging: ``-1`` must not
        wrap to the last row, get journalled and then poison every
        ``recover()`` of the directory."""
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        engine = CBCS(_table(), durability=manager)
        before = manager.wal.last_lsn
        with pytest.raises(IndexError):
            engine.delete_points([rowid])
        assert manager.wal.last_lsn == before
        assert engine.table.live_count == 20
        manager.wal.close()

        recovered = CBCS.recover(
            DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        )
        assert recovered.recovery_report.replayed_ops == 0
        assert recovered.table.live_count == 20
        recovered.close()

    def test_a_non_integral_row_id_never_reaches_the_wal(self, tmp_path):
        """``1.5`` is no row: a cast would truncate it to row 1, log that
        and delete it."""
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        engine = CBCS(_table(), durability=manager)
        with pytest.raises(ValueError, match="whole numbers"):
            engine.delete_points([1.5])
        assert manager.wal.last_lsn == 0
        assert engine.table.live_count == 20
        engine.close()

    def test_an_empty_insert_batch_keeps_the_directory_recoverable(
        self, tmp_path
    ):
        """An empty batch is logged like any other, so replaying it must
        work: the rows committed after it stay recoverable."""
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        engine = CBCS(_table(), durability=manager)
        assert engine.insert_points(np.empty((0, 3))).tolist() == []
        rows = np.random.default_rng(2).random((3, 3))
        assert engine.insert_points(rows).tolist() == [20, 21, 22]
        manager.wal.close()  # a crash: no final checkpoint

        recovered = CBCS.recover(
            DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        )
        assert recovered.recovery_report.replayed_ops == 2
        assert recovered.table.n == 23
        np.testing.assert_array_equal(recovered.table.data_view()[20:], rows)
        recovered.close()

    def test_delete_replay_is_idempotent(self, tmp_path):
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)
        manager.log_delete([3], table._data[[3]])
        table.delete(np.array([3], dtype=np.int64))
        # Checkpoint AFTER the apply, keeping the WAL tail (no prune racing
        # here: write the snapshot only, as a mid-checkpoint crash would).
        table.save(manager.snapshot_path)
        manager.close()

        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        assert report.replayed_ops == 1  # replayed, tombstone already set
        assert recovered.live_count == table.live_count


class TestCheckpointing:
    def test_checkpoint_prunes_wal_and_preserves_lsn_horizon(self, tmp_path):
        table = _table()
        metrics = MetricsRegistry()
        manager = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None, metrics=metrics
        )
        manager.ensure_checkpoint(table)
        for i in range(3):
            rows = np.full((1, 3), 0.1 * (i + 1))
            manager.log_insert(rows, start=table.n)
            table.append(rows)
        manager.checkpoint(table)
        last = manager.wal.last_lsn
        manager.close()

        # Reopen: the pruned WAL is empty, but the horizon must persist so
        # new appends never reuse LSNs replay would skip.
        reopened = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        assert reopened.wal.last_lsn == last
        rows = np.full((1, 3), 0.9)
        lsn = reopened.log_insert(rows, start=table.n)
        assert lsn == last + 1
        table.append(rows)
        reopened.close()

        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        assert report.replayed_ops == 1
        np.testing.assert_array_equal(_live_rows(recovered), _live_rows(table))

    def test_maybe_checkpoint_fires_on_threshold(self, tmp_path):
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=2)
        manager.ensure_checkpoint(table)
        rows = np.full((1, 3), 0.5)
        manager.log_insert(rows, start=table.n)
        table.append(rows)
        assert manager.maybe_checkpoint(table) is False
        rows = np.full((1, 3), 0.6)
        manager.log_insert(rows, start=table.n)
        table.append(rows)
        assert manager.maybe_checkpoint(table) is True
        assert manager._since_checkpoint == 0

    def test_checkpoint_every_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityManager(tmp_path, checkpoint_every=0)


class TestCrashRecovery:
    def test_crash_mid_checkpoint_recovers_from_wal(self, tmp_path):
        table = _table()
        injector = FaultInjector(profile="none", seed=0)
        manager = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None, injector=injector
        )
        manager.ensure_checkpoint(table)
        rows = np.random.default_rng(3).random((2, 3))
        manager.log_insert(rows, start=table.n)
        table.append(rows)

        injector.arm_crash("table.checkpoint", after=0)
        with pytest.raises(SimulatedCrash):
            manager.checkpoint(table)
        manager.wal.close()

        injector.disarm_crashes()
        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        # The old checkpoint survives (atomic replace never landed) and the
        # WAL tail carries the batch.
        assert report.replayed_ops == 1
        np.testing.assert_array_equal(_live_rows(recovered), _live_rows(table))

    def test_crash_mid_append_loses_only_uncommitted_batch(self, tmp_path):
        table = _table()
        injector = FaultInjector(profile="none", seed=0)
        manager = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None, injector=injector
        )
        manager.ensure_checkpoint(table)
        committed = np.random.default_rng(4).random((1, 3))
        manager.log_insert(committed, start=table.n)
        table.append(committed)

        injector.arm_crash("wal.append", after=0, torn_fraction=0.4)
        doomed = np.random.default_rng(5).random((1, 3))
        with pytest.raises(SimulatedCrash):
            manager.log_insert(doomed, start=table.n)
        manager.wal.close()

        injector.disarm_crashes()
        recovered, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        assert report.tail_status == "torn"
        assert report.replayed_ops == 1  # only the committed batch
        expected = table  # doomed batch was never applied either
        np.testing.assert_array_equal(_live_rows(recovered), _live_rows(expected))

    def test_recovery_report_serializes_scalars(self, tmp_path):
        table = _table()
        manager = DurabilityManager(tmp_path, fsync=False, checkpoint_every=None)
        manager.ensure_checkpoint(table)
        rows = np.full((1, 3), 0.2)
        manager.log_insert(rows, start=table.n)
        table.append(rows)
        manager.close()
        _, report = DurabilityManager(
            tmp_path, fsync=False, checkpoint_every=None
        ).recover()
        as_dict = report.to_dict()
        assert as_dict["replayed_ops"] == 1
        assert set(as_dict) == {
            "checkpoint_lsn", "last_lsn", "replayed_ops", "tail_status",
            "live_rows",
        }


class TestOneCheckpointedLog:
    def test_table_and_cache_logs_share_layout_horizon_and_close(self, tmp_path):
        """One durable engine, two logs: after ``close`` each directory is
        ``<name>.npz`` + ``meta.json`` + ``wal/``, its checkpoint covers its
        whole horizon, and a reopen replays nothing."""
        cache = SkylineCache(
            log=CheckpointedLog(tmp_path / "cache", "cache", fsync=False)
        )
        engine = CBCS(
            _table(),
            cache=cache,
            durability=DurabilityManager(tmp_path / "table", fsync=False),
        )
        engine.query(Constraints([0.0] * 3, [0.8] * 3))
        engine.insert_points(np.full((2, 3), 0.05))
        engine.delete_points([1])
        engine.close()
        for name in ("table", "cache"):
            directory = tmp_path / name
            assert sorted(p.name for p in directory.iterdir()) == sorted(
                [f"{name}.npz", "meta.json", "wal"]
            )
            reopened = CheckpointedLog(directory, name, fsync=False)
            assert reopened.checkpoint_lsn == reopened.wal.last_lsn > 0
            assert list(reopened.tail()) == []
            reopened.close()


def _file_stamp(path):
    """What a rewrite changes: the inode (a replace is a new file), the
    mtime and the bytes."""
    stat = path.stat()
    return stat.st_ino, stat.st_mtime_ns, path.read_bytes()


class TestCleanClose:
    def _engine(self, tmp_path):
        cache = SkylineCache(
            log=CheckpointedLog(tmp_path / "cache", "cache", fsync=False)
        )
        return CBCS(
            _table(),
            cache=cache,
            durability=DurabilityManager(tmp_path / "table", fsync=False),
        )

    def _files(self, tmp_path):
        return [
            tmp_path / "table" / "table.npz",
            tmp_path / "table" / "meta.json",
            tmp_path / "cache" / "cache.npz",
            tmp_path / "cache" / "meta.json",
        ]

    def test_a_close_with_nothing_logged_rewrites_nothing(self, tmp_path):
        """Both logs checkpointed and nothing logged since: ``close`` leaves
        every snapshot and ``meta.json`` as it was."""
        engine = self._engine(tmp_path)
        engine.query(Constraints([0.0] * 3, [0.8] * 3))
        engine.insert_points(np.full((2, 3), 0.05))
        engine.checkpoint()
        before = [_file_stamp(path) for path in self._files(tmp_path)]
        engine.close()
        assert [_file_stamp(path) for path in self._files(tmp_path)] == before

    def test_a_recovery_that_replays_nothing_rewrites_nothing(self, tmp_path):
        engine = self._engine(tmp_path)
        engine.insert_points(np.full((2, 3), 0.05))
        engine.close()
        table_files = self._files(tmp_path)[:2]
        before = [_file_stamp(path) for path in table_files]
        recovered = CBCS.recover(
            DurabilityManager(tmp_path / "table", fsync=False)
        )
        assert recovered.recovery_report.replayed_ops == 0
        recovered.close()
        assert [_file_stamp(path) for path in table_files] == before
        assert recovered.table.n == engine.table.n


class TestUnsupportedDurableTable:
    def test_a_sharded_table_is_refused_before_the_directory_is_touched(
        self, tmp_path
    ):
        """The log checkpoints and recovers a ``DiskTable`` only: a
        ``ShardedTable`` with ``durability=`` is refused by a typed error
        that names the combination, and no ``wal/`` (or anything else) is
        created in the directory."""
        directory = tmp_path / "durable"
        directory.mkdir()
        table = ShardedTable(np.random.default_rng(0).random((100, 2)), 3)
        with pytest.raises(UnsupportedDurableTable, match="ShardedTable"):
            CBCS(table, durability=directory)
        assert list(directory.iterdir()) == []
        with pytest.raises(UnsupportedDurableTable, match="durable fleet"):
            CBCS(table, durability=tmp_path / "absent")
        assert not (tmp_path / "absent").exists()
