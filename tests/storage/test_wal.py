"""Write-ahead log: framing, replay, rotation, torn tails, corruption, and
the checkpointed log built on it."""

import os
import struct

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.geometry.constraints import Constraints
from repro.obs.metrics import MetricsRegistry
from repro.storage.durability import DurabilityManager
from repro.storage.table import DiskTable
from repro.storage.faults import FaultInjector, SimulatedCrash
from repro.storage.wal import CheckpointedLog, CorruptWALError, WriteAheadLog, _frame


def _fill(wal, n, start=1):
    for i in range(start, start + n):
        wal.append({"op": "noop", "i": i})


class TestAppendReplay:
    def test_lsns_dense_from_one(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        lsns = [wal.append({"i": i}) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        wal.close()

    def test_replay_round_trips_payloads(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        payloads = [{"op": "insert", "rows": [float(i)]} for i in range(7)]
        for p in payloads:
            wal.append(p)
        wal.close()

        reopened = WriteAheadLog(tmp_path, fsync=False)
        records = reopened.records()
        assert [r.payload for r in records] == payloads
        assert [r.lsn for r in records] == list(range(1, 8))
        assert reopened.tail_status == "clean"
        reopened.close()

    def test_replay_after_lsn_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 6)
        assert [r.lsn for r in wal.records(after_lsn=4)] == [5, 6]
        wal.close()

    def test_fsync_mode_counts_fsyncs(self, tmp_path):
        metrics = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, fsync=True, metrics=metrics)
        _fill(wal, 3)
        assert metrics.counter_value("wal_fsyncs_total") == 3
        assert metrics.counter_value("wal_records_total") == 3
        wal.close()


class TestRotatePrune:
    def test_rotate_starts_new_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 3)
        wal.rotate()
        _fill(wal, 2, start=4)
        assert len(list(tmp_path.glob("wal-*.log"))) == 2
        # Replay spans both segments in order.
        assert [r.lsn for r in wal.records()] == [1, 2, 3, 4, 5]
        wal.close()

    def test_prune_removes_covered_sealed_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 4)
        wal.rotate()
        _fill(wal, 2, start=5)
        removed = wal.prune(upto_lsn=4)
        assert removed == 1
        assert [r.lsn for r in wal.records()] == [5, 6]
        wal.close()

    def test_prune_never_deletes_active_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 2)
        assert wal.prune(upto_lsn=100) == 0
        assert [r.lsn for r in wal.records()] == [1, 2]
        wal.close()

    def test_prune_keeps_segment_with_uncovered_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 4)
        wal.rotate()
        assert wal.prune(upto_lsn=3) == 0
        wal.close()


class TestTornTail:
    def _truncate_tail(self, tmp_path, cut):
        path = max(tmp_path.glob("wal-*.log"))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])

    def test_torn_tail_truncated_on_open(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 5)
        wal.close()
        # Chop a few bytes off the last frame: a torn write.
        self._truncate_tail(tmp_path, 3)

        metrics = MetricsRegistry()
        reopened = WriteAheadLog(tmp_path, fsync=False, metrics=metrics)
        assert reopened.opened_tail_status == "torn"
        assert metrics.counter_value("wal_torn_tails_truncated_total") == 1
        # The torn record is gone; the valid prefix survives.
        assert [r.lsn for r in reopened.records()] == [1, 2, 3, 4]
        assert reopened.tail_status == "clean"
        reopened.close()

    def test_appends_continue_after_torn_truncation(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 3)
        wal.close()
        self._truncate_tail(tmp_path, 2)

        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.last_lsn == 2
        assert reopened.append({"op": "next"}) == 3
        assert [r.lsn for r in reopened.records()] == [1, 2, 3]
        reopened.close()

    def test_short_header_is_torn(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 2)
        wal.close()
        path = max(tmp_path.glob("wal-*.log"))
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # less than one header
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.opened_tail_status == "torn"
        assert len(reopened.records()) == 2
        reopened.close()


class TestCorruption:
    def test_midfile_bitflip_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 5)
        wal.close()
        path = max(tmp_path.glob("wal-*.log"))
        blob = bytearray(path.read_bytes())
        # Flip a payload byte of the FIRST record: the later valid frames
        # prove this is bit rot, not a torn tail.
        blob[struct.calcsize("<QII") + 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        with pytest.raises(CorruptWALError):
            WriteAheadLog(tmp_path, fsync=False)

    def test_torn_tail_in_sealed_segment_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 3)
        wal.rotate()
        _fill(wal, 1, start=4)
        wal.close()
        sealed = min(tmp_path.glob("wal-*.log"))
        blob = sealed.read_bytes()
        sealed.write_bytes(blob[:-2])
        with pytest.raises(CorruptWALError):
            WriteAheadLog(tmp_path, fsync=False)


class TestCrashPoints:
    def test_armed_append_crash_leaves_no_frame(self, tmp_path):
        injector = FaultInjector(profile="none", seed=0)
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        _fill(wal, 2)
        injector.arm_crash("wal.append", after=0)
        with pytest.raises(SimulatedCrash):
            wal.append({"op": "doomed"})
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert [r.lsn for r in reopened.records()] == [1, 2]
        assert reopened.opened_tail_status == "clean"
        reopened.close()

    def test_torn_append_crash_leaves_truncatable_prefix(self, tmp_path):
        injector = FaultInjector(profile="none", seed=0)
        wal = WriteAheadLog(tmp_path, fsync=False, injector=injector)
        _fill(wal, 2)
        injector.arm_crash("wal.append", after=0, torn_fraction=0.5)
        with pytest.raises(SimulatedCrash):
            wal.append({"op": "doomed", "padding": "x" * 64})
        wal.close()
        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.opened_tail_status == "torn"
        assert [r.lsn for r in reopened.records()] == [1, 2]
        # The committed prefix is intact and appendable.
        assert reopened.append({"op": "next"}) == 3
        reopened.close()


class TestLsnHorizon:
    def test_reopen_after_full_prune_does_not_reuse_lsns(self, tmp_path):
        """Regression guard for the checkpoint-prune LSN horizon.

        After a checkpoint prunes every covered segment the reopened log is
        empty; ``last_lsn`` must be restored by the checkpointing layer (see
        :class:`CheckpointedLog`) or new appends reuse skipped
        LSNs.  The WAL itself reports 0 here -- this pins the contract the
        callers compensate for.
        """
        wal = WriteAheadLog(tmp_path, fsync=False)
        _fill(wal, 4)
        wal.rotate()
        wal.prune(upto_lsn=4)
        wal.close()

        reopened = WriteAheadLog(tmp_path, fsync=False)
        assert reopened.last_lsn == 0  # the caller must restore the horizon
        reopened.last_lsn = max(reopened.last_lsn, 4)
        assert reopened.append({"op": "next"}) == 5
        reopened.close()

    def test_frame_roundtrip_is_stable(self, tmp_path):
        frame = _frame(7, b'{"op":"x"}')
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(frame)
        wal = WriteAheadLog(tmp_path, fsync=False)
        (record,) = wal.records()
        assert record.lsn == 7
        assert record.payload == {"op": "x"}
        wal.close()


class _Blob:
    """The least a checkpoint needs: ``save(path, crashpoint=None,
    fsync=False)``."""

    def __init__(self):
        self.saves = 0

    def save(self, path, crashpoint=None, fsync=False):
        self.saves += 1
        path.write_bytes(b"snapshot %d" % self.saves)


class TestCheckpointedLog:
    def test_maybe_checkpoint_counts_appends_and_names_its_metric(self, tmp_path):
        metrics = MetricsRegistry()
        log = CheckpointedLog(tmp_path, "blob", checkpoint_every=2, metrics=metrics)
        blob = _Blob()
        log.ensure_checkpoint(blob)  # the base snapshot
        log.ensure_checkpoint(blob)  # already there: no second one
        log.append({"op": "a"})
        assert log.maybe_checkpoint(blob) is False
        log.append({"op": "b"})
        assert log.maybe_checkpoint(blob) is True
        assert blob.saves == 2
        assert (tmp_path / "blob.npz").read_bytes() == b"snapshot 2"
        assert metrics.counter_value("blob_checkpoints_total") == 2
        log.close()


@pytest.fixture
def file_ops(monkeypatch):
    """Every ``os.fsync`` (as the inode it made durable), ``os.replace``
    (as its target's name) and ``os.unlink`` (as the name removed), in
    call order."""
    events = []
    fsync, replace, unlink = os.fsync, os.replace, os.unlink

    def traced_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def traced_replace(src, dst, **kwargs):
        replace(src, dst, **kwargs)
        events.append(("replace", os.path.basename(dst)))

    def traced_unlink(path, **kwargs):
        events.append(("unlink", os.path.basename(path)))
        unlink(path, **kwargs)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    monkeypatch.setattr(os, "unlink", traced_unlink)
    return events


def _table_log(directory):
    table = DiskTable(np.random.default_rng(0).random((50, 3)))
    log = DurabilityManager(directory, checkpoint_every=None)
    log.checkpoint(table)
    rows = np.full((2, 3), 0.5)
    log.log_insert(rows, start=table.n)
    table.append(rows)
    return log, table


def _cache_log(directory):
    log = CheckpointedLog(directory, "cache", checkpoint_every=None)
    cache = SkylineCache(log=log)
    cache.insert(Constraints([0.0] * 3, [1.0] * 3), np.full((1, 3), 0.5))
    return log, cache


class TestCheckpointCommitOrder:
    """Power loss: with ``fsync`` a checkpoint deletes no WAL segment
    before the snapshot and the meta that replace it are on disk."""

    @pytest.mark.parametrize("owner", [_table_log, _cache_log])
    def test_snapshot_meta_and_directory_are_durable_before_the_prune(
        self, tmp_path, file_ops, owner
    ):
        log, state = owner(tmp_path)
        covered = log.wal._active_path.name  # holds the record just logged
        file_ops.clear()
        log.checkpoint(state)

        snapshot = ("fsync", log.snapshot_path.stat().st_ino)
        meta = ("fsync", log.meta_path.stat().st_ino)
        directory = ("fsync", tmp_path.stat().st_ino)
        pruned = file_ops.index(("unlink", covered))
        done = file_ops[:pruned]
        snapshot_renamed = done.index(("replace", log.snapshot_path.name))
        meta_renamed = done.index(("replace", "meta.json"))
        assert done.index(snapshot) < snapshot_renamed < meta_renamed
        assert directory in done[snapshot_renamed:meta_renamed]
        assert snapshot_renamed < done.index(meta) < meta_renamed
        assert directory in done[meta_renamed:]

    def test_the_first_record_of_a_segment_makes_its_entry_durable(
        self, tmp_path, file_ops
    ):
        log = CheckpointedLog(tmp_path, "blob", checkpoint_every=None)
        log.checkpoint(_Blob())
        file_ops.clear()
        log.append({"op": "a"})
        log.append({"op": "b"})
        segment = ("fsync", log.wal._active_path.stat().st_ino)
        directory = ("fsync", (tmp_path / "wal").stat().st_ino)
        assert file_ops == [segment, directory, segment]
        log.close()

    def test_without_fsync_nothing_is_fsynced(self, tmp_path, file_ops):
        log = CheckpointedLog(tmp_path, "blob", fsync=False, checkpoint_every=None)
        log.checkpoint(_Blob())
        log.append({"op": "a"})
        log.checkpoint(_Blob())
        assert not [event for event in file_ops if event[0] == "fsync"]
        log.close()
