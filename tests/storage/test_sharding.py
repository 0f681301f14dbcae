"""Tests for :mod:`repro.storage.sharding`."""

import sys
import threading

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.skyline.reference import constrained_reference
from repro.storage.sharding import ShardedTable, hash_key
from repro.storage.table import DiskTable
from tests.core.conftest import assert_same_point_set


def live_rows(table):
    """The live rows of one shard's table (no I/O charge)."""
    return table.data_view()[table._alive]


def make_data(n=400, ndim=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, ndim))


class TestConstruction:
    def test_range_partitioning_covers_every_row(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="range")
        assert table.n_shards == 4
        assert table.n == len(data)
        assert sum(s.table.live_count for s in table) == len(data)
        assert table.live_count == len(data)

    def test_range_partitioning_is_ordered_on_key(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="range", key_dim=1)
        highs = [
            s.table.data_view()[:, 1].max() for s in table if s.table.live_count
        ]
        lows = [s.table.data_view()[:, 1].min() for s in table if s.table.live_count]
        for prev_hi, next_lo in zip(highs, lows[1:]):
            assert prev_hi <= next_lo

    def test_hash_partitioning_routes_deterministically(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="hash", key_dim=2)
        for shard in table:
            for row in shard.table.data_view():
                assert hash_key(row[2], 4) == shard.shard_id

    def test_explicit_assignments(self):
        data = make_data(n=10)
        assignments = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        table = ShardedTable(data, 3, mode="explicit", assignments=assignments)
        assert [s.table.live_count for s in table] == [4, 3, 3]

    def test_explicit_requires_assignments(self):
        with pytest.raises(ValueError):
            ShardedTable(make_data(), 2, mode="explicit")

    def test_assignments_rejected_for_other_modes(self):
        with pytest.raises(ValueError):
            ShardedTable(make_data(), 2, mode="range", assignments=np.zeros(400, dtype=int))

    def test_bad_mode_and_counts(self):
        with pytest.raises(ValueError):
            ShardedTable(make_data(), 2, mode="round-robin")
        with pytest.raises(ValueError):
            ShardedTable(make_data(), 0)
        with pytest.raises(ValueError):
            ShardedTable(make_data(ndim=3), 2, key_dim=3)

    def test_single_shard_holds_everything(self):
        data = make_data()
        table = ShardedTable(data, 1)
        assert table[0].table.live_count == len(data)
        assert table.counts.tolist() == [len(data)]

    def test_empty_shards_allowed(self):
        # All keys identical in range mode: every quantile boundary
        # coincides, so one shard takes all rows and the rest stay empty.
        data = np.column_stack([np.full(50, 0.5), np.linspace(0, 1, 50)])
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        sizes = sorted(s.table.live_count for s in table)
        assert sum(sizes) == 50
        assert sizes[:3] == [0, 0, 0]

    def test_table_factory(self):
        data = make_data()
        table = ShardedTable(
            data, 2, table_factory=lambda rows: DiskTable(rows, plan="best_index")
        )
        assert all(s.table.plan == "best_index" for s in table)


class TestSummaries:
    """The shard bounds: ``mbr_lo`` / ``mbr_hi`` / ``counts``."""

    def test_mbr_matches_shard_data(self):
        data = make_data()
        table = ShardedTable(data, 4)
        for shard in table:
            view = shard.table.data_view()
            sid = shard.shard_id
            np.testing.assert_allclose(table.mbr_lo[sid], view.min(axis=0))
            np.testing.assert_allclose(table.mbr_hi[sid], view.max(axis=0))
            assert table.counts[sid] == len(view)

    def test_empty_shard_has_inverted_mbr(self):
        data = np.column_stack([np.full(50, 0.5), np.linspace(0, 1, 50)])
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        for sid in np.flatnonzero(table.counts == 0):
            assert np.all(table.mbr_lo[sid] == np.inf)
            assert np.all(table.mbr_hi[sid] == -np.inf)

    def test_append_outside_grows_mbr(self):
        table = ShardedTable(make_data(), 2)
        lo, hi = table.mbr_lo, table.mbr_hi
        outside = np.array([[2.0, 2.0, 2.0]])
        assert table.route(outside[0]) == 1
        table.append(outside)
        np.testing.assert_allclose(table.mbr_hi[1], [2.0, 2.0, 2.0])
        # replaced, not written into: a reader holding the old arrays keeps
        # a consistent (smaller) view
        assert table.mbr_hi is not hi and hi[1].max() <= 1.0
        assert table.mbr_lo is not lo

    def test_append_inside_mbr_does_not_change_it(self):
        table = ShardedTable(make_data(), 2)
        lo, hi = table.mbr_lo.copy(), table.mbr_hi.copy()
        count_before = table.counts[0]
        inside = ((lo[0] + hi[0]) / 2).reshape(1, -1)
        assert table.route(inside[0]) == 0
        table.append(inside)
        np.testing.assert_array_equal(table.mbr_lo, lo)
        np.testing.assert_array_equal(table.mbr_hi, hi)
        assert table.counts[0] == count_before + 1

    def test_delete_refreshes_count_keeps_mbr_superset(self):
        table = ShardedTable(make_data(), 2)
        outside = np.array([[2.0, 2.0, 2.0]])
        rowids = table.append(outside)
        before = table.mbr_hi.copy()
        assert table.delete(rowids) == 1
        assert table.counts.tolist() == [s.table.live_count for s in table]
        np.testing.assert_array_equal(table.mbr_hi, before)


class TestRangeQuery:
    """``range_query`` = MBR broadcast, overlapping shards in shard order."""

    def test_shard_outside_the_box_is_not_read(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        cut = float(table.mbr_hi[1, 0])
        result = table.range_query([0, 0, 0], [cut, 1, 1])
        assert [s.table.stats.range_queries for s in table] == [1, 1, 0, 0]
        assert len(result) == int((data[:, 0] <= cut).sum())

    def test_box_touching_an_mbr_face_reads_the_shard(self):
        # closed against closed: the row *on* the face must be found
        data = make_data()
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        edge = float(table.mbr_lo[2, 0])
        result = table.range_query([0, 0, 0], [edge, 1, 1])
        assert table[2].table.stats.range_queries == 1
        assert edge in result.points[:, 0]

    def test_empty_shard_is_not_read(self):
        data = np.column_stack([np.full(50, 0.5), np.linspace(0, 1, 50)])
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        result = table.range_query([-np.inf] * 2, [np.inf] * 2)
        assert len(result) == 50
        assert sorted(s.table.stats.range_queries for s in table) == [0, 0, 0, 1]

    def test_no_overlapping_shard_costs_nothing(self):
        table = ShardedTable(make_data(), 4)
        result = table.range_query([2, 0, 0], [3, 1, 1])
        assert result.points.shape == (0, 3) and result.rowids.dtype == np.int64
        assert result.rows_fetched == 0
        assert table.stats == type(table.stats)()

    def test_results_come_in_shard_order_with_global_row_ids(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="hash", key_dim=1)
        result = table.range_query([0.1, 0.1, 0.1], [0.9, 0.6, 0.9])
        np.testing.assert_array_equal(data[result.rowids], result.points)
        shard_of = table._shard_of[result.rowids]
        assert (np.diff(shard_of) >= 0).all() and len(set(shard_of)) == 4
        assert result.rows_fetched == len(result)
        assert result.seeks == table.stats.seeks >= 4
        assert result.io_ms == pytest.approx(table.stats.simulated_io_ms)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_skipping_shards_is_safe(self, n_shards, seed):
        """No row inside the box lives on a shard the broadcast skipped --
        mixed open / closed / unbounded faces against a brute-force mask."""
        rng = np.random.default_rng(seed)
        data = np.round(rng.uniform(0, 1, size=(300, 3)) * 6) / 6
        mode = ("range", "hash")[seed % 2]
        table = ShardedTable(data, n_shards, mode=mode, key_dim=seed % 3)
        for _ in range(40):
            a, b = np.round(rng.uniform(0, 1, size=(2, 3)) * 6) / 6
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            hi[rng.random(3) < 0.2] = np.inf
            lo_open = rng.random(3) < 0.3
            hi_open = (rng.random(3) < 0.3) & np.isfinite(hi)
            # an open face is asked for as the closed face one double inward
            result = table.range_query(
                np.where(lo_open, np.nextafter(lo, np.inf), lo),
                np.where(hi_open, np.nextafter(hi, -np.inf), hi),
            )
            inside = np.where(lo_open, data > lo, data >= lo)
            inside &= np.where(hi_open, data < hi, data <= hi)
            assert sorted(result.rowids.tolist()) == np.flatnonzero(
                inside.all(axis=1)
            ).tolist()

    def test_shard_table_is_looked_up_per_call(self):
        """``Shard.table`` is a public field: wrapping one shard after the
        fleet was built must take effect on the next read."""
        from repro.storage.faults import (
            FaultInjector,
            FaultyDiskTable,
            TransientStorageError,
        )

        table = ShardedTable(make_data(), 2)
        box = ([0, 0, 0], [1, 1, 1])
        assert len(table.range_query(*box)) == 400
        injector = FaultInjector("none", seed=0)
        table[1].table = FaultyDiskTable(table[1].table, injector)
        injector.force_outage(1)
        with pytest.raises(TransientStorageError):
            table.range_query(*box)
        assert len(table.range_query(*box)) == 400
        # the wrapper delegates ``stats``, so the fleet sum still reconciles
        assert table.stats.points_read == 400 * 2 + table.counts[0]

    def test_truncated_part_keeps_its_signature(self):
        """Points and row ids are concatenated independently, so a short
        read on one shard still fails ``validate_range_result``."""
        from dataclasses import replace

        from repro.resilience.errors import CorruptResultError
        from repro.resilience.validate import validate_range_result

        table = ShardedTable(make_data(), 2)
        inner = table[0].table

        class ShortRead:
            def __getattr__(self, name):
                return getattr(inner, name)

            def range_query(self, lo, hi):
                result = inner.range_query(lo, hi)
                return replace(result, points=result.points[:-3])

        table[0].table = ShortRead()
        result = table.range_query([0, 0, 0], [1, 1, 1])
        assert len(result.rowids) == 400 and len(result.points) == 397
        with pytest.raises(CorruptResultError):
            validate_range_result(result)


class TestIndexView:
    """``index(dim)``: what ``perfbench/trace.py`` wraps on a fleet."""

    def test_view_is_stable_and_wrappable(self):
        table = ShardedTable(make_data(), 4)
        assert table.index(1) is table.index(1)
        view = table.index(1)
        calls = []
        original = view.range_rows
        view.range_rows = lambda *a, **k: calls.append(a) or original(*a, **k)
        assert len(table.index(1).range_rows(0.2, 0.4)) > 0 and calls
        del view.range_rows
        assert "range_rows" not in vars(view)

    @pytest.mark.parametrize("mode", ["range", "hash"])
    def test_count_equals_scan_after_writes(self, mode):
        data = make_data()
        table = ShardedTable(data, 4, mode=mode)
        table.delete(table.append(make_data(n=20, seed=9))[::2])
        table.delete(np.arange(0, 400, 7))

        def check():
            for dim in range(3):
                for lo, hi in ((0.2, 0.7), (0.5, 0.5), (0.9, 0.1), (-1.0, 2.0)):
                    rows = table.index(dim).range_rows(lo, hi)
                    assert table.estimate_count(dim, lo, hi) == len(rows)

        check()  # dead rows still have index entries: counted and scanned
        assert table.vacuum() == 10 + 58
        check()

    def test_rows_are_global_ids_in_shard_order(self):
        data = make_data()
        table = ShardedTable(data, 4, mode="hash")
        rows = table.index(2).range_rows(np.nextafter(0.25, 1), np.nextafter(0.75, 0))
        keys = data[rows, 2]
        assert ((keys > 0.25) & (keys < 0.75)).all()
        assert len(rows) == int(((data[:, 2] > 0.25) & (data[:, 2] < 0.75)).sum())
        assert (np.diff(table._shard_of[rows]) >= 0).all()


class TestWrites:
    def test_initial_rows_keep_their_input_position(self):
        data = make_data()
        for mode in ("range", "hash"):
            table = ShardedTable(data, 4, mode=mode)
            for rowid in (0, 1, 199, 399):
                np.testing.assert_array_equal(table.row(rowid), data[rowid])
        with pytest.raises(IndexError):
            table.row(400)
        with pytest.raises(IndexError):
            table.row(-1)

    def test_append_returns_global_ids_in_input_order(self):
        data = make_data()
        table = ShardedTable(data, 4)
        rows = make_data(n=9, seed=4)
        ids = table.append(rows)
        assert ids.dtype == np.int64 and ids.tolist() == list(range(400, 409))
        for rowid, row in zip(ids, rows):
            np.testing.assert_array_equal(table.row(rowid), row)
        assert table.n == 409 and table.live_count == 409
        found = table.range_query([0, 0, 0], [1, 1, 1])
        assert sorted(found.rowids.tolist()) == list(range(409))

    def test_delete_and_vacuum_span_shards(self):
        table = ShardedTable(make_data(), 4)
        victims = np.array([0, 1, 2, 3, 399])
        assert len(set(table._shard_of[victims])) > 1
        assert table.delete(victims) == 5
        assert table.delete(victims[:2]) == 0  # already dead
        assert table.live_count == 395
        with pytest.raises(KeyError, match="row 399 is deleted"):
            table.row(399)
        assert table.vacuum() == 5
        found = table.range_query([0, 0, 0], [1, 1, 1])
        assert not set(victims.tolist()) & set(found.rowids.tolist())

    def test_explicit_mode_refuses_append_before_touching_a_shard(self):
        data = make_data(n=6)
        table = ShardedTable(
            data, 2, mode="explicit", assignments=np.array([0, 1] * 3)
        )
        for write in (table.append, table.route):
            with pytest.raises(ValueError, match="only be placed at construction"):
                write(data[0])
        assert [s.table.n for s in table] == [3, 3] and table.n == 6


class TestWritesStraightToAShard:
    """A write made to one shard's table, not through the fleet: the fleet's
    directory, MBRs and live counts follow it (``ShardedTable.note_write``),
    so the next read names the new row and reaches the shard it lies in."""

    C = Constraints([0.1, 0.1, 0.1], [0.9, 0.9, 0.9])

    def assert_fleet_matches_shards(self, table):
        assert table.counts.tolist() == [s.table.live_count for s in table]
        assert table.n == sum(s.table.n for s in table)
        for sid, shard in enumerate(table):
            rows = live_rows(shard.table)
            assert (rows >= table.mbr_lo[sid]).all()
            assert (rows <= table.mbr_hi[sid]).all()

    def test_an_appended_row_is_named_and_read(self):
        data = np.random.default_rng(8).random((400, 3))
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        engine.query(self.C)
        table[0].table.append([[0.11, 0.11, 0.11]])
        live = np.vstack([data, [[0.11, 0.11, 0.11]]])
        assert_same_point_set(
            engine.query(self.C).skyline, constrained_reference(live, self.C)
        )
        np.testing.assert_array_equal(table.row(400), [0.11, 0.11, 0.11])
        self.assert_fleet_matches_shards(table)
        # the fleet's own next append continues the id sequence
        assert table.append([[0.5, 0.5, 0.5]]).tolist() == [401]
        np.testing.assert_array_equal(table.row(401), [0.5, 0.5, 0.5])
        self.assert_fleet_matches_shards(table)

    def test_a_row_outside_the_shards_mbr_is_read(self):
        """The only box asked for misses the shard's MBR before the write."""
        data = np.random.default_rng(8).random((400, 3))
        table = ShardedTable(data, 4)
        beyond = Constraints([-1.0, 0.0, 0.0], [-0.1, 1.0, 1.0])
        engine = CBCS(table)
        assert len(engine.query(beyond).skyline) == 0
        table[0].table.append([[-0.5, 0.5, 0.5]])
        np.testing.assert_array_equal(
            engine.query(beyond).skyline, [[-0.5, 0.5, 0.5]]
        )
        np.testing.assert_array_equal(table.row(400), [-0.5, 0.5, 0.5])
        self.assert_fleet_matches_shards(table)

    def test_a_row_on_a_shard_that_was_empty_is_read(self):
        data = np.random.default_rng(8).random((12, 3))
        table = ShardedTable(
            data, 3, mode="explicit", assignments=np.array([0, 1] * 6)
        )
        assert table.counts.tolist() == [6, 6, 0]
        engine = CBCS(table)
        engine.query(self.C)
        table[2].table.append([[0.2, 0.2, 0.2]])
        live = np.vstack([data, [[0.2, 0.2, 0.2]]])
        assert_same_point_set(
            engine.query(self.C).skyline, constrained_reference(live, self.C)
        )
        np.testing.assert_array_equal(table.row(12), [0.2, 0.2, 0.2])
        self.assert_fleet_matches_shards(table)

    def test_a_delete_is_counted(self):
        data = np.random.default_rng(5).random((400, 3))
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        engine.query(self.C)
        shard = table[1].table
        assert shard.delete(np.arange(shard.n)) == shard.n
        assert table.counts[1] == 0
        self.assert_fleet_matches_shards(table)
        live = np.vstack([live_rows(s.table) for s in table])
        assert_same_point_set(
            engine.query(self.C).skyline, constrained_reference(live, self.C)
        )

    def test_concurrent_appends_on_every_shard_name_every_row_once(self):
        """Four threads append straight to their own shard's table: every
        new local row gets exactly one global id, and the counts and MBRs
        lose no shard's update."""
        table = ShardedTable(np.random.default_rng(9).random((400, 3)), 4)
        failures = []

        def append_all(sid):
            try:
                rng = np.random.default_rng(sid)
                for _ in range(50):
                    table[sid].table.append(rng.random((1, 3)) + sid)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=append_all, args=(s,)) for s in range(4)]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers) and not failures, failures
        assert table.n == 600
        assert sorted(np.concatenate(table._global_of).tolist()) == list(range(600))
        for rowid in range(400, 600):
            sid = int(table._shard_of[rowid])
            local = int(table._global_of[sid].searchsorted(rowid))
            np.testing.assert_array_equal(
                table.row(rowid), table[sid].table.data_view()[local]
            )
        self.assert_fleet_matches_shards(table)


class TestSwappingAShardsTable:
    """``table[i].table = ...`` takes the shard's own table or a wrapper
    around it; anything else would leave the fleet's directory, MBRs and
    counts describing rows the shard no longer holds."""

    def test_an_unrelated_table_is_refused(self):
        table = ShardedTable(np.random.default_rng(0).random((400, 3)), 4)
        own = table[0].table
        stranger = DiskTable([[5.0, 5.0, 5.0], [5.5, 5.5, 5.5]])
        with pytest.raises(ValueError):
            table[0].table = stranger
        assert table[0].table is own
        assert stranger.watch_writes(table)  # no watcher was registered
        assert table.n == 400 and table.counts.sum() == 400
        assert len(table.range_query([4.0] * 3, [6.0] * 3)) == 0

    def test_a_wrapper_around_another_shards_table_is_refused(self):
        from repro.storage.faults import FaultInjector, FaultyDiskTable

        table = ShardedTable(make_data(), 2)
        own = table[0].table
        other = FaultyDiskTable(table[1].table, FaultInjector("none", seed=0))
        with pytest.raises(ValueError):
            table[0].table = other
        assert table[0].table is own

    def test_a_wrapper_and_the_table_itself_are_taken(self):
        from repro.storage.faults import FaultInjector, FaultyDiskTable

        table = ShardedTable(make_data(), 2)
        own = table[0].table
        wrapper = FaultyDiskTable(own, FaultInjector("none", seed=0))
        table[0].table = wrapper
        table[0].table = FaultyDiskTable(wrapper, FaultInjector("none", seed=1))
        table[0].table = own
        assert table[0].table is own
        assert len(table.range_query([0.0] * 3, [1.0] * 3)) == 400


class TestConcurrentReadersAndWriter:
    def test_readers_can_name_every_row_a_shard_returns(self):
        """Readers take no lock: while a writer appends, every row a shard
        hands back must already have its global id (directory before rows),
        and no committed row may be missing once the writer is done."""
        import sys
        import threading

        data = make_data(n=200)
        table = ShardedTable(data, 4, mode="hash")
        batches = [make_data(n=3, seed=100 + i) for i in range(120)]
        everything = (np.zeros(3), np.ones(3))
        committed = [len(data)]  # rows whose append has returned
        failures = []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    floor = committed[0]
                    result = table.range_query(*everything)
                    ids = result.rowids
                    assert len(set(ids.tolist())) == len(ids) >= floor
                    for rowid, point in zip(ids[-5:].tolist(), result.points[-5:]):
                        expected = (
                            data[rowid]
                            if rowid < len(data)
                            else batches[(rowid - len(data)) // 3][(rowid - len(data)) % 3]
                        )
                        np.testing.assert_array_equal(point, expected)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                raise

        def write():
            try:
                for batch in batches:
                    ids = table.append(batch)
                    committed[0] = int(ids[-1]) + 1
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                raise
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read) for _ in range(6)]
            writer = threading.Thread(target=write)
            for thread in readers + [writer]:
                thread.start()
            writer.join(timeout=30)
            done.set()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and not any(t.is_alive() for t in readers)
        assert not failures, failures
        final = table.range_query(*everything)
        assert sorted(final.rowids.tolist()) == list(range(200 + 360))


class TestAccounting:
    def test_stats_total_sums_shards(self):
        data = make_data()
        table = ShardedTable(data, 4)
        for shard in table:
            shard.table.range_query([0, 0, 0], [1, 1, 1])
        total = table.stats
        assert total.points_read == sum(
            s.table.stats.points_read for s in table
        )
        assert total.points_read == len(data)
        assert total.range_queries == 4
        assert table.n_pages == sum(s.table.n_pages for s in table)

    def test_estimate_count_sums_shards(self):
        data = make_data()
        table = ShardedTable(data, 4)
        assert table.estimate_count(0, 0.2, 0.8) == DiskTable(data).estimate_count(
            0, 0.2, 0.8
        )

    def test_route_matches_partitioning(self):
        data = make_data()
        for mode in ("range", "hash"):
            table = ShardedTable(data, 4, mode=mode)
            for shard in table:
                for row in shard.table.data_view()[:5]:
                    assert table.route(row) == shard.shard_id

    def test_route_rejected_for_explicit(self):
        data = make_data(n=6)
        table = ShardedTable(
            data, 2, mode="explicit", assignments=np.array([0, 1] * 3)
        )
        with pytest.raises(ValueError):
            table.route(data[0])

    def test_bind_obs_reaches_every_shard(self):
        from repro.obs import MetricsRegistry, Observability, Tracer

        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        table = ShardedTable(make_data(), 4)
        assert table.bind_obs(obs) is table and table.obs is obs
        table.range_query([0, 0, 0], [1, 1, 1])
        assert obs.metrics.counter_total("table_range_queries_total") == 4
        table.bind_obs(None)
        assert all(not s.table.obs.enabled for s in table)


class TestHashKey:
    @pytest.mark.parametrize("n_shards", range(2, 9))
    def test_signed_zero_routes_with_zero(self, n_shards):
        """Equal keys, one shard: CRC32 over the raw bytes told them apart."""
        assert hash_key(-0.0, n_shards) == hash_key(0.0, n_shards)
        assert hash_key(np.float64(-0.0), n_shards) == hash_key(0, n_shards)
        data = np.array([[0.0, 1.0], [-0.0, 2.0], [0.5, 3.0]])
        table = ShardedTable(data, n_shards, mode="hash", key_dim=0)
        assert table._shard_of[0] == table._shard_of[1]
        assert table.route([-0.0, 9.0]) == table.route([0.0, 9.0])
