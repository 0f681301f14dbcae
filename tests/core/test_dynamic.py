"""Tests for dynamic data support (paper Section 6.2 extension)."""

import sys
import threading

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.ioutil import decode_array
from repro.storage.faults import FaultInjector, FaultyDiskTable
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import assert_same_point_set, constrained_skyline_oracle


def live_data(table):
    return table.data_view()[table._alive]


TABLE_KINDS = pytest.mark.parametrize(
    "make_table",
    [DiskTable, lambda data: ShardedTable(data, 4)],
    ids=["plain", "sharded"],
)


class TestTableUpdates:
    def test_append_extends_heap_and_indexes(self):
        data = generate("independent", 500, 2, seed=1)
        table = DiskTable(data)
        new_rows = np.array([[0.01, 0.01], [0.99, 0.99]])
        ids = table.append(new_rows)
        assert list(ids) == [500, 501]
        assert table.n == 502
        c = Constraints([0.0, 0.0], [0.02, 0.02])
        result = table.range_query(c.lo, c.hi)
        assert 500 in result.rowids

    def test_append_shape_validation(self):
        table = DiskTable(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            table.append(np.zeros((1, 2)))

    def test_delete_hides_rows_from_queries(self):
        data = generate("independent", 300, 2, seed=2)
        table = DiskTable(data)
        target = int(np.argmin(data.sum(axis=1)))
        assert table.delete([target]) == 1
        assert table.live_count == 299
        result = table.range_query([0, 0], [1, 1])
        assert target not in result.rowids

    def test_delete_is_idempotent(self):
        table = DiskTable(np.zeros((3, 2)))
        assert table.delete([1]) == 1
        assert table.delete([1]) == 0

    def test_delete_bounds_checked(self):
        table = DiskTable(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            table.delete([99])

    def test_row_accessor(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        table = DiskTable(data)
        np.testing.assert_array_equal(table.row(1), [3.0, 4.0])
        table.delete([1])
        with pytest.raises(KeyError):
            table.row(1)
        # a negative id is out of range, not the last row counted backwards
        for rowid in (-1, 2):
            with pytest.raises(IndexError):
                table.row(rowid)

    def test_full_scan_skips_dead_rows(self):
        data = generate("independent", 100, 2, seed=3)
        table = DiskTable(data)
        table.delete([0, 1, 2])
        result = table.full_scan()
        assert len(result) == 97

    def test_vacuum_cleans_indexes(self):
        data = generate("independent", 300, 2, seed=9)
        table = DiskTable(data)
        table.delete([5, 10, 15])
        assert table.vacuum() == 3
        # indexes no longer hold dead entries
        for dim in range(2):
            assert len(table.index(dim)) == 297
        # repeated vacuum is a no-op
        assert table.vacuum() == 0
        # queries unchanged
        result = table.range_query([0, 0], [1, 1])
        assert len(result) == 297
        assert {5, 10, 15}.isdisjoint(result.rowids)

    def test_vacuum_then_more_updates(self):
        data = generate("independent", 200, 2, seed=10)
        table = DiskTable(data)
        table.delete([0, 1])
        table.vacuum()
        new_ids = table.append(np.array([[0.5, 0.5]]))
        table.delete(new_ids)
        assert table.vacuum() == 1
        assert table.live_count == 198

    @TABLE_KINDS
    def test_append_of_no_rows_changes_and_charges_nothing(self, make_table):
        table = make_table(generate("independent", 50, 2, seed=4))
        before = table.stats
        ids = table.append(np.empty((0, 2)))
        assert ids.dtype == np.int64 and ids.tolist() == []
        assert table.n == 50 and table.write_count == 0
        assert table.stats == before

    @TABLE_KINDS
    def test_a_non_integral_row_id_is_rejected(self, make_table):
        table = make_table(generate("independent", 50, 2, seed=4))
        for rowids in ([1.5], [2.0, 0.25], [np.nan], [True]):
            with pytest.raises(ValueError, match="whole numbers"):
                table.delete(rowids)
        assert table.live_count == 50
        assert table.delete([1.0, np.int32(2)]) == 2

    def test_append_expands_domain(self):
        table = DiskTable(np.array([[0.5, 0.5]]))
        table.append(np.array([[0.1, 0.9]]))
        np.testing.assert_array_equal(table.domain_lo, [0.1, 0.5])
        np.testing.assert_array_equal(table.domain_hi, [0.5, 0.9])


class TestRepeatedDeleteIds:
    @pytest.mark.parametrize(
        "make_table",
        [DiskTable, lambda data: ShardedTable(data, 3)],
        ids=["plain", "sharded"],
    )
    def test_a_repeated_id_is_one_row(self, make_table):
        data = generate("independent", 60, 2, seed=3)
        engine = CBCS(make_table(data))
        assert engine.delete_points([5, 5]) == 1
        assert engine.table.live_count == 59
        assert engine.delete_points([7, 9, 7]) == 2
        assert engine.table.live_count == 57

    def test_the_wal_record_holds_each_id_once(self, tmp_path):
        data = generate("independent", 60, 2, seed=3)
        engine = CBCS(DiskTable(data), durability=tmp_path)
        engine.delete_points([7, 5, 7, 5, 9])
        (record,) = engine.durability.wal.records()
        assert record.payload["rowids"] == [7, 5, 9]
        np.testing.assert_array_equal(
            decode_array(record.payload["rows"]), data[[7, 5, 9]]
        )
        engine.close()


class TestDeleteOfADeadRow:
    """A row id already deleted dies no second time: ``delete_points``
    counts it as 0, as the tables do, and logs and maintains nothing for
    it, so a batch mixing dead and live ids still deletes the live ones."""

    C = Constraints([0.0, 0.0], [0.8, 0.8])

    @staticmethod
    def cache_state(engine):
        return [(item.item_id, item.skyline.tobytes()) for item in engine.cache]

    @staticmethod
    def skyline_row(engine, data, c):
        """The id of a row in the cached answer for ``c``: deleting it
        refreshes that item, so a no-op delete would show in the cache."""
        point = engine.query(c).skyline[0]
        return int(np.flatnonzero((data == point).all(axis=1))[0])

    @TABLE_KINDS
    def test_a_dead_id_counts_zero_and_a_live_one_beside_it_dies(self, make_table):
        data = generate("independent", 200, 2, seed=5)
        engine = CBCS(make_table(data))
        dead = self.skyline_row(engine, data, self.C)
        assert engine.delete_points([dead]) == 1
        live = self.skyline_row(engine, data, self.C)
        before = self.cache_state(engine)
        assert engine.delete_points([dead]) == 0
        assert self.cache_state(engine) == before
        assert engine.delete_points([dead, live]) == 1
        assert engine.table.live_count == 198
        with pytest.raises(KeyError):
            engine.table.row(live)
        remaining = np.delete(data, [dead, live], axis=0)
        assert_same_point_set(
            engine.query(self.C).skyline,
            constrained_skyline_oracle(remaining, self.C),
        )

    def test_a_dead_id_writes_no_wal_record_and_recovery_agrees(self, tmp_path):
        data = generate("independent", 200, 2, seed=5)
        engine = CBCS(DiskTable(data), durability=tmp_path)
        dead = self.skyline_row(engine, data, self.C)
        engine.delete_points([dead])
        live = self.skyline_row(engine, data, self.C)
        lsn, before = engine.durability.wal.last_lsn, self.cache_state(engine)
        assert engine.delete_points([dead]) == 0
        assert engine.durability.wal.last_lsn == lsn
        assert self.cache_state(engine) == before
        assert engine.delete_points([dead, live]) == 1
        (record,) = [
            r for r in engine.durability.wal.records() if r.lsn > lsn
        ]
        assert record.payload["rowids"] == [live]
        with pytest.raises(IndexError):
            engine.delete_points([dead, len(data)])
        assert engine.durability.wal.last_lsn == lsn + 1
        expected = live_data(engine.table)
        engine.close()
        recovered = CBCS.recover(tmp_path)
        np.testing.assert_array_equal(live_data(recovered.table), expected)
        recovered.close()


class TestCacheMaintenance:
    @pytest.fixture()
    def engine(self):
        data = generate("independent", 800, 2, seed=5)
        return CBCS(DiskTable(data))

    def test_insert_dominating_point_updates_cached_item(self, engine):
        c = Constraints([0.2, 0.2], [0.8, 0.8])
        before = engine.query(c)
        # a point at the region's corner, dominating everything inside
        engine.insert_points(np.array([[0.2005, 0.2005]]))
        after = engine.query(c)
        assert after.case == "exact"  # served from the maintained cache
        data = live_data(engine.table)
        assert_same_point_set(after.skyline, constrained_skyline_oracle(data, c))
        assert any(np.allclose(p, [0.2005, 0.2005]) for p in after.skyline)
        assert after.skyline_size <= before.skyline_size + 1

    def test_insert_dominated_point_leaves_item_untouched(self, engine):
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        before = engine.query(c)
        engine.insert_points(np.array([[0.95, 0.95]]))
        after = engine.query(c)
        assert after.case == "exact"
        assert after.skyline_size == before.skyline_size

    def test_delete_skyline_point_refreshes_item(self, engine):
        c = Constraints([0.1, 0.1], [0.9, 0.9])
        first = engine.query(c)
        victim = first.skyline[0]
        data_view = engine.table.data_view()
        rowid = int(np.flatnonzero(np.all(data_view == victim, axis=1))[0])
        engine.delete_points([rowid])
        after = engine.query(c)
        data = live_data(engine.table)
        assert_same_point_set(after.skyline, constrained_skyline_oracle(data, c))
        assert not any(np.allclose(p, victim) for p in after.skyline)

    def test_a_refresh_that_finds_nothing_evicts(self):
        """Deleting the only row of an item's region leaves the refresh
        nothing to cache: the item goes (a later miss, never staleness)."""
        data = generate("independent", 400, 2, seed=6)
        engine = CBCS(DiskTable(data))
        rowid = 17
        point = Constraints(data[rowid], data[rowid])
        assert engine.query(point).skyline.tolist() == [data[rowid].tolist()]
        assert len(engine.cache) == 1
        engine.delete_points([rowid])
        assert len(engine.cache) == 0
        assert engine.query(point).skyline_size == 0

    def test_batch_maintenance_keeps_item_ids_and_row_order(self):
        """Maintenance walks rows x items in a fixed order, so the ids the
        cache hands out, the row order inside each skyline and both I/O
        counts are part of the contract (pinned from the scalar-kernel
        engine); every skyline is also checked against the oracle."""
        data = np.array(
            [[1, 9], [2, 7], [4, 4], [7, 2], [9, 1],
             [5, 5], [6, 6], [3, 8], [8, 3], [5, 9]],
            dtype=float,
        )  # fmt: skip
        engine = CBCS(DiskTable(data))
        engine.query(Constraints([0, 0], [10, 10]))
        engine.query(Constraints([3, 3], [10, 10]))

        def cached():
            for item in engine.cache:
                assert_same_point_set(
                    item.skyline,
                    constrained_skyline_oracle(
                        live_data(engine.table), item.constraints
                    ),
                )
            return [
                (item.item_id, item.constraints.lo[0], item.skyline.tolist())
                for item in engine.cache
            ]

        assert cached() == [
            (1, 0.0, [[1, 9], [2, 7], [4, 4], [7, 2], [9, 1]]),
            (2, 3.0, [[4, 4], [3, 8], [8, 3]]),
        ]
        # enters both skylines (evicting (4, 4)), dominated in both, enters
        # the wide one only, and an exact duplicate of the first row
        new_ids = engine.insert_points(
            np.array([[3.5, 3.5], [6, 6], [0.5, 9.5], [3.5, 3.5]])
        )
        assert list(new_ids) == [10, 11, 12, 13]
        assert cached() == [
            (6, 3.0, [[3, 8], [8, 3], [3.5, 3.5], [3.5, 3.5]]),
            (7, 0.0, [[1, 9], [2, 7], [7, 2], [9, 1],
                      [3.5, 3.5], [0.5, 9.5], [3.5, 3.5]]),
        ]  # fmt: skip
        # both duplicates, a dominated row and a skyline row of the wide item
        assert engine.delete_points([10, 6, 0, 13]) == 4
        assert cached() == [
            (8, 3.0, [[3, 8], [4, 4], [8, 3]]),
            (9, 0.0, [[0.5, 9.5], [2, 7], [4, 4], [7, 2], [9, 1]]),
        ]
        assert engine.table.stats.range_queries == 5
        assert engine.table.stats.points_read == 28


class TestInterleavedEquivalence:
    """The load-bearing property: queries stay exact through churn."""

    @TABLE_KINDS
    def test_mixed_updates_and_queries(self, make_table):
        rng = np.random.default_rng(77)
        data = generate("independent", 1000, 3, seed=7)
        engine = CBCS(make_table(data))
        live = dict(enumerate(data))
        gen = WorkloadGenerator(data, seed=8)
        for step, c in enumerate(gen.exploratory_stream(25)):
            action = rng.random()
            if action < 0.3:
                rows = rng.uniform(0, 1, size=(3, 3))
                live.update(zip(engine.insert_points(rows).tolist(), rows))
            elif action < 0.5 and len(live) > 10:
                victims = rng.choice(sorted(live), size=2, replace=False)
                engine.delete_points(victims)
                for rowid in victims.tolist():
                    del live[rowid]
            out = engine.query(c)
            assert_same_point_set(
                out.skyline,
                constrained_skyline_oracle(np.array(list(live.values())), c),
                context=f"step={step} case={out.case}",
            )


class TestWritesBehindTheEngine:
    """A write made through ``engine.table`` itself moves the table's
    ``write_count``; the next query drops the cache instead of serving an
    answer the write made wrong."""

    C = Constraints([0.1, 0.1, 0.1], [0.9, 0.9, 0.9])

    @TABLE_KINDS
    def test_an_append_through_the_table_is_not_served_from_the_cache(
        self, make_table
    ):
        data = np.random.default_rng(0).random((500, 3))
        engine = CBCS(make_table(data))
        engine.query(self.C)
        engine.table.append([[0.11, 0.11, 0.11]])
        after = engine.query(self.C)
        live = np.vstack([data, [[0.11, 0.11, 0.11]]])
        assert not after.stale and not after.cache_hit
        assert_same_point_set(after.skyline, constrained_skyline_oracle(live, self.C))
        # the engine knows the table again: the repeat is an exact hit
        assert engine.query(self.C).case == "exact"

    @TABLE_KINDS
    def test_a_delete_through_the_table_is_not_served_from_the_cache(
        self, make_table
    ):
        data = np.random.default_rng(1).random((500, 3))
        engine = CBCS(make_table(data))
        victim = engine.query(self.C).skyline[0]
        rowid = int(np.flatnonzero((data == victim).all(axis=1))[0])
        assert engine.table.delete([rowid]) == 1
        after = engine.query(self.C)
        live = np.delete(data, rowid, axis=0)
        assert not after.stale and not after.cache_hit
        assert_same_point_set(after.skyline, constrained_skyline_oracle(live, self.C))

    def test_explain_plans_a_miss_after_a_write_through_the_table(self):
        engine = CBCS(DiskTable(np.random.default_rng(2).random((300, 3))))
        engine.query(self.C)
        assert engine.explain(self.C).case == "exact"
        engine.table.append([[0.5, 0.5, 0.5]])
        assert engine.explain(self.C).case == "miss"
        assert len(engine.cache) == 0

    @TABLE_KINDS
    def test_what_changes_no_live_row_keeps_the_cache(self, make_table):
        """Vacuum, an empty append and a delete of a dead row leave the
        counter where it was; the engine's own writes record it."""
        engine = CBCS(make_table(np.random.default_rng(3).random((300, 3))))
        engine.delete_points([0])
        engine.insert_points([[0.5, 0.5, 0.5]])
        engine.query(self.C)
        before = engine.table.write_count
        engine.table.vacuum()
        engine.table.append(np.empty((0, 3)))
        assert engine.table.delete([0]) == 0
        assert engine.table.write_count == before
        assert engine.query(self.C).case == "exact"

    def test_a_delete_straight_to_one_shard_is_not_served_from_the_cache(self):
        data = np.random.default_rng(5).random((400, 3))
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        engine = CBCS(table)
        victim = engine.query(self.C).skyline[0]
        # the victim's shard, written behind both the engine and the fleet
        shard = table[table.route(victim)].table
        local = int(np.flatnonzero((shard.data_view() == victim).all(axis=1))[0])
        assert shard.delete([local]) == 1
        after = engine.query(self.C)
        assert not after.cache_hit
        live = data[~(data == victim).all(axis=1)]
        assert_same_point_set(after.skyline, constrained_skyline_oracle(live, self.C))

    def test_an_append_straight_to_one_shard_drops_the_cache(self):
        table = ShardedTable(np.random.default_rng(8).random((400, 3)), 4)
        engine = CBCS(table)
        engine.query(self.C)
        table[0].table.append([[0.11, 0.11, 0.11]])
        assert engine.explain(self.C).case == "miss"
        assert len(engine.cache) == 0

    def test_concurrent_deletes_on_every_shard_leave_no_stale_answer(self):
        """Four threads delete rows straight from their own shard's table
        while a fifth queries through the engine; once they are done, the
        engine must answer from the live rows.  A counter two shards could
        both move to the same value would let the engine keep a cache built
        before one of the deletes."""
        data = np.random.default_rng(9).random((800, 3))
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        engine = CBCS(table)
        failures, done = [], threading.Event()

        def delete_all(shard):
            try:
                for local in range(0, shard.table.n, 2):
                    shard.table.delete([local])
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                raise

        def query():
            try:
                while not done.is_set():
                    engine.query(self.C)
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=delete_all, args=(s,)) for s in table]
            reader = threading.Thread(target=query)
            for thread in writers + [reader]:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(t.is_alive() for t in writers)
        assert not failures, failures
        # no shard's count lost to another's concurrent update
        assert table.counts.tolist() == [shard.table.live_count for shard in table]
        live = np.vstack([live_data(shard.table) for shard in table])
        assert_same_point_set(
            engine.query(self.C).skyline, constrained_skyline_oracle(live, self.C)
        )

    def test_a_shard_takes_only_its_table_or_a_wrapper(self):
        table = ShardedTable(np.random.default_rng(6).random((200, 3)), 2)
        before = table.write_count
        inner = table[0].table
        table[0].table = FaultyDiskTable(inner, FaultInjector(profile="none", seed=0))
        assert table.write_count == before
        table[0].table.append([[0.5, 0.5, 0.5]])  # through the wrapper
        moved = table.write_count
        assert moved != before
        with pytest.raises(ValueError):
            table[1].table = DiskTable(np.random.default_rng(7).random((50, 3)))
        assert table.write_count == moved

    def test_the_counter_reaches_through_a_fault_wrapper(self):
        table = DiskTable(np.random.default_rng(4).random((200, 3)))
        engine = CBCS(FaultyDiskTable(table, FaultInjector(profile="none", seed=0)))
        engine.query(self.C)
        table.append([[0.11, 0.11, 0.11]])
        after = engine.query(self.C)
        assert not after.cache_hit
        assert_same_point_set(
            after.skyline, constrained_skyline_oracle(live_data(table), self.C)
        )
