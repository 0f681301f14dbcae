"""Tests for dynamic data support (paper Section 6.2 extension)."""

import numpy as np
import pytest

from repro.core.dynamic import DynamicCBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.ioutil import decode_array
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import assert_same_point_set, constrained_skyline_oracle


def live_data(table):
    return table.data_view()[table._alive]


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
        engine = DynamicCBCS(make_table(data))
        assert engine.delete_points([5, 5]) == 1
        assert engine.table.live_count == 59
        assert engine.delete_points([7, 9, 7]) == 2
        assert engine.table.live_count == 57

    def test_the_wal_record_holds_each_id_once(self, tmp_path):
        data = generate("independent", 60, 2, seed=3)
        engine = DynamicCBCS(DiskTable(data), durability=tmp_path)
        engine.delete_points([7, 5, 7, 5, 9])
        (record,) = engine.durability.wal.records()
        assert record.payload["rowids"] == [7, 5, 9]
        np.testing.assert_array_equal(
            decode_array(record.payload["rows"]), data[[7, 5, 9]]
        )
        engine.close()


class TestCacheMaintenance:
    @pytest.fixture()
    def engine(self):
        data = generate("independent", 800, 2, seed=5)
        return DynamicCBCS(DiskTable(data))

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

    def test_delete_policy_evict(self):
        data = generate("independent", 400, 2, seed=6)
        engine = DynamicCBCS(DiskTable(data), on_delete="evict")
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        first = engine.query(c)
        victim = first.skyline[0]
        rowid = int(
            np.flatnonzero(np.all(engine.table.data_view() == victim, axis=1))[0]
        )
        assert len(engine.cache) == 1
        engine.delete_points([rowid])
        assert len(engine.cache) == 0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            DynamicCBCS(DiskTable(np.zeros((1, 2))), on_delete="ignore")

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
        engine = DynamicCBCS(DiskTable(data))
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

    @pytest.mark.parametrize("policy", ["refresh", "evict"])
    def test_mixed_updates_and_queries(self, policy):
        rng = np.random.default_rng(77)
        data = generate("independent", 1000, 3, seed=7)
        engine = DynamicCBCS(DiskTable(data), on_delete=policy)
        gen = WorkloadGenerator(data, seed=8)
        for step, c in enumerate(gen.exploratory_stream(25)):
            action = rng.random()
            if action < 0.3:
                engine.insert_points(rng.uniform(0, 1, size=(3, 3)))
            elif action < 0.5 and engine.table.live_count > 10:
                alive = np.flatnonzero(engine.table._alive)
                engine.delete_points(rng.choice(alive, size=2, replace=False))
            out = engine.query(c)
            current = live_data(engine.table)
            assert_same_point_set(
                out.skyline,
                constrained_skyline_oracle(current, c),
                context=f"step={step} policy={policy} case={out.case}",
            )
