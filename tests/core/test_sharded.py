"""The fleet is the ordinary engine over a :class:`ShardedTable`.

Nothing here is a second engine: ``CBCS(ShardedTable(...))`` must answer
like ``CBCS(DiskTable(...))`` (byte for byte at one shard), and
``CBCS(ShardedTable(...))`` must keep doing so under writes.
"""

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.core.sharded import ShardedCBCS
from repro.core.strategies import MaxOverlapSP
from repro.geometry.constraints import Constraints
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import assert_same_point_set, constrained_skyline_oracle


def make_data(n=800, ndim=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, ndim))


def stream(data, n=25, seed=7):
    return list(
        WorkloadGenerator(data, seed=seed).partition_stream(
            n, tenants=4, key_dim=0
        )
    )


EVERYTHING = Constraints([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def fleet_state(table):
    """What a rejected write must leave untouched, per shard."""
    return (
        [s.table.n for s in table],
        [s.table.stats.snapshot() for s in table],
        table.mbr_lo.copy(),
        table.mbr_hi.copy(),
        table.counts.copy(),
    )


def assert_untouched(table, state):
    sizes, stats, lo, hi, counts = state
    assert [s.table.n for s in table] == sizes
    assert [s.table.stats for s in table] == stats
    np.testing.assert_array_equal(table.mbr_lo, lo)
    np.testing.assert_array_equal(table.mbr_hi, hi)
    np.testing.assert_array_equal(table.counts, counts)


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", ["range", "hash"])
    def test_matches_unsharded_engine(self, n_shards, mode):
        data = make_data()
        reference = CBCS(DiskTable(data), strategy=MaxOverlapSP())
        engine = CBCS(
            ShardedTable(data, n_shards, mode=mode), strategy=MaxOverlapSP()
        )
        for constraints in stream(data):
            expected = reference.query(constraints)
            outcome = engine.query(constraints)
            assert_same_point_set(
                outcome.skyline, expected.skyline,
                context=f"shards={n_shards} mode={mode}",
            )
            # The plan is priced by the layout, so only one shard reads
            # exactly what the plain table does
            # (``test_one_shard_is_the_plain_table``): how far the boxes
            # are coalesced differs with the shard count.  They stay
            # disjoint and inside the region, and the bitmap plan reads the
            # matching rows, wherever they live -- never more than not
            # caching would.
            in_region = int(constraints.satisfied_mask(data).sum())
            assert outcome.points_read <= in_region
            assert expected.points_read <= in_region
            assert outcome.case == expected.case

    def test_one_shard_is_the_plain_table(self):
        """Skyline bytes, row order, planned boxes and every I/O counter."""
        data = make_data()
        plain = CBCS(DiskTable(data), strategy=MaxOverlapSP())
        fleet = CBCS(ShardedTable(data, 1), strategy=MaxOverlapSP())
        fetched = 0
        for constraints in stream(data, n=40):
            assert (
                fleet.explain(constraints).to_dict()
                == plain.explain(constraints).to_dict()
            )
            expected = plain.query(constraints)
            outcome = fleet.query(constraints)
            assert outcome.skyline.tobytes() == expected.skyline.tobytes()
            assert outcome.io == expected.io
            fetched += expected.points_read
        assert fetched > 0
        assert fleet.table.stats == plain.table.stats

    def test_thin_constructor_builds_a_plain_engine(self):
        data = make_data()
        engine = ShardedCBCS(
            ShardedTable(data, 2), strategy_factory=MaxOverlapSP
        )
        assert type(engine) is CBCS
        assert isinstance(engine.strategy, MaxOverlapSP)
        engine.close()

    def test_matches_oracle(self):
        data = make_data(seed=3)
        engine = CBCS(ShardedTable(data, 4))
        for constraints in stream(data, seed=11):
            outcome = engine.query(constraints)
            assert_same_point_set(
                outcome.skyline, constrained_skyline_oracle(data, constraints)
            )


class TestMergeEdgeCases:
    def test_all_shards_pruned_yields_empty_skyline_zero_io(self):
        # Data lives in [0, 1]^3; the constraint region sits entirely above
        # it on dim 0, so no shard's MBR meets it and no disk is asked.
        data = make_data()
        engine = CBCS(ShardedTable(data, 4))
        outcome = engine.query(Constraints([2.0, 0.0, 0.0], [3.0, 1.0, 1.0]))
        assert outcome.skyline.shape == (0, 3)
        assert outcome.points_read == 0
        assert outcome.io.range_queries == 0
        assert engine.table.stats.range_queries == 0

    def test_duplicate_point_across_shard_boundary_survives_twice(self):
        # The same coordinate vector placed in two different shards: both
        # copies are mutually non-dominating, so the skyline must keep
        # both -- exactly like the unsharded engine does.
        dup = [0.05, 0.05, 0.05]
        filler = make_data(n=100, seed=5) * 0.5 + 0.4
        data = np.vstack([dup, dup, filler])
        assignments = np.array([0, 1] + [i % 2 for i in range(len(filler))])
        engine = CBCS(
            ShardedTable(data, 2, mode="explicit", assignments=assignments)
        )
        reference = CBCS(DiskTable(data))
        outcome = engine.query(EVERYTHING)
        expected = reference.query(EVERYTHING)
        dup_copies = int(
            np.sum(np.all(np.isclose(outcome.skyline, dup), axis=1))
        )
        assert dup_copies == 2
        assert_same_point_set(outcome.skyline, expected.skyline)

    def test_faulted_shard_fails_only_the_boxes_that_touch_it(self):
        """One breaker for the fleet, but a dead shard 3 costs nothing to a
        query whose boxes all stay inside shard 0."""
        from repro.storage.faults import FaultInjector, FaultyDiskTable

        data = make_data()
        table = ShardedTable(data, 4, mode="range", key_dim=0)
        injector = FaultInjector("none", seed=0)
        table[3].table = FaultyDiskTable(table[3].table, injector)
        injector.force_outage(10_000)
        engine = CBCS(table, resilience=True)
        low = Constraints([0.0, 0.0, 0.0], [float(table.mbr_hi[0, 0]), 1.0, 1.0])
        outcome = engine.query(low)
        assert outcome.degraded is None and outcome.retries == 0
        assert_same_point_set(
            outcome.skyline, constrained_skyline_oracle(data, low)
        )
        whole = engine.query(EVERYTHING)  # every box here reaches shard 3
        assert whole.stale and whole.degraded == "stale"


class TestAccountingAndOutcome:
    def test_per_query_io_adds_up_to_the_shard_counters(self):
        """``stats`` is the shard sum, so what the queries were charged is
        what the disks served -- and ``range_queries`` counts shard reads."""
        data = make_data()
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        outcomes = [engine.query(c) for c in stream(data)]
        for counter in ("points_read", "range_queries", "pages_read", "seeks"):
            assert sum(getattr(o.io, counter) for o in outcomes) == sum(
                getattr(s.table.stats, counter) for s in table
            )
        assert sum(o.range_queries for o in outcomes) > 0

    def test_ndim_mismatch_rejected(self):
        engine = CBCS(ShardedTable(make_data(), 2))
        with pytest.raises(ValueError):
            engine.query(Constraints([0.0], [1.0]))


class TestDynamicSharded:
    def test_insert_routes_and_answers_stay_correct(self):
        data = make_data(n=300)
        engine = CBCS(ShardedTable(data, 4))
        new_rows = np.array([[0.01, 0.02, 0.03], [0.9, 0.91, 0.92]])
        assert len(engine.insert_points(new_rows)) == 2
        full = np.vstack([data, new_rows])
        assert_same_point_set(
            engine.query(EVERYTHING).skyline,
            constrained_skyline_oracle(full, EVERYTHING),
        )

    def test_write_ids_round_trip_in_input_order(self):
        """``insert_points`` names each input row by a global ``int64`` id,
        in input order, and ``delete_points`` takes those same ids back."""
        data = make_data(n=400)
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        for rowid in (0, 57, 399):  # initial rows keep their input position
            np.testing.assert_array_equal(table.row(rowid), data[rowid])
        # Near the origin: all three enter the unconstrained skyline.
        new_rows = np.array(
            [[0.99, 0.001, 0.001], [0.001, 0.002, 0.002], [0.98, 0.002, 0.0005]]
        )
        assert [table.route(row) for row in new_rows] == [3, 0, 3]
        ids = engine.insert_points(new_rows)
        assert ids.dtype == np.int64
        assert ids.tolist() == [400, 401, 402]
        for rowid, row in zip(ids, new_rows):
            np.testing.assert_array_equal(table.row(rowid), row)
        assert [s.table.n for s in table] == [101, 100, 100, 102]

        full = np.vstack([data, new_rows])
        assert_same_point_set(
            engine.query(EVERYTHING).skyline,
            constrained_skyline_oracle(full, EVERYTHING),
        )
        assert engine.delete_points(ids[1:2]) == 1
        remaining = np.vstack([data, new_rows[[0, 2]]])
        assert_same_point_set(
            engine.query(EVERYTHING).skyline,
            constrained_skyline_oracle(remaining, EVERYTHING),
        )
        with pytest.raises(KeyError, match="401"):  # it, and only it, is gone
            table.row(ids[1])
        assert engine.delete_points(ids[[0, 2]]) == 2
        assert_same_point_set(
            engine.query(EVERYTHING).skyline,
            constrained_skyline_oracle(data, EVERYTHING),
        )

    def test_rejected_insert_batch_touches_no_shard(self):
        """A non-finite row bound for shard 3 must fail the batch before
        shard 0 takes its row with no id returned for it."""
        table = ShardedTable(make_data(n=200), 4, mode="range", key_dim=0)
        engine = CBCS(table)
        engine.query(EVERYTHING)
        before = fleet_state(table)
        batch = np.array([[0.01, 0.1, 0.5], [0.99, np.nan, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            engine.insert_points(batch)
        with pytest.raises(ValueError, match="finite"):
            table.append(batch)
        assert_untouched(table, before)
        assert table.n == 200

    def test_wrong_dimensionality_insert_touches_no_shard(self):
        """Checked before routing reads the key column (which a short row
        does not even have)."""
        table = ShardedTable(make_data(n=200), 4, mode="range", key_dim=2)
        before = fleet_state(table)
        for batch in ([[0.01, 0.1], [0.99, 0.1]], [[0.01, 0.1, 0.5, 0.5]]):
            with pytest.raises(ValueError, match="dimensionality"):
                table.append(np.array(batch))
        assert_untouched(table, before)

    def test_out_of_range_delete_touches_no_shard(self):
        table = ShardedTable(make_data(n=200), 4)
        engine = CBCS(table)
        before = fleet_state(table)
        for bad in ([0, 200], [-1, 5]):
            with pytest.raises(IndexError):
                engine.delete_points(bad)
            with pytest.raises(IndexError):
                table.delete(bad)
        assert_untouched(table, before)
        assert engine.delete_points([0]) == 1  # still there: nothing applied

    def test_mbr_growth_changes_pruning_decision(self):
        # A query whose region misses every shard costs no read; after a
        # row lands there the same query must reach the shard that took it.
        data = make_data(n=400)
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        lo = float(table.mbr_hi[3, 0]) + 0.1
        constraints = Constraints([lo, 0.0, 0.0], [2.0, 1.0, 1.0])
        before = engine.query(constraints)
        assert before.skyline_size == 0 and before.range_queries == 0
        new_point = np.array([[lo + 0.05, 0.5, 0.5]])
        engine.insert_points(new_point)
        assert table.mbr_hi[3, 0] == new_point[0, 0]
        after = engine.query(constraints)
        assert after.range_queries == 1
        assert_same_point_set(after.skyline, new_point)

    def test_cache_is_maintained_not_dropped(self):
        """An insert outside every cached region leaves the items alone; one
        inside updates the item in place -- no drop-everything on growth."""
        data = make_data(n=400)
        engine = CBCS(ShardedTable(data, 4))
        constraints = Constraints([0.2, 0.2, 0.2], [0.8, 0.8, 0.8])
        engine.query(constraints)
        engine.insert_points(np.array([[1.5, 1.5, 1.5]]))  # grows shard 3
        assert len(engine.cache) == 1
        winner = np.array([[0.2, 0.2, 0.2]])
        engine.insert_points(winner)
        outcome = engine.query(constraints)
        assert outcome.case == "exact"
        assert_same_point_set(outcome.skyline, winner)

    def test_shard_emptied_by_deletes_is_not_read(self):
        data = make_data(n=40)
        table = ShardedTable(data, 4)
        engine = CBCS(table)
        victims = np.flatnonzero(table._shard_of == 2)
        assert engine.delete_points(victims) == 10
        assert table.counts.tolist() == [10, 10, 0, 10]
        outcome = engine.query(EVERYTHING)
        assert table[2].table.stats.range_queries == 0
        survivors = np.delete(data, victims, axis=0)
        assert_same_point_set(
            outcome.skyline, constrained_skyline_oracle(survivors, EVERYTHING)
        )
