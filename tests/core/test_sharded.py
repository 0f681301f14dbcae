"""Tests for :mod:`repro.core.sharded` (fan-out/merge over shards)."""

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.core.sharded import ShardedCBCS, ShardedOutcome
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


class TestBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode", ["range", "hash"])
    def test_matches_unsharded_engine(self, n_shards, mode):
        data = make_data()
        reference = CBCS(DiskTable(data), strategy=MaxOverlapSP())
        engine = ShardedCBCS(
            ShardedTable(data, n_shards, mode=mode),
            strategy_factory=MaxOverlapSP,
        )
        for constraints in stream(data):
            expected = reference.query(constraints)
            outcome = engine.query(constraints)
            assert_same_point_set(
                outcome.skyline, expected.skyline,
                context=f"shards={n_shards} mode={mode}",
            )
        reference.close()
        engine.close()

    def test_matches_oracle(self):
        data = make_data(seed=3)
        engine = ShardedCBCS(ShardedTable(data, 4))
        for constraints in stream(data, seed=11):
            outcome = engine.query(constraints)
            assert_same_point_set(
                outcome.skyline, constrained_skyline_oracle(data, constraints)
            )
        engine.close()

    def test_workers_do_not_change_the_answer(self):
        data = make_data()
        serial = ShardedCBCS(ShardedTable(data, 4), cache_results=False)
        threaded = ShardedCBCS(
            ShardedTable(data, 4), cache_results=False, workers=4
        )
        for constraints in stream(data):
            a = serial.query(constraints)
            b = threaded.query(constraints)
            assert_same_point_set(a.skyline, b.skyline)
            assert a.points_read == b.points_read
        serial.close()
        threaded.close()


class TestMergeEdgeCases:
    def test_all_shards_pruned_yields_empty_skyline_zero_io(self):
        # Data lives in [0, 1]^3; the constraint region sits entirely above
        # it on dim 0, so every shard MBR is disjoint.
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 4))
        outcome = engine.query(Constraints([2.0, 0.0, 0.0], [3.0, 1.0, 1.0]))
        assert outcome.skyline.shape == (0, 3)
        assert outcome.skyline_size == 0
        assert outcome.points_read == 0
        assert outcome.io.range_queries == 0
        assert outcome.shards_pruned == 4
        assert outcome.shards_scanned == 0
        assert outcome.merge_candidates == 0
        assert outcome.per_shard == []
        engine.close()

    def test_duplicate_point_across_shard_boundary_survives_twice(self):
        # The same coordinate vector placed in two different shards: both
        # copies are mutually non-dominating, so the merged skyline must
        # keep both -- exactly like the unsharded engine does.
        dup = [0.05, 0.05, 0.05]
        filler = make_data(n=100, seed=5) * 0.5 + 0.4
        data = np.vstack([dup, dup, filler])
        assignments = np.array([0, 1] + [i % 2 for i in range(len(filler))])
        engine = ShardedCBCS(
            ShardedTable(data, 2, mode="explicit", assignments=assignments)
        )
        reference = CBCS(DiskTable(data))
        constraints = Constraints([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        outcome = engine.query(constraints)
        expected = reference.query(constraints)
        dup_copies = int(
            np.sum(np.all(np.isclose(outcome.skyline, dup), axis=1))
        )
        assert dup_copies == 2
        assert_same_point_set(outcome.skyline, expected.skyline)
        engine.close()
        reference.close()

    def test_merge_candidates_reconcile_with_per_shard_skylines(self):
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 4))
        for constraints in stream(data):
            outcome = engine.query(constraints)
            assert outcome.merge_candidates == sum(
                p["skyline_size"] for p in outcome.per_shard
            )
            assert outcome.skyline_size <= outcome.merge_candidates
            assert outcome.points_read == sum(
                p["points_read"] for p in outcome.per_shard
            )
        engine.close()


class TestAccountingAndOutcome:
    def test_shard_counts_always_reconcile(self):
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 8))
        for constraints in stream(data):
            outcome = engine.query(constraints)
            assert (
                outcome.shards_pruned + outcome.shards_scanned
                == outcome.shards_total
                == 8
            )
            assert len(outcome.shard_decisions) == 8
        engine.close()

    def test_outcome_record_carries_sharding_section(self):
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 2))
        outcome = engine.query(stream(data)[0])
        assert isinstance(outcome, ShardedOutcome)
        record = outcome.as_record()
        assert record["sharding"]["shards_total"] == 2
        assert "per_shard" in record["sharding"]
        engine.close()

    def test_pruning_cache_hit_on_repeat_query(self):
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 4))
        constraints = stream(data)[0]
        first = engine.query(constraints)
        second = engine.query(constraints)
        assert not first.pruning_cached
        assert second.pruning_cached
        assert engine.pruning_cache.hits >= 1
        engine.close()

    def test_per_shard_caches_hit_on_repeat_query(self):
        data = make_data()
        engine = ShardedCBCS(ShardedTable(data, 4))
        constraints = stream(data)[0]
        engine.query(constraints)
        second = engine.query(constraints)
        assert second.cache_hit
        assert sum(c.hits for c in engine.shard_caches()) >= 1
        engine.close()

    def test_ndim_mismatch_rejected(self):
        engine = ShardedCBCS(ShardedTable(make_data(), 2))
        with pytest.raises(ValueError):
            engine.query(Constraints([0.0], [1.0]))
        engine.close()


class TestDynamicSharded:
    def test_insert_routes_and_answers_stay_correct(self):
        data = make_data(n=300)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        new_rows = np.array([[0.01, 0.02, 0.03], [0.9, 0.91, 0.92]])
        rowids = engine.insert_points(new_rows)
        assert len(rowids) == 2
        full = np.vstack([data, new_rows])
        constraints = Constraints([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        outcome = engine.query(constraints)
        assert_same_point_set(
            outcome.skyline, constrained_skyline_oracle(full, constraints)
        )
        engine.close()

    def test_insert_outside_mbr_invalidates_pruning_sets(self):
        data = make_data(n=300)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        constraints = stream(data)[0]
        engine.query(constraints)
        assert len(engine.pruning_cache) == 1
        # A point beyond every shard's current extent must grow some MBR.
        engine.insert_points(np.array([[1.5, 1.5, 1.5]]))
        assert len(engine.pruning_cache) == 0
        assert engine.pruning_cache.invalidations == 1
        engine.close()

    def test_insert_inside_mbr_keeps_pruning_sets(self):
        data = make_data(n=300)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        constraints = stream(data)[0]
        engine.query(constraints)
        assert len(engine.pruning_cache) == 1
        # Dead centre of shard 0's MBR: no summary changes, cache survives.
        summary = engine.table.summaries[0]
        inside = (summary.mbr_lo + summary.mbr_hi) / 2
        assert engine.table.route(inside) == 0
        engine.insert_points(inside.reshape(1, -1))
        assert len(engine.pruning_cache) == 1
        assert engine.pruning_cache.invalidations == 0
        engine.close()

    def test_mbr_growth_changes_pruning_decision(self):
        # Regression for the invalidation rule: a query whose region missed
        # shard 3 entirely must rescan it after an insert lands there.
        data = make_data(n=400)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        lo = float(engine.table.summaries[3].mbr_hi[0]) + 0.1
        constraints = Constraints([lo, 0.0, 0.0], [2.0, 1.0, 1.0])
        before = engine.query(constraints)
        assert before.shards_scanned == 0
        new_point = np.array([[lo + 0.05, 0.5, 0.5]])
        engine.insert_points(new_point)
        after = engine.query(constraints)
        assert after.shards_scanned == 1
        assert_same_point_set(after.skyline, new_point)
        engine.close()

    def test_delete_invalidates_conservatively(self):
        data = make_data(n=300)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        ids = engine.insert_points(np.array([[0.5, 0.5, 0.5]]))
        engine.query(stream(data)[0])
        assert len(engine.pruning_cache) == 1
        deleted = engine.delete_points(ids)
        assert deleted == 1
        assert len(engine.pruning_cache) == 0
        engine.close()

    def test_write_ids_round_trip_in_input_order(self):
        """``insert_points`` names each input row by ``(shard, rowid)``, in
        input order, and ``delete_points`` takes those same ids back."""
        data = make_data(n=400)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        # Near the origin: all three enter the unconstrained skyline.
        new_rows = np.array(
            [[0.99, 0.001, 0.001], [0.001, 0.002, 0.002], [0.98, 0.002, 0.0005]]
        )
        assert [engine.table.route(row) for row in new_rows] == [3, 0, 3]
        ids = engine.insert_points(new_rows)
        assert [sid for sid, _ in ids] == [3, 0, 3]
        assert len(set(ids)) == 3
        for (sid, rowid), row in zip(ids, new_rows):
            np.testing.assert_array_equal(engine.engines[sid].table.row(rowid), row)

        everything = Constraints([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        full = np.vstack([data, new_rows])
        assert_same_point_set(
            engine.query(everything).skyline,
            constrained_skyline_oracle(full, everything),
        )
        assert engine.delete_points(ids[1:2]) == 1
        remaining = np.vstack([data, new_rows[[0, 2]]])
        assert_same_point_set(
            engine.query(everything).skyline,
            constrained_skyline_oracle(remaining, everything),
        )
        with pytest.raises(KeyError):  # the second row, and only it, is gone
            engine.engines[0].table.row(ids[1][1])
        assert engine.delete_points([ids[0], ids[2]]) == 2
        assert_same_point_set(
            engine.query(everything).skyline,
            constrained_skyline_oracle(data, everything),
        )
        engine.close()

    def test_delete_rejects_unknown_shard_before_touching_any(self):
        data = make_data(n=300)
        engine = ShardedCBCS(ShardedTable(data, 4), dynamic=True)
        ids = engine.insert_points(np.array([[0.5, 0.5, 0.5]]))
        with pytest.raises(IndexError):
            engine.delete_points(ids + [(4, 0)])
        assert engine.delete_points(ids) == 1  # still there: nothing applied
        engine.close()

    @staticmethod
    def _half_empty_fleet():
        """Four range shards on dim 0 whose rows all have dim 1 >= 0.5, and
        a query below that -- every shard ``mbr-disjoint``, verdict cached."""
        data = make_data(n=400)
        data[:, 1] = 0.5 + data[:, 1] / 2
        engine = ShardedCBCS(
            ShardedTable(data, 4, mode="range", key_dim=0), dynamic=True
        )
        constraints = Constraints([0.0, 0.0, 0.0], [1.0, 0.4, 1.0])
        assert engine.query(constraints).skyline_size == 0
        assert len(engine.pruning_cache) == 1
        return engine, constraints

    @staticmethod
    def _reference(engine, constraints):
        live = [
            e.table.data_view()[e.table._alive] for e in engine.engines
        ]
        return constrained_skyline_oracle(np.vstack(live), constraints)

    def test_rejected_insert_batch_touches_no_shard(self):
        """A non-finite row bound for shard 3 must fail the batch before
        shard 0 takes its row: otherwise shard 0 grows, the caller gets no
        id for the row, and the cached pruning set outlives the MBR."""
        engine, constraints = self._half_empty_fleet()
        sizes = [e.table.n for e in engine.engines]
        batch = np.array([[0.01, 0.1, 0.5], [0.99, np.nan, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            engine.insert_points(batch)
        assert [e.table.n for e in engine.engines] == sizes
        outcome = engine.query(constraints)
        assert not outcome.stale
        assert_same_point_set(
            outcome.skyline, self._reference(engine, constraints)
        )
        engine.close()

    def test_wrong_dimensionality_insert_touches_no_shard(self):
        """Checked by the fleet itself, before routing reads the key column
        (which a short row does not even have)."""
        engine = ShardedCBCS(
            ShardedTable(make_data(n=200), 4, mode="range", key_dim=2),
            dynamic=True,
        )
        for batch in ([[0.01, 0.1], [0.99, 0.1]], [[0.01, 0.1, 0.5, 0.5]]):
            with pytest.raises(ValueError, match="dimensionality"):
                engine.insert_points(np.array(batch))
        assert [e.table.n for e in engine.engines] == [50] * 4
        engine.close()

    def test_failure_on_a_later_shard_still_drops_pruning_sets(self):
        """Shard 0 grows below the cached query, then shard 3's write fails:
        the pruning set cached before the growth must not survive."""
        engine, constraints = self._half_empty_fleet()

        def broken_write(rows):
            raise OSError("wal: no space left on device")

        engine.engines[3].insert_points = broken_write
        batch = np.array([[0.01, 0.1, 0.5], [0.99, 0.1, 0.5]])
        with pytest.raises(OSError):
            engine.insert_points(batch)
        assert engine.engines[0].table.n == 101
        outcome = engine.query(constraints)
        assert_same_point_set(outcome.skyline, batch[:1])
        assert_same_point_set(
            outcome.skyline, self._reference(engine, constraints)
        )
        engine.close()

    def test_dynamic_required_for_mutations(self):
        engine = ShardedCBCS(ShardedTable(make_data(), 2))
        with pytest.raises(TypeError):
            engine.insert_points(np.array([[0.5, 0.5, 0.5]]))
        with pytest.raises(TypeError):
            engine.delete_points([(0, 0)])
        engine.close()
