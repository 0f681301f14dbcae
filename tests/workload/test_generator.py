"""Tests for the query workload generator (paper Section 7.1)."""

import numpy as np
import pytest

from repro.core.cases import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    classify_change,
)
from repro.data.generator import generate
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def data():
    return generate("independent", 3000, 3, seed=99)


@pytest.fixture()
def gen(data):
    return WorkloadGenerator(data, seed=7)


class TestConstruction:
    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(np.empty((0, 2)))

    def test_rejects_1d_data(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(np.zeros(5))

    def test_constant_column_does_not_hang(self):
        """A zero-variance dimension must yield whole-domain constraints
        instead of looping forever looking for a wide-enough interval."""
        rng = np.random.default_rng(0)
        data = np.column_stack([rng.uniform(0, 1, 100), np.full(100, 3.5)])
        gen = WorkloadGenerator(data, seed=1)
        q = gen.initial_query()
        assert q.lo[1] == q.hi[1] == 3.5
        refined = gen.refine(q)
        assert refined.lo[1] <= refined.hi[1]

    def test_seed_reproducibility(self, data):
        a = WorkloadGenerator(data, seed=3)
        b = WorkloadGenerator(data, seed=3)
        qa = a.exploratory_stream(20)
        qb = b.exploratory_stream(20)
        assert all(x == y for x, y in zip(qa, qb))


class TestInitialQueries:
    def test_valid_bounds(self, gen, data):
        for _ in range(50):
            q = gen.initial_query()
            assert np.all(q.lo <= q.hi)
            assert np.all(q.lo >= data.min(axis=0))
            assert np.all(q.hi <= data.max(axis=0))

    def test_bounds_within_three_sigma(self, gen, data):
        """Bounds lie within 3 standard deviations of each dimension mean
        (after clipping to the domain)."""
        mean, std = data.mean(axis=0), data.std(axis=0)
        for _ in range(50):
            q = gen.initial_query()
            for i in range(3):
                lo_ok = (
                    abs(q.lo[i] - mean[i]) <= 3 * std[i] + 1e-9
                    or q.lo[i] == data.min(axis=0)[i]
                )
                hi_ok = (
                    abs(q.hi[i] - mean[i]) <= 3 * std[i] + 1e-9
                    or q.hi[i] == data.max(axis=0)[i]
                )
                assert lo_ok and hi_ok

    def test_queries_vary(self, gen):
        queries = {q.key() for q in gen.independent_queries(30)}
        assert len(queries) > 25


class TestRefinement:
    def test_refinement_changes_exactly_one_bound(self, gen):
        for _ in range(100):
            q = gen.initial_query()
            r = gen.refine(q)
            lo_diff = int(np.sum(q.lo != r.lo))
            hi_diff = int(np.sum(q.hi != r.hi))
            assert lo_diff + hi_diff <= 1  # may be 0 when clipped at domain

    def test_refinements_classified_as_incremental_cases(self, gen):
        seen = set()
        for _ in range(300):
            q = gen.initial_query()
            r = gen.refine(q)
            case = classify_change(q, r)
            seen.add(case)
        # all four cases should occur in a large sample
        assert {CASE_A, CASE_B, CASE_C, CASE_D} <= seen

    def test_change_magnitude_is_5_to_10_percent(self, data):
        gen = WorkloadGenerator(data, seed=11)
        for _ in range(100):
            q = gen.initial_query()
            r = gen.refine(q)
            moved_lo = np.flatnonzero(q.lo != r.lo)
            moved_hi = np.flatnonzero(q.hi != r.hi)
            if len(moved_lo):
                dim = moved_lo[0]
                delta = abs(r.lo[dim] - q.lo[dim])
            elif len(moved_hi):
                dim = moved_hi[0]
                delta = abs(r.hi[dim] - q.hi[dim])
            else:
                continue
            width = q.hi[dim] - q.lo[dim]
            # movement capped by domain clipping, so only the upper bound
            # of the 5-10% window can be asserted tightly
            assert delta <= 0.10 * max(width, gen.min_width[dim]) + 1e-9

    def test_refined_bounds_stay_in_domain(self, gen, data):
        q = gen.initial_query()
        for _ in range(200):
            q = gen.refine(q)
            assert np.all(q.lo >= data.min(axis=0) - 1e-12)
            assert np.all(q.hi <= data.max(axis=0) + 1e-12)
            assert np.all(q.lo <= q.hi)


class TestWorkloads:
    def test_session_length(self, gen):
        for _ in range(20):
            s = gen.session()
            assert 2 <= len(s) <= 11  # initial + 1..10 refinements

    def test_exploratory_stream_exact_length(self, gen):
        assert len(gen.exploratory_stream(57)) == 57

    def test_exploratory_sessions_shape(self, gen):
        sessions = gen.exploratory_sessions(5, 100)
        assert len(sessions) == 5
        assert all(len(s) == 100 for s in sessions)

    def test_consecutive_exploratory_queries_are_similar(self, gen):
        """Within a session, consecutive queries overlap heavily."""
        queries = gen.session()
        for a, b in zip(queries, queries[1:]):
            vol = a.overlap_volume(b)
            assert vol > 0.5 * min(a.volume(), b.volume())

    def test_independent_queries_count(self, gen):
        assert len(gen.independent_queries(12)) == 12


class TestZipfStream:
    """The serving-bench traffic model: zipf-skewed repeats (dedup bait)
    and upper-bound-only shrinks (subsumption bait)."""

    def test_exact_length_and_determinism(self, data):
        a = WorkloadGenerator(data, seed=13).zipf_stream(60, universe=10)
        b = WorkloadGenerator(data, seed=13).zipf_stream(60, universe=10)
        assert len(a) == 60
        assert all(x == y for x, y in zip(a, b))

    def test_head_queries_repeat(self, data):
        """Zipf skew means the stream is dominated by a few head regions --
        the whole point: repeats are in-flight dedup opportunities."""
        stream = WorkloadGenerator(data, seed=5).zipf_stream(
            100, universe=20, shrink_fraction=0.0
        )
        counts = {}
        for q in stream:
            counts[q.key()] = counts.get(q.key(), 0) + 1
        assert len(counts) < 20  # far fewer distinct queries than requests
        assert max(counts.values()) >= 10  # and a clearly hot head

    def test_shrunken_variants_keep_the_coalescible_geometry(self, data):
        """Every shrunken variant keeps each lower bound and only moves
        upper bounds down, so it is exactly the filter-safe geometry of
        the generalized Theorem 3 (and the cache's case-b path)."""
        gen = WorkloadGenerator(data, seed=9)
        # one base region: every unshrunk draw is the base itself, so the
        # base is recoverable as the element-wise widest query seen
        stream = gen.zipf_stream(80, universe=1, shrink_fraction=0.6)
        base_lo = stream[0].lo
        base_hi = np.max([q.hi for q in stream], axis=0)
        shrunk = 0
        for q in stream:
            assert np.array_equal(q.lo, base_lo)  # lower bounds never move
            assert np.all(q.hi <= base_hi)
            if not np.array_equal(q.hi, base_hi):
                shrunk += 1
        assert shrunk > 0

    def test_shrink_never_inverts_an_interval(self, data):
        stream = WorkloadGenerator(data, seed=2).zipf_stream(
            150, universe=8, shrink_fraction=1.0, max_shrink=0.2
        )
        for q in stream:
            assert np.all(q.lo <= q.hi)

    def test_validation_errors(self, gen):
        with pytest.raises(ValueError):
            gen.zipf_stream(-1)
        with pytest.raises(ValueError):
            gen.zipf_stream(5, universe=0)
        with pytest.raises(ValueError):
            gen.zipf_stream(5, shrink_fraction=1.5)

    def test_zero_requests_is_empty(self, gen):
        assert gen.zipf_stream(0) == []


class TestPartitionStream:
    """The sharded-deployment traffic model: per-tenant constraint regions
    concentrated on the partition key, zipf-skewed over tenants."""

    def test_exact_length_and_determinism(self, data):
        a = WorkloadGenerator(data, seed=13).partition_stream(50, tenants=6)
        b = WorkloadGenerator(data, seed=13).partition_stream(50, tenants=6)
        assert len(a) == 50
        assert all(x == y for x, y in zip(a, b))

    def test_key_intervals_are_concentrated(self, data):
        """Each query's extent on the partition key stays a small fraction
        of the domain -- the property shard pruning feeds on."""
        width = data[:, 0].max() - data[:, 0].min()
        stream = WorkloadGenerator(data, seed=3).partition_stream(
            60, tenants=5, key_dim=0, concentration=0.1, shrink_fraction=0.0
        )
        for q in stream:
            assert q.hi[0] - q.lo[0] <= 0.2 * width + 1e-9

    def test_head_tenants_repeat_base_queries(self, data):
        stream = WorkloadGenerator(data, seed=5).partition_stream(
            120, tenants=10, queries_per_tenant=4, shrink_fraction=0.0
        )
        counts = {}
        for q in stream:
            counts[q.key()] = counts.get(q.key(), 0) + 1
        assert len(counts) < 40  # at most tenants * queries_per_tenant
        assert max(counts.values()) >= 5  # zipf head dominates

    def test_shrinks_only_move_upper_bounds(self, data):
        gen = WorkloadGenerator(data, seed=9)
        base = gen.partition_stream(
            80, tenants=1, queries_per_tenant=1, shrink_fraction=0.0
        )
        shrunk = WorkloadGenerator(data, seed=9).partition_stream(
            80, tenants=1, queries_per_tenant=1, shrink_fraction=0.8
        )
        base_lo, base_hi = base[0].lo, base[0].hi
        for q in shrunk:
            assert np.array_equal(q.lo, base_lo)
            assert np.all(q.lo <= q.hi)
            assert np.all(q.hi <= base_hi + 1e-12)

    def test_respects_key_dim(self, data):
        width1 = data[:, 1].max() - data[:, 1].min()
        stream = WorkloadGenerator(data, seed=4).partition_stream(
            40, tenants=4, key_dim=1, concentration=0.1, shrink_fraction=0.0
        )
        for q in stream:
            assert q.hi[1] - q.lo[1] <= 0.2 * width1 + 1e-9

    def test_validation_errors(self, gen):
        with pytest.raises(ValueError):
            gen.partition_stream(-1)
        with pytest.raises(ValueError):
            gen.partition_stream(5, tenants=0)
        with pytest.raises(ValueError):
            gen.partition_stream(5, key_dim=9)
        with pytest.raises(ValueError):
            gen.partition_stream(5, concentration=0.0)
        with pytest.raises(ValueError):
            gen.partition_stream(5, shrink_fraction=-0.1)

    def test_zero_requests_is_empty(self, gen):
        assert gen.partition_stream(0) == []
