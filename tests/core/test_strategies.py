"""Tests for the seven cache search strategies (Section 6.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR
from repro.core.cache import CacheItem, Candidates, SkylineCache
from repro.core.cases import classify_change, classify_dimension_changes
from repro.core.strategies import (
    CostBased,
    MaxOverlap,
    MaxOverlapSP,
    OptimumDistance,
    Prioritized1D,
    PrioritizedND,
    RandomStrategy,
    default_strategy_suite,
)
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable


def item(lo, hi, item_id=0):
    """A cache item whose skyline spans its whole constraint region."""
    c = Constraints(lo, hi)
    sky = np.array([c.lo, c.hi])
    return CacheItem(
        constraints=c,
        skyline=sky,
        mbr_lo=c.lo.copy(),
        mbr_hi=c.hi.copy(),
        item_id=item_id,
        inserted_at=item_id,
    )


QUERY = Constraints([0.3, 0.3], [0.7, 0.7])


class TestSelectContract:
    @pytest.mark.parametrize("strategy", default_strategy_suite(seed=1))
    def test_returns_a_candidate(self, strategy):
        items = [item([0.2, 0.2], [0.6, 0.6], 1), item([0.4, 0.4], [0.9, 0.9], 2)]
        assert strategy.select(QUERY, items) in items

    @pytest.mark.parametrize("strategy", default_strategy_suite(seed=1))
    def test_single_candidate(self, strategy):
        only = item([0.0, 0.0], [1.0, 1.0], 1)
        assert strategy.select(QUERY, [only]) is only

    @pytest.mark.parametrize("strategy", default_strategy_suite(seed=1))
    def test_empty_candidates_raise(self, strategy):
        with pytest.raises(ValueError):
            strategy.select(QUERY, [])


class TestRandom:
    def test_seeded_reproducibility(self):
        items = [item([0.1 * i, 0.1 * i], [1.0, 1.0], i) for i in range(5)]
        a = RandomStrategy(seed=7)
        b = RandomStrategy(seed=7)
        picks_a = [a.select(QUERY, items).item_id for _ in range(20)]
        picks_b = [b.select(QUERY, items).item_id for _ in range(20)]
        assert picks_a == picks_b

    def test_spreads_over_candidates(self):
        items = [item([0.1 * i, 0.1 * i], [1.0, 1.0], i) for i in range(5)]
        strategy = RandomStrategy(seed=3)
        picks = {strategy.select(QUERY, items).item_id for _ in range(100)}
        assert len(picks) == 5


class TestMaxOverlap:
    def test_prefers_largest_overlap(self):
        big = item([0.3, 0.3], [0.7, 0.7], 1)  # full overlap
        small = item([0.6, 0.6], [0.9, 0.9], 2)  # corner overlap
        assert MaxOverlap().select(QUERY, [small, big]) is big

    def test_sp_variant_prefers_stable_over_bigger_overlap(self):
        # unstable (its lower bounds are below the query's? No --
        # stability of item wrt query: stable iff query.lo <= item.lo).
        unstable_big = item([0.2, 0.2], [0.7, 0.7], 1)  # query.lo > item.lo
        stable_small = item([0.5, 0.5], [0.9, 0.9], 2)  # query.lo <= item.lo
        choice = MaxOverlapSP().select(QUERY, [unstable_big, stable_small])
        assert choice is stable_small
        # plain MaxOverlap would take the bigger overlap
        assert MaxOverlap().select(QUERY, [unstable_big, stable_small]) is unstable_big

    def test_sp_falls_back_to_overlap_among_stable(self):
        a = item([0.3, 0.3], [0.7, 0.7], 1)
        b = item([0.3, 0.3], [0.5, 0.5], 2)
        assert MaxOverlapSP().select(QUERY, [a, b]) is a


class TestPrioritized1D:
    def test_case_priority_order(self):
        # case b wrt query: item that the query shrinks from (upper down):
        # classify_change(item.constraints, QUERY)
        case_b = item([0.3, 0.3], [0.7, 0.8], 1)  # query lowers upper bound
        case_d = item([0.2, 0.3], [0.7, 0.7], 2)  # query raises a lower bound
        assert Prioritized1D().select(QUERY, [case_d, case_b]) is case_b

    def test_exact_match_beats_everything(self):
        exact = item([0.3, 0.3], [0.7, 0.7], 1)
        case_b = item([0.3, 0.3], [0.7, 0.8], 2)
        assert Prioritized1D().select(QUERY, [case_b, exact]) is exact

    def test_general_stable_beats_case_d(self):
        gen_stable = item([0.35, 0.35], [0.75, 0.75], 1)  # query widens lows
        case_d = item([0.25, 0.3], [0.7, 0.7], 2)
        assert Prioritized1D().select(QUERY, [case_d, gen_stable]) is gen_stable


class TestPrioritizedND:
    def test_std_prefers_pure_case_b_changes(self):
        std = PrioritizedND.std()
        # one case-b bound change (penalty 0) vs one case-d change (20)
        b_item = item([0.3, 0.3], [0.7, 0.8], 1)
        d_item = item([0.25, 0.3], [0.7, 0.7], 2)
        assert std.select(QUERY, [d_item, b_item]) is b_item

    def test_penalties_accumulate_across_dimensions(self):
        std = PrioritizedND.std()
        one_change = item([0.25, 0.3], [0.7, 0.7], 1)  # one case-d: 20
        many_b = item([0.3, 0.3], [0.9, 0.9], 2)  # two case-b: 0
        assert std.select(QUERY, [one_change, many_b]) is many_b

    def test_bad_weights_invert_preference(self):
        bad = PrioritizedND.bad()
        b_item = item([0.3, 0.3], [0.7, 0.8], 1)  # case b: penalty 50
        d_item = item([0.25, 0.3], [0.7, 0.7], 2)  # case d: penalty 0
        assert bad.select(QUERY, [d_item, b_item]) is d_item

    def test_names(self):
        assert PrioritizedND.std().name == "PrioritizedND(10,0,5,20)"
        assert PrioritizedND.bad().name == "PrioritizedND(10,50,30,0)"


class TestOptimumDistance:
    def test_prefers_closest_lower_corner(self):
        near = item([0.31, 0.31], [0.9, 0.9], 1)
        far = item([0.0, 0.0], [0.9, 0.9], 2)
        assert OptimumDistance().select(QUERY, [far, near]) is near


class TestIntegrationWithCache:
    def test_strategy_over_real_cache_candidates(self):
        cache = SkylineCache()
        for i, x in enumerate([0.1, 0.3, 0.5]):
            c = Constraints([x, x], [x + 0.4, x + 0.4])
            sky = np.array([[x + 0.05, x + 0.35], [x + 0.35, x + 0.05]])
            cache.insert(c, sky)
        candidates = cache.candidates(QUERY)
        assert candidates
        chosen = MaxOverlap().select(QUERY, candidates)
        best = max(
            candidates, key=lambda it: it.constraints.overlap_volume(QUERY)
        )
        assert chosen is best


# ----------------------------------------------------------------------
# the one-broadcast scorers against the per-item formulas they replaced
# ----------------------------------------------------------------------
def old_overlap_volume(a, b):
    lo, hi = np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi)
    return 0.0 if np.any(lo > hi) else float(np.prod(hi - lo))


def old_stable(old, new):
    return bool(np.all(new.lo <= old.lo)) or not old.overlaps(new)


def zero_width_volume(a, b):
    """``old_overlap_volume`` with a zero-width intersection at volume 0
    whatever its other extents (never ``0 * inf``)."""
    lo, hi = np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi)
    return 0.0 if np.any(lo >= hi) else float(np.prod(hi - lo))


def old_score(strategy, query, it, overlap_volume=old_overlap_volume):
    """What ``strategy.score(query, it)`` returned before the scorers were
    vectorised: one candidate at a time, from the scalar helpers."""
    c = it.constraints
    volume = overlap_volume(c, query)
    if isinstance(strategy, MaxOverlapSP):
        return (1 if old_stable(c, query) else 0, volume)
    if isinstance(strategy, MaxOverlap):
        return volume
    if isinstance(strategy, Prioritized1D):
        return (strategy._PRIORITY.get(classify_change(c, query), 0), volume)
    if isinstance(strategy, PrioritizedND):
        labels = classify_dimension_changes(c, query)
        return (-sum(strategy.penalties[label] for label in labels), volume)
    if isinstance(strategy, OptimumDistance):
        return -float(np.linalg.norm(c.lo - query.lo))
    return None  # Random


#: five values per bound: equal volumes, penalties and distances are common
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def grid_constraints(ndim, unbounded=False):
    lows = GRID + [-math.inf] if unbounded else GRID
    highs = GRID + [math.inf] if unbounded else GRID
    side = st.tuples(st.sampled_from(lows), st.sampled_from(highs)).map(
        lambda pair: pair if pair[0] <= pair[1] else pair[::-1]
    )
    return st.lists(side, min_size=ndim, max_size=ndim).map(
        lambda sides: Constraints([lo for lo, _ in sides], [hi for _, hi in sides])
    )


@st.composite
def query_and_candidates(draw, unbounded=False):
    ndim = draw(st.integers(1, 4))
    query = draw(grid_constraints(ndim, unbounded))
    drawn = draw(st.lists(grid_constraints(ndim, unbounded), min_size=1, max_size=8))
    drawn += draw(st.lists(st.sampled_from(drawn + [query]), max_size=3))  # ties
    cands = []
    for i, c in enumerate(drawn):
        cands.append(
            CacheItem(
                constraints=c,
                skyline=np.empty((0, ndim)),
                mbr_lo=c.lo,
                mbr_hi=c.hi,
                item_id=i,
                inserted_at=i,
            )
        )
    return query, cands


def flat(score):
    return score if isinstance(score, tuple) else (score,)


SCORERS = [s for s in default_strategy_suite() if not isinstance(s, RandomStrategy)]


class TestVectorisedPick:
    @pytest.mark.parametrize("strategy", SCORERS, ids=lambda s: s.name)
    @given(query_and_candidates())
    @settings(max_examples=60, deadline=None)
    def test_pick_and_scores_match_the_per_item_formulas(self, strategy, drawn):
        query, cands = drawn
        for it in cands:
            got, want = strategy.score(query, it), old_score(strategy, query, it)
            assert type(got) is type(want)
            if isinstance(strategy, OptimumDistance):
                # sqrt(sum of squares) in place of BLAS dot: last-digit freedom
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert got == want
        # the first maximum in candidate order (ascending item_id) wins ties
        best = max(cands, key=lambda it: strategy.score(query, it))
        assert strategy.select(query, cands) is best

    @pytest.mark.parametrize("strategy", SCORERS, ids=lambda s: s.name)
    @given(query_and_candidates(unbounded=True))
    @settings(max_examples=60, deadline=None)
    def test_no_score_is_nan_under_unbounded_constraints(self, strategy, drawn):
        query, cands = drawn
        scores = [strategy.score(query, it) for it in cands]
        assert not any(math.isnan(part) for score in scores for part in flat(score))
        best = max(cands, key=lambda it: strategy.score(query, it))
        assert strategy.select(query, cands) is best

    def test_random_has_no_score(self):
        assert RandomStrategy(seed=0).score(QUERY, item([0.0, 0.0], [1.0, 1.0])) is None

    def test_cost_based_shortlist_keeps_candidate_order_on_ties(self):
        """The shortlist is the most-overlapping few, ties in candidate order
        (``sorted(..., reverse=True)`` is stable)."""
        seen = []

        class Region:
            def compute(self, old, skyline, new, record=True):
                seen.append(old)
                raise LookupError  # stop at the first costed candidate

        twins = [item([0.3, 0.3], [0.7, 0.7], i) for i in range(3)]
        small = item([0.6, 0.6], [0.9, 0.9], 9)
        strategy = CostBased(table=None, region=Region(), max_candidates=2)
        with pytest.raises(LookupError):
            strategy.select(QUERY, [small] + twins)
        assert seen == [twins[0].constraints]


class TestUnboundedConstraints:
    """``Constraints`` accepts infinite bounds; scores must stay comparable."""

    C1 = ([-math.inf, 0.9], [math.inf, 1.0])
    C2 = ([-math.inf, 0.0], [math.inf, 1.0])
    UNBOUNDED_QUERY = Constraints([-math.inf, 0.0], [math.inf, 0.99])

    @pytest.mark.parametrize("flip", [False, True])
    def test_optimum_distance_ignores_a_shared_infinite_corner(self, flip):
        far, exact = item(*self.C1, 1), item(*self.C2, 2)
        strategy = OptimumDistance()
        assert strategy.score(self.UNBOUNDED_QUERY, far) == pytest.approx(-0.9)
        assert strategy.score(self.UNBOUNDED_QUERY, exact) == 0.0
        cands = [exact, far] if flip else [far, exact]
        assert strategy.select(self.UNBOUNDED_QUERY, cands) is exact

    def test_differing_infinite_corners_are_infinitely_far(self):
        bounded = item([0.0, 0.0], [1.0, 1.0])
        assert OptimumDistance().score(self.UNBOUNDED_QUERY, bounded) == -math.inf

    def test_zero_width_overlap_has_volume_zero(self):
        line = Constraints([0.5, -math.inf], [0.5, math.inf])
        slab = Constraints([0.0, -math.inf], [1.0, math.inf])
        assert slab.overlap_volume(slab) == math.inf
        assert line.overlap_volume(slab) == 0.0
        assert MaxOverlap().score(slab, item(line.lo, line.hi)) == 0.0
        assert MaxOverlapSP().score(slab, item(line.lo, line.hi)) == (1, 0.0)


# ----------------------------------------------------------------------
# selection fed by the cache's bounds table against per-item scoring
# ----------------------------------------------------------------------
@st.composite
def cache_and_query(draw):
    """A cache over grid constraints (+-inf faces, repeats, ties) and a
    query; each item caches one to three grid points, inside its region --
    or, for a rotted item, anywhere, so its constraints may miss a query its
    MBR meets."""
    ndim = draw(st.integers(1, 3))
    query = draw(grid_constraints(ndim, unbounded=True))
    drawn = draw(st.lists(grid_constraints(ndim, unbounded=True), min_size=1, max_size=8))
    drawn += draw(st.lists(st.sampled_from(drawn + [query]), max_size=3))
    cache = SkylineCache()
    for c in drawn:
        points = draw(
            st.lists(
                st.lists(st.sampled_from(GRID), min_size=ndim, max_size=ndim),
                min_size=1,
                max_size=3,
            )
        )
        rotted = draw(st.booleans())
        cache.insert(c, np.array(points) if rotted else np.clip(points, c.lo, c.hi))
    return query, cache


def per_item_pick(strategy, query, candidates):
    """The first maximum of the per-item score over the candidates in
    ``item_id`` order -- for ``CostBased``, in the order of its overlap
    shortlist.  The paper's strategies are scored by the scalar formulas
    above (``OptimumDistance`` by ``score()``: its last digit is free)."""
    ranked = list(candidates)
    if isinstance(strategy, CostBased):
        ranked = sorted(
            ranked, key=lambda it: it.constraints.overlap_volume(query), reverse=True
        )[: strategy.max_candidates]
    if isinstance(strategy, (CostBased, OptimumDistance)):
        return max(ranked, key=lambda it: strategy.score(query, it))
    return max(ranked, key=lambda it: old_score(strategy, query, it, zero_width_volume))


def assert_aligned(candidates):
    assert isinstance(candidates, Candidates)
    assert candidates.lo.shape == candidates.hi.shape == (
        candidates.lo.shape[0],
        len(candidates),
    )
    for j, it in enumerate(candidates):
        np.testing.assert_array_equal(candidates.lo[:, j], it.constraints.lo)
        np.testing.assert_array_equal(candidates.hi[:, j], it.constraints.hi)


def assert_table_scores(strategy, query, candidates):
    """Every column's keys, scored on the table's columns at once, are the
    scalar per-item formulas' (``OptimumDistance``'s: ``score()``'s)."""
    keys = strategy._scores(query, candidates.lo, candidates.hi)
    for j, it in enumerate(candidates):
        if isinstance(strategy, OptimumDistance):
            want = flat(strategy.score(query, it))
        else:
            want = flat(old_score(strategy, query, it, zero_width_volume))
        assert tuple(key[j].item() for key in keys) == want


def table_fed_strategies(ndim):
    table = DiskTable(np.random.default_rng(ndim).random((120, ndim)))
    return default_strategy_suite(seed=5) + [
        CostBased(table, ApproximateMPR(k=1), max_candidates=2)
    ]


class TestTableFedSelection:
    """``select`` over what ``SkylineCache.candidates`` returns -- items and
    their constraint columns cut from the bounds table -- picks what scoring
    each item on its own picks, and so does the re-pick after the chosen
    item is healed out of the cache."""

    @given(cache_and_query(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pick_and_heal_repick_match_per_item_scoring(self, drawn, data):
        query, cache = drawn
        candidates = cache.candidates(query, record=False)
        ids = [it.item_id for it in candidates]
        assert ids == sorted(ids)
        for strategy in table_fed_strategies(query.ndim):
            remaining = candidates
            while remaining:
                assert_aligned(remaining)
                if isinstance(strategy, RandomStrategy):
                    # a dry run names the pick and leaves it to be taken
                    named = strategy.select(query, remaining, record=False)
                    assert strategy.select(query, remaining) is named
                    chosen = named
                else:
                    if not isinstance(strategy, CostBased):
                        assert_table_scores(strategy, query, remaining)
                    chosen = strategy.select(query, remaining)
                    assert chosen is per_item_pick(strategy, query, remaining)
                if not data.draw(st.booleans(), label="heal"):
                    break
                # corrupt the pick, heal it out, re-pick among the rest
                saved = chosen.skyline
                chosen.skyline = np.full_like(saved, np.nan)
                assert cache.verify_and_heal(chosen) is False
                remaining = remaining.without(chosen)
                assert chosen not in remaining
                cache.insert(chosen.constraints, saved)  # a fresh item, for the next strategy
            candidates = cache.candidates(query, record=False)
