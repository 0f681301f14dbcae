"""Property tests for the Missing Points Region (Definition 5, Thms. 6-7)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR, ExactMPR, nearest_to_corner
from repro.core.cbcs import CBCS
from repro.core.mpr import compute_mpr
from repro.data.generator import generate
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator
from repro.skyline.sfs import sfs_skyline

from tests.core.conftest import (
    assert_same_point_set,
    constrained_skyline_oracle,
    random_constraints,
)
from tests.geometry import regions
from tests.geometry.regions import pairwise_disjoint
from tests.geometry.test_box import boxset


def merge_and_solve(mpr, data):
    """Apply Theorem 6: Sky((surviving) + (MPR points), C') -- the caller
    has already restricted the MPR mask to the data."""
    fetched = data[regions.mask(mpr.boxes, data)]
    pool = np.vstack([mpr.surviving, fetched]) if len(mpr.surviving) else fetched
    if len(pool) == 0:
        return pool
    return pool[sfs_skyline(pool)]


def constraint_pair(rng, ndim):
    old = random_constraints(rng, ndim)
    new = random_constraints(rng, ndim)
    return old, new


class TestCompleteness:
    """Theorem 6: merging surviving + MPR points reproduces the skyline."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ndim", [2, 3, 4])
    def test_random_pairs(self, seed, ndim):
        rng = np.random.default_rng(seed)
        data = generate("independent", 200, ndim, seed=seed)
        old, new = constraint_pair(rng, ndim)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        result = merge_and_solve(mpr, data)
        assert_same_point_set(
            result,
            constrained_skyline_oracle(data, new),
            context=f"seed={seed} ndim={ndim} stable={mpr.stable}",
        )

    @pytest.mark.parametrize(
        "distribution", ["correlated", "anticorrelated"]
    )
    def test_skewed_distributions(self, distribution):
        rng = np.random.default_rng(99)
        data = generate(distribution, 300, 3, seed=8)
        for _ in range(8):
            old, new = constraint_pair(rng, 3)
            old_sky = constrained_skyline_oracle(data, old)
            mpr = compute_mpr(old, old_sky, new)
            assert_same_point_set(
                merge_and_solve(mpr, data),
                constrained_skyline_oracle(data, new),
            )

    def test_with_exact_duplicates(self):
        """Closed-corner subtraction must not lose duplicate skyline points."""
        rng = np.random.default_rng(3)
        base = generate("independent", 100, 2, seed=3)
        data = np.vstack([base, base[:30]])  # 30 exact duplicates
        for _ in range(10):
            old, new = constraint_pair(rng, 2)
            old_sky = constrained_skyline_oracle(data, old)
            mpr = compute_mpr(old, old_sky, new)
            assert_same_point_set(
                merge_and_solve(mpr, data),
                constrained_skyline_oracle(data, new),
            )

    def test_disjoint_regions_fetch_everything(self):
        data = generate("independent", 100, 2, seed=4)
        old = Constraints([0.0, 0.0], [0.2, 0.2])
        new = Constraints([0.5, 0.5], [0.9, 0.9])
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        assert mpr.stable
        assert len(mpr.boxes) == 1
        assert regions.rows_of(mpr.boxes) == [regions.closed(new.lo, new.hi)]

    def test_empty_cached_skyline(self):
        old = Constraints([0.0, 0.0], [0.1, 0.1])
        new = Constraints([0.05, 0.05], [0.5, 0.5])
        mpr = compute_mpr(old, np.empty((0, 2)), new)
        data = generate("independent", 100, 2, seed=5)
        assert_same_point_set(
            merge_and_solve(mpr, data), constrained_skyline_oracle(data, new)
        )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            compute_mpr(
                Constraints([0.0], [1.0]),
                np.empty((0, 1)),
                Constraints([0, 0], [1, 1]),
            )
        with pytest.raises(ValueError):
            compute_mpr(
                Constraints([0, 0], [1, 1]),
                np.zeros((2, 3)),
                Constraints([0, 0], [1, 1]),
            )

    @pytest.mark.parametrize("pruners", [np.array([0.6, 0.6]), np.zeros((1, 3))])
    def test_prune_with_must_be_k_by_d(self, pruners):
        """A single point passed as shape ``(d,)`` is a caller error, reported
        like a mis-shaped skyline (it used to surface as numpy's AxisError)."""
        with pytest.raises(ValueError, match="prune_with"):
            compute_mpr(
                Constraints([0.0, 0.0], [1.0, 1.0]),
                np.array([[0.6, 0.6]]),
                Constraints([0.0, 0.0], [1.5, 1.5]),
                prune_with=pruners,
            )


class TestStructure:
    @pytest.mark.parametrize("seed", range(8))
    def test_boxes_pairwise_disjoint(self, seed):
        rng = np.random.default_rng(seed + 100)
        data = generate("independent", 150, 3, seed=seed)
        old, new = constraint_pair(rng, 3)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        assert pairwise_disjoint(mpr.boxes)

    @pytest.mark.parametrize("seed", range(8))
    def test_boxes_inside_new_region(self, seed):
        rng = np.random.default_rng(seed + 200)
        data = generate("independent", 150, 3, seed=seed)
        old, new = constraint_pair(rng, 3)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        assert not mpr.boxes.is_empty().any()
        assert (mpr.boxes.lo >= new.lo).all() and (mpr.boxes.hi <= new.hi).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_minimality_witness(self, seed):
        """Theorem 7's witness property: no surviving cached skyline point
        dominates any part of the MPR -- i.e. subtracting their dominance
        regions again changes nothing."""
        rng = np.random.default_rng(seed + 300)
        data = generate("independent", 150, 3, seed=seed)
        old, new = constraint_pair(rng, 3)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        for u in mpr.surviving:
            corner = regions.corner(u)
            for box in regions.rows_of(mpr.boxes):
                assert not regions.meets(box, corner)

    def test_stable_case_has_no_invalidated_boxes(self):
        old = Constraints([0.3, 0.3], [0.7, 0.7])
        new = Constraints([0.2, 0.3], [0.8, 0.7])  # lower down + upper up
        sky = np.array([[0.4, 0.4]])
        mpr = compute_mpr(old, sky, new)
        assert mpr.stable
        assert mpr.invalidated == 0

    def test_unstable_case_reports_invalidated_boxes(self):
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.2, 0.0], [1.0, 1.0])
        sky = np.array([[0.1, 0.1]])  # expelled dominator
        mpr = compute_mpr(old, sky, new)
        assert not mpr.stable
        assert 0 < mpr.invalidated <= len(mpr.boxes)

    def test_shrinking_stable_query_has_empty_mpr(self):
        """Case b shape: pure shrink of a stable item needs no fetching."""
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.0, 0.0], [0.6, 0.6])
        sky = np.array([[0.2, 0.3], [0.3, 0.2]])
        mpr = compute_mpr(old, sky, new)
        assert len(mpr.boxes) == 0


class TestApproximateMPR:
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("seed", range(6))
    def test_ampr_is_superset_of_mpr(self, k, seed):
        """No false negatives: every dataset point in the exact MPR is also
        covered by the aMPR boxes."""
        rng = np.random.default_rng(seed + 400)
        data = generate("independent", 200, 3, seed=seed)
        old, new = constraint_pair(rng, 3)
        old_sky = constrained_skyline_oracle(data, old)
        exact = ExactMPR().compute(old, old_sky, new)
        approx = ApproximateMPR(k=k).compute(old, old_sky, new)
        in_exact = regions.mask(exact.boxes, data)
        in_approx = regions.mask(approx.boxes, data)
        assert not np.any(in_exact & ~in_approx)

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(6))
    def test_ampr_completeness(self, k, seed):
        rng = np.random.default_rng(seed + 500)
        data = generate("independent", 200, 3, seed=seed + 50)
        old, new = constraint_pair(rng, 3)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = ApproximateMPR(k=k).compute(old, old_sky, new)
        assert_same_point_set(
            merge_and_solve(mpr, data), constrained_skyline_oracle(data, new)
        )

    def test_fewer_boxes_than_exact_in_higher_dims(self):
        # 120 rows: exact 2 048 boxes vs aMPR 36 (400 rows: 27 372, 14 s)
        data = generate("independent", 120, 5, seed=9)
        old = Constraints([0.1] * 5, [0.9] * 5)
        new = Constraints([0.15] * 5, [0.95] * 5)
        old_sky = constrained_skyline_oracle(data, old)
        exact = ExactMPR().compute(old, old_sky, new)
        approx = ApproximateMPR(k=1).compute(old, old_sky, new)
        assert len(approx.boxes) < len(exact.boxes)

    def test_more_nns_prune_more(self):
        """Larger k never covers more data than smaller k."""
        data = generate("independent", 400, 4, seed=10)
        old = Constraints([0.1] * 4, [0.8] * 4)
        new = Constraints([0.1] * 4, [0.9] * 4)
        old_sky = constrained_skyline_oracle(data, old)
        covered = {}
        for k in [1, 3, 10]:
            mpr = ApproximateMPR(k=k).compute(old, old_sky, new)
            covered[k] = int(regions.mask(mpr.boxes, data).sum())
        assert covered[10] <= covered[3] <= covered[1]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ApproximateMPR(k=0)

    @pytest.mark.parametrize("k", [1.5, 2.0, True])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            ApproximateMPR(k=k)

    def test_k_takes_a_numpy_integer(self):
        assert ApproximateMPR(k=np.int64(2)).name == "aMPR(2NN)"

    def test_name(self):
        assert ApproximateMPR(k=3).name == "aMPR(3NN)"
        assert ExactMPR().name == "MPR"

    def test_nearest_to_corner(self):
        pts = np.array([[0.9, 0.9], [0.1, 0.1], [0.5, 0.5]])
        got = nearest_to_corner(pts, np.array([0.0, 0.0]), 1)
        np.testing.assert_array_equal(got, [[0.1, 0.1]])

    def test_nearest_to_corner_ignores_a_dimension_unbounded_below(self):
        """A lower constraint at -inf puts every point at infinite distance;
        the finite dimensions still order them."""
        pts = np.array([[5.0, 9.0], [0.2, 0.1]])
        got = nearest_to_corner(pts, np.array([-np.inf, 0.0]), 1)
        np.testing.assert_array_equal(got, [[0.2, 0.1]])

    def test_nearest_to_corner_k_larger_than_points(self):
        pts = np.array([[0.9, 0.9]])
        got = nearest_to_corner(pts, np.zeros(2), 5)
        assert len(got) == 1


class TestMPRGeometry:
    """Figure 4: complexity of the MPR grows with dimensionality."""

    def test_2d_single_expansion_is_one_box_per_pruner_cut(self):
        old = Constraints([0.0, 0.0], [0.5, 1.0])
        new = Constraints([0.0, 0.0], [0.7, 1.0])
        sky = np.array([[0.1, 0.2]])
        mpr = compute_mpr(old, sky, new)
        # Delta C minus one corner region stays a small number of rectangles
        assert 1 <= len(mpr.boxes) <= 2

    def test_box_count_grows_with_dimension(self):
        counts = {}
        for ndim in [2, 3, 4, 5]:
            data = generate("independent", 500, ndim, seed=11)
            old = Constraints([0.1] * ndim, [0.8] * ndim)
            new = Constraints([0.1] * ndim, [0.9] * ndim)
            old_sky = constrained_skyline_oracle(data, old)
            mpr = ExactMPR().compute(old, old_sky, new)
            counts[ndim] = len(mpr.boxes)
        assert counts[2] < counts[3] < counts[4] < counts[5]

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_completeness_2d(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1, size=(80, 2))
        old, new = constraint_pair(rng, 2)
        old_sky = constrained_skyline_oracle(data, old)
        mpr = compute_mpr(old, old_sky, new)
        assert pairwise_disjoint(mpr.boxes)
        assert_same_point_set(
            merge_and_solve(mpr, data), constrained_skyline_oracle(data, new)
        )


# ----------------------------------------------------------------------
# The region against a reference that does every step every time
# ----------------------------------------------------------------------
#: constraint faces: +-inf and a few values, so regions nest, touch and
#: part often
FACES = [-1.0, 0.0, 0.25, 0.5, 0.75, 1.0]
#: point coordinates: the faces and values between them
COORDS = sorted(set(FACES) | {-0.5, 0.1, 0.4, 0.6, 0.9, 1.5})


@st.composite
def region_pairs(draw):
    """``(old, skyline, new)``: ``skyline`` rows lie in ``R_old`` (what the
    cache holds), duplicates included; ``new`` is drawn inside ``old``,
    around it, touching it, apart from it, or anywhere."""
    ndim = draw(st.integers(1, 4))

    def bounds(lows, highs):
        lo = [draw(st.sampled_from(low)) for low in lows]
        hi = [
            draw(st.sampled_from([v for v in high if v >= a]))
            for a, high in zip(lo, highs)
        ]
        return Constraints(lo, hi)

    any_lo, any_hi = [-np.inf] + FACES, FACES + [np.inf]
    old = bounds([any_lo] * ndim, [any_hi] * ndim)
    mode = draw(st.sampled_from(["inside", "around", "touching", "apart", "free"]))
    if mode == "inside":
        spans = list(zip(old.lo, old.hi))
        new = bounds(
            [[v for v in any_lo + [np.inf] if a <= v <= b] for a, b in spans],
            [[v for v in [-np.inf] + any_hi if a <= v <= b] for a, b in spans],
        )
    elif mode == "around":
        new = bounds(
            [[v for v in any_lo if v <= a] for a in old.lo],
            [[v for v in any_hi if v >= b] for b in old.hi],
        )
    else:
        new = bounds([any_lo] * ndim, [any_hi] * ndim)
        if mode in ("touching", "apart"):
            dim = draw(st.integers(0, ndim - 1))
            face = old.hi[dim]
            if np.isfinite(face):
                step = 0.0 if mode == "touching" else 0.25
                lo = new.lo.copy()
                lo[dim] = face + step
                new = Constraints(lo, np.maximum(new.hi, lo))
    cells = [[v for v in COORDS if a <= v <= b] for a, b in zip(old.lo, old.hi)]
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(cell) for cell in cells]), max_size=8
        )
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    return old, np.array(rows, dtype=float).reshape(-1, ndim), new


def reference_mpr(old, skyline, new, pruners=None, corner=False):
    """The region as it was computed before any early-out: new territory
    by the reference's box subtraction (``tests/geometry/regions.py``),
    the invalidated overlap by :class:`BoxSet` corner cuts -- every
    expelled point's, or the one at their componentwise minimum (``corner``)
    -- every corner subtraction run, the pruners always sorted, the reuse
    set tested against every fetched box."""
    from repro.core.mpr import MPRResult
    from repro.core.stability import guaranteed_stable
    from repro.geometry.box import BoxSet

    satisfied = new.satisfied_mask(skyline)
    surviving, removed = skyline[satisfied], skyline[~satisfied]
    if not old.overlaps(new):
        return MPRResult(BoxSet(new.lo[None], new.hi[None]), surviving, True)
    slabs = regions.subtract_box(
        regions.closed(new.lo, new.hi), regions.closed(old.lo, old.hi)
    )
    territory = boxset(slabs, new.ndim)
    stable = len(removed) == 0 or guaranteed_stable(old, new)
    invalid = BoxSet.empty(new.ndim)
    if not stable:
        overlap = BoxSet(
            np.maximum(new.lo, old.lo)[None], np.minimum(new.hi, old.hi)[None]
        )
        anchors = removed.min(axis=0, keepdims=True) if corner else removed
        invalid = BoxSet.concat(
            [invalid] + [hit for hit, _ in overlap.split_corners(anchors)]
        )
    pruners = surviving if pruners is None else pruners
    if len(pruners):
        pruners = pruners[np.argsort(pruners.sum(axis=1), kind="stable")]
        territory = territory.subtract_corners(pruners)
        invalid = invalid.subtract_corners(pruners)
    fetch = BoxSet.concat([territory, invalid])
    if len(surviving) and len(fetch):
        surviving = surviving[~fetch.union_mask(surviving)]
    return MPRResult(fetch, surviving, stable, len(invalid))


def assert_same_region(got, want):
    """Boxes in row order and survivors, as the same doubles (signs of zero
    included), and the same flags."""
    for a, b in [
        (got.boxes.lo, want.boxes.lo),
        (got.boxes.hi, want.boxes.hi),
        (got.surviving, want.surviving),
    ]:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.stable, got.invalidated) == (want.stable, want.invalidated)


class TestAgainstReference:
    """Every region computer equals :func:`reference_mpr`: the early-outs,
    the one-box new territory and the narrowed reuse test change no box,
    survivor or flag."""

    @settings(max_examples=300, deadline=None)
    @given(region_pairs())
    def test_exact(self, drawn):
        old, sky, new = drawn
        want = reference_mpr(old, sky, new)
        assert_same_region(compute_mpr(old, sky, new), want)
        assert_same_region(ExactMPR().compute(old, sky, new), want)

    @settings(max_examples=300, deadline=None)
    @given(region_pairs(), st.sampled_from([1, 3]))
    def test_approximate(self, drawn, k):
        """The aMPR's pruners and its one-corner invalidation cover."""
        old, sky, new = drawn
        nearest = nearest_to_corner(sky[new.satisfied_mask(sky)], new.lo, k)
        want = reference_mpr(old, sky, new, nearest, corner=True)
        assert_same_region(ApproximateMPR(k=k).compute(old, sky, new), want)
        got = compute_mpr(
            old,
            sky,
            new,
            prune_with=lambda surviving: nearest_to_corner(surviving, new.lo, k),
            corner_cover=True,
        )
        assert_same_region(got, want)

    @settings(max_examples=150, deadline=None)
    @given(region_pairs(), st.booleans())
    def test_explicit_pruners(self, drawn, corner):
        """An array ``prune_with``, as the ablations pass it, under either
        invalidation cover."""
        old, sky, new = drawn
        pruners = sky[new.satisfied_mask(sky)][:1]
        want = reference_mpr(old, sky, new, pruners, corner)
        got = compute_mpr(old, sky, new, prune_with=pruners, corner_cover=corner)
        assert_same_region(got, want)


# ----------------------------------------------------------------------
# The aMPR's invalidation cover, as a set of points
# ----------------------------------------------------------------------
#: a coarse grid: cached rows repeat often, and sit on constraint faces
GRID = [-1.0, 0.0, 0.5, 1.0]
#: probe coordinates: the grid, the doubles beside it and points between
PROBES = sorted(
    set(GRID)
    | {math.nextafter(v, s) for v in GRID for s in (-math.inf, math.inf)}
    | {-0.5, 0.25, 0.75, 1.5}
)


@st.composite
def unstable_pairs(draw):
    """``(old, skyline, new, probes)`` in 2, 3 or 5 dimensions: faces on
    the grid or at +-inf, duplicate-heavy rows inside ``R_old``, and probe
    points around them."""
    ndim = draw(st.sampled_from([2, 3, 5]))
    faces_lo, faces_hi = [-np.inf] + GRID, GRID + [np.inf]

    def bounds():
        lo = [draw(st.sampled_from(faces_lo)) for _ in range(ndim)]
        hi = [draw(st.sampled_from([v for v in faces_hi if v >= a])) for a in lo]
        return Constraints(lo, hi)

    old, new = bounds(), bounds()
    cells = [[v for v in GRID if a <= v <= b] for a, b in zip(old.lo, old.hi)]
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(cell) for cell in cells]),
            min_size=1,
            max_size=10,
        )
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    probes = draw(
        st.lists(st.tuples(*[st.sampled_from(PROBES)] * ndim), max_size=40)
    )
    return old, np.array(rows, dtype=float), new, np.array(probes).reshape(-1, ndim)


def at_or_above(points, corners):
    """``(n,)``: the point lies in the closed corner region of some row of
    ``corners``."""
    if not len(corners):
        return np.zeros(len(points), dtype=bool)
    return (points[:, None, :] >= corners[None, :, :]).all(axis=2).any(axis=1)


class TestCornerCover:
    """The aMPR covers the invalidated overlap with ``overlap ∩ DR(m)``,
    ``m`` the componentwise minimum of the expelled points."""

    @settings(max_examples=300, deadline=None)
    @given(unstable_pairs(), st.sampled_from([1, 3]))
    def test_invalidation_boxes_are_the_corner_minus_the_pruners(self, drawn, k):
        old, sky, new, probes = drawn
        got = ApproximateMPR(k=k).compute(old, sky, new)
        first = len(got.boxes) - got.invalidated
        invalid = BoxSet(got.boxes.lo[first:], got.boxes.hi[first:])
        assert pairwise_disjoint(invalid)
        if got.stable:
            assert got.invalidated == 0
            return
        satisfied = new.satisfied_mask(sky)
        expelled = sky[~satisfied]
        pruners = nearest_to_corner(sky[satisfied], new.lo, k)
        m = expelled.min(axis=0)
        low = np.maximum(new.lo, old.lo)
        # the corner's own lowest point and the inner steps of the exact
        # staircase (pairwise minima, lifted into the overlap) lie in the
        # corner but under no single expelled point
        steps = np.minimum(expelled[:, None], expelled[None, :]).reshape(-1, len(m))
        probes = np.vstack(
            [probes, sky, m, m - np.eye(len(m)) * 0.01, np.maximum(steps, low)]
        )
        in_overlap = ((probes >= low) & (probes <= np.minimum(new.hi, old.hi))).all(
            axis=1
        )
        in_invalid = regions.mask(invalid, probes)
        pruned = at_or_above(probes, pruners)
        corner = in_overlap & (probes >= m).all(axis=1)
        np.testing.assert_array_equal(in_invalid, corner & ~pruned)
        for point in expelled:
            covered = in_overlap & (probes >= point).all(axis=1)
            assert (in_invalid | pruned)[covered].all()

    def test_corner_empty_when_every_expelled_point_lies_above(self):
        """Both expelled points lie above ``C'`` in dimension 1, so the
        componentwise minimum does too: no invalidation box."""
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.5, 0.0], [1.0, 0.5])
        sky = np.array([[0.2, 0.9], [0.3, 0.8], [0.6, 0.4]])
        got = ApproximateMPR().compute(old, sky, new)
        assert not got.stable and got.invalidated == 0
        assert ExactMPR().compute(old, sky, new).invalidated == 0

    def test_one_box_under_a_staircase(self):
        """Three expelled points: the exact staircase tiles their corners,
        the aMPR issues the one corner at their minimum."""
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.5, 0.0], [1.0, 1.0])
        sky = np.array([[0.1, 0.9], [0.2, 0.5], [0.3, 0.3]])
        exact = compute_mpr(old, sky, new)
        approx = compute_mpr(old, sky, new, corner_cover=True)
        assert exact.invalidated == 3 and approx.invalidated == 1
        assert regions.rows_of(approx.boxes) == [([0.5, 0.3], [1.0, 1.0])]

    def test_corner_stays_inside_the_overlap(self):
        """A row below ``R_C`` (which a well-formed item never holds) still
        gets a corner inside the overlap, so it cannot meet the new
        territory's boxes and fetch a point twice."""
        old = Constraints([0.5, 0.0], [1.0, 1.0])
        new = Constraints([0.0, 0.2], [1.0, 1.0])
        sky = np.array([[0.1, 0.1]])
        got = compute_mpr(old, sky, new, corner_cover=True)
        assert got.invalidated == 1
        assert (got.boxes.lo[-1] >= np.maximum(new.lo, old.lo)).all()
        assert pairwise_disjoint(got.boxes)

    @pytest.mark.parametrize("k", [1, 3])
    def test_plan_ignores_the_cached_row_order(self, k):
        """Permuting an item's skyline rows leaves the aMPR's plan boxes as
        they were (corner distances distinct, so the pruners are too)."""
        data = np.random.default_rng(5).random((3_000, 3))
        engine = CBCS(DiskTable(data), region_computer=ApproximateMPR(k))
        rng = np.random.default_rng(6)
        compared = 0
        for constraints in WorkloadGenerator(data, seed=7).exploratory_stream(80):
            candidates = engine.cache.candidates(constraints, record=False)
            item = engine.planner.select(constraints, candidates, record=False)
            if item is not None and not candidates.exact:
                order = rng.permutation(len(item.skyline))
                permuted = replace(item, skyline=item.skyline[order])
                plan, again = (
                    engine.planner.plan(constraints, candidates, it, record=False)
                    for it in (item, permuted)
                )
                assert plan.boxes.lo.tobytes() == again.boxes.lo.tobytes()
                assert plan.boxes.hi.tobytes() == again.boxes.hi.tobytes()
                expelled = (~constraints.satisfied_mask(item.skyline)).sum()
                compared += plan.mpr.invalidated > 0 and expelled > 1
            engine.query(constraints)
        assert compared > 0
