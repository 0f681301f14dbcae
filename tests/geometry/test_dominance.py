"""Tests for :mod:`repro.geometry.dominance`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import dominance
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from repro.geometry.dominance import dominated_mask, dominates, weakly_dominated_mask


coords = st.lists(st.floats(min_value=-50, max_value=50), min_size=3, max_size=3)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])

    def test_weak_tie_in_one_dim(self):
        assert dominates([1.0, 1.0], [1.0, 2.0])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1.0, 2.0], [1.0, 2.0])

    def test_incomparable(self):
        assert not dominates([1.0, 3.0], [3.0, 1.0])
        assert not dominates([3.0, 1.0], [1.0, 3.0])

    @given(coords)
    def test_irreflexive(self, p):
        assert not dominates(p, p)

    @given(coords, coords)
    def test_antisymmetric(self, p, q):
        assert not (dominates(p, q) and dominates(q, p))

    @given(coords, coords, coords)
    def test_transitive(self, p, q, r):
        if dominates(p, q) and dominates(q, r):
            assert dominates(p, r)


class TestVectorized:
    @given(
        arrays(np.float64, (8, 3), elements=st.floats(-50, 50)),
        arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
    )
    def test_dominated_mask_matches_scalar(self, pts, doms):
        mask = dominated_mask(pts, doms)
        expected = [
            any(dominates(d, row) for d in doms) for row in pts
        ]
        np.testing.assert_array_equal(mask, expected)

    def test_dominated_mask_empty_dominators(self):
        pts = np.ones((5, 2))
        for empty in (np.empty((0, 2)), np.empty(0), []):
            mask = dominated_mask(pts, empty)
            assert mask.shape == (5,) and mask.dtype == bool and not mask.any()

    def test_dominated_mask_empty_points(self):
        for empty in (np.empty((0, 2)), np.empty(0), []):
            mask = dominated_mask(empty, np.ones((5, 2)))
            assert mask.shape == (0,) and mask.dtype == bool

    def test_dominated_mask_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            dominated_mask(np.ones((5, 2)), np.zeros((3, 3)))


def per_dominator_loop(points, dominators):
    """The loop :func:`dominated_mask` replaced, kept as its reference."""
    out = np.zeros(len(points), dtype=bool)
    for dom in dominators:
        le = np.all(points >= dom, axis=1)
        lt = np.any(points > dom, axis=1)
        out |= le & lt
    return out


class TestDominatedMaskKernel:
    @pytest.mark.parametrize("ndim", [1, 2, 4, 6])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 70), (70, 1), (33, 47), (400, 90)])
    def test_matches_per_dominator_loop(self, n, m, ndim):
        rng = np.random.default_rng(1000 * n + 10 * m + ndim)
        # a coarse grid, so ties, duplicates and dominance are all common
        pts = rng.integers(0, 4, size=(n, ndim)).astype(float)
        doms = rng.integers(0, 4, size=(m, ndim)).astype(float)
        np.testing.assert_array_equal(
            dominated_mask(pts, doms), per_dominator_loop(pts, doms)
        )

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edge(self, offset):
        """``n`` one short of, at and one past a whole number of row chunks."""
        m = 1024
        rows = dominance._MAX_CELLS // m
        rng = np.random.default_rng(offset + 1)
        pts = rng.random((2 * rows + offset, 3))
        doms = rng.random((m, 3)) + 0.5
        expected = per_dominator_loop(pts, doms)
        assert 0 < expected.sum() < len(pts)
        np.testing.assert_array_equal(dominated_mask(pts, doms), expected)

    def test_more_dominators_than_cells(self, monkeypatch):
        """A dominator set wider than the cell budget still gets one row."""
        monkeypatch.setattr(dominance, "_MAX_CELLS", 16)
        rng = np.random.default_rng(3)
        pts, doms = rng.random((9, 2)), rng.random((40, 2))
        np.testing.assert_array_equal(
            dominated_mask(pts, doms), per_dominator_loop(pts, doms)
        )

    def test_self_comparison_keeps_duplicates(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        assert list(dominated_mask(pts, pts)) == [False, False, True, False]


def weak_reference(points, dominators, skip_self=False):
    """Whether some dominator is ``<=`` each point in every dimension, from
    the scalar definition: dominance, or equality."""
    return [
        any(
            dominates(dom, row) or np.array_equal(dom, row)
            for j, dom in enumerate(dominators)
            if not (skip_self and j == i)
        )
        for i, row in enumerate(points)
    ]


class TestWeaklyDominatedMask:
    @pytest.mark.parametrize("ndim", [1, 2, 4])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 30), (30, 1), (33, 47)])
    def test_matches_scalar_definition(self, n, m, ndim):
        rng = np.random.default_rng(1000 * n + 10 * m + ndim)
        # a coarse grid with signed zeros: ties and equal rows are common
        grid = np.array([-0.0, 0.0, 1.0, 2.0])
        pts = grid[rng.integers(0, 4, size=(n, ndim))]
        doms = grid[rng.integers(0, 4, size=(m, ndim))]
        np.testing.assert_array_equal(
            weakly_dominated_mask(pts, doms), weak_reference(pts, doms)
        )

    @pytest.mark.parametrize("n", [1, 2, 40])
    def test_self_comparison_drops_only_the_diagonal(self, n):
        rng = np.random.default_rng(n)
        pts = rng.integers(0, 3, size=(n, 2)).astype(float)
        np.testing.assert_array_equal(
            weakly_dominated_mask(pts), weak_reference(pts, pts, skip_self=True)
        )

    def test_equal_rows_count_as_dominators(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        assert list(weakly_dominated_mask(pts)) == [True, True, True, False]
        assert list(dominated_mask(pts, pts)) == [False, False, True, False]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edge(self, offset):
        """``n`` one short of, at and one past a whole number of row chunks."""
        m = 1024
        rows = dominance._MAX_CELLS // m
        rng = np.random.default_rng(offset + 1)
        pts = rng.integers(0, 8, size=(2 * rows + offset, 3)).astype(float)
        doms = rng.integers(0, 8, size=(m, 3)).astype(float) + 2.0
        expected = np.array([np.all(doms <= row, axis=1).any() for row in pts])
        assert 0 < expected.sum() < len(pts)
        np.testing.assert_array_equal(weakly_dominated_mask(pts, doms), expected)

    def test_self_comparison_across_chunks(self, monkeypatch):
        """Each chunk drops the diagonal cells of its own rows."""
        monkeypatch.setattr(dominance, "_MAX_CELLS", 64)
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 4, size=(50, 2)).astype(float)  # 1 row per chunk
        np.testing.assert_array_equal(
            weakly_dominated_mask(pts), weak_reference(pts, pts, skip_self=True)
        )
        monkeypatch.setattr(dominance, "_MAX_CELLS", 7 * 50)
        np.testing.assert_array_equal(
            weakly_dominated_mask(pts), weak_reference(pts, pts, skip_self=True)
        )

    def test_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            weakly_dominated_mask(np.ones((5, 2)), np.zeros((3, 3)))


def dominance_region(s, constraints=None) -> BoxSet:
    """``DR(s)``, or ``DR(s, C)``, as the MPR cuts it: the inside of a
    corner cut at ``s`` of the whole space (of ``R_C``)."""
    if constraints is None:
        whole = BoxSet(np.full((1, len(s)), -np.inf), np.full((1, len(s)), np.inf))
    else:
        whole = BoxSet(constraints.lo[None], constraints.hi[None])
    return whole.split_corner(s)[0]


def contains_point(region: BoxSet, point) -> bool:
    return bool(region.union_mask(np.array([point], dtype=float))[0])


class TestDominanceRegion:
    def test_unconstrained_region_contains_dominated(self):
        region = dominance_region([1.0, 1.0])
        assert contains_point(region, [2.0, 2.0])
        assert contains_point(region, [1.0, 1.0])  # closed corner
        assert not contains_point(region, [0.5, 2.0])

    def test_constrained_region_clipped(self):
        c = Constraints([0.0, 0.0], [3.0, 3.0])
        region = dominance_region([1.0, 1.0], c)
        assert contains_point(region, [2.0, 2.0])
        assert not contains_point(region, [4.0, 4.0])
        np.testing.assert_array_equal(region.lo, [[1.0, 1.0]])
        np.testing.assert_array_equal(region.hi, [[3.0, 3.0]])

    @given(coords, arrays(np.float64, (16, 3), elements=st.floats(-60, 60)))
    def test_region_membership_equals_weak_dominance(self, s, pts):
        """DR(s) is exactly {p : p >= s} (weak dominance closed corner)."""
        region = dominance_region(s)
        expected = np.all(pts >= np.asarray(s), axis=1)
        np.testing.assert_array_equal(region.union_mask(pts), expected)

    @given(coords, arrays(np.float64, (16, 3), elements=st.floats(-60, 60)))
    def test_strictly_dominated_points_are_in_region(self, s, pts):
        region = dominance_region(s)
        mask = region.union_mask(pts)
        for inside, row in zip(mask, pts):
            if dominates(s, row):
                assert inside
