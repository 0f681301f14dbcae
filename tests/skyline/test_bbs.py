"""Tests for constrained BBS against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.index.rtree import RTree
from repro.skyline.bbs import BBSMethod, bbs_skyline
from repro.skyline.reference import brute_force_skyline, is_skyline
from repro.storage.costmodel import DiskCostModel


def constrained_oracle(points, constraints):
    inside = points[constraints.satisfied_mask(points)]
    return inside[brute_force_skyline(inside)]


class TestUnconstrained:
    def test_empty_tree(self):
        tree = RTree.bulk_load_points(np.empty((0, 2)))
        result = bbs_skyline(tree)
        assert len(result.skyline) == 0

    def test_matches_oracle(self):
        pts = generate("independent", 500, 3, seed=11)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        result = bbs_skyline(tree)
        assert is_skyline(pts, result.skyline)

    def test_duplicates(self):
        pts = np.array([[0.1, 0.9], [0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        tree = RTree.bulk_load_points(pts, max_entries=4)
        result = bbs_skyline(tree)
        assert len(result.skyline) == 4

    def test_nodes_accessed_less_than_total_for_pruned_search(self):
        pts = generate("correlated", 5000, 3, seed=4)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        result = bbs_skyline(tree)
        total_nodes = sum(1 for _ in tree.iter_nodes())
        assert 0 < result.nodes_accessed < total_nodes


class TestConstrained:
    @pytest.mark.parametrize(
        "distribution", ["independent", "correlated", "anticorrelated"]
    )
    def test_matches_oracle(self, distribution):
        pts = generate(distribution, 800, 3, seed=5)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        c = Constraints([0.2, 0.1, 0.3], [0.8, 0.9, 0.7])
        result = bbs_skyline(tree, c)
        expected = constrained_oracle(pts, c)
        assert is_skyline(pts[c.satisfied_mask(pts)], result.skyline)
        assert len(result.skyline) == len(expected)

    def test_empty_constraint_region(self):
        pts = generate("independent", 100, 2, seed=6)
        tree = RTree.bulk_load_points(pts, max_entries=8)
        c = Constraints([2.0, 2.0], [3.0, 3.0])
        result = bbs_skyline(tree, c)
        assert len(result.skyline) == 0

    def test_dimension_mismatch(self):
        tree = RTree.bulk_load_points(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            bbs_skyline(tree, Constraints([0.0], [1.0]))

    def test_constraints_reduce_node_accesses(self):
        pts = generate("independent", 5000, 3, seed=7)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        narrow = Constraints([0.4, 0.4, 0.4], [0.5, 0.5, 0.5])
        wide = Constraints([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert (
            bbs_skyline(tree, narrow).nodes_accessed
            < bbs_skyline(tree, wide).nodes_accessed
        )

    def test_dominator_hidden_by_a_rounded_sum_tie(self):
        """``1e-38 + 1 == 1``: equal mindist must not let the dominated
        point out first -- as a heap neighbour, or while its dominator is
        still inside an unexpanded node (found by the property below)."""
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        pair = np.array([[1.17549435e-38, 1.0], [0.0, 1.0]])
        filler = np.column_stack([np.linspace(0.5, 0.9, 7), np.full(7, 1.0)])
        for pts in (pair, pair[::-1], np.vstack([pair[:1], filler, pair[1:]])):
            tree = RTree.bulk_load_points(pts, max_entries=4)
            result = bbs_skyline(tree, c)
            np.testing.assert_array_equal(result.skyline, [[0.0, 1.0]])

    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(0, 80), st.just(2)),
            elements=st.floats(0, 1),
        ),
        bounds=st.tuples(
            st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_oracle(self, pts, bounds):
        c = Constraints(
            [min(bounds[0], bounds[1]), min(bounds[2], bounds[3])],
            [max(bounds[0], bounds[1]), max(bounds[2], bounds[3])],
        )
        tree = RTree.bulk_load_points(pts, max_entries=4)
        result = bbs_skyline(tree, c)
        expected = constrained_oracle(pts, c)
        assert len(result.skyline) == len(expected)
        if len(expected):
            got = result.skyline[np.lexsort(result.skyline.T[::-1])]
            exp = expected[np.lexsort(expected.T[::-1])]
            np.testing.assert_array_equal(got, exp)


class TestProgressiveScan:
    """BBS's defining feature [19]: skyline points come out in mindist
    order, the order ``bbs_skyline`` returns its rows in."""

    def test_points_emitted_in_mindist_order(self):
        pts = generate("independent", 3000, 3, seed=9)
        c = Constraints([0.1] * 3, [0.9] * 3)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        sums = [np.maximum(p, c.lo).sum() for p in bbs_skyline(tree, c).skyline]
        assert len(sums) > 1
        assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))

    def test_unconstrained_scan(self):
        pts = generate("independent", 3000, 3, seed=9)
        tree = RTree.bulk_load_points(pts, max_entries=16)
        skyline = bbs_skyline(tree).skyline
        assert is_skyline(pts, skyline)
        sums = skyline.sum(axis=1)
        assert (np.diff(sums) >= -1e-12).all()


class TestBBSMethod:
    def test_query_outcome(self):
        pts = generate("independent", 1000, 3, seed=8)
        method = BBSMethod(pts, cost_model=DiskCostModel(), max_entries=16)
        c = Constraints([0.1, 0.1, 0.1], [0.9, 0.9, 0.9])
        outcome = method.query(c)
        assert outcome.method == "BBS"
        assert outcome.nodes_accessed > 0
        assert outcome.timings.fetch_io_ms > 0
        assert outcome.timings.wall_ms > 0
        expected = constrained_oracle(pts, c)
        assert len(outcome.skyline) == len(expected)
