"""Completeness under every approximation knob of the MPR.

The conservative fallbacks (piece budgets, anchor coarsening, box merging)
may only ever *grow* the fetched region -- the final skyline must stay
exact for any knob setting, including adversarially tiny budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR
from repro.core.mpr import _coarsen_dominators, compute_mpr
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.skyline.sfs import sfs_skyline

from tests.core.conftest import (
    assert_same_point_set,
    constrained_skyline_oracle,
    random_constraints,
)
from tests.geometry.regions import mask, pairwise_disjoint


def solve(mpr, data):
    fetched = data[mask(mpr.boxes, data)]
    pool = np.vstack([mpr.surviving, fetched]) if len(mpr.surviving) else fetched
    if len(pool) == 0:
        return pool
    return pool[sfs_skyline(pool)]


class TestBudgetedCompleteness:
    @pytest.mark.parametrize("pieces", [1, 2, 8, 64])
    @pytest.mark.parametrize("anchors", [1, 2, 8])
    def test_unstable_with_tiny_budgets(self, pieces, anchors):
        rng = np.random.default_rng(pieces * 100 + anchors)
        data = generate("anticorrelated", 400, 3, seed=3)
        for _ in range(6):
            old = random_constraints(rng, 3)
            # force instability: raise every lower bound a little
            new = Constraints(
                np.minimum(old.lo + 0.1, old.hi), old.hi
            )
            sky = constrained_skyline_oracle(data, old)
            surviving = sky[new.satisfied_mask(sky)] if len(sky) else sky
            mpr = compute_mpr(
                old, sky, new,
                prune_with=surviving[:1],
                max_invalidation_pieces=pieces,
                max_invalidation_anchors=anchors,
            )
            assert pairwise_disjoint(mpr.boxes)
            assert_same_point_set(
                solve(mpr, data), constrained_skyline_oracle(data, new)
            )

    @given(st.integers(0, 300), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_random_knobs(self, seed, anchors):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1, size=(120, 2))
        old = random_constraints(rng, 2)
        new = random_constraints(rng, 2)
        sky = constrained_skyline_oracle(data, old)
        surviving = sky[new.satisfied_mask(sky)] if len(sky) else sky
        mpr = compute_mpr(
            old, sky, new,
            prune_with=surviving[: min(2, len(surviving))],
            max_invalidation_pieces=8,
            max_invalidation_anchors=anchors,
        )
        assert_same_point_set(
            solve(mpr, data), constrained_skyline_oracle(data, new)
        )


class TestCoarsening:
    def test_coarsen_returns_input_when_small(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(_coarsen_dominators(pts, 5), pts)

    def test_coarsen_bounds_group_count(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(100, 3))
        anchors = _coarsen_dominators(pts, 7)
        assert len(anchors) == 7

    def test_anchors_cover_their_groups(self):
        """Every original point weakly dominates... is weakly dominated by
        its group anchor: anchor <= point componentwise."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(50, 3))
        anchors = _coarsen_dominators(pts, 5)
        for p in pts:
            assert any(np.all(a <= p + 1e-12) for a in anchors)
