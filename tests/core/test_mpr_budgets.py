"""Completeness under every approximation knob of the MPR.

The conservative knobs -- a budget of pruners (an array ``prune_with``, or
the aMPR's ``k`` nearest), the one-corner invalidation cover -- may only
ever *grow* the fetched region: the final skyline must stay exact for any
setting, including adversarially tiny budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR
from repro.core.mpr import compute_mpr
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
    @pytest.mark.parametrize("pruners", [1, 2, 8, 64])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_unstable_with_tiny_budgets(self, pruners, k):
        """The first ``pruners`` survivors under either invalidation cover,
        and the aMPR with ``k`` nearest."""
        rng = np.random.default_rng(pruners * 100 + k)
        data = generate("anticorrelated", 400, 3, seed=3)
        for _ in range(6):
            old = random_constraints(rng, 3)
            # force instability: raise every lower bound a little
            new = Constraints(
                np.minimum(old.lo + 0.1, old.hi), old.hi
            )
            sky = constrained_skyline_oracle(data, old)
            surviving = sky[new.satisfied_mask(sky)] if len(sky) else sky
            want = constrained_skyline_oracle(data, new)
            mprs = [
                compute_mpr(
                    old, sky, new, prune_with=surviving[:pruners], corner_cover=corner
                )
                for corner in (False, True)
            ]
            mprs.append(ApproximateMPR(k).compute(old, sky, new))
            for mpr in mprs:
                assert pairwise_disjoint(mpr.boxes)
                assert_same_point_set(solve(mpr, data), want)

    @given(st.integers(0, 300), st.integers(0, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_random_knobs(self, seed, pruners, corner):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1, size=(120, 2))
        old = random_constraints(rng, 2)
        new = random_constraints(rng, 2)
        sky = constrained_skyline_oracle(data, old)
        surviving = sky[new.satisfied_mask(sky)] if len(sky) else sky
        mpr = compute_mpr(
            old, sky, new,
            prune_with=surviving[:pruners],
            corner_cover=corner,
        )
        assert_same_point_set(
            solve(mpr, data), constrained_skyline_oracle(data, new)
        )
