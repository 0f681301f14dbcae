"""Tests of the stability theory (Definition 4, Theorem 1, Corollaries)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpr import compute_mpr
from repro.core.stability import guaranteed_stable
from repro.data.generator import generate
from repro.geometry.constraints import Constraints

from tests.core.conftest import constrained_skyline_oracle, random_constraints


def definition_stable(data, old: Constraints, new: Constraints) -> bool:
    """Definition 4, brute force: every point of S_C not in Sky(S,C) is also
    not in Sky(S,C')."""
    old_sky = {tuple(p) for p in constrained_skyline_oracle(data, old)}
    new_sky = {tuple(p) for p in constrained_skyline_oracle(data, new)}
    in_old_data = old.satisfied_mask(data)
    for p in data[in_old_data]:
        key = tuple(p)
        if key not in old_sky and key in new_sky:
            return False
    return True


def pairs(ndim=2):
    coord = st.floats(min_value=0, max_value=1)
    def build(a, b):
        a = np.asarray(a).reshape(2, ndim)
        b = np.asarray(b).reshape(2, ndim)
        return (
            Constraints(a.min(axis=0), a.max(axis=0)),
            Constraints(b.min(axis=0), b.max(axis=0)),
        )
    box = st.lists(coord, min_size=2 * ndim, max_size=2 * ndim)
    return st.builds(build, box, box)


class TestGuaranteedStable:
    def test_shrinking_upper_is_stable(self):
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.0, 0.0], [0.5, 1.0])
        assert guaranteed_stable(old, new)

    def test_growing_lower_is_unstable(self):
        old = Constraints([0.2, 0.2], [1.0, 1.0])
        new = Constraints([0.4, 0.2], [1.0, 1.0])
        assert not guaranteed_stable(old, new)

    def test_decreasing_lower_is_stable(self):
        old = Constraints([0.2, 0.2], [1.0, 1.0])
        new = Constraints([0.1, 0.2], [1.0, 1.0])
        assert guaranteed_stable(old, new)

    def test_disjoint_is_trivially_stable(self):
        old = Constraints([0.0, 0.0], [0.2, 0.2])
        new = Constraints([0.5, 0.5], [0.9, 0.9])
        assert guaranteed_stable(old, new)

    def test_identical_is_stable(self):
        c = Constraints([0.1, 0.2], [0.8, 0.9])
        assert guaranteed_stable(c, c)

    def test_ndim_mismatch(self):
        with pytest.raises(ValueError):
            guaranteed_stable(Constraints([0.0], [1.0]), Constraints([0, 0], [1, 1]))

    @given(pairs())
    @settings(max_examples=150, deadline=None)
    def test_theorem_1_soundness(self, pair):
        """Whenever Theorem 1 claims stability, Definition 4 must hold on
        any dataset -- checked against brute force on random data."""
        old, new = pair
        if guaranteed_stable(old, new):
            data = generate("independent", 150, 2, seed=17)
            assert definition_stable(data, old, new)

    def test_instability_witness_exists(self):
        """The converse direction: an unstable configuration where a
        dominated point resurfaces (paper Figure 1)."""
        # t dominates s inside the old region; new lower bound expels t.
        data = np.array(
            [
                [0.10, 0.10],  # t: old skyline point, expelled by new lo
                [0.30, 0.30],  # s: dominated by t under old constraints
            ]
        )
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.2, 0.0], [1.0, 1.0])
        assert not guaranteed_stable(old, new)
        assert not definition_stable(data, old, new)


class TestOperationalStability:
    """``MPRResult.stable`` refines Theorem 1: an item is stable for a
    query when the guarantee holds or no cached skyline point is
    expelled."""

    old = Constraints([0.0, 0.0], [1.0, 1.0])

    def test_no_expelled_points_means_stable(self):
        """Syntactically unstable but no cached skyline point actually
        leaves the region."""
        new = Constraints([0.05, 0.0], [1.0, 1.0])  # lower increased
        skyline = np.array([[0.3, 0.1], [0.1, 0.3]])  # all still inside
        assert not guaranteed_stable(self.old, new)
        assert compute_mpr(self.old, skyline, new).stable

    def test_expelled_point_means_unstable(self):
        new = Constraints([0.2, 0.0], [1.0, 1.0])
        skyline = np.array([[0.1, 0.1]])
        assert not compute_mpr(self.old, skyline, new).stable

    def test_expelled_points_leave_the_survivors(self):
        new = Constraints([0.2, 0.0], [1.0, 1.0])
        skyline = np.array([[0.1, 0.5], [0.5, 0.1], [0.2, 0.2]])
        result = compute_mpr(self.old, skyline, new)
        np.testing.assert_array_equal(result.surviving, skyline[[1, 2]])

    def test_an_empty_skyline_has_no_survivors(self):
        result = compute_mpr(self.old, np.empty((0, 2)), self.old)
        assert result.surviving.shape == (0, 2)
        assert result.stable


class TestCorollary1:
    """Stable case: new skyline points are cached or outside the old data."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        data = generate("independent", 300, 3, seed=seed)
        old = random_constraints(rng, 3)
        # force a stable change: only decrease lower bounds / move uppers
        new = Constraints(
            old.lo - rng.uniform(0, 0.1, size=3),
            np.clip(old.hi + rng.uniform(-0.1, 0.1, size=3), old.lo, None),
        )
        assert guaranteed_stable(old, new)
        old_sky = {tuple(p) for p in constrained_skyline_oracle(data, old)}
        in_old = old.satisfied_mask(data)
        for p in constrained_skyline_oracle(data, new):
            key = tuple(p)
            in_old_data = bool(old.satisfies(p)) and any(
                np.array_equal(p, q) for q in data[in_old]
            )
            assert key in old_sky or not in_old_data
