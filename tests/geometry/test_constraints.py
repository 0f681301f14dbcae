"""Tests for :mod:`repro.geometry.constraints`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from tests.geometry.regions import pairwise_disjoint


def constraints(ndim, lo=-10.0, hi=10.0):
    coord = st.floats(min_value=lo, max_value=hi)
    return st.builds(
        lambda a, b: Constraints(
            [min(x, y) for x, y in zip(a, b)],
            [max(x, y) for x, y in zip(a, b)],
        ),
        st.lists(coord, min_size=ndim, max_size=ndim),
        st.lists(coord, min_size=ndim, max_size=ndim),
    )


class TestConstruction:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Constraints([1.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "lo, hi",
        [([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan])],
        ids=["nan-lower", "nan-upper"],
    )
    def test_rejects_nan_bounds(self, lo, hi):
        with pytest.raises(ValueError):
            Constraints(lo, hi)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Constraints([0.0], [1.0, 2.0])

    def test_arrays_are_frozen(self):
        c = Constraints([0.0], [1.0])
        with pytest.raises(ValueError):
            c.lo[0] = 5.0

    def test_covering(self):
        pts = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]])
        c = Constraints.covering(pts)
        np.testing.assert_array_equal(c.lo, [1.0, 2.0])
        np.testing.assert_array_equal(c.hi, [3.0, 5.0])

    def test_covering_empty_raises(self):
        with pytest.raises(ValueError):
            Constraints.covering(np.empty((0, 2)))


class TestMembership:
    def test_satisfied_mask_matches_region_mask(self):
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        pts = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, -0.1], [2.0, 0.5]])
        np.testing.assert_array_equal(
            c.satisfied_mask(pts), BoxSet(c.lo[None], c.hi[None]).union_mask(pts)
        )

    def test_satisfies_single_point(self):
        c = Constraints([0.0], [1.0])
        assert c.satisfies([0.5])
        assert not c.satisfies([1.5])

    @given(constraints(3), arrays(np.float64, (16, 3), elements=st.floats(-12, 12)))
    def test_mask_property(self, c, pts):
        expected = np.all((pts >= c.lo) & (pts <= c.hi), axis=1)
        np.testing.assert_array_equal(c.satisfied_mask(pts), expected)


class TestRelations:
    def test_contains(self):
        outer = Constraints([0.0, 0.0], [10.0, 10.0])
        inner = Constraints([1.0, 1.0], [2.0, 2.0])
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_overlap_volume(self):
        a = Constraints([0.0, 0.0], [2.0, 2.0])
        b = Constraints([1.0, 1.0], [3.0, 3.0])
        assert a.overlap_volume(b) == pytest.approx(1.0)
        assert a.overlaps(b)

    def test_disjoint_overlap_volume_zero(self):
        a = Constraints([0.0], [1.0])
        b = Constraints([2.0], [3.0])
        assert a.overlap_volume(b) == 0.0
        assert not a.overlaps(b)

    def test_volume_and_widths(self):
        c = Constraints([0.0, 0.0], [2.0, 3.0])
        assert c.volume() == pytest.approx(6.0)
        np.testing.assert_array_equal(c.widths(), [2.0, 3.0])

    def test_with_bound(self):
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        c2 = c.with_bound(0, upper=5.0)
        assert c2.hi[0] == 5.0
        assert c2.lo[0] == 0.0
        # original untouched
        assert c.hi[0] == 1.0

    def test_hash_and_eq(self):
        a = Constraints([0.0], [1.0])
        b = Constraints([0.0], [1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestRegions:
    """``Delta C = R_C' \\ R_C``, the new territory of a refinement, as the
    engine builds it: :meth:`BoxSet.difference` of the two regions."""

    @staticmethod
    def delta_region(old, new):
        return BoxSet.difference(new.lo, new.hi, old.lo, old.hi)

    def test_delta_region_case_a_is_single_slab(self):
        """Decreasing one lower constraint yields one rectangular slab."""
        old = Constraints([1.0, 0.0], [2.0, 2.0])
        new = Constraints([0.0, 0.0], [2.0, 2.0])
        delta = self.delta_region(old, new)
        assert len(delta) == 1
        np.testing.assert_array_equal(delta.lo[0], [0.0, 0.0])
        np.testing.assert_array_equal(delta.hi[0], [np.nextafter(1.0, 0.0), 2.0])

    @given(
        constraints(2),
        constraints(2),
        arrays(np.float64, (32, 2), elements=st.floats(-12, 12)),
    )
    @settings(max_examples=60)
    def test_delta_region_property(self, old, new, pts):
        delta = self.delta_region(old, new)
        assert pairwise_disjoint(delta)
        expected = new.satisfied_mask(pts) & ~old.satisfied_mask(pts)
        np.testing.assert_array_equal(delta.union_mask(pts), expected)
