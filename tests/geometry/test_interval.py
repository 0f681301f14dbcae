"""One dimension of a box: the closed-face rule, on one-dimensional
:class:`~repro.geometry.box.BoxSet` rows.

Every face is closed.  A cut leaves one side closed at the plane and the
other at the adjacent double (an *open* face at a finite ``v`` is the closed
face one double inside it; a face at +-inf stays there), so the questions an
interval type used to answer -- membership, emptiness, intersection,
containment, the split at a point -- are asked of ``mask`` / ``is_empty``,
``difference`` and ``split_corner`` here.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def row(lo, hi, lo_open=False, hi_open=False) -> BoxSet:
    """The one-dimensional row from ``lo`` to ``hi``, an open face moved to
    the adjacent double inside it."""
    if lo_open and math.isfinite(lo):
        lo = math.nextafter(lo, math.inf)
    if hi_open and math.isfinite(hi):
        hi = math.nextafter(hi, -math.inf)
    return BoxSet(np.array([[lo]]), np.array([[hi]]))


def intervals(min_lo=-100, max_hi=100):
    return st.builds(
        row,
        st.floats(min_value=min_lo, max_value=max_hi),
        st.floats(min_value=min_lo, max_value=max_hi),
        st.booleans(),
        st.booleans(),
    )


def holds(rows: BoxSet, x: float) -> bool:
    return bool(rows.union_mask(np.array([[x]]))[0])


def bounds(rows: BoxSet):
    return list(zip(rows.lo[:, 0].tolist(), rows.hi[:, 0].tolist()))


def minus(a: BoxSet, b: BoxSet) -> BoxSet:
    """``a`` without the doubles of ``b`` (one row each)."""
    return BoxSet.difference(a.lo[0], a.hi[0], b.lo[0], b.hi[0])


def empty(rows: BoxSet) -> bool:
    return bool(rows.is_empty()[0])


class TestBasics:
    def test_closed_contains_endpoints(self):
        iv = row(1.0, 2.0)
        assert holds(iv, 1.0)
        assert holds(iv, 2.0)
        assert holds(iv, 1.5)
        assert not holds(iv, 0.999)
        assert not holds(iv, 2.001)

    def test_open_excludes_endpoints(self):
        iv = row(1.0, 2.0, lo_open=True, hi_open=True)
        assert bounds(iv) == [(math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0))]
        assert not holds(iv, 1.0)
        assert not holds(iv, 2.0)
        assert holds(iv, 1.5)

    def test_half_open(self):
        iv = row(1.0, 2.0, lo_open=False, hi_open=True)
        assert holds(iv, 1.0)
        assert not holds(iv, 2.0)

    def test_universe_contains_everything(self):
        iv = row(-math.inf, math.inf, lo_open=True, hi_open=True)
        assert bounds(iv) == [(-math.inf, math.inf)]  # a face at +-inf stays
        assert holds(iv, 0.0)
        assert holds(iv, 1e300)
        assert holds(iv, -1e300)

    def test_empty_when_reversed(self):
        assert empty(row(2.0, 1.0))

    def test_degenerate_closed_point_not_empty(self):
        iv = row(1.0, 1.0)
        assert not empty(iv)
        assert holds(iv, 1.0)

    def test_degenerate_open_point_is_empty(self):
        assert empty(row(1.0, 1.0, lo_open=True))
        assert empty(row(1.0, 1.0, hi_open=True))
        # only the infinite point: no double
        assert empty(row(math.inf, math.inf))
        assert empty(row(-math.inf, -math.inf))

    def test_length(self):
        """A constraint interval's length is its width; a reversed one is
        refused as a constraint, and is merely an empty row."""
        assert Constraints([1.0], [3.0]).volume() == 2.0
        assert Constraints([1.0], [3.0]).widths().tolist() == [2.0]
        with pytest.raises(ValueError):
            Constraints([3.0], [1.0])
        assert empty(row(3.0, 1.0))

    def test_str(self):
        """How a row renders: closed faces, the moved face as its double."""
        assert row(0.0, 1.0, lo_open=True).to_dicts() == [
            {
                "intervals": [
                    {"lo": 5e-324, "hi": 1.0, "lo_open": False, "hi_open": False}
                ]
            }
        ]
        assert row(-math.inf, 1.0).to_dicts()[0]["intervals"][0]["lo"] is None


class TestIntersect:
    def test_disjoint(self):
        a, b = row(0.0, 1.0), row(2.0, 3.0)
        assert bounds(minus(a, b)) == bounds(a)

    def test_touching_closed_endpoints_overlap(self):
        a, b = row(0.0, 1.0), row(1.0, 2.0)
        assert bounds(minus(a, b)) == [(0.0, math.nextafter(1.0, 0.0))]
        assert holds(a, 1.0) and not holds(minus(a, b), 1.0)

    def test_touching_open_endpoint_disjoint(self):
        a, b = row(0.0, 1.0, hi_open=True), row(1.0, 2.0)
        assert bounds(minus(a, b)) == bounds(a)

    def test_open_flag_wins_on_equal_bound(self):
        a, b = row(0.0, 1.0, lo_open=True), row(0.0, 1.0)
        assert bounds(minus(b, a)) == [(0.0, 0.0)]  # 0 is b's alone
        assert len(minus(a, b)) == 0

    @given(intervals(), intervals(), finite)
    def test_intersection_membership(self, a, b, x):
        in_both = holds(a, x) and not holds(minus(a, b), x)
        assert in_both == (holds(a, x) and holds(b, x))


class TestContainsInterval:
    def test_subset(self):
        assert len(minus(row(1.0, 2.0), row(0.0, 10.0))) == 0

    def test_equal_is_subset(self):
        iv = row(0.0, 1.0)
        assert len(minus(iv, iv)) == 0

    def test_open_cannot_contain_closed_at_same_bound(self):
        a, b = row(0.0, 1.0, lo_open=True), row(0.0, 1.0)
        assert len(minus(b, a)) == 1
        assert len(minus(a, b)) == 0

    def test_empty_is_subset_of_anything(self):
        assert len(minus(row(2.0, 1.0), row(5.0, 6.0))) == 0

    @given(intervals(), intervals())
    def test_containment_consistent_with_intersection(self, a, b):
        if len(minus(b, a)) == 0 and not empty(b):
            # b subset of a  =>  every double of b is in a
            lo, hi = bounds(b)[0]
            for x in (lo, hi, lo / 2 + hi / 2):
                if holds(b, x):
                    assert holds(a, x)


class TestBelowAbove:
    def test_below_strict(self):
        _, below = row(0.0, 10.0).split_corner([5.0])
        assert bounds(below) == [(0.0, math.nextafter(5.0, 0.0))]
        assert holds(below, 4.999)
        assert not holds(below, 5.0)

    def test_above_closed_by_default(self):
        above, _ = row(0.0, 10.0).split_corner([5.0])
        assert holds(above, 5.0)
        assert holds(above, 10.0)
        assert not holds(above, 4.999)

    @given(intervals(), finite, finite)
    def test_below_above_partition(self, iv, x, probe):
        """The two sides of a split at ``x`` partition the row exactly."""
        above, below = iv.split_corner([x])
        in_below = holds(below, probe)
        in_above = holds(above, probe)
        assert not (in_below and in_above)
        assert (in_below or in_above) == holds(iv, probe)
