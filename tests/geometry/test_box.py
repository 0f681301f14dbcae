"""Unit and property tests for :mod:`repro.geometry.box`.

The reference every :class:`BoxSet` operation is held to is
``tests/geometry/regions.py``: the same cuts, one box at a time in Python
floats.  A box in these tests is a pair ``(lo, hi)`` of closed bounds; an
open face at a finite ``v`` is written as the adjacent double inside it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.shaping import shape
from repro.geometry.box import BoxSet
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable
from tests.geometry import regions as R
from tests.geometry.regions import INF, closed, rows_of


def boxset(boxes, ndim=None):
    """The ``BoxSet`` of a list of ``(lo, hi)`` boxes, in order."""
    if ndim is None:
        ndim = len(boxes[0][0])
    lo = np.array([box[0] for box in boxes], dtype=float).reshape(len(boxes), ndim)
    hi = np.array([box[1] for box in boxes], dtype=float).reshape(len(boxes), ndim)
    return BoxSet(lo, hi)


def below(v):
    """The closed face of an open upper face at ``v``."""
    return math.nextafter(v, -INF)


def above(v):
    """The closed face of an open lower face at ``v``."""
    return math.nextafter(v, INF)


def boxes(ndim, lo=-10.0, hi=10.0):
    coord = st.floats(min_value=lo, max_value=hi)
    return st.builds(
        lambda los, his: closed(
            [min(a, b) for a, b in zip(los, his)],
            [max(a, b) for a, b in zip(los, his)],
        ),
        st.lists(coord, min_size=ndim, max_size=ndim),
        st.lists(coord, min_size=ndim, max_size=ndim),
    )


def total_volume(boxes):
    return sum(R.volume(box) for box in rows_of(boxes))


def points(ndim, n=32, lo=-12.0, hi=12.0):
    return arrays(
        np.float64,
        (n, ndim),
        elements=st.floats(min_value=lo, max_value=hi),
    )


class TestBasics:
    def test_closed_roundtrip(self):
        box = closed([0.0, 1.0], [2.0, 3.0])
        rows = boxset([box])
        assert rows.ndim == 2 and len(rows) == 1
        assert rows_of(rows) == [([0.0, 1.0], [2.0, 3.0])]

    def test_closed_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            closed([0.0], [1.0, 2.0])

    def test_contains_point(self):
        box = closed([0.0, 0.0], [1.0, 1.0])
        pts = np.array([[0.5, 0.5], [0.0, 1.0], [1.5, 0.5]])
        np.testing.assert_array_equal(boxset([box]).mask(pts)[0], [True, True, False])
        assert [R.contains(box, p) for p in pts] == [True, True, False]

    def test_mask_respects_open_faces(self):
        """An open face is the closed face one double inside it: the point
        on the plane is out, everything past it in."""
        box = ([above(0.0), 0.0], [1.0, 1.0])
        pts = np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 1.0], [above(0.0), 0.0]])
        expected = [False, True, True, True]
        np.testing.assert_array_equal(boxset([box]).mask(pts)[0], expected)
        np.testing.assert_array_equal(R.mask([box], pts), expected)

    def test_mask_shape_validation(self):
        rows = boxset([closed([0.0], [1.0])])
        with pytest.raises(ValueError):
            rows.mask(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            rows.union_mask(np.zeros(3))

    def test_volume(self):
        assert R.volume(closed([0.0, 0.0], [2.0, 3.0])) == 6.0
        assert R.volume(closed([0.0], [0.0])) == 0.0
        assert R.volume(closed([1.0, 0.0], [0.0, 3.0])) == 0.0

    def test_universe_contains_everything(self):
        universe = ([-INF] * 3, [INF] * 3)
        pts = np.array([[1e9, -1e9, 0.0], [np.finfo(float).max, 0.0, -1.0]])
        assert boxset([universe]).mask(pts).all()
        assert R.mask([universe], pts).all()
        assert not boxset([universe]).is_empty()[0]

    def test_corner_at_least(self):
        """The inside of a corner cut of the whole plane is ``DR(u)``."""
        inside, _ = boxset([([-INF] * 2, [INF] * 2)]).split_corner([1.0, 2.0])
        assert rows_of(inside) == [R.corner([1.0, 2.0])]
        pts = np.array([[1.0, 2.0], [5.0, 5.0], [0.5, 5.0]])
        np.testing.assert_array_equal(inside.union_mask(pts), [True, True, False])

    def test_ndim_mismatch_raises(self):
        rows = boxset([closed([0.0], [1.0])])
        with pytest.raises(ValueError):
            rows.split_corner([0.0, 0.0])
        with pytest.raises(ValueError):
            rows.subtract_corners([[0.0, 0.0]])
        with pytest.raises(ValueError):
            R.subtract_corner(closed([0.0], [1.0]), [0.0, 0.0])


class TestSetAlgebra:
    def test_intersect_simple(self):
        a = closed([0.0, 0.0], [2.0, 2.0])
        b = closed([1.0, 1.0], [3.0, 3.0])
        assert R.intersect(a, b) == ([1.0, 1.0], [2.0, 2.0])
        # a corner cut's inside is the intersection with the corner region
        inside, _ = boxset([a]).split_corner([1.0, 1.0])
        assert rows_of(inside) == [([1.0, 1.0], [2.0, 2.0])]

    def test_overlaps_touching_faces(self):
        """Closed boxes that touch share the face: taking one from the
        other moves the face one double away."""
        a = closed([0.0, 0.0], [1.0, 1.0])
        b = closed([1.0, 0.0], [2.0, 1.0])
        assert R.meets(a, b)
        got = BoxSet.difference(*map(np.array, a), *map(np.array, b))
        assert rows_of(got) == [([0.0, 0.0], [below(1.0), 1.0])]

    def test_contains_box(self):
        outer = closed([0.0, 0.0], [10.0, 10.0])
        inner = closed([1.0, 1.0], [2.0, 2.0])
        assert len(BoxSet.difference(*map(np.array, inner), *map(np.array, outer))) == 0
        assert len(BoxSet.difference(*map(np.array, outer), *map(np.array, inner))) == 4

    @given(boxes(2), boxes(2), points(2))
    def test_intersection_membership(self, a, b, pts):
        np.testing.assert_array_equal(
            R.mask([R.intersect(a, b)], pts), R.mask([a], pts) & R.mask([b], pts)
        )
        inside, _ = boxset([a]).split_corner(b[0])
        np.testing.assert_array_equal(
            inside.union_mask(pts), R.mask([a], pts) & (pts >= b[0]).all(axis=1)
        )


def difference(a, b):
    return BoxSet.difference(*map(np.array, a), *map(np.array, b))


class TestSubtractBox:
    def test_hole_in_middle_2d(self):
        outer = closed([0.0, 0.0], [10.0, 10.0])
        hole = closed([4.0, 4.0], [6.0, 6.0])
        pieces = difference(outer, hole)
        assert R.pairwise_disjoint(pieces)
        assert math.isclose(total_volume(pieces), 100.0 - 4.0)

    def test_no_overlap_returns_self(self):
        a = closed([0.0, 0.0], [1.0, 1.0])
        b = closed([5.0, 5.0], [6.0, 6.0])
        assert rows_of(difference(a, b)) == [a]

    def test_full_cover_returns_empty(self):
        a = closed([1.0, 1.0], [2.0, 2.0])
        b = closed([0.0, 0.0], [3.0, 3.0])
        assert rows_of(difference(a, b)) == []

    @given(boxes(3), boxes(3), points(3))
    @settings(max_examples=60)
    def test_partition_property(self, a, b, pts):
        """Pieces of a \\ b plus a & b exactly tile a (point-wise)."""
        in_pieces = difference(a, b).union_mask(pts)
        in_inter = R.mask([R.intersect(a, b)], pts)
        # disjoint decomposition: piece-membership and intersection-membership
        # never overlap, and together equal membership in a.
        assert not np.any(in_pieces & in_inter)
        np.testing.assert_array_equal(in_pieces | in_inter, R.mask([a], pts))

    @given(boxes(2), boxes(2))
    @settings(max_examples=60)
    def test_pieces_pairwise_disjoint(self, a, b):
        assert R.pairwise_disjoint(difference(a, b))


class TestSubtractCorner:
    def test_2d_corner(self):
        box = closed([0.0, 0.0], [10.0, 10.0])
        pieces = boxset([box]).subtract_corners([[4.0, 6.0]])
        assert len(pieces) == 2
        assert R.pairwise_disjoint(pieces)
        # volume removed: (10-4) * (10-6) = 24
        assert math.isclose(total_volume(pieces), 100.0 - 24.0)

    def test_corner_outside_box_is_noop(self):
        box = closed([0.0, 0.0], [1.0, 1.0])
        assert rows_of(boxset([box]).subtract_corners([[5.0, 5.0]])) == [box]
        _, outside = boxset([box]).split_corner([5.0, 5.0])
        assert math.isclose(total_volume(outside), 1.0)

    def test_corner_below_box_removes_all(self):
        pieces = boxset([closed([1.0, 1.0], [2.0, 2.0])]).subtract_corners([[0.0, 0.0]])
        assert len(pieces) == 0

    def test_piece_count_bounded_by_ndim(self):
        _, pieces = boxset([closed([0.0] * 5, [1.0] * 5)]).split_corner([0.5] * 5)
        assert len(pieces) == 5

    @given(
        boxes(3),
        st.lists(st.floats(min_value=-12, max_value=12), min_size=3, max_size=3),
        points(3),
    )
    @settings(max_examples=60)
    def test_corner_partition_property(self, box, corner, pts):
        inside, outside = boxset([box]).split_corner(corner)
        in_pieces = outside.union_mask(pts)
        in_corner = inside.union_mask(pts)
        np.testing.assert_array_equal(
            in_corner, R.mask([R.intersect(box, R.corner(corner))], pts)
        )
        assert not np.any(in_pieces & in_corner)
        np.testing.assert_array_equal(in_pieces | in_corner, R.mask([box], pts))

    @given(
        boxes(2),
        st.lists(st.floats(min_value=-12, max_value=12), min_size=2, max_size=2),
    )
    @settings(max_examples=60)
    def test_corner_pieces_disjoint(self, box, corner):
        assert R.pairwise_disjoint(boxset([box]).split_corner(corner)[1])


def lattice(*axes):
    """One row on every point of the product of ``axes``: the dimensions are
    independent, so the table's forecast of a box is its exact row count."""
    return np.array(list(itertools.product(*axes)), dtype=float)


def issued(boxes, rows, page_size=1):
    """What the planner issues for ``boxes`` over a table of ``rows``
    (:func:`repro.core.shaping.shape`).  At one row per page a bounding box
    never fits in the pages of its largest member, so boxes coalesce only
    where they tile it -- what the deleted tile merge decided by geometry."""
    table = DiskTable(rows, cost_model=DiskCostModel(page_size=page_size))
    return rows_of(shape(boxset(boxes, ndim=rows.shape[1]), table.forecast).boxes)


HALVES = [0.0, 0.5, 1.0, 1.5, 2.0]


class TestMergeAlignedBoxes:
    """The cases the tile merge (``BoxSet.merged``, deleted) was pinned on,
    now decided by the shaping pass against rows that sit *on* the faces."""

    def test_merges_abutting_halves(self):
        a = ([0.0, 0.0], [below(1.0), 1.0])
        b = ([1.0, 0.0], [2.0, 1.0])
        merged = issued([a, b], lattice(HALVES, HALVES[:3]))
        assert merged == [([0.0, 0.0], [2.0, 1.0])]
        for point in ([1.0, 0.5], [0.0, 0.0], [2.0, 1.0]):
            assert R.contains(merged[0], point)

    def test_does_not_merge_with_gap(self):
        a = ([0.0, 0.0], [below(1.0), 1.0])
        b = ([above(1.0), 0.0], [2.0, 1.0])
        # x=1.0 in neither, and rows sit there: the hull would read them
        assert issued([a, b], lattice(HALVES, HALVES[:3])) == [a, b]
        # nothing to read in the gap: one fetch, the same rows
        gapless = lattice([0.0, 0.5, 1.5, 2.0], HALVES[:3])
        assert issued([a, b], gapless) == [([0.0, 0.0], [2.0, 1.0])]

    def test_does_not_merge_across_different_cross_sections(self):
        a = ([0.0, 0.0], [below(1.0), 1.0])
        b = ([1.0, 0.0], [2.0, 2.0])
        assert issued([a, b], lattice(HALVES, HALVES)) == [a, b]

    def test_chains_of_merges(self):
        slabs = [([float(i), 0.0], [below(i + 1.0), 1.0]) for i in range(5)]
        merged = issued(slabs, lattice(np.arange(0.0, 5.5, 0.5), HALVES[:3]))
        assert merged == [([0.0, 0.0], [below(5.0), 1.0])]

    def test_drops_empty_boxes(self):
        rows = lattice(HALVES, HALVES)
        empty = closed([1.0, 1.0], [0.0, 0.0])
        assert issued([empty], rows) == []
        # ... and the boxes no row lies in: the table answers them unasked
        between = ([above(0.0)] * 2, [below(0.5)] * 2)
        assert issued([between], rows) == []
        assert issued([between, closed([1.0, 1.0], [2.0, 2.0])], rows) == [
            closed([1.0, 1.0], [2.0, 2.0])
        ]

    @given(
        boxes(2),
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)), max_size=4
        ),
        points(2),
    )
    @settings(max_examples=60)
    def test_merge_preserves_coverage(self, base, corners, pts):
        """Shaping a corner-subtraction tiling loses no row of the table,
        reads none twice and stays inside the tiled box."""
        pieces = [base]
        for corner in corners:
            pieces = [p for piece in pieces for p in R.subtract_corner(piece, corner)]
        merged = issued(pieces, pts, page_size=128)
        assert len(merged) <= max(len(pieces), 1)
        assert R.pairwise_disjoint(merged)
        assert all(R.intersect(base, box) == box for box in merged)
        covered = R.mask(merged, pts)
        assert covered[R.mask(pieces, pts)].all()
        if merged:
            assert boxset(merged).mask(pts).sum(axis=0).max() <= 1


# ----------------------------------------------------------------------
# BoxSet: the whole-set kernel against the box-by-box reference
# ----------------------------------------------------------------------
#: few distinct coordinates, so faces, corners and duplicates coincide often
GRID = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]


def face(value, is_open, toward):
    """A face at ``value``, or, open, the adjacent double toward the inside
    (a face at +-inf stays where it is)."""
    moves = is_open and math.isfinite(value)
    return math.nextafter(value, toward) if moves else value


def interval(lo, hi, lo_open, hi_open):
    """One dimension's closed ``(lo, hi)``, each face open or closed."""
    return face(lo, lo_open, INF), face(hi, hi_open, -INF)


def grid_intervals():
    """Intervals over GRID and +-inf: open and closed faces mixed, bounds not
    ordered (so some are empty)."""
    return st.builds(
        interval,
        st.sampled_from([-INF] + GRID),
        st.sampled_from(GRID + [INF]),
        st.booleans(),
        st.booleans(),
    )


#: GRID, each value's neighbouring doubles and +-inf, for both bounds: faces
#: one ulp apart, corners on a face or one ulp off it, and the empty rows
#: ``[inf, inf]`` / ``[-inf, -inf]``
EDGES = sorted(
    {INF, -INF}
    | {math.nextafter(v, side) for v in GRID for side in (-INF, v, INF)}
)


@st.composite
def edge_intervals(draw):
    """Intervals over EDGES, open and closed faces mixed; one in eight has
    its bounds the wrong way round (most rows of a box must hold a double
    for its pieces to be worth comparing)."""
    lo, hi = sorted(draw(st.lists(st.sampled_from(EDGES), min_size=2, max_size=2)))
    if draw(st.integers(0, 7)) == 0:
        lo, hi = hi, lo
    return interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def grid_boxes(ndim, intervals=grid_intervals):
    """Boxes of ``ndim`` intervals, as ``(lo, hi)``."""
    return st.lists(intervals(), min_size=ndim, max_size=ndim).map(
        lambda ivs: ([lo for lo, _ in ivs], [hi for _, hi in ivs])
    )


@st.composite
def box_lists(draw, max_size=6, intervals=grid_intervals):
    """``(ndim, boxes)`` with d in 1..5, duplicates and empty rows included."""
    ndim = draw(st.integers(1, 5))
    boxes = draw(st.lists(grid_boxes(ndim, intervals), max_size=max_size))
    repeats = draw(st.lists(st.sampled_from(boxes), max_size=2)) if boxes else []
    return ndim, boxes + repeats


def edge_lists():
    return box_lists(intervals=edge_intervals)


@st.composite
def edge_lists_with_corners(draw):
    """``(ndim, boxes, corners)``: one to four corners over EDGES."""
    ndim, boxes = draw(edge_lists())
    corner = st.lists(st.sampled_from(EDGES), min_size=ndim, max_size=ndim)
    return ndim, boxes, draw(st.lists(corner, min_size=1, max_size=4))


#: probe points: every EDGES value that is finite, and one between each pair
PROBES = sorted(
    {v for v in EDGES if math.isfinite(v)} | {-2.5, -1.5, -0.5, 0.25, 0.75, 1.5, 2.5}
)


def probes(data, ndim, n=16):
    return data.draw(arrays(np.float64, (n, ndim), elements=st.sampled_from(PROBES)))


def same_doubles(got, expected, pts):
    """The kernel's rows admit exactly the probe points the operation's
    definition admits (``expected``), computed point by point with no cut:
    dropping pieces that hold no double loses no point."""
    np.testing.assert_array_equal(got.union_mask(pts), expected)


def outside_corners(pts, corners):
    """Which probe points lie in no corner region ``{p | p >= u}``."""
    inside = np.zeros(len(pts), dtype=bool)
    for corner in corners:
        inside |= (pts >= np.array(corner)).all(axis=1)
    return ~inside


class TestBoxSetAgainstBox:
    """Every set operation returns, row by row and in order, what the
    box-by-box reference (``tests/geometry/regions.py``) returns, by exact
    float equality.  Named for the per-box ``Box`` methods the kernel was
    first held against; the reference keeps their cuts and row order on
    closed bounds."""

    @given(edge_lists())
    def test_roundtrip_keeps_rows_and_python_types(self, drawn):
        """``to_dicts`` renders every row as it is: Python floats, +-inf as
        None, closed faces; read back, the rows are the same."""
        ndim, boxes = drawn
        rows = boxset(boxes, ndim)
        assert len(rows) == len(boxes) and rows.ndim == ndim
        assert rows_of(rows) == rows_of(boxes)
        rendered = rows.to_dicts()
        back = []
        for row in rendered:
            ivs = row["intervals"]
            assert len(ivs) == ndim
            for iv in ivs:  # json.dumps rejects numpy scalars
                assert list(iv) == ["lo", "hi", "lo_open", "hi_open"]
                assert iv["lo"] is None or type(iv["lo"]) is float
                assert iv["hi"] is None or type(iv["hi"]) is float
                assert iv["lo_open"] is False and iv["hi_open"] is False
            back.append(
                (
                    [-INF if iv["lo"] is None else iv["lo"] for iv in ivs],
                    [INF if iv["hi"] is None else iv["hi"] for iv in ivs],
                )
            )
        # None reads back as the face at infinity on its own side
        assert back == [
            (
                [-INF if math.isinf(a) else a for a in lo],
                [INF if math.isinf(b) else b for b in hi],
            )
            for lo, hi in rows_of(boxes)
        ]

    @given(edge_lists_with_corners(), st.data())
    def test_split_corner(self, drawn, data):
        """``split_corners`` against the reference's corner subtraction
        applied one corner after another, each on the pieces the previous
        one left."""
        ndim, boxes, corners = drawn
        rows = boxset(boxes, ndim)
        pairs = list(rows.split_corners(corners))
        assert len(pairs) == len(corners)
        assert list(map(rows_of, rows.split_corner(corners[0]))) == list(
            map(rows_of, pairs[0])
        )
        reference = R.split_corners(boxes, corners)
        for (inside, outside), (ref_inside, ref_outside) in zip(pairs, reference):
            assert rows_of(inside) == ref_inside
            assert rows_of(outside) == ref_outside
        pts = probes(data, ndim)
        expected = R.mask(boxes, pts) & outside_corners(pts, corners)
        same_doubles(pairs[-1][1], expected, pts)

    @given(edge_lists_with_corners(), st.data())
    def test_subtract_corner_cuts_only_rows_that_meet_the_corner(self, drawn, data):
        """``subtract_corners`` against the reference's corner subtraction
        applied one corner after another, a row that misses the corner kept
        whole."""
        ndim, boxes, corners = drawn
        got = boxset(boxes, ndim).subtract_corners(corners)
        assert rows_of(got) == R.subtract_corners(boxes, corners)
        pts = probes(data, ndim)
        same_doubles(got, R.mask(boxes, pts) & outside_corners(pts, corners), pts)

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.tuples(
                grid_boxes(d, edge_intervals), grid_boxes(d, edge_intervals)
            )
        ),
        st.data(),
    )
    def test_difference(self, drawn, data):
        """New territory, one closed box minus another, against the
        reference's box subtraction."""
        row, other = drawn
        got = difference(row, other)
        assert rows_of(got) == R.subtract_box(row, other)
        pts = probes(data, len(row[0]))
        same_doubles(got, R.mask([row], pts) & ~R.mask([other], pts), pts)

    def test_a_piece_without_a_double_is_dropped(self):
        """``[a, 1] x [0, 1]`` with ``a = nextafter(0.5)``, minus the corner
        at ``(a, 0.5)``: the first piece would be ``[a, 0.5]`` on x, which
        holds no double.  It is dropped; the second is kept."""
        after = above(0.5)
        row = ([after, 0.0], [1.0, 1.0])
        corner = [after, 0.5]
        assert not R.holds_a_double(([after, 0.0], [0.5, 1.0]))
        expected = [([after, 0.0], [1.0, below(0.5)])]
        assert R.subtract_corner(row, corner) == expected
        got = boxset([row]).subtract_corners([corner])
        assert rows_of(got) == expected
        grid = np.array([[x, y] for x in (0.5, after, 0.75) for y in (0.0, 0.5, 1.0)])
        np.testing.assert_array_equal(
            got.union_mask(grid),
            R.mask([row], grid) & outside_corners(grid, [corner]),
        )

    @given(edge_lists(), st.data())
    def test_emptiness_and_mask(self, drawn, data):
        ndim, boxes = drawn
        pts = probes(data, ndim, n=9)
        rows = boxset(boxes, ndim)
        assert rows.is_empty().tolist() == [not R.holds_a_double(b) for b in boxes]
        kept = ~rows.is_empty()
        assert rows_of(BoxSet(rows.lo[kept], rows.hi[kept])) == R.solid(boxes)
        np.testing.assert_array_equal(
            rows.mask(pts), np.array([R.mask([b], pts) for b in boxes]).reshape(-1, 9)
        )
        np.testing.assert_array_equal(rows.union_mask(pts), R.mask(boxes, pts))

    @given(edge_lists())
    def test_pairwise_disjoint(self, drawn):
        """The reference's disjointness test -- the one the MPR, shaping and
        state-machine tests call -- against its definition, pair by pair."""
        _, boxes = drawn
        assert R.pairwise_disjoint(boxes) == (
            not any(R.meets(a, b) for a, b in itertools.combinations(boxes, 2))
        )
        assert R.pairwise_disjoint(boxset(boxes) if boxes else []) == (
            R.pairwise_disjoint(boxes)
        )

    def test_masks_run_in_row_blocks(self):
        """More cells than one block holds: same answer, block by block."""
        rng = np.random.default_rng(3)
        lo = rng.random((300, 3))
        boxes = [closed(a, a + 0.2) for a in lo]
        pts = rng.random((400, 3))
        rows = boxset(boxes)
        expected = np.array([R.mask([b], pts) for b in boxes])
        np.testing.assert_array_equal(rows.mask(pts), expected)
        np.testing.assert_array_equal(rows.union_mask(pts), expected.any(axis=0))

    def test_mixed_dimensionality_raises(self):
        one = boxset([closed([0.0], [1.0])])
        two = boxset([closed([0.0] * 2, [1.0] * 2)])
        with pytest.raises(ValueError):
            one.subtract_corners([[0.0, 0.0]])
        with pytest.raises(ValueError):
            BoxSet.concat([one, two])


class TestMergedAgainstGreedyRestart:
    """Named for the restart loop the tile merge was held against.  What is
    held now is the shaping pass on lattice data at one row per page, where
    it reduces to dropping the boxes no row lies in and coalescing exact
    tilings: the same rows are read, each once, in no more range queries."""

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                grid_boxes(d).filter(R.holds_a_double),
                st.lists(
                    st.lists(st.sampled_from(GRID), min_size=d, max_size=d),
                    max_size=3,
                ),
                st.lists(
                    st.tuples(st.integers(0, d - 1), st.sampled_from(GRID)),
                    min_size=1,
                    max_size=3,
                ),
            )
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150)
    def test_shattered_corner_tilings(self, drawn, random):
        """Tilings made by repeated corner subtraction, then cut along a few
        more planes so that several hulls chain and compete."""
        base, corners, cuts = drawn
        ndim = len(base[0])
        pieces = [base]
        for corner in corners:
            pieces = [p for b in pieces for p in R.subtract_corner(b, corner)]
        for dim, at in cuts:
            halves = []
            for lo, hi in pieces:
                down = (lo, hi[:dim] + [min(hi[dim], below(at))] + hi[dim + 1 :])
                up = (lo[:dim] + [max(lo[dim], at)] + lo[dim + 1 :], hi)
                halves += [half for half in (down, up) if R.holds_a_double(half)]
            pieces = halves
        rows = lattice(*[GRID] * ndim)
        merged = issued(pieces, rows)
        assert len(merged) <= len(pieces)
        assert R.pairwise_disjoint(merged)
        np.testing.assert_array_equal(R.mask(merged, rows), R.mask(pieces, rows))

        # which boxes come out does not depend on the order they went in
        def key(boxes):
            return {(tuple(lo), tuple(hi)) for lo, hi in boxes}

        random.shuffle(pieces)
        assert key(issued(pieces, rows)) == key(merged)

    @given(box_lists(max_size=8))
    def test_arbitrary_sets(self, drawn):
        """Overlapping, duplicated and empty input: no row is lost and
        nothing outside the input's bounding box is asked for."""
        ndim, boxes = drawn
        rows = lattice(*[GRID] * ndim)
        merged = issued(boxes, rows)
        assert len(merged) <= len(boxes)
        assert R.mask(merged, rows)[R.mask(boxes, rows)].all()
        live = R.solid(boxes)
        for lo, hi in merged:
            for dim in range(ndim):
                assert lo[dim] >= min(b[0][dim] for b in live)
                assert hi[dim] <= max(b[1][dim] for b in live)

    def test_shuffled_chain_longer_than_64(self):
        chain = [([float(i), 0.0], [below(i + 1.0), 1.0]) for i in range(90)]
        np.random.default_rng(0).shuffle(chain)
        rows = lattice(np.arange(0.0, 90.0, 0.5), HALVES[:3])
        assert issued(chain, rows) == [([0.0, 0.0], [below(90.0), 1.0])]

    def test_chain_spanning_several_row_blocks(self):
        """600 boxes and a row on every face between them."""
        chain = [([float(i), 0.0], [below(i + 1.0), 1.0]) for i in range(600)]
        rows = lattice(np.arange(0.0, 600.0, 0.5), HALVES[:3])
        assert issued(chain, rows) == [([0.0, 0.0], [below(600.0), 1.0])]
