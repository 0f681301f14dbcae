"""Unit and property tests for :mod:`repro.geometry.box`."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.shaping import shape
from repro.geometry.box import Box, BoxSet, pairwise_disjoint, union_mask
from repro.geometry.interval import Interval
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable


def boxes(ndim, lo=-10.0, hi=10.0):
    coord = st.floats(min_value=lo, max_value=hi)
    return st.builds(
        lambda los, his: Box.closed(
            [min(a, b) for a, b in zip(los, his)],
            [max(a, b) for a, b in zip(los, his)],
        ),
        st.lists(coord, min_size=ndim, max_size=ndim),
        st.lists(coord, min_size=ndim, max_size=ndim),
    )


def total_volume(boxes):
    return sum(box.volume() for box in boxes)


def closed(boxes):
    """``boxes`` with every open face moved to the adjacent double inside."""
    return BoxSet.of(boxes).boxes()


def points(ndim, n=32, lo=-12.0, hi=12.0):
    return arrays(
        np.float64,
        (n, ndim),
        elements=st.floats(min_value=lo, max_value=hi),
    )


class TestBasics:
    def test_closed_roundtrip(self):
        box = Box.closed([0.0, 1.0], [2.0, 3.0])
        assert box.ndim == 2
        np.testing.assert_array_equal(box.lo(), [0.0, 1.0])
        np.testing.assert_array_equal(box.hi(), [2.0, 3.0])

    def test_closed_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Box.closed([0.0], [1.0, 2.0])

    def test_contains_point(self):
        box = Box.closed([0.0, 0.0], [1.0, 1.0])
        assert box.contains_point([0.5, 0.5])
        assert box.contains_point([0.0, 1.0])
        assert not box.contains_point([1.5, 0.5])

    def test_mask_respects_open_faces(self):
        box = Box(
            [
                Interval(0.0, 1.0, lo_open=True),
                Interval.closed(0.0, 1.0),
            ]
        )
        pts = np.array([[0.0, 0.5], [0.5, 0.5], [1.0, 1.0]])
        np.testing.assert_array_equal(box.mask(pts), [False, True, True])

    def test_mask_shape_validation(self):
        box = Box.closed([0.0], [1.0])
        with pytest.raises(ValueError):
            box.mask(np.zeros((3, 2)))

    def test_volume(self):
        assert Box.closed([0.0, 0.0], [2.0, 3.0]).volume() == 6.0
        assert Box.closed([0.0], [0.0]).volume() == 0.0

    def test_universe_contains_everything(self):
        u = Box.universe(3)
        assert u.contains_point([1e9, -1e9, 0.0])

    def test_corner_at_least(self):
        corner = Box.corner_at_least([1.0, 2.0])
        assert corner.contains_point([1.0, 2.0])
        assert corner.contains_point([5.0, 5.0])
        assert not corner.contains_point([0.5, 5.0])

    def test_equality_and_hash(self):
        a = Box.closed([0.0, 0.0], [1.0, 1.0])
        b = Box.closed([0.0, 0.0], [1.0, 1.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Box.closed([0.0, 0.0], [1.0, 2.0])

    def test_ndim_mismatch_raises(self):
        with pytest.raises(ValueError):
            Box.closed([0.0], [1.0]).intersect(Box.closed([0.0, 0.0], [1.0, 1.0]))


class TestSetAlgebra:
    def test_intersect_simple(self):
        a = Box.closed([0.0, 0.0], [2.0, 2.0])
        b = Box.closed([1.0, 1.0], [3.0, 3.0])
        inter = a.intersect(b)
        np.testing.assert_array_equal(inter.lo(), [1.0, 1.0])
        np.testing.assert_array_equal(inter.hi(), [2.0, 2.0])

    def test_overlaps_touching_faces(self):
        a = Box.closed([0.0, 0.0], [1.0, 1.0])
        b = Box.closed([1.0, 0.0], [2.0, 1.0])
        assert a.overlaps(b)

    def test_contains_box(self):
        outer = Box.closed([0.0, 0.0], [10.0, 10.0])
        inner = Box.closed([1.0, 1.0], [2.0, 2.0])
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    @given(boxes(2), boxes(2), points(2))
    def test_intersection_membership(self, a, b, pts):
        inter_mask = a.intersect(b).mask(pts)
        np.testing.assert_array_equal(inter_mask, a.mask(pts) & b.mask(pts))


class TestSubtractBox:
    def test_hole_in_middle_2d(self):
        outer = Box.closed([0.0, 0.0], [10.0, 10.0])
        hole = Box.closed([4.0, 4.0], [6.0, 6.0])
        pieces = outer.subtract_box(hole)
        assert pairwise_disjoint(pieces)
        assert math.isclose(total_volume(pieces), 100.0 - 4.0)

    def test_no_overlap_returns_self(self):
        a = Box.closed([0.0, 0.0], [1.0, 1.0])
        b = Box.closed([5.0, 5.0], [6.0, 6.0])
        assert a.subtract_box(b) == [a]

    def test_full_cover_returns_empty(self):
        a = Box.closed([1.0, 1.0], [2.0, 2.0])
        b = Box.closed([0.0, 0.0], [3.0, 3.0])
        assert a.subtract_box(b) == []

    @given(boxes(3), boxes(3), points(3))
    @settings(max_examples=60)
    def test_partition_property(self, a, b, pts):
        """Pieces of a \\ b plus a & b exactly tile a (point-wise)."""
        pieces = a.subtract_box(b)
        in_pieces = union_mask(pieces, pts)
        in_inter = a.intersect(b).mask(pts)
        in_a = a.mask(pts)
        # disjoint decomposition: piece-membership and intersection-membership
        # never overlap, and together equal membership in a.
        assert not np.any(in_pieces & in_inter)
        np.testing.assert_array_equal(in_pieces | in_inter, in_a)

    @given(boxes(2), boxes(2))
    @settings(max_examples=60)
    def test_pieces_pairwise_disjoint(self, a, b):
        assert pairwise_disjoint(a.subtract_box(b))


class TestSubtractCorner:
    def test_2d_corner(self):
        box = Box.closed([0.0, 0.0], [10.0, 10.0])
        pieces = box.subtract_corner([4.0, 6.0])
        assert len(pieces) == 2
        assert pairwise_disjoint(pieces)
        # volume removed: (10-4) * (10-6) = 24
        assert math.isclose(total_volume(pieces), 100.0 - 24.0)

    def test_corner_outside_box_is_noop(self):
        box = Box.closed([0.0, 0.0], [1.0, 1.0])
        pieces = box.subtract_corner([5.0, 5.0])
        assert math.isclose(total_volume(pieces), 1.0)

    def test_corner_below_box_removes_all(self):
        box = Box.closed([1.0, 1.0], [2.0, 2.0])
        assert box.subtract_corner([0.0, 0.0]) == []

    def test_piece_count_bounded_by_ndim(self):
        box = Box.closed([0.0] * 5, [1.0] * 5)
        pieces = box.subtract_corner([0.5] * 5)
        assert len(pieces) <= 5

    @given(
        boxes(3),
        st.lists(st.floats(min_value=-12, max_value=12), min_size=3, max_size=3),
        points(3),
    )
    @settings(max_examples=60)
    def test_corner_partition_property(self, box, corner, pts):
        pieces = box.subtract_corner(corner)
        corner_box = Box.corner_at_least(corner)
        in_pieces = union_mask(pieces, pts)
        in_corner = box.intersect(corner_box).mask(pts)
        in_box = box.mask(pts)
        assert not np.any(in_pieces & in_corner)
        np.testing.assert_array_equal(in_pieces | in_corner, in_box)

    @given(
        boxes(2),
        st.lists(st.floats(min_value=-12, max_value=12), min_size=2, max_size=2),
    )
    @settings(max_examples=60)
    def test_corner_pieces_disjoint(self, box, corner):
        assert pairwise_disjoint(box.subtract_corner(corner))


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
    return shape(BoxSet.of(boxes, ndim=rows.shape[1]), table.forecast).boxes.boxes()


HALVES = [0.0, 0.5, 1.0, 1.5, 2.0]


class TestMergeAlignedBoxes:
    """The cases the tile merge (``BoxSet.merged``, deleted) was pinned on,
    now decided by the shaping pass against rows that sit *on* the faces."""

    def test_merges_abutting_halves(self):
        a = Box([Interval(0.0, 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
        b = Box([Interval.closed(1.0, 2.0), Interval.closed(0.0, 1.0)])
        merged = issued([a, b], lattice(HALVES, HALVES[:3]))
        assert merged == [Box.closed([0.0, 0.0], [2.0, 1.0])]
        assert merged[0].contains_point([1.0, 0.5])
        assert merged[0].contains_point([0.0, 0.0])
        assert merged[0].contains_point([2.0, 1.0])

    def test_does_not_merge_with_gap(self):
        a = Box([Interval(0.0, 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
        b = Box([Interval(1.0, 2.0, lo_open=True), Interval.closed(0.0, 1.0)])
        # x=1.0 in neither, and rows sit there: the hull would read them
        assert issued([a, b], lattice(HALVES, HALVES[:3])) == closed([a, b])
        # nothing to read in the gap: one fetch, the same rows
        gapless = lattice([0.0, 0.5, 1.5, 2.0], HALVES[:3])
        (hull,) = issued([a, b], gapless)
        assert hull == Box(
            [Interval(0.0, 2.0, lo_open=False, hi_open=False), Interval.closed(0.0, 1.0)]
        )

    def test_does_not_merge_across_different_cross_sections(self):
        a = Box([Interval(0.0, 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
        b = Box([Interval.closed(1.0, 2.0), Interval.closed(0.0, 2.0)])
        assert issued([a, b], lattice(HALVES, HALVES)) == closed([a, b])

    def test_chains_of_merges(self):
        slabs = [
            Box([Interval(float(i), float(i + 1), hi_open=True),
                 Interval.closed(0.0, 1.0)])
            for i in range(5)
        ]
        merged = issued(slabs, lattice(np.arange(0.0, 5.5, 0.5), HALVES[:3]))
        assert merged == closed(
            [Box([Interval(0.0, 5.0, hi_open=True), Interval.closed(0.0, 1.0)])]
        )

    def test_drops_empty_boxes(self):
        rows = lattice(HALVES, HALVES)
        empty = Box.closed([1.0, 1.0], [0.0, 0.0])
        assert issued([empty], rows) == []
        # ... and the boxes no row lies in: the table answers them unasked
        between = Box([Interval(0.0, 0.5, lo_open=True, hi_open=True)] * 2)
        assert issued([between], rows) == []
        assert issued([between, Box.closed([1.0, 1.0], [2.0, 2.0])], rows) == [
            Box.closed([1.0, 1.0], [2.0, 2.0])
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
            pieces = [
                p for piece in pieces for p in piece.subtract_corner(corner)
            ]
        merged = issued(pieces, pts, page_size=128)
        assert len(merged) <= max(len(pieces), 1)
        assert pairwise_disjoint(merged)
        assert all(base.contains_box(box) for box in merged)
        covered = union_mask(merged, pts)
        assert covered[union_mask(pieces, pts)].all()
        if merged:
            assert BoxSet.of(merged).mask(pts).sum(axis=0).max() <= 1


# ----------------------------------------------------------------------
# BoxSet: the whole-set kernel against the one-box reference
# ----------------------------------------------------------------------
#: few distinct coordinates, so faces, corners and duplicates coincide often
GRID = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]


def grid_intervals():
    """Intervals over GRID and +-inf: open and closed faces mixed, bounds not
    ordered (so some are empty)."""
    return st.builds(
        Interval,
        st.sampled_from([-math.inf] + GRID),
        st.sampled_from(GRID + [math.inf]),
        st.booleans(),
        st.booleans(),
    )


#: GRID, each value's neighbouring doubles and +-inf, for both bounds: faces
#: one ulp apart, corners on a face or one ulp off it, and the empty rows
#: ``[inf, inf]`` / ``[-inf, -inf]``
EDGES = sorted(
    {math.inf, -math.inf}
    | {math.nextafter(v, side) for v in GRID for side in (-math.inf, v, math.inf)}
)


@st.composite
def edge_intervals(draw):
    """Intervals over EDGES, open and closed faces mixed; one in eight has
    its bounds the wrong way round (most rows of a box must hold a double
    for its pieces to be worth comparing)."""
    lo, hi = sorted(draw(st.lists(st.sampled_from(EDGES), min_size=2, max_size=2)))
    if draw(st.integers(0, 7)) == 0:
        lo, hi = hi, lo
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def grid_boxes(ndim, intervals=grid_intervals):
    return st.builds(Box, st.lists(intervals(), min_size=ndim, max_size=ndim))


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


def closed_bounds(box):
    """``box`` as closed float bounds, computed face by face: an open face at
    a finite value moves to the adjacent double inside, a face at +-inf
    stays.  Written out here rather than taken from ``BoxSet.of``."""
    def inside(value, is_open, toward):
        moves = is_open and math.isfinite(value)
        return math.nextafter(value, toward) if moves else value

    return (
        [inside(iv.lo, iv.lo_open, math.inf) for iv in box],
        [inside(iv.hi, iv.hi_open, -math.inf) for iv in box],
    )


def holds_a_double(bounds):
    lo, hi = bounds
    return all(a <= b and a < math.inf and b > -math.inf for a, b in zip(lo, hi))


def expected_rows(boxes):
    """The reference's boxes mapped to closed bounds, in order, without the
    ones that hold no double."""
    rows = [closed_bounds(box) for box in boxes]
    return [row for row in rows if holds_a_double(row)]


def rows_of(boxset):
    return list(zip(boxset.lo.tolist(), boxset.hi.tolist()))


#: probe points: every EDGES value that is finite, and one between each pair
PROBES = sorted(
    {v for v in EDGES if math.isfinite(v)} | {-2.5, -1.5, -0.5, 0.25, 0.75, 1.5, 2.5}
)


def same_doubles(reference, got, ndim, data):
    """The reference's boxes (real intervals) and the kernel's rows admit the
    same probe points: dropping pieces that hold no double loses no row."""
    pts = data.draw(arrays(np.float64, (16, ndim), elements=st.sampled_from(PROBES)))
    covered = np.zeros(len(pts), dtype=bool)
    for box in reference:
        covered |= box.mask(pts)
    np.testing.assert_array_equal(got.union_mask(pts), covered)


class TestBoxSetAgainstBox:
    """Every set operation returns, row by row and in order, what the
    per-box method returns mapped to closed bounds, by exact float equality.

    The one place they part: a piece such as ``(a, nextafter(a))`` holds a
    real number but no double, so ``Interval.is_empty`` keeps it and the set
    operations drop it -- which admits the same points."""

    @given(edge_lists())
    def test_roundtrip_keeps_rows_and_python_types(self, drawn):
        ndim, boxes = drawn
        rows = BoxSet.of(boxes, ndim=ndim)
        assert len(rows) == len(boxes) and rows.ndim == ndim
        assert rows_of(rows) == [closed_bounds(box) for box in boxes]
        assert rows_of(BoxSet.of(rows.boxes(), ndim=ndim)) == rows_of(rows)
        for box in rows.boxes():
            for iv in box:  # json.dumps rejects numpy booleans
                assert type(iv.lo) is float and type(iv.lo_open) is bool
                assert not iv.lo_open and not iv.hi_open

    @given(edge_lists_with_corners(), st.data())
    def test_split_corner(self, drawn, data):
        """``split_corners`` against :meth:`Box.subtract_corner` applied one
        corner after another, each on the pieces the previous one left."""
        ndim, boxes, corners = drawn
        rows = BoxSet.of(boxes, ndim=ndim)
        pairs = list(rows.split_corners(corners))
        assert len(pairs) == len(corners)
        assert list(map(rows_of, rows.split_corner(corners[0]))) == list(
            map(rows_of, pairs[0])
        )
        reference = boxes
        for corner, (inside, outside) in zip(corners, pairs):
            region = Box.corner_at_least(corner)
            hit = [b.intersect(region) for b in reference]
            assert rows_of(inside) == expected_rows(hit)
            reference = [p for b in reference for p in b.subtract_corner(corner)]
            assert rows_of(outside) == expected_rows(reference)
        same_doubles(reference, pairs[-1][1], ndim, data)

    @given(edge_lists_with_corners(), st.data())
    def test_subtract_corner_cuts_only_rows_that_meet_the_corner(self, drawn, data):
        """``subtract_corners`` against :meth:`Box.subtract_corner` applied
        one corner after another, a row that misses the corner kept whole."""
        ndim, boxes, corners = drawn
        got = BoxSet.of(boxes, ndim=ndim).subtract_corners(corners)
        reference = boxes
        for corner in corners:
            region = Box.corner_at_least(corner)
            reference = [
                p
                for b in reference
                if holds_a_double(closed_bounds(b))
                for p in (b.subtract_corner(corner) if b.overlaps(region) else [b])
            ]
        assert rows_of(got) == expected_rows(reference)
        same_doubles(reference, got, ndim, data)

    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.tuples(
                grid_boxes(d, edge_intervals), grid_boxes(d, edge_intervals)
            )
        ),
        st.data(),
    )
    def test_difference(self, drawn, data):
        """New territory, one closed box minus another, against
        :meth:`Box.subtract_box` of the two closed boxes: on closed faces
        an interval is empty exactly when it holds no double, so the rows
        agree one for one."""
        row, other = drawn
        lo, hi = map(np.array, closed_bounds(row))
        other_lo, other_hi = map(np.array, closed_bounds(other))
        got = BoxSet.difference(lo, hi, other_lo, other_hi)
        reference = Box.closed(lo, hi).subtract_box(Box.closed(other_lo, other_hi))
        assert rows_of(got) == expected_rows(reference)
        same_doubles(row.subtract_box(other), got, row.ndim, data)

    def test_a_piece_without_a_double_is_dropped(self):
        """``(0.5, 1] x [0, 1]`` minus the corner at ``(nextafter(0.5), 0.5)``:
        the reference's first piece is ``(0.5, nextafter(0.5))`` on x, a real
        interval holding no double.  The kernel drops it and keeps the
        second; both admit the same rows."""
        after = math.nextafter(0.5, math.inf)
        row = Box([Interval(0.5, 1.0, lo_open=True), Interval.closed(0.0, 1.0)])
        corner = [after, 0.5]
        reference = row.subtract_corner(corner)
        assert len(reference) == 2 and not reference[0].is_empty()
        got = BoxSet.of([row]).subtract_corners([corner])
        assert rows_of(got) == [([after, 0.0], [1.0, math.nextafter(0.5, 0.0)])]
        grid = np.array([[x, y] for x in (0.5, after, 0.75) for y in (0.0, 0.5, 1.0)])
        np.testing.assert_array_equal(
            got.union_mask(grid), union_mask(reference, grid)
        )

    @given(edge_lists(), st.data())
    def test_emptiness_and_mask(self, drawn, data):
        ndim, boxes = drawn
        pts = data.draw(arrays(np.float64, (9, ndim), elements=st.sampled_from(PROBES)))
        rows = BoxSet.of(boxes, ndim=ndim)
        assert rows.is_empty().tolist() == [
            not holds_a_double(closed_bounds(b)) for b in boxes
        ]
        kept = ~rows.is_empty()
        assert rows_of(BoxSet(rows.lo[kept], rows.hi[kept])) == expected_rows(boxes)
        np.testing.assert_array_equal(
            rows.mask(pts), np.array([b.mask(pts) for b in boxes]).reshape(-1, 9)
        )
        covered = np.zeros(9, dtype=bool)
        for box in boxes:
            covered |= box.mask(pts)
        np.testing.assert_array_equal(rows.union_mask(pts), covered)
        np.testing.assert_array_equal(union_mask(boxes, pts), covered)

    @given(edge_lists())
    def test_pairwise_disjoint(self, drawn):
        _, boxes = drawn

        def share_a_double(a, b):
            (a_lo, a_hi), (b_lo, b_hi) = closed_bounds(a), closed_bounds(b)
            return holds_a_double(
                ([max(x, y) for x, y in zip(a_lo, b_lo)],
                 [min(x, y) for x, y in zip(a_hi, b_hi)])
            )

        assert pairwise_disjoint(boxes) == (
            not any(share_a_double(a, b) for a, b in itertools.combinations(boxes, 2))
        )

    def test_masks_run_in_row_blocks(self):
        """More cells than one block holds: same answer, block by block."""
        rng = np.random.default_rng(3)
        lo = rng.random((300, 3))
        boxes = [Box.closed(a, a + 0.2) for a in lo]
        pts = rng.random((400, 3))
        rows = BoxSet.of(boxes)
        expected = np.array([b.mask(pts) for b in boxes])
        np.testing.assert_array_equal(rows.mask(pts), expected)
        np.testing.assert_array_equal(rows.union_mask(pts), expected.any(axis=0))

    def test_mixed_dimensionality_raises(self):
        mixed = [Box.closed([0.0], [1.0]), Box.closed([0.0, 0.0], [1.0, 1.0])]
        with pytest.raises(ValueError):
            BoxSet.of(mixed)
        with pytest.raises(ValueError):
            BoxSet.of(mixed[:1]).subtract_corners([[0.0, 0.0]])
        with pytest.raises(ValueError):
            BoxSet.concat([BoxSet.of(mixed[:1]), BoxSet.of(mixed[1:])])


class TestMergedAgainstGreedyRestart:
    """Named for the restart loop the tile merge was held against.  What is
    held now is the shaping pass on lattice data at one row per page, where
    it reduces to dropping the boxes no row lies in and coalescing exact
    tilings: the same rows are read, each once, in no more range queries."""

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                grid_boxes(d).filter(lambda box: not box.is_empty()),
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
        """Tilings made by repeated ``subtract_corner``, then cut along a few
        more planes so that several hulls chain and compete."""
        base, corners, cuts = drawn
        pieces = [base]
        for corner in corners:
            pieces = [p for b in pieces for p in b.subtract_corner(corner)]
        for dim, at in cuts:
            below = Interval(-math.inf, at, lo_open=True, hi_open=True)
            above = Interval(at, math.inf, lo_open=False, hi_open=True)
            pieces = [
                half
                for b in pieces
                for half in (b.replace(dim, below), b.replace(dim, above))
                if not half.is_empty()
            ]
        rows = lattice(*[GRID] * base.ndim)
        merged = issued(pieces, rows)
        assert len(merged) <= len(pieces)
        assert pairwise_disjoint(merged)
        np.testing.assert_array_equal(
            union_mask(merged, rows), union_mask(pieces, rows)
        )
        # which boxes come out does not depend on the order they went in
        random.shuffle(pieces)
        assert set(issued(pieces, rows)) == set(merged)

    @given(box_lists(max_size=8))
    def test_arbitrary_sets(self, drawn):
        """Overlapping, duplicated and empty input: no row is lost and
        nothing outside the input's bounding box is asked for."""
        ndim, boxes = drawn
        rows = lattice(*[GRID] * ndim)
        merged = issued(boxes, rows)
        assert len(merged) <= len(boxes)
        assert union_mask(merged, rows)[union_mask(boxes, rows)].all()
        live = [box for box in boxes if not box.is_empty()]
        for box in merged:
            for dim, iv in enumerate(box):
                assert iv.lo >= min(b.intervals[dim].lo for b in live)
                assert iv.hi <= max(b.intervals[dim].hi for b in live)

    def test_shuffled_chain_longer_than_64(self):
        chain = [
            Box([Interval(float(i), i + 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
            for i in range(90)
        ]
        np.random.default_rng(0).shuffle(chain)
        rows = lattice(np.arange(0.0, 90.0, 0.5), HALVES[:3])
        assert issued(chain, rows) == closed(
            [Box([Interval(0.0, 90.0, hi_open=True), Interval.closed(0.0, 1.0)])]
        )

    def test_chain_spanning_several_row_blocks(self):
        """600 boxes and a row on every face between them."""
        chain = [
            Box([Interval(float(i), i + 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
            for i in range(600)
        ]
        rows = lattice(np.arange(0.0, 600.0, 0.5), HALVES[:3])
        assert issued(chain, rows) == closed(
            [Box([Interval(0.0, 600.0, hi_open=True), Interval.closed(0.0, 1.0)])]
        )
