"""Unit and property tests for :mod:`repro.geometry.box`."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.shaping import shape
from repro.geometry.box import (
    Box,
    BoxSet,
    decompose_difference,
    pairwise_disjoint,
    total_volume,
    union_mask,
)
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
        assert issued([a, b], lattice(HALVES, HALVES[:3])) == [a, b]
        # nothing to read in the gap: one fetch, the same rows
        gapless = lattice([0.0, 0.5, 1.5, 2.0], HALVES[:3])
        (hull,) = issued([a, b], gapless)
        assert hull == Box(
            [Interval(0.0, 2.0, lo_open=False, hi_open=False), Interval.closed(0.0, 1.0)]
        )

    def test_does_not_merge_across_different_cross_sections(self):
        a = Box([Interval(0.0, 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
        b = Box([Interval.closed(1.0, 2.0), Interval.closed(0.0, 2.0)])
        assert issued([a, b], lattice(HALVES, HALVES)) == [a, b]

    def test_chains_of_merges(self):
        slabs = [
            Box([Interval(float(i), float(i + 1), hi_open=True),
                 Interval.closed(0.0, 1.0)])
            for i in range(5)
        ]
        merged = issued(slabs, lattice(np.arange(0.0, 5.5, 0.5), HALVES[:3]))
        assert merged == [
            Box([Interval(0.0, 5.0, hi_open=True), Interval.closed(0.0, 1.0)])
        ]

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


class TestDecomposeDifference:
    def test_multiple_removals(self):
        base = Box.closed([0.0, 0.0], [10.0, 10.0])
        removals = [
            Box.closed([0.0, 0.0], [5.0, 5.0]),
            Box.closed([5.0, 5.0], [10.0, 10.0]),
        ]
        pieces = decompose_difference(base, removals)
        assert pairwise_disjoint(pieces)
        # remaining: two 5x5 quadrants minus the shared boundary (measure 0)
        assert math.isclose(total_volume(pieces), 50.0)

    def test_removals_cover_base(self):
        base = Box.closed([0.0], [1.0])
        assert decompose_difference(base, [Box.closed([-1.0], [2.0])]) == []

    @given(boxes(2), st.lists(boxes(2), max_size=4), points(2))
    @settings(max_examples=50)
    def test_difference_property(self, base, removals, pts):
        pieces = decompose_difference(base, removals)
        in_pieces = union_mask(pieces, pts)
        expected = base.mask(pts) & ~union_mask(removals, pts)
        np.testing.assert_array_equal(in_pieces, expected)


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


def grid_boxes(ndim):
    return st.builds(Box, st.lists(grid_intervals(), min_size=ndim, max_size=ndim))


@st.composite
def box_lists(draw, max_size=6):
    """``(ndim, boxes)`` with d in 1..5, duplicates and empty rows included."""
    ndim = draw(st.integers(1, 5))
    boxes = draw(st.lists(grid_boxes(ndim), max_size=max_size))
    repeats = draw(st.lists(st.sampled_from(boxes), max_size=2)) if boxes else []
    return ndim, boxes + repeats


@st.composite
def box_lists_with_corner(draw):
    ndim, boxes = draw(box_lists())
    corner = draw(st.lists(st.sampled_from(GRID), min_size=ndim, max_size=ndim))
    return ndim, boxes, corner


class TestBoxSetAgainstBox:
    """Every set operation returns, in order and flag for flag (``Box.__eq__``
    compares the four fields of every interval), what the per-box method
    returns row by row."""

    @given(box_lists())
    def test_roundtrip_keeps_rows_and_python_types(self, drawn):
        ndim, boxes = drawn
        rows = BoxSet.of(boxes, ndim=ndim)
        assert len(rows) == len(boxes) and rows.ndim == ndim
        assert rows.boxes() == boxes
        for box in rows.boxes():
            for iv in box:  # json.dumps rejects numpy booleans
                assert type(iv.lo) is float and type(iv.lo_open) is bool

    @given(box_lists_with_corner())
    def test_split_corner(self, drawn):
        ndim, boxes, corner = drawn
        region = Box.corner_at_least(corner)
        inside, outside = BoxSet.of(boxes, ndim=ndim).split_corner(corner)
        hits = [b.intersect(region) for b in boxes]
        assert inside.boxes() == [hit for hit in hits if not hit.is_empty()]
        assert outside.boxes() == [p for b in boxes for p in b.subtract_corner(corner)]

    @given(box_lists_with_corner())
    def test_subtract_corner_cuts_only_rows_that_meet_the_corner(self, drawn):
        ndim, boxes, corner = drawn
        region = Box.corner_at_least(corner)
        got = BoxSet.of(boxes, ndim=ndim).subtract_corner(corner)
        assert got.boxes() == [
            p
            for b in boxes
            if not b.is_empty()
            for p in (b.subtract_corner(corner) if b.overlaps(region) else [b])
        ]

    @given(box_lists().flatmap(lambda d: st.tuples(st.just(d), grid_boxes(d[0]))))
    def test_subtract_box(self, drawn):
        (ndim, boxes), other = drawn
        got = BoxSet.of(boxes, ndim=ndim).subtract_box(other)
        assert got.boxes() == [p for b in boxes for p in b.subtract_box(other)]

    @given(box_lists(), st.data())
    def test_emptiness_and_mask(self, drawn, data):
        ndim, boxes = drawn
        # points on the grid (exactly on faces) and between its values
        pts = data.draw(
            arrays(
                np.float64,
                (9, ndim),
                elements=st.sampled_from(GRID + [-1.5, 0.25, 1.5]),
            )
        )
        rows = BoxSet.of(boxes, ndim=ndim)
        assert rows.is_empty().tolist() == [b.is_empty() for b in boxes]
        assert rows.nonempty().boxes() == [b for b in boxes if not b.is_empty()]
        np.testing.assert_array_equal(
            rows.mask(pts), np.array([b.mask(pts) for b in boxes]).reshape(-1, 9)
        )
        covered = np.zeros(9, dtype=bool)
        for box in boxes:
            covered |= box.mask(pts)
        np.testing.assert_array_equal(rows.union_mask(pts), covered)
        np.testing.assert_array_equal(union_mask(boxes, pts), covered)

    @given(box_lists())
    def test_pairwise_disjoint(self, drawn):
        _, boxes = drawn
        assert pairwise_disjoint(boxes) == (
            not any(a.overlaps(b) for a, b in itertools.combinations(boxes, 2))
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
            BoxSet.of(mixed[:1]).subtract_box(mixed[1])
        with pytest.raises(ValueError):
            BoxSet.of(mixed[:1]).subtract_corner([0.0, 0.0])
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
        assert issued(chain, rows) == [
            Box([Interval(0.0, 90.0, hi_open=True), Interval.closed(0.0, 1.0)])
        ]

    def test_chain_spanning_several_row_blocks(self):
        """600 boxes and a row on every face between them."""
        chain = [
            Box([Interval(float(i), i + 1.0, hi_open=True), Interval.closed(0.0, 1.0)])
            for i in range(600)
        ]
        rows = lattice(np.arange(0.0, 600.0, 0.5), HALVES[:3])
        assert issued(chain, rows) == [
            Box([Interval(0.0, 600.0, hi_open=True), Interval.closed(0.0, 1.0)])
        ]
