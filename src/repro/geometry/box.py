"""Axis-aligned hyper-rectangles (boxes) with open/closed faces.

A :class:`Box` is the product of one :class:`~repro.geometry.interval.Interval`
per dimension.  Boxes are the working currency of the paper's MPR algorithm
(Section 5.2): the queried constraint region starts as a single box and is
repeatedly split by axis-orthogonal hyperplanes into disjoint pieces, each of
which is ultimately issued as a range query.

:class:`Box` is the immutable one-box value type plans, the executor and the
table are written in, and the reference the set operations are tested
against.  The splitting itself runs on :class:`BoxSet`, the same boxes as two
``(n, d)`` arrays of closed float bounds, whose operations treat a whole set
in a fixed number of array operations (DESIGN.md section 5, item 13).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.interval import Interval


class Box:
    """An axis-aligned hyper-rectangle with per-face open/closed flags."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[Interval]):
        self.intervals: Tuple[Interval, ...] = tuple(intervals)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def closed(lo: Sequence[float], hi: Sequence[float]) -> "Box":
        """Return the closed box ``[lo[0], hi[0]] x ... x [lo[d-1], hi[d-1]]``."""
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have the same length")
        return Box(Interval.closed(float(a), float(b)) for a, b in zip(lo, hi))

    @staticmethod
    def universe(ndim: int) -> "Box":
        """Return the box covering all of ``R^ndim``."""
        return Box(Interval.universe() for _ in range(ndim))

    @staticmethod
    def corner_at_least(point: Sequence[float]) -> "Box":
        """Return the closed upper corner region ``{p | p >= point}``.

        This is the (unconstrained) dominance region ``DR(point)`` of the
        paper's Definition 2, closed at the corner.  See
        :mod:`repro.geometry.dominance` for why the closed convention is safe
        in the presence of coordinate duplicates.
        """
        return Box(
            Interval(float(v), math.inf, lo_open=False, hi_open=True) for v in point
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.intervals)

    def is_empty(self) -> bool:
        """Return True if the box contains no point."""
        return any(iv.is_empty() for iv in self.intervals)

    def lo(self) -> np.ndarray:
        """Return the lower corner as a float array."""
        return np.array([iv.lo for iv in self.intervals], dtype=float)

    def hi(self) -> np.ndarray:
        """Return the upper corner as a float array."""
        return np.array([iv.hi for iv in self.intervals], dtype=float)

    def contains_point(self, point: Sequence[float]) -> bool:
        """Return True if ``point`` lies inside the box."""
        return all(iv.contains(float(v)) for iv, v in zip(self.intervals, point))

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Return a boolean mask of which rows of ``points`` lie in the box.

        ``points`` is an ``(n, ndim)`` array; the comparisons respect the
        open/closed flags on every face.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise ValueError(
                f"expected points of shape (n, {self.ndim}), got {points.shape}"
            )
        ok = np.ones(len(points), dtype=bool)
        for i, iv in enumerate(self.intervals):
            col = points[:, i]
            if iv.lo > -math.inf:
                ok &= (col > iv.lo) if iv.lo_open else (col >= iv.lo)
            if iv.hi < math.inf:
                ok &= (col < iv.hi) if iv.hi_open else (col <= iv.hi)
        return ok

    def volume(self) -> float:
        """Return the Lebesgue volume of the box (0 for empty boxes)."""
        if self.is_empty():
            return 0.0
        vol = 1.0
        for iv in self.intervals:
            vol *= iv.length()
        return vol

    def to_dict(self) -> dict:
        """Serialize as per-dimension interval dicts (None = unbounded).

        Infinite bounds become ``None`` so the result round-trips through
        strict JSON; used by :meth:`repro.core.planner.QueryPlan.to_dict`
        and the observability exports.
        """
        return {
            "intervals": [
                {
                    "lo": None if math.isinf(iv.lo) else iv.lo,
                    "hi": None if math.isinf(iv.hi) else iv.hi,
                    "lo_open": iv.lo_open,
                    "hi_open": iv.hi_open,
                }
                for iv in self.intervals
            ]
        }

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Box") -> "Box":
        """Return the intersection box (possibly empty)."""
        self._check_ndim(other)
        return Box(a.intersect(b) for a, b in zip(self.intervals, other.intervals))

    def overlaps(self, other: "Box") -> bool:
        """Return True if the boxes share at least one point."""
        self._check_ndim(other)
        return all(a.overlaps(b) for a, b in zip(self.intervals, other.intervals))

    def contains_box(self, other: "Box") -> bool:
        """Return True if ``other`` is a subset of this box."""
        self._check_ndim(other)
        if other.is_empty():
            return True
        return all(
            a.contains_interval(b) for a, b in zip(self.intervals, other.intervals)
        )

    def replace(self, dim: int, interval: Interval) -> "Box":
        """Return a copy of the box with dimension ``dim`` set to ``interval``."""
        ivs = list(self.intervals)
        ivs[dim] = ivs[dim].intersect(interval)
        return Box(ivs)

    def subtract_box(self, other: "Box") -> List["Box"]:
        """Return disjoint boxes covering ``self \\ other``.

        The decomposition carves at most two slabs per dimension: below and
        above ``other``'s extent, with the remaining "middle" band narrowed
        dimension by dimension.  The returned pieces are pairwise disjoint,
        together with ``self & other`` they exactly cover ``self``.
        """
        self._check_ndim(other)
        if self.is_empty():
            return []
        clipped = self.intersect(other)
        if clipped.is_empty():
            return [self]
        pieces: List[Box] = []
        remainder = self
        for i in range(self.ndim):
            cut = clipped.intervals[i]
            below = remainder.replace(
                i, Interval(-math.inf, cut.lo, lo_open=True, hi_open=not cut.lo_open)
            )
            if not below.is_empty():
                pieces.append(below)
            above = remainder.replace(
                i, Interval(cut.hi, math.inf, lo_open=not cut.hi_open, hi_open=True)
            )
            if not above.is_empty():
                pieces.append(above)
            remainder = remainder.replace(i, cut)
        return pieces

    def subtract_corner(self, point: Sequence[float]) -> List["Box"]:
        """Return disjoint boxes covering ``self \\ DR(point)``.

        ``DR(point)`` is the closed upper-corner region ``{p | p >= point}``
        (Definition 2).  This is the primary splitting operation of the MPR
        algorithm: the part of the box inside the dominance region needs no
        fetching, the returned pieces might still hold skyline points.

        The decomposition yields at most ``ndim`` pieces: for each dimension
        ``i``, the slab with ``p[i] < point[i]`` and ``p[j] >= point[j]`` for
        all ``j < i`` (intersected with the box).
        """
        point = [float(v) for v in point]
        if len(point) != self.ndim:
            raise ValueError("point dimensionality mismatch")
        pieces: List[Box] = []
        remainder = self
        for i, v in enumerate(point):
            piece = remainder.replace(
                i, Interval(-math.inf, v, lo_open=True, hi_open=True)
            )
            if not piece.is_empty():
                pieces.append(piece)
            remainder = remainder.replace(
                i, Interval(v, math.inf, lo_open=False, hi_open=True)
            )
            if remainder.is_empty():
                break
        return pieces

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def _check_ndim(self, other: "Box") -> None:
        if self.ndim != other.ndim:
            raise ValueError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __repr__(self) -> str:
        inside = " x ".join(str(iv) for iv in self.intervals)
        return f"Box({inside})"


#: Largest broadcast table a :class:`BoxSet` operation materializes at once,
#: in cells; larger ones are built a block of rows at a time (the bound both
#: kernels of :mod:`repro.geometry.dominance` use, for the same reason).
_MAX_CELLS = 1 << 18

#: The largest finite double: clamping the bounds to it makes "holds a
#: finite double" one comparison, faces at +-inf included.
_MAX = np.finfo(float).max


def _row_blocks(n: int, cells_per_row: int) -> Iterator[slice]:
    """Slices covering ``range(n)``, each at most ``_MAX_CELLS`` cells."""
    rows = max(1, _MAX_CELLS // max(cells_per_row, 1))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def _holds_double(lo: Sequence[float], hi: Sequence[float]) -> bool:
    """Whether the closed box ``[lo, hi]``, given as Python floats, holds a
    double: :func:`_solid` in every dimension."""
    return all(a <= b and a != math.inf and b != -math.inf for a, b in zip(lo, hi))


def _solid(lo, hi) -> np.ndarray:
    """Elementwise: ``[lo, hi]`` holds a finite double -- ``lo <= hi``, but
    ``lo == +inf`` and ``hi == -inf`` are empty too."""
    return np.maximum(lo, -_MAX) <= np.minimum(hi, _MAX)


@lru_cache(maxsize=None)
def _stair(ndim: int) -> np.ndarray:
    """The gather table of a staircase cut.

    A row's pieces are read from the columns ``[lo | inner | outer | hi |
    inner | outer]`` (three blocks of ``ndim`` per bound): piece ``i``
    takes ``inner`` in the dimensions ``< i``, ``outer`` in dimension ``i``
    and the row elsewhere; the last slot is the row itself.  Row ``slot`` of
    the table lists the columns of the piece's ``lo`` then ``hi``.
    """
    piece, dim = np.indices((ndim + 1, ndim))
    block = np.where(dim < piece, 1, np.where(dim == piece, 2, 0))
    block[-1] = 0
    columns = block * ndim + dim
    return np.hstack([columns, columns + 3 * ndim])


def _pieces(keep: np.ndarray, bounds: Sequence[np.ndarray]) -> "BoxSet":
    """The pieces ``keep`` (``(n, ndim + 1)``) marks, row-major, gathered
    from the ``(n, d)`` bounds ``lo, inner, outer, hi, inner, outer`` by the
    :func:`_stair` table."""
    ndim = bounds[0].shape[1]
    kept = keep.ravel().nonzero()[0]
    rows = np.concatenate(bounds, axis=1).take(_stair(ndim), axis=1)
    rows = rows.reshape(-1, 2 * ndim).take(kept, axis=0)
    return BoxSet(rows[:, :ndim], rows[:, ndim:])


class BoxSet:
    """``n`` boxes of one dimensionality as two ``(n, d)`` arrays of closed
    bounds.

    Row ``r`` is the closed box ``[lo[r, j], hi[r, j]]`` per dimension ``j``:
    a set of doubles.  :meth:`of` stores a :class:`Box` open face at a finite
    value as the adjacent double on the inside (``np.nextafter``) and a face
    at +-inf as it is, so every row admits exactly the finite doubles its box
    admits.  A row is empty iff some ``lo > hi``, ``lo == +inf`` or
    ``hi == -inf``.  The set is a sequence of :class:`Box` itself (``len``,
    iteration, indexing and ``==`` against a list materialize the rows as
    closed boxes).

    Every operation treats the whole set in a fixed number of array
    operations and returns, in order, the rows the per-:class:`Box` method
    returns row by row, mapped to closed bounds (``tests/geometry/test_box.py``
    holds the two against each other).  Operations that split rows drop the
    pieces that hold no double: the :class:`Box` methods keep a piece such as
    ``(a, nextafter(a))``, which holds a real number but no double.
    :class:`Box` stays the one-box value type; :meth:`boxes` is the way back.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Constructors and the way back
    # ------------------------------------------------------------------
    @staticmethod
    def of(boxes: Iterable[Box], ndim: Optional[int] = None) -> "BoxSet":
        """Return the set holding ``boxes``, in order, as closed bounds.

        Raises ``ValueError`` unless every box has the same dimensionality
        (``ndim`` when given, which also shapes an empty set).
        """
        if isinstance(boxes, BoxSet):
            return boxes
        rows = [box.intervals for box in boxes]
        if ndim is None:
            ndim = len(rows[0]) if rows else 0
        if any(len(row) != ndim for row in rows):
            raise ValueError(f"a BoxSet holds boxes of one dimensionality ({ndim})")
        faces = np.array(
            [[(iv.lo, iv.hi, iv.lo_open, iv.hi_open) for iv in row] for row in rows],
            dtype=float,
        ).reshape(len(rows), ndim, 4)
        lo, hi, lo_open, hi_open = np.moveaxis(faces, 2, 0)
        return BoxSet(
            np.where((lo_open > 0) & (lo > -math.inf), np.nextafter(lo, math.inf), lo),
            np.where((hi_open > 0) & (hi < math.inf), np.nextafter(hi, -math.inf), hi),
        )

    @staticmethod
    @lru_cache(maxsize=None)
    def empty(ndim: int) -> "BoxSet":
        """Return the set of no ``ndim``-dimensional box: one shared instance
        per ``ndim``, its (empty) bound arrays read-only."""
        lo, hi = np.empty((0, ndim)), np.empty((0, ndim))
        lo.setflags(write=False)
        hi.setflags(write=False)
        return BoxSet(lo, hi)

    @staticmethod
    def difference(
        lo: np.ndarray, hi: np.ndarray, other_lo: np.ndarray, other_hi: np.ndarray
    ) -> "BoxSet":
        """Return disjoint boxes covering the closed box ``[lo, hi]`` minus
        the closed box ``[other_lo, other_hi]`` (four ``(d,)`` bound vectors).

        :meth:`Box.subtract_box` mapped to closed bounds: per dimension
        ``i`` a slab below and a slab above the box's intersection with
        ``other`` (its *cut*), narrowed to the cut in the dimensions ``< i``;
        slabs holding no double are dropped, the rest come in dimension
        order, below before above.  A box ``other`` misses is returned whole.

        One box yields at most ``2 d`` slabs, so they are assembled from
        Python floats: a handful of scalar steps per dimension costs less
        than the fixed cost of the array calls that would build them.  The
        cut is taken as ``np.maximum`` / ``np.minimum`` take it (the second
        operand on a tie), so the sign of a zero face is theirs.
        """
        ndim = len(lo)
        lo, hi = lo.tolist(), hi.tolist()
        cut_lo = [a if a > b else b for a, b in zip(lo, other_lo.tolist())]
        cut_hi = [a if a < b else b for a, b in zip(hi, other_hi.tolist())]
        if not _holds_double(cut_lo, cut_hi):
            if _holds_double(lo, hi):
                return BoxSet(np.array([lo]), np.array([hi]))
            return BoxSet.empty(ndim)
        slabs = []
        for i in range(ndim):
            below = math.nextafter(cut_lo[i], -math.inf)
            if lo[i] <= below > -math.inf:
                slabs.append(cut_lo[:i] + lo[i:] + cut_hi[:i] + [below] + hi[i + 1 :])
            above = math.nextafter(cut_hi[i], math.inf)
            if hi[i] >= above < math.inf:
                slabs.append(cut_lo[:i] + [above] + lo[i + 1 :] + cut_hi[:i] + hi[i:])
        if not slabs:
            return BoxSet.empty(ndim)
        rows = np.array(slabs)
        return BoxSet(rows[:, :ndim], rows[:, ndim:])

    @staticmethod
    def concat(sets: Sequence["BoxSet"]) -> "BoxSet":
        """Return the rows of ``sets`` (at least one), one set after the other."""
        if len({s.ndim for s in sets}) != 1:
            raise ValueError("a BoxSet holds boxes of one dimensionality")
        sets = [s for s in sets if len(s)] or sets[:1]
        if len(sets) == 1:
            return sets[0]
        return BoxSet(
            np.concatenate([s.lo for s in sets]), np.concatenate([s.hi for s in sets])
        )

    def boxes(self) -> List[Box]:
        """Materialize the rows as closed :class:`Box` objects, in order."""
        return [
            Box(map(Interval, lo, hi))
            for lo, hi in zip(self.lo.tolist(), self.hi.tolist())
        ]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes())

    def __getitem__(self, rows):
        """Row ``rows`` as a :class:`Box` (a slice: as a list of them)."""
        return self.boxes()[rows]

    def __eq__(self, other: object) -> bool:
        """Equal to any sequence of the same closed boxes in the same order."""
        try:
            return self.boxes() == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    @property
    def ndim(self) -> int:
        return self.lo.shape[1]

    def is_empty(self) -> np.ndarray:
        """Return the ``(n,)`` mask of rows holding no double."""
        return ~_solid(self.lo, self.hi).all(axis=1)

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Return the ``(n, m)`` table of which rows of ``points`` lie in
        which box."""
        points = self._check_points(points)
        out = np.empty((len(self), len(points)), dtype=bool)
        for rows in _row_blocks(len(self), points.size):
            out[rows] = self._mask_block(rows, points)
        return out

    def union_mask(self, points: np.ndarray) -> np.ndarray:
        """Return the ``(m,)`` mask of rows of ``points`` covered by any box."""
        points = self._check_points(points)
        covered = np.zeros(len(points), dtype=bool)
        for rows in _row_blocks(len(self), points.size):
            covered |= self._mask_block(rows, points).any(axis=0)
        return covered

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ndim:
            raise ValueError(
                f"expected points of shape (m, {self.ndim}), got {points.shape}"
            )
        return points

    def _mask_block(self, rows: slice, points: np.ndarray) -> np.ndarray:
        # (rows, d, m): the points, not the short dimension axis, innermost
        columns = points.T
        inside = columns >= self.lo[rows, :, None]
        inside &= columns <= self.hi[rows, :, None]
        return inside.all(axis=1)

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def split_corner(self, point: Sequence[float]) -> Tuple["BoxSet", "BoxSet"]:
        """Cut every row along the planes of ``DR(point)``, the closed upper
        corner ``{p | p >= point}``; return ``(inside, outside)``.

        ``inside`` holds :meth:`Box.intersect` with the corner region of the
        rows that meet it, ``outside`` :meth:`Box.subtract_corner` of every
        row: piece ``i`` is the row clipped to ``[u, inf)`` in the dimensions
        ``< i`` and to ``(-inf, u)`` in dimension ``i``, empty pieces
        dropped, the rest row-major, then by ``i``.
        """
        return next(self.split_corners([point]))

    def split_corners(self, points) -> Iterator[Tuple["BoxSet", "BoxSet"]]:
        """:meth:`split_corner` by each row of ``points`` in turn, each on
        the ``outside`` the previous one left; yields every ``(inside,
        outside)`` pair."""
        outside = self._solid_rows()
        for above, below in zip(*self._corners(points)):
            inside, outside = outside._cut(above, below, whole=False)
            yield inside, outside

    def subtract_corners(self, points) -> "BoxSet":
        """Return disjoint boxes covering every row minus ``DR(u)`` for each
        row ``u`` of ``points`` in turn, cutting only the rows that meet it.

        :meth:`Box.subtract_corner` by each point on what the previous one
        left, except that a row which does not meet the corner region
        passes through whole instead of being cut along the corner's planes
        (the pruning step of the MPR wants untouched range queries to stay
        large); empty rows are dropped.
        """
        rows = self._solid_rows()
        for above, below in zip(*self._corners(points)):
            if not len(rows):
                break
            rows = rows._cut(above, below, whole=True)[1]
        return rows

    def _solid_rows(self) -> "BoxSet":
        """The set without its empty rows: what :meth:`_cut` takes."""
        solid = _solid(self.lo, self.hi)
        if solid.all():
            return self
        solid = solid.all(axis=1)
        return BoxSet(self.lo[solid], self.hi[solid])

    def _corners(self, points) -> Tuple[np.ndarray, np.ndarray]:
        """The corner faces ``above`` / ``below`` of ``points`` (``(k, d)``)
        for :meth:`_cut`: ``[u, inf)`` starts at ``u`` and ``(-inf, u)``
        ends at the double below it; NaN marks a side that holds no double
        (above ``u = +inf``, below ``u = -inf`` or the lowest double), and
        a face at +inf stays there."""
        u = np.asarray(points, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.ndim:
            raise ValueError("point dimensionality mismatch")
        below = np.nextafter(u, -math.inf)
        below = np.where(below == -math.inf, math.nan, below)
        below[u == math.inf] = math.inf
        return np.where(u == math.inf, math.nan, u), below

    def _cut(
        self, above: np.ndarray, below: np.ndarray, whole: bool
    ) -> Tuple[Optional["BoxSet"], "BoxSet"]:
        """The one corner kernel behind :meth:`split_corners` and
        :meth:`subtract_corners`, on rows that each hold a double, for the
        faces :meth:`_corners` made.

        The part of a row above the corner has ``lo = max(lo, u)``, the part
        below ``hi = min(hi, nextafter(u, -inf))``.  Piece ``i`` of a row
        exists iff every dimension ``< i`` meets ``[u, inf)`` and dimension
        ``i`` meets ``(-inf, u)``: a prefix test on ``(n, d)`` arrays, run
        before any piece is assembled.  With ``whole``, a row that misses
        the corner region takes the last slot, itself.
        """
        lo, hi = self.lo, self.hi
        ndim = lo.shape[1]
        above_lo = np.maximum(lo, above)
        below_hi = np.minimum(hi, below)
        # steps[:, i]: the row meets [u, inf) in every dimension < i -- so
        # steps[:, ndim] is "the row meets DR(u)"
        steps = np.empty((len(lo), ndim + 1), dtype=bool)
        steps[:, 0] = True
        np.less_equal(above_lo, hi, out=steps[:, 1:])
        np.logical_and.accumulate(steps, axis=1, out=steps)
        meets = steps[:, ndim]
        inside = None
        if whole:
            steps[:, :ndim] &= meets[:, None]
            steps[:, ndim] = ~meets
        else:
            inside = BoxSet(
                above_lo.compress(meets, axis=0), hi.compress(meets, axis=0)
            )
            steps[:, ndim] = False
        # piece i: also below the corner in dimension i
        steps[:, :ndim] &= lo <= below_hi
        return inside, _pieces(steps, (lo, above_lo, lo, hi, hi, below_hi))


def union_mask(boxes: Sequence[Box], points: np.ndarray) -> np.ndarray:
    """Return a boolean mask of rows of ``points`` covered by any box."""
    points = np.asarray(points, dtype=float)
    return BoxSet.of(boxes, ndim=points.shape[-1]).union_mask(points)


def pairwise_disjoint(boxes: Sequence[Box]) -> bool:
    """Return True if no two boxes share a double."""
    rows = BoxSet.of(boxes)
    lo, hi = rows.lo, rows.hi
    n, ndim = lo.shape
    for block in _row_blocks(n, n * ndim):
        meet_lo = np.maximum(lo[block, None, :], lo)
        meet_hi = np.minimum(hi[block, None, :], hi)
        overlap = _solid(meet_lo, meet_hi).all(axis=2)
        overlap &= np.arange(n) > np.arange(n)[block, None]  # each pair once
        if overlap.any():
            return False
    return True
