"""Axis-aligned hyper-rectangles (boxes) with open/closed faces.

A :class:`Box` is the product of one :class:`~repro.geometry.interval.Interval`
per dimension.  Boxes are the working currency of the paper's MPR algorithm
(Section 5.2): the queried constraint region starts as a single box and is
repeatedly split by axis-orthogonal hyperplanes into disjoint pieces, each of
which is ultimately issued as a range query.

:class:`Box` is the immutable one-box value type plans, the executor and the
table are written in.  The splitting itself runs on :class:`BoxSet`, the same
boxes as four ``(n, d)`` arrays, whose operations treat a whole set in a fixed
number of broadcast array operations and reproduce the per-:class:`Box`
methods row by row (DESIGN.md section 5, item 13).
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
            if math.isfinite(iv.lo):
                ok &= (col > iv.lo) if iv.lo_open else (col >= iv.lo)
            if math.isfinite(iv.hi):
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

_Bounds = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _row_blocks(n: int, cells_per_row: int) -> Iterator[slice]:
    """Slices covering ``range(n)``, each at most ``_MAX_CELLS`` cells."""
    rows = max(1, _MAX_CELLS // max(cells_per_row, 1))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def _empty_dims(lo, hi, lo_open, hi_open) -> np.ndarray:
    """Elementwise :meth:`Interval.is_empty`."""
    return (lo > hi) | ((lo == hi) & (lo_open | hi_open | np.isinf(lo)))


def _meet(a: _Bounds, b: _Bounds) -> _Bounds:
    """Elementwise :meth:`Interval.intersect` of two broadcastable
    ``(lo, hi, lo_open, hi_open)`` quadruples: the tighter bound wins and
    keeps its flag, equal bounds are open if either is."""
    a_lo, a_hi, a_lo_open, a_hi_open = a
    b_lo, b_hi, b_lo_open, b_hi_open = b
    return (
        np.maximum(a_lo, b_lo),
        np.minimum(a_hi, b_hi),
        (a_lo_open & (a_lo >= b_lo)) | (b_lo_open & (b_lo >= a_lo)),
        (a_hi_open & (a_hi <= b_hi)) | (b_hi_open & (b_hi <= a_hi)),
    )


@lru_cache(maxsize=None)
def _stair_masks(ndim: int, sides: int):
    """The constant ``(piece, side, dim)`` patterns of :func:`_staircase`."""
    piece, dim = np.indices((ndim, ndim))
    before = (dim < piece)[:, None, :]
    at = tuple(
        (dim == piece)[:, None, :] & (np.arange(sides) == side)[:, None]
        for side in range(sides)
    )
    first = np.zeros((ndim, sides), dtype=bool)
    first[0, 0] = True
    return before, at, first


def _staircase(
    row: _Bounds,
    inner: _Bounds,
    outers: Sequence[_Bounds],
    split: Optional[np.ndarray] = None,
) -> "BoxSet":
    """Cut every row into the staircase of pieces that both box subtractions
    produce, in one ``(n, d, sides, d)`` broadcast.

    Piece ``(i, side)`` of a row is the row with its dimensions ``< i``
    narrowed to ``inner`` and its dimension ``i`` to ``outers[side]`` (all
    ``(n, d)`` bounds): for each dimension in turn the part outside the
    subtrahend, inside it in every earlier dimension.  A row whose ``split``
    entry is False passes through whole.  Empty pieces (and empty rows) are
    dropped; the rest come row-major, then by ``i``, then by ``side`` -- the
    order of the per-:class:`Box` loops.
    """
    ndim = row[0].shape[1]
    before, at, first = _stair_masks(ndim, len(outers))
    if split is not None:
        cut = split[:, None, None, None]
        before, at = before & cut, [here & cut for here in at]
    pieces = []
    for f in range(4):
        piece = row[f][:, None, None, :]
        for here, outer in zip(at, outers):
            piece = np.where(here, outer[f][:, None, None, :], piece)
        pieces.append(np.where(before, inner[f][:, None, None, :], piece))
    keep = ~_empty_dims(*pieces).any(axis=3)
    if split is not None:
        keep &= split[:, None, None] | first
    kept = np.flatnonzero(keep)
    return BoxSet(*(piece.reshape(-1, ndim).take(kept, axis=0) for piece in pieces))


class BoxSet:
    """``n`` boxes of one dimensionality as four ``(n, d)`` arrays.

    The structure-of-arrays twin of ``List[Box]`` (and a sequence of
    :class:`Box` itself: ``len``, iteration, indexing and ``==`` against a
    list materialize the rows): ``lo`` / ``hi`` hold the
    bounds, ``lo_open`` / ``hi_open`` the face flags, row ``r`` is the box
    ``Box(Interval(lo[r, j], hi[r, j], lo_open[r, j], hi_open[r, j]) for j)``.
    Every operation treats the whole set in a fixed number of broadcast
    array operations and returns a new set whose rows are, in order and
    flag for flag, what the per-:class:`Box` method would have produced row
    by row (``tests/geometry/test_box.py`` holds the two against each
    other).  Operations that split rows drop the empty pieces, as the
    :class:`Box` methods do.  :class:`Box` stays the one-box value type the
    rest of the system is written in; :meth:`boxes` is the way back.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        lo_open: np.ndarray,
        hi_open: np.ndarray,
    ):
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open

    # ------------------------------------------------------------------
    # Constructors and the way back
    # ------------------------------------------------------------------
    @staticmethod
    def of(boxes: Iterable[Box], ndim: Optional[int] = None) -> "BoxSet":
        """Return the set holding ``boxes``, in order.

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
        shape = (len(rows), ndim)
        return BoxSet(
            np.array([[iv.lo for iv in row] for row in rows], float).reshape(shape),
            np.array([[iv.hi for iv in row] for row in rows], float).reshape(shape),
            np.array([[iv.lo_open for iv in row] for row in rows], bool).reshape(shape),
            np.array([[iv.hi_open for iv in row] for row in rows], bool).reshape(shape),
        )

    @staticmethod
    def concat(sets: Sequence["BoxSet"]) -> "BoxSet":
        """Return the rows of ``sets`` (at least one), one set after the other."""
        if len({s.ndim for s in sets}) != 1:
            raise ValueError("a BoxSet holds boxes of one dimensionality")
        sets = [s for s in sets if len(s)] or sets[:1]
        if len(sets) == 1:
            return sets[0]
        return BoxSet(*map(np.concatenate, zip(*(s._bounds() for s in sets))))

    def boxes(self) -> List[Box]:
        """Materialize the rows as :class:`Box` objects, in order."""
        return [
            Box(map(Interval, *row))
            for row in zip(
                self.lo.tolist(),
                self.hi.tolist(),
                self.lo_open.tolist(),
                self.hi_open.tolist(),
            )
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
        """Equal to any sequence of the same boxes in the same order."""
        try:
            return self.boxes() == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    @property
    def ndim(self) -> int:
        return self.lo.shape[1]

    def _bounds(self, rows=slice(None)) -> _Bounds:
        return self.lo[rows], self.hi[rows], self.lo_open[rows], self.hi_open[rows]

    def is_empty(self) -> np.ndarray:
        """Return the ``(n,)`` mask of rows containing no point."""
        return _empty_dims(*self._bounds()).any(axis=1)

    def nonempty(self) -> "BoxSet":
        """Return the set without its empty rows."""
        empty = self.is_empty()
        if not empty.any():
            return self
        return BoxSet(*(a[~empty] for a in self._bounds()))

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Return the ``(n, m)`` table of which rows of ``points`` lie in
        which box, honouring the open/closed flag of every face."""
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
        lo, hi, lo_open, hi_open = (a[:, :, None] for a in self._bounds(rows))
        columns = points.T
        inside = np.where(lo_open, columns > lo, columns >= lo)
        inside &= np.where(hi_open, columns < hi, columns <= hi)
        return inside.all(axis=1)

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def _corner(self, point: Sequence[float]) -> np.ndarray:
        u = np.asarray(point, dtype=float)
        if u.shape != (self.ndim,):
            raise ValueError("point dimensionality mismatch")
        return u

    def _at_or_above(self, u: np.ndarray) -> _Bounds:
        """Every row clipped to ``[u, inf)``, per dimension."""
        lo, hi, lo_open, hi_open = self._bounds()
        return np.maximum(lo, u), hi, lo_open & (lo >= u), hi_open | (hi == math.inf)

    def _below(self, u: np.ndarray) -> _Bounds:
        """Every row clipped to ``(-inf, u)``, per dimension."""
        lo, hi, lo_open, hi_open = self._bounds()
        return lo, np.minimum(hi, u), lo_open | (lo == -math.inf), hi_open | (hi >= u)

    def split_corner(self, point: Sequence[float]) -> Tuple["BoxSet", "BoxSet"]:
        """Cut every row along the planes of ``DR(point)``, the closed upper
        corner ``{p | p >= point}``; return ``(inside, outside)``.

        ``inside`` holds :meth:`Box.intersect` with the corner region of the
        rows that meet it, ``outside`` :meth:`Box.subtract_corner` of every
        row: piece ``i`` is the row clipped to ``[u, inf)`` in the dimensions
        ``< i`` and to ``(-inf, u)`` in dimension ``i``, empty pieces
        dropped, the rest piece-major, dimension-minor.
        """
        u = self._corner(point)
        above = self._at_or_above(u)
        meets = ~_empty_dims(*above).any(axis=1)
        inside = BoxSet(*above) if meets.all() else BoxSet(*(a[meets] for a in above))
        return inside, _staircase(self._bounds(), above, [self._below(u)])

    def subtract_corner(self, point: Sequence[float]) -> "BoxSet":
        """Return disjoint boxes covering every row minus ``DR(point)``,
        cutting only the rows that meet it.

        The ``outside`` of :meth:`split_corner`, except that a row which does
        not meet the corner region passes through whole instead of being cut
        along the corner's planes (the pruning step of the MPR wants
        untouched range queries to stay large); empty rows are dropped.
        """
        u = self._corner(point)
        above = self._at_or_above(u)
        meets = ~_empty_dims(*above).any(axis=1)
        return _staircase(self._bounds(), above, [self._below(u)], meets)

    def subtract_box(self, other: Box) -> "BoxSet":
        """Return disjoint boxes covering every row minus ``other``.

        :meth:`Box.subtract_box` for the whole set: per dimension ``i`` a
        slab below and a slab above the row's intersection with ``other``
        (its *cut*), narrowed to the cut in the dimensions ``< i``.  A row
        ``other`` misses passes through whole; empty rows and slabs are
        dropped; the order is row-major, then dimension, then below before
        above.
        """
        if other.ndim != self.ndim:
            raise ValueError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )
        row = self._bounds()
        cut = c_lo, c_hi, c_lo_open, c_hi_open = _meet(
            row, BoxSet.of([other])._bounds()
        )
        below = _meet(row, (-math.inf, c_lo, True, ~c_lo_open))
        above = _meet(row, (c_hi, math.inf, ~c_hi_open, True))
        hit = ~_empty_dims(*cut).any(axis=1)
        return _staircase(row, cut, [below, above], hit)


def decompose_difference(base: Box, removals: Iterable[Box]) -> List[Box]:
    """Return disjoint boxes covering ``base`` minus the union of ``removals``.

    Repeatedly applies :meth:`BoxSet.subtract_box`, keeping the pieces
    disjoint throughout.
    """
    pieces = BoxSet.of([base]).nonempty()
    for removal in removals:
        pieces = pieces.subtract_box(removal)
        if not len(pieces):
            break
    return pieces.boxes()


def total_volume(boxes: Iterable[Box]) -> float:
    """Return the summed volume of an iterable of (disjoint) boxes."""
    return sum(box.volume() for box in boxes)


def union_mask(boxes: Sequence[Box], points: np.ndarray) -> np.ndarray:
    """Return a boolean mask of rows of ``points`` covered by any box."""
    points = np.asarray(points, dtype=float)
    return BoxSet.of(boxes, ndim=points.shape[-1]).union_mask(points)


def pairwise_disjoint(boxes: Sequence[Box]) -> bool:
    """Return True if no two boxes overlap (exact interval test)."""
    bounds = BoxSet.of(boxes)._bounds()
    n, ndim = bounds[0].shape
    for rows in _row_blocks(n, n * ndim):
        meet = _meet(tuple(a[rows, None, :] for a in bounds), bounds)
        overlap = ~_empty_dims(*meet).any(axis=2)
        overlap &= np.arange(n) > np.arange(n)[rows, None]  # each pair once
        if overlap.any():
            return False
    return True
