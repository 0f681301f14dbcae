"""Sets of axis-aligned boxes as arrays of closed float bounds.

Boxes are the working currency of the paper's MPR algorithm (Section 5.2):
the queried constraint region starts as a single box and is repeatedly split
by axis-orthogonal hyperplanes into disjoint pieces, each of which is
ultimately issued as a range query.  :class:`BoxSet` holds ``n`` such boxes
as two ``(n, d)`` arrays of closed bounds, and its operations treat a whole
set in a fixed number of array operations (DESIGN.md section 5, item 13).
It is the one region type of the engine: plans, the executor, the table
and EXPLAIN all read its rows.

Every face is closed.  The paper sidesteps points lying exactly on a split
plane by assuming they do not exist; here a cut keeps one side closed at the
plane and moves the other to the adjacent double (``np.nextafter``), so the
pieces are disjoint even when data points coincide with split coordinates.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np


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
    a set of doubles.  A face may sit at +-inf; a row is empty iff some
    ``lo > hi``, ``lo == +inf`` or ``hi == -inf``.

    Every operation treats the whole set in a fixed number of array
    operations.  Operations that split rows drop the pieces that hold no
    double, and say in their docstrings which pieces they return in which
    order; ``tests/geometry/regions.py`` is a box-by-box Python reference of
    each, and ``tests/geometry/test_box.py`` holds the two to the same rows
    by exact float equality.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Constructors and rendering
    # ------------------------------------------------------------------
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

        Per dimension ``i`` a slab below and a slab above the box's
        intersection with ``other`` (its *cut*) -- ``[lo, nextafter(cut_lo,
        -inf)]`` and ``[nextafter(cut_hi, inf), hi]`` in dimension ``i`` --
        narrowed to the cut in the dimensions ``< i``; slabs holding no
        double are dropped, the rest come in dimension order, below before
        above.  A box ``other`` misses is returned whole.

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

    def to_dicts(self) -> List[dict]:
        """The rows rendered for JSON, in order: per row ``{"intervals":
        [{"lo", "hi", "lo_open", "hi_open"}, ...]}``, one entry per
        dimension.  Bounds are Python floats, a face at +-inf is ``None``
        (strict JSON has no infinity), and both flags are always False:
        every face is closed.  :meth:`repro.core.planner.QueryPlan.to_dict`
        and the EXPLAIN records render boxes with it."""
        return [
            {
                "intervals": [
                    {
                        "lo": None if math.isinf(a) else a,
                        "hi": None if math.isinf(b) else b,
                        "lo_open": False,
                        "hi_open": False,
                    }
                    for a, b in zip(lo, hi)
                ]
            }
            for lo, hi in zip(self.lo.tolist(), self.hi.tolist())
        ]

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.lo)

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

        ``inside`` holds the intersection with the corner region of the
        rows that meet it (``lo = max(lo, u)``), ``outside`` every row minus
        it: piece ``i`` is the row clipped to ``[u, inf)`` in the dimensions
        ``< i`` and to ``(-inf, u)`` -- ``hi = min(hi, nextafter(u, -inf))``
        -- in dimension ``i``; pieces holding no double are dropped, the
        rest come row-major, then by ``i``.  Empty rows are dropped first.
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

        The ``outside`` of :meth:`split_corner` by each point on what the
        previous one left, except that a row which does not meet the corner
        region passes through whole, in its place, instead of being cut
        along the corner's planes (the pruning step of the MPR wants
        untouched range queries to stay large); empty rows are dropped.
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
