"""Constraint pairs ``C = <C_lo, C_hi>`` (paper Section 3).

A set of constraints is a pair of points giving, per dimension, the minimum
and maximum admissible value.  The induced *constraint region* ``R_C`` is the
closed hyper-rectangle spanned by the pair; the *constrained data* ``S_C`` is
the subset of the dataset inside that region.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class Constraints:
    """Orthogonal range constraints: one ``[lo, hi]`` interval per dimension.

    A value: the bounds are read-only arrays, so ``ndim`` is set once and the
    hashable :meth:`key` is built on first use and kept.
    """

    __slots__ = ("lo", "hi", "ndim", "_key")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        lo_arr = np.asarray(lo, dtype=float).copy()
        hi_arr = np.asarray(hi, dtype=float).copy()
        if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        if not np.all(lo_arr <= hi_arr):
            # written so that a NaN bound fails too: every comparison with
            # NaN is False
            raise ValueError("every lower constraint must be <= its upper constraint")
        lo_arr.setflags(write=False)
        hi_arr.setflags(write=False)
        self.lo = lo_arr
        self.hi = hi_arr
        self.ndim = len(lo_arr)
        self._key = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def covering(points: np.ndarray) -> "Constraints":
        """Return the tightest constraints containing every row of ``points``."""
        points = np.asarray(points, dtype=float)
        if len(points) == 0:
            raise ValueError("cannot build covering constraints of an empty set")
        return Constraints(points.min(axis=0), points.max(axis=0))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def satisfied_mask(self, points: np.ndarray) -> np.ndarray:
        """Return a boolean mask of rows of ``points`` satisfying C.

        Vectorized form of the paper's ``S_C`` membership test.
        """
        points = np.asarray(points, dtype=float)
        return ((points >= self.lo) & (points <= self.hi)).all(axis=1)

    def satisfies(self, point: Sequence[float]) -> bool:
        """Return True if a single point satisfies the constraints."""
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def contains(self, other: "Constraints") -> bool:
        """Return True if ``other``'s region is inside this region."""
        return bool(np.all(self.lo <= other.lo) and np.all(self.hi >= other.hi))

    def overlaps(self, other: "Constraints") -> bool:
        """Return True if the two constraint regions intersect."""
        return bool((self.lo <= other.hi).all() and (other.lo <= self.hi).all())

    def volume(self) -> float:
        """Return the volume of the constraint region."""
        return float(np.prod(np.maximum(self.hi - self.lo, 0.0)))

    def overlap_volume(self, other: "Constraints") -> float:
        """Return the volume of the intersection of the two regions."""
        return float(overlap_volumes(self.lo[:, None], self.hi[:, None], other)[0])

    def widths(self) -> np.ndarray:
        """Return per-dimension extents ``hi - lo``."""
        return self.hi - self.lo

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_bound(self, dim: int, *, lower: float = None, upper: float = None) -> "Constraints":
        """Return a copy with one dimension's bound(s) replaced."""
        lo = self.lo.copy()
        hi = self.hi.copy()
        if lower is not None:
            lo[dim] = lower
        if upper is not None:
            hi[dim] = upper
        return Constraints(lo, hi)

    def key(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Return a hashable representation of the constraints, as Python
        floats: the cache's exact-match probe hashes one per query, and
        ``tolist`` builds and hashes them far faster than numpy scalars.
        Built on the first call and kept (the bounds cannot change)."""
        key = self._key
        if key is None:
            key = self._key = (tuple(self.lo.tolist()), tuple(self.hi.tolist()))
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraints):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        dims = ", ".join(
            f"[{a:g}, {b:g}]" for a, b in zip(self.lo, self.hi)
        )
        return f"Constraints({dims})"


#: ``all`` / ``prod`` over the leading axis of a ``(d, n)`` array, as the bare
#: ufunc reductions: on the few columns of a query's candidates the call
#: overhead of the ``ndarray`` methods is most of their cost
all_columns = np.logical_and.reduce
prod_columns = np.multiply.reduce


def overlaps_columns(lo: np.ndarray, hi: np.ndarray, other: Constraints) -> np.ndarray:
    """:meth:`Constraints.overlaps` for every region ``[lo[:, j], hi[:, j]]``
    of two ``(d, n)`` bounds arrays against ``other``."""
    return all_columns((lo <= other.hi[:, None]) & (other.lo[:, None] <= hi))


def overlap_volumes(lo: np.ndarray, hi: np.ndarray, other: Constraints) -> np.ndarray:
    """:meth:`Constraints.overlap_volume` for every region ``[lo[:, j],
    hi[:, j]]`` of two ``(d, n)`` bounds arrays against ``other``.

    An intersection with a zero-width dimension has volume 0 whatever its
    other extents (not ``0 * inf``), so no volume is ever NaN.
    """
    top = np.minimum(hi, other.hi[:, None])
    bottom = np.maximum(lo, other.lo[:, None])
    solid = all_columns(top > bottom)
    width = np.zeros(top.shape)
    np.subtract(top, bottom, out=width, where=solid)
    return prod_columns(width)

