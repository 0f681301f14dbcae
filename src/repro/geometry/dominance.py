"""Pareto dominance tests (paper Definition 2).

Throughout the library (and the paper), smaller is better in every dimension:
``s`` dominates ``t`` (written ``s < t`` in the paper) iff ``s[i] <= t[i]``
for every dimension and ``s[i] < t[i]`` for at least one.

Two vectorized kernels share one chunk loop: :func:`dominated_mask` tests
that definition for inputs in any order, and :func:`weakly_dominated_mask`
tests only the ``<=`` half, which decides dominance among distinct rows and
is all sort-based SFS needs.  Both build a ``(dominators, points)`` table:
a chunk of dominators down, every point across, so each broadcast
comparison streams the points -- the long axis when a few new skyline rows
filter many undecided rows, SFS's commonest call -- and the table is
reduced down its columns, one answer per point.

Dominance regions and coordinate duplicates
-------------------------------------------
The MPR cuts ``DR(s)`` as the *closed* corner region ``{p | p >= s}``
(:meth:`repro.geometry.box.BoxSet.split_corner`), which also contains ``s``
itself and any exact coordinate duplicates of ``s`` -- points that ``s``
does *not* dominate.  Using the closed region for MPR pruning is
nevertheless safe: every exact duplicate of a cached skyline point shares
its constraint membership and its dominance status, so duplicates are
always cached (and survive or fall) together with the point whose region
prunes them.  Tests in
``tests/core/test_cbcs_equivalence.py`` exercise this with duplicated data.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

#: Largest ``dominators x points`` table the dominance kernels materialize at
#: once: :func:`dominated_mask` holds two boolean tables plus two comparison
#: temporaries of this many bytes (1 MiB in all), :func:`weakly_dominated_mask`
#: one table and one temporary.  Larger inputs are processed in chunks of
#: dominators; measured flat from 64 Ki cells up, so the smaller footprint is
#: free.
_MAX_CELLS = 1 << 18


def dominates(s: Sequence[float], t: Sequence[float]) -> bool:
    """Return True if point ``s`` dominates point ``t``."""
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    return bool(np.all(s_arr <= t_arr) and np.any(s_arr < t_arr))


def _any_per_point(points, dominators, table) -> np.ndarray:
    """The chunk loop both kernels share: ``out[i]`` is whether column ``i``
    of the ``(m, n)`` table has a True cell.  ``table(chunk, columns,
    start)`` builds the rows of a chunk of ``dominators`` that begins at row
    ``start``; ``columns`` holds the points as a contiguous ``(d, n)``
    array, so each comparison streams the long axis, ``n``, and a chunk's
    table holds at most ``max(_MAX_CELLS, n)`` cells."""
    points = np.asarray(points, dtype=float)
    dominators = np.asarray(dominators, dtype=float)
    n, m = len(points), len(dominators)
    if n == 0 or m == 0:
        return np.zeros(n, dtype=bool)
    if points.shape[1:] != dominators.shape[1:]:
        raise ValueError(
            f"points {points.shape} and dominators {dominators.shape} differ in width"
        )
    columns = np.ascontiguousarray(points.T)
    rows = max(1, _MAX_CELLS // n)
    out = table(dominators[:rows], columns, 0).any(axis=0)
    for start in range(rows, m, rows):
        out |= table(dominators[start : start + rows], columns, start).any(axis=0)
    return out


def _le_table(chunk, columns, start=0) -> np.ndarray:
    """``(rows, n)``: cell ``(j, i)`` is whether dominator ``j`` of the chunk
    is ``<=`` point ``i`` in every dimension."""
    le = columns[0] >= chunk[:, :1]
    for i in range(1, chunk.shape[1]):
        le &= columns[i] >= chunk[:, i : i + 1]
    return le


def _dominance_table(chunk, columns, start=0) -> np.ndarray:
    """``(rows, n)``: cell ``(j, i)`` is whether dominator ``j`` of the chunk
    dominates point ``i``."""
    value = chunk[:, :1]
    le = columns[0] >= value
    lt = columns[0] > value
    for i in range(1, chunk.shape[1]):
        value = chunk[:, i : i + 1]
        le &= columns[i] >= value
        lt |= columns[i] > value
    le &= lt
    return le


def _le_table_off_diagonal(chunk, columns, start) -> np.ndarray:
    """:func:`_le_table` of a chunk of the points against all of them,
    without the cells that compare a row with itself."""
    le = _le_table(chunk, columns)
    le.reshape(-1)[start :: le.shape[1] + 1] = False  # cells (j, start + j)
    return le


def dominated_mask(points: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """Return a mask of rows of ``points`` dominated by any row of ``dominators``.

    ``points`` is ``(n, d)`` and ``dominators`` is ``(m, d)``; the result has
    length ``n``.  This is the kernel for inputs in no particular order: the
    D&C / BSkyTree merges, cache verification and skyline maintenance call
    it.  It builds the ``(m, n)`` "``<=`` in every dimension" and "``<`` in
    some dimension" tables one dimension at a time -- ``2 d`` broadcast
    comparisons, no reduction over the short length-``d`` axis and no Python
    loop over dominators -- a chunk of dominators at a time, so each boolean
    temporary holds at most ``max(_MAX_CELLS, n)`` cells.
    """
    return _any_per_point(points, dominators, _dominance_table)


def weakly_dominated_mask(
    points: np.ndarray, dominators: Optional[np.ndarray] = None
) -> np.ndarray:
    """Return a mask of rows of ``points`` that some row of ``dominators`` is
    ``<=`` in every dimension; with no ``dominators``, some *other* row of
    ``points`` (the table's diagonal is dropped).

    The kernel for sorted input (:func:`~repro.skyline.sfs.sfs_skyline`):
    when no two rows are equal, a row that is ``<=`` another in every
    dimension dominates it, so only the "``<=``" table is needed -- ``d``
    broadcast comparisons per cell and one boolean table, half the work of
    :func:`dominated_mask`, in the same dominator chunks.
    """
    if dominators is None:
        return _any_per_point(points, points, _le_table_off_diagonal)
    return _any_per_point(points, dominators, _le_table)

