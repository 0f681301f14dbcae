"""Sort-Filter Skyline (Chomicki et al. [8]), block form.

The algorithm the paper runs "in both the Baseline method and our own CBCS
method" (Section 7).  The input is first sorted by a monotone scoring
function; in that order no point can dominate an earlier one, so a single
pass against a window of confirmed skyline points suffices and the window is
never revised.

We use the coordinate sum as the monotone score (any strictly monotone
function works; the original paper proposes entropy).  The pass consumes the
sorted input a block at a time: one
:func:`~repro.geometry.dominance.dominated_mask` call tests the whole block
against the window, a second resolves dominance among the block's own
survivors, and what is left joins the window.  That is the same
O(n * |skyline|) comparison count as point-at-a-time SFS, paid in a few
``(block, window)`` broadcasts instead of ``n`` numpy round-trips.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.dominance import dominated_mask

#: Block schedule: the first block is small because the window is empty and
#: the block-against-itself test is quadratic; blocks then double, since a
#: grown window rejects most of a block before that test, up to a cap that
#: bounds the test for a block the window does not thin (an antichain).
_FIRST_BLOCK = 64
_MAX_BLOCK = 1024


def sfs_skyline(points: np.ndarray) -> np.ndarray:
    """Return the indices of the skyline rows of ``points``, ascending.

    Raises ``ValueError`` for input that is not ``(n, d)`` or that holds a
    row whose coordinate sum is NaN (a NaN coordinate, or ``+inf`` next to
    ``-inf``): such a row has no place in the sort order the pass relies on.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if points.ndim != 2:
        raise ValueError(f"points must be (n, d), got shape {points.shape}")
    sums = points.sum(axis=1)
    if np.isnan(sums).any():
        raise ValueError("points hold a row whose coordinate sum is NaN")

    # Sort by coordinate sum (monotone: a dominator's sum is never larger),
    # breaking exact sum ties lexicographically by coordinates.  The
    # tie-break matters: floating-point absorption can give a dominator and
    # its victim identical sums, and lexicographic order still places the
    # dominator first (it is <= in every coordinate).
    order = np.lexsort((*points.T[::-1], sums))
    ordered = points[order]

    in_skyline = np.zeros(n, dtype=bool)  # by position in ``ordered``
    start, size = 0, _FIRST_BLOCK
    while start < n:
        window = ordered[:start][in_skyline[:start]]
        block = ordered[start : start + size]
        alive = np.flatnonzero(~dominated_mask(block, window))
        if len(alive) > 1:
            # A survivor's in-block dominator survived too (anything that
            # dominates the dominator dominates the survivor), so testing
            # the survivors against each other is exact.
            survivors = block[alive]
            alive = alive[~dominated_mask(survivors, survivors)]
        in_skyline[start + alive] = True
        start += size
        size = min(2 * size, _MAX_BLOCK)
    return np.sort(order[in_skyline])
