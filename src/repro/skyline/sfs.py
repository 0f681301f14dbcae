"""Sort-Filter Skyline (Chomicki et al. [8]), block form.

The algorithm the paper runs "in both the Baseline method and our own CBCS
method" (Section 7).  The input is first sorted by a monotone scoring
function; in that order no point can dominate an earlier one, so a single
pass against a window of confirmed skyline points suffices and the window is
never revised.

We use the coordinate sum as the monotone score (any strictly monotone
function works; the original paper proposes entropy).  Floating-point
summation is monotone too, so a row that is ``<=`` another in every
dimension never has the larger sum: when all sums differ, sorting by sum
alone puts every dominator first, and no two rows are equal.  Only equal
sums (absorption by a huge coordinate, infinities, duplicate rows) need the
lexicographic tie-break, which also places equal rows next to each other;
each run of them is then tested once, by its first row.

Among distinct rows in that order, a row that is ``<=`` a later row in
every dimension dominates it, so the pass needs only the "``<=``" half of
the dominance test: :func:`~repro.geometry.dominance.weakly_dominated_mask`.
It consumes the sorted rows a block at a time: one kernel call tests the
whole block against the window, a second resolves dominance among the
block's own survivors, and what is left joins the window.  That is the same
O(n * |skyline|) comparison count as point-at-a-time SFS, each pair compared
once in the one direction the order allows, paid in a few ``(block,
window)`` broadcasts instead of ``n`` numpy round-trips.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.dominance import weakly_dominated_mask

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

    # Sort by coordinate sum: with every sum distinct, a dominator (never
    # the larger sum) comes first and no two rows are equal.
    order = np.argsort(sums)
    sorted_sums = sums[order]
    if (sorted_sums[1:] == sorted_sums[:-1]).any():
        # Equal sums: break them lexicographically by coordinates, which
        # keeps a dominator (<= in every coordinate) first and puts equal
        # rows (-0.0 == 0.0) next to each other; keep each run's first row.
        order = np.lexsort((*points.T[::-1], sums))
        ordered = points[order]
        first = np.ones(n, dtype=bool)
        first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        runs = np.cumsum(first) - 1  # each sorted row's run
        ordered = ordered[first]
    else:
        ordered, runs = points[order], None

    in_skyline = np.zeros(len(ordered), dtype=bool)  # by position in ``ordered``
    start, size = 0, _FIRST_BLOCK
    while start < len(ordered):
        block = ordered[start : start + size]
        if not start:  # the window is empty: only the block against itself
            alive = np.flatnonzero(~weakly_dominated_mask(block))
        else:
            window = ordered[:start][in_skyline[:start]]
            alive = np.flatnonzero(~weakly_dominated_mask(block, window))
            if len(alive) > 1:
                # A survivor's in-block dominator survived too (anything that
                # dominates the dominator dominates the survivor), so testing
                # the survivors against each other is exact.
                alive = alive[~weakly_dominated_mask(block[alive])]
        in_skyline[start + alive] = True
        start += size
        size = min(2 * size, _MAX_BLOCK)
    if runs is not None:
        in_skyline = in_skyline[runs]  # every row of a run shares its flag
    return np.sort(order[in_skyline])
