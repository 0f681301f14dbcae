"""Sort-Filter Skyline (Chomicki et al. [8]), in rounds that eliminate early.

The algorithm the paper runs "in both the Baseline method and our own CBCS
method" (Section 7).  The input is first sorted by a monotone scoring
function; in that order no point can dominate an earlier one, so a point
that no earlier skyline point dominates is a skyline point, and a confirmed
one is never revised.

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
It runs in rounds over the rows still *undecided*.  Each round takes the
first few of them (the head), tests the head against itself -- its
survivors are skyline rows -- and then, in one kernel call, drops every
undecided row one of those new skyline rows is ``<=`` to.  A dominated row
so leaves at its first dominator's round, as in LESS (Godfrey et al., VLDB
2005), instead of being tested against every confirmed skyline row; each
pair is still compared at most once, in the one direction the order allows,
paid in a few broadcasts per round instead of ``n`` numpy round-trips.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.dominance import weakly_dominated_mask

#: Head schedule: the first head is small because nothing has thinned the
#: rows yet and the head-against-itself test is quadratic; heads then
#: double, since earlier rounds eliminate most of what follows, up to a cap
#: that bounds the test for rows no round thins (an antichain).
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

    # The undecided rows, ascending in the sorted order, and their positions
    # there.  Each has been tested against every skyline row found so far;
    # a later row cannot dominate it, and an eliminated row's dominators
    # include a skyline row that would have eliminated it too.  So a head
    # row that no other head row is <= to is a skyline row.
    in_skyline = np.zeros(len(ordered), dtype=bool)  # by position in ``ordered``
    rows, position = ordered, np.arange(len(ordered))
    size = _FIRST_BLOCK
    while len(rows):
        head = rows[:size]
        alive = np.flatnonzero(~weakly_dominated_mask(head))
        in_skyline[position[alive]] = True
        rows, position = rows[size:], position[size:]
        if len(rows):  # the new skyline rows eliminate what they dominate
            keep = ~weakly_dominated_mask(rows, head[alive])
            rows, position = rows[keep], position[keep]
        size = min(2 * size, _MAX_BLOCK)
    if runs is not None:
        in_skyline = in_skyline[runs]  # every row of a run shares its flag
    return np.sort(order[in_skyline])
