"""BSkyTree-style lattice-partitioned skyline (Lee & Hwang [16], lite).

The paper singles this algorithm out: "more complex skyline algorithms,
e.g., BSkyTree [16], might produce faster overall runtimes", while arguing
CBCS's benefit is independent of the choice (Section 7).  This module
implements the algorithm's core ideas in a documented "lite" form so that
claim can be exercised with a fourth in-memory algorithm:

1. **Balanced pivot selection** -- pick a skyline point of the current
   subset whose dominance region prunes a large, balanced share of the
   space (here: among the sum-sorted incomparable prefix, maximize the
   normalized volume of the region it dominates).
2. **Lattice partitioning** -- assign every point a ``d``-bit code, bit
   ``i`` set iff ``p[i] >= pivot[i]``.  Code ``2^d - 1`` is the pivot's
   dominance region: everything there except exact duplicates of the pivot
   is discarded wholesale.  Code ``0`` is provably empty (such a point
   would dominate the pivot).
3. **Recursion + lattice-guided merge** -- each partition's skyline is
   computed recursively; a point with code ``c`` can only be dominated by
   points whose code is a *bitwise subset* of ``c``, so the merge filters
   each partition only against the partitions below it in the subset
   lattice.

Differences from the full BSkyTree: no incremental skytree structure and a
simpler pivot scoring -- the asymptotics of the partition-and-prune scheme
are preserved, the constant factors of the original are not.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.geometry.dominance import dominated_mask
from repro.skyline.bnl import bnl_skyline

_BASE_CASE = 64
_PIVOT_SCAN = 32


def bskytree_skyline(points: np.ndarray) -> np.ndarray:
    """Return the indices of the skyline rows of ``points``."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return np.empty(0, dtype=np.int64)
    indices = _recurse(points, np.arange(len(points), dtype=np.int64))
    return np.sort(indices)


def _recurse(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    if len(indices) <= _BASE_CASE:
        return indices[bnl_skyline(points[indices])]
    ndim = points.shape[1]
    subset = points[indices]

    pivot_pos = _select_pivot(subset)
    pivot = subset[pivot_pos]

    codes = np.zeros(len(indices), dtype=np.int64)
    for i in range(ndim):
        codes |= (subset[:, i] >= pivot[i]).astype(np.int64) << i
    full = (1 << ndim) - 1

    # The full-code partition is dominated by the pivot except for exact
    # duplicates of the pivot itself.
    full_mask = codes == full
    duplicates = full_mask & np.all(subset == pivot, axis=1)

    partitions: Dict[int, np.ndarray] = {}
    for code in np.unique(codes):
        code = int(code)
        if code == full:
            continue
        partitions[code] = indices[codes == code]

    local: Dict[int, np.ndarray] = {
        code: _recurse(points, members) for code, members in partitions.items()
    }
    local[full] = indices[duplicates]  # pivot + its duplicates survive

    result: List[np.ndarray] = []
    for code, sky_idx in local.items():
        if len(sky_idx) == 0:
            continue
        survivors = sky_idx
        for other, other_sky in local.items():
            if other == code or len(other_sky) == 0:
                continue
            if other & ~code:
                continue  # not a subset: cannot dominate anything in `code`
            survivors = survivors[
                ~dominated_mask(points[survivors], points[other_sky])
            ]
            if len(survivors) == 0:
                break
        result.append(survivors)
    return np.concatenate(result) if result else np.empty(0, dtype=np.int64)


def _select_pivot(subset: np.ndarray) -> int:
    """Pick a skyline point of ``subset`` with high, balanced pruning power.

    Scans the coordinate-sum-sorted prefix, keeps the mutually incomparable
    ones (guaranteed skyline points), and returns the one whose dominance
    region covers the largest normalized volume of the subset's bounding
    box.
    """
    lo = subset.min(axis=0)
    hi = subset.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    order = np.argsort(subset.sum(axis=1), kind="stable")[:_PIVOT_SCAN]
    best_pos, best_score = int(order[0]), -1.0
    window: List[np.ndarray] = []
    for pos in order:
        p = subset[pos]
        if any(np.all(w <= p) and np.any(w < p) for w in window):
            continue
        window.append(p)
        score = float(np.prod((hi - p) / span))
        if score > best_score:
            best_pos, best_score = int(pos), score
    return best_pos
