"""Divide-and-conquer skyline (Börzsönyi et al. [3], basic variant).

The third in-memory skyline algorithm of the library (besides BNL and SFS),
used to demonstrate the paper's claim that CBCS's benefit "is independent of
the skyline algorithm used" (Section 7.3): any of the three can be plugged
into the engine's ``skyline_algorithm`` parameter.

The classic scheme: split the input by the median of one dimension into a
strictly-lower part ``P1`` and a strictly-upper part ``P2`` (ties stay in
``P1``), recurse on both, then merge.  Because every ``P2`` point is
strictly larger than every ``P1`` point in the split dimension, no ``P2``
point can dominate a ``P1`` point; the merge only filters ``P2``'s local
skyline against ``P1``'s.  (This is the simple quadratic-merge variant, not
the asymptotically optimal multidimensional merge -- the inputs here are
range-query results, where simplicity wins.)
"""

from __future__ import annotations

import numpy as np

from repro.geometry.dominance import dominated_mask
from repro.skyline.bnl import bnl_skyline

_BASE_CASE = 64


def dandc_skyline(points: np.ndarray) -> np.ndarray:
    """Return the indices of the skyline rows of ``points``."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return np.empty(0, dtype=np.int64)
    indices = _dandc(points, np.arange(len(points), dtype=np.int64), dim=0)
    return np.sort(indices)


def _dandc(points: np.ndarray, indices: np.ndarray, dim: int) -> np.ndarray:
    n = len(indices)
    if n <= _BASE_CASE:
        local = points[indices]
        return indices[bnl_skyline(local)]
    ndim = points.shape[1]

    # Find a dimension along which the set actually splits; a set constant
    # in every dimension is a block of exact duplicates (all skyline).
    for probe in range(ndim):
        d = (dim + probe) % ndim
        column = points[indices, d]
        median = float(np.median(column))
        low_mask = column <= median
        if low_mask.all() or not low_mask.any():
            # Median equals the max (or min): split strictly instead.
            low_mask = column < median
            if not low_mask.any():
                continue
        low = indices[low_mask]
        high = indices[~low_mask]
        sky_low = _dandc(points, low, (d + 1) % ndim)
        sky_high = _dandc(points, high, (d + 1) % ndim)
        survivors = ~dominated_mask(points[sky_high], points[sky_low])
        return np.concatenate([sky_low, sky_high[survivors]])
    return indices  # all coordinates identical: mutual non-dominance
