"""Region computers: exact MPR and the approximate MPR (Section 5.3).

The exact MPR is minimal in points fetched but its box count explodes with
dimensionality (paper Figure 9: ~50k disjoint range queries for one 6-D
query).  The aMPR is "a conservative approximation of the MPR which produces
no false negatives": instead of pruning with *every* surviving cached
skyline point, it prunes with only the ``k`` nearest neighbours of the
queried constraints -- the points most likely to prune the most (the same
intuition as sort-based skyline algorithms).  The result is a superset of
the MPR decomposed into far fewer, larger range queries.

Both classes expose ``compute(old, skyline, new, record=True) -> MPRResult``
so the CBCS engine can swap them freely (``record=False`` is the planner's
dry run, which leaves the MPR metrics alone); ``k`` trades points read
against random-access range queries (evaluated in the paper's Figures 9 and
12b).
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.core.mpr import MPRResult, compute_mpr
from repro.geometry.constraints import Constraints
from repro.obs import NULL_OBS


class ExactMPR:
    """The exact Missing Points Region of Definition 5."""

    name = "MPR"
    obs = NULL_OBS

    def bind_obs(self, obs) -> "ExactMPR":
        """Attach observability (spans + MPR metrics) to this computer."""
        self.obs = NULL_OBS if obs is None else obs
        return self

    def compute(
        self,
        old: Constraints,
        skyline: np.ndarray,
        new: Constraints,
        record: bool = True,
    ) -> MPRResult:
        """Prune with every surviving cached skyline point; ``record=False``
        (a dry-run plan) leaves the MPR span and metrics out."""
        return compute_mpr(
            old, skyline, new, prune_with=None, obs=self.obs if record else NULL_OBS
        )


class ApproximateMPR:
    """The aMPR: prune with only the ``k`` nearest surviving skyline points.

    "Nearest" is Euclidean distance to the lower corner of the queried
    constraint region -- the corner every dominance region within the region
    grows away from, so proximity to it maximizes pruning power.

    The unstable case's invalidated overlap is covered in the same spirit:
    by the one corner region of the expelled points' componentwise minimum
    instead of the exact staircase of their dominance regions (superset, no
    false negatives; ``corner_cover`` of :func:`repro.core.mpr.compute_mpr`).
    """

    def __init__(self, k: int = 1):
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise TypeError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self.obs = NULL_OBS

    def bind_obs(self, obs) -> "ApproximateMPR":
        """Attach observability (spans + MPR metrics) to this computer."""
        self.obs = NULL_OBS if obs is None else obs
        return self

    @property
    def name(self) -> str:
        return f"aMPR({self.k}NN)"

    def compute(
        self,
        old: Constraints,
        skyline: np.ndarray,
        new: Constraints,
        record: bool = True,
    ) -> MPRResult:
        """Compute a conservative superset of the MPR; ``record=False`` as
        in :meth:`ExactMPR.compute`."""
        k, corner = self.k, new.lo
        return compute_mpr(
            old,
            skyline,
            new,
            prune_with=lambda surviving: nearest_to_corner(surviving, corner, k),
            corner_cover=True,
            obs=self.obs if record else NULL_OBS,
        )


def nearest_to_corner(points: np.ndarray, corner: np.ndarray, k: int) -> np.ndarray:
    """Return the ``k`` rows of ``points`` nearest (L2) to ``corner``.

    The distance is taken over the corner's finite dimensions: a dimension
    unbounded below adds the same (infinite) term to every point, so it
    cannot order them."""
    points = np.asarray(points, dtype=float)
    if len(points) <= k:
        return points
    corner = np.asarray(corner, dtype=float)
    finite = np.isfinite(corner)
    dist = ((points[:, finite] - corner[finite]) ** 2).sum(axis=1)
    return points[np.argpartition(dist, k)[:k]]
