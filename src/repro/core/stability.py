"""Constrained-skyline stability (paper Section 4.1).

``Sky(S, C)`` is *stable* relative to new constraints ``C'`` when every
point of ``S_C`` that is not in ``Sky(S, C)`` is also guaranteed not to be
in ``Sky(S, C')`` (Definition 4).  Stability is what lets the cache skip
re-examining the overlap region: only genuinely new territory needs
fetching (Corollary 1).

Theorem 1 gives the syntactic guarantee: stability holds iff no lower
constraint increased (``C'_lo <= C_lo`` in every dimension) or the regions
are disjoint.  Increasing a lower constraint may expel a cached skyline
point whose dominance used to suppress other points -- those suppressed
points can resurface (Corollary 2), which is the *unstable* case handled by
the invalidation step of the MPR.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.constraints import Constraints, all_columns, overlaps_columns


def guaranteed_stable(old: Constraints, new: Constraints) -> bool:
    """Theorem 1: syntactic stability of ``Sky(S, old)`` relative to ``new``.

    True iff every new lower constraint is at or below the old one, or the
    two constraint regions are disjoint.
    """
    if old.ndim != new.ndim:
        raise ValueError("constraint dimensionality mismatch")
    return bool(
        guaranteed_stable_columns(old.lo[:, None], old.hi[:, None], new)[0]
    )


def guaranteed_stable_columns(
    old_lo: np.ndarray, old_hi: np.ndarray, new: Constraints
) -> np.ndarray:
    """Theorem 1 for every old region ``[old_lo[:, j], old_hi[:, j]]`` of two
    ``(d, n)`` bounds arrays relative to ``new`` (the cache search
    strategies score all their candidates with one call)."""
    return all_columns(new.lo[:, None] <= old_lo) | ~overlaps_columns(
        old_lo, old_hi, new
    )

