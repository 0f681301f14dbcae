"""The four incremental overlap cases and their solutions (Section 4.2).

When a user refines a query, the new constraints usually differ from the old
in exactly one bound of one dimension.  There are then only four cases,
regardless of dimensionality (paper Figure 3):

==========  ============================  ==========  =====================
case        change                        stable?     fetch
==========  ============================  ==========  =====================
``case_a``  lower constraint decreased    yes         Delta C (Thm. 2)
``case_b``  upper constraint decreased    yes         nothing (Thm. 3)
``case_c``  upper constraint increased    yes         Delta C minus cached
                                                      dominance (Thm. 4)
``case_d``  lower constraint increased    no          invalidated overlap
                                                      minus surviving
                                                      dominance (Thm. 5)
==========  ============================  ==========  =====================

:func:`classify_change` detects the case for any pair of constraints (also
labelling exact matches, disjoint regions and general multi-bound changes by
their stability), and the ``solve_case_*`` functions implement Theorems 2-5
directly.  The CBCS engine reaches the same results through the general MPR
(these cases are special cases of Definition 5); the direct solutions
document the theory and serve as cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.mpr import _corner_union_tiling, _subtract_corners
from repro.geometry.box import Box, BoxSet
from repro.geometry.constraints import Constraints, delta_region
from repro.skyline.sfs import sfs_skyline

CASE_EXACT = "exact"
CASE_A = "case_a"
CASE_B = "case_b"
CASE_C = "case_c"
CASE_D = "case_d"
GENERAL_STABLE = "general_stable"
GENERAL_UNSTABLE = "general_unstable"
CASE_DISJOINT = "disjoint"

SINGLE_BOUND_CASES = (CASE_A, CASE_B, CASE_C, CASE_D)


def classify_change(old: Constraints, new: Constraints) -> str:
    """Return the overlap-case label for an old/new constraint pair.

    Runs once per query on the chosen item, so it compares the bounds as
    Python floats: a handful of comparisons, no array operation.
    """
    if old.ndim != new.ndim:
        raise ValueError("constraint dimensionality mismatch")
    old_lo, old_hi = old.lo.tolist(), old.hi.tolist()
    new_lo, new_hi = new.lo.tolist(), new.hi.tolist()
    changed = [
        CASE_A if b < a else CASE_D for a, b in zip(old_lo, new_lo) if b != a
    ] + [CASE_B if b < a else CASE_C for a, b in zip(old_hi, new_hi) if b != a]
    if not changed:
        return CASE_EXACT
    if not all(a <= b for a, b in zip(old_lo, new_hi)) or not all(
        a <= b for a, b in zip(new_lo, old_hi)
    ):
        return CASE_DISJOINT
    if len(changed) == 1:
        return changed[0]
    # Theorem 1: overlapping, so stable iff no lower bound rose
    return GENERAL_UNSTABLE if CASE_D in changed else GENERAL_STABLE


def classify_dimension_changes(old: Constraints, new: Constraints) -> List[str]:
    """Return the per-bound case labels of every changed bound.

    Used by the PrioritizednD strategy, which "independently scor[es] the
    four cases ... penalizing cache items for each dimension where
    constraints differ from the queried" (Section 6.1).
    """
    labels: List[str] = []
    for dim in range(old.ndim):
        if new.lo[dim] < old.lo[dim]:
            labels.append(CASE_A)
        elif new.lo[dim] > old.lo[dim]:
            labels.append(CASE_D)
        if new.hi[dim] < old.hi[dim]:
            labels.append(CASE_B)
        elif new.hi[dim] > old.hi[dim]:
            labels.append(CASE_C)
    return labels


def bound_change_counts(
    old_lo: np.ndarray, old_hi: np.ndarray, new: Constraints
) -> np.ndarray:
    """:func:`classify_dimension_changes` for every old region
    ``[old_lo[:, j], old_hi[:, j]]`` of two ``(d, n)`` bounds arrays at once:
    the ``(4, n)`` counts of bounds that changed as case a, b, c and d."""
    new_lo, new_hi = new.lo[:, None], new.hi[:, None]
    changes = np.stack(
        [new_lo < old_lo, new_hi < old_hi, new_hi > old_hi, new_lo > old_lo]
    )
    return changes.sum(axis=1)


@dataclass
class CaseSolution:
    """What a case solution fetches and what it merges with.

    - ``fetch_boxes``: disjoint regions to read from disk (the gray regions
      of Figure 3);
    - ``reusable``: cached skyline points that enter the final skyline
      computation;
    - ``needs_skyline_pass``: False when the reusable points *are* the final
      answer (case b), True when ``Sky(reusable + fetched, C')`` must be
      computed.
    """

    fetch_boxes: List[Box]
    reusable: np.ndarray
    needs_skyline_pass: bool = True

    def solve(self, fetched_points: np.ndarray) -> np.ndarray:
        """Combine cached and fetched points into the final skyline."""
        if not self.needs_skyline_pass and len(fetched_points) == 0:
            return self.reusable
        pool = (
            np.vstack([self.reusable, fetched_points])
            if len(self.reusable)
            else np.asarray(fetched_points, dtype=float)
        )
        return pool[sfs_skyline(pool)]


def solve_case_a(
    old: Constraints, new: Constraints, skyline: np.ndarray
) -> CaseSolution:
    """Theorem 2: lower constraint decreased.

    Stable; every cached skyline point still satisfies ``new``.  Fetch all of
    ``Delta C`` -- no cached point can dominate any part of it (cached points
    are above the old lower bound, Delta C lies below it in the changed
    dimension).
    """
    return CaseSolution(fetch_boxes=delta_region(old, new), reusable=skyline)


def solve_case_b(
    old: Constraints, new: Constraints, skyline: np.ndarray
) -> CaseSolution:
    """Theorem 3: upper constraint decreased.

    Stable and shrinking: the new skyline is exactly the cached skyline
    filtered by the new constraints.  Nothing is fetched and no dominance
    tests are needed.
    """
    surviving = skyline[new.satisfied_mask(skyline)] if len(skyline) else skyline
    return CaseSolution(fetch_boxes=[], reusable=surviving, needs_skyline_pass=False)


def solve_case_c(
    old: Constraints, new: Constraints, skyline: np.ndarray
) -> CaseSolution:
    """Theorem 4: upper constraint increased.

    Stable; fetch ``Delta C`` minus the dominance regions of the cached
    skyline points (they all still satisfy ``new`` and can prune the
    expansion, unlike in case a).
    """
    skyline = np.asarray(skyline, dtype=float)
    boxes = BoxSet.of(delta_region(old, new), ndim=new.ndim)
    boxes = _subtract_corners(boxes, skyline)
    return CaseSolution(fetch_boxes=boxes.boxes(), reusable=skyline)


def solve_case_d(
    old: Constraints, new: Constraints, skyline: np.ndarray
) -> CaseSolution:
    """Theorem 5: lower constraint increased -- the unstable case.

    Cached skyline points below the new lower bound are expelled; the parts
    of the (shrunken) region they used to dominate are invalidated and must
    be re-read, except where a *surviving* cached skyline point still
    dominates.
    """
    skyline = np.asarray(skyline, dtype=float)
    surviving_mask = (
        new.satisfied_mask(skyline) if len(skyline) else np.zeros(0, dtype=bool)
    )
    surviving = skyline[surviving_mask]
    removed = skyline[~surviving_mask]

    region = BoxSet(new.lo[None], new.hi[None])
    invalid = _corner_union_tiling(region, removed, None)
    invalid = _subtract_corners(invalid, surviving)
    return CaseSolution(fetch_boxes=invalid.boxes(), reusable=surviving)


CASE_SOLVERS = {
    CASE_A: solve_case_a,
    CASE_B: solve_case_b,
    CASE_C: solve_case_c,
    CASE_D: solve_case_d,
}


def solve_single_bound_case(
    old: Constraints, new: Constraints, skyline: np.ndarray
) -> Tuple[str, CaseSolution]:
    """Classify a single-bound change and apply its specialized solution."""
    case = classify_change(old, new)
    if case not in CASE_SOLVERS:
        raise ValueError(
            f"constraints differ by more than one bound (classified {case!r})"
        )
    return case, CASE_SOLVERS[case](old, new, skyline)
