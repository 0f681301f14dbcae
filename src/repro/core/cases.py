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
their stability).  There is no solver per case: the engine answers every
case through the one region algebra, :func:`repro.core.mpr.compute_mpr`
(Theorems 2-5 are special cases of Definition 5), and
``tests/core/test_cases.py`` holds its regions to the fetch sets of Fig. 3.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.constraints import Constraints

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

