"""Brute-force skyline, the executable form of Definition 1.

Quadratic in the input size; used as the test oracle that every other
algorithm (BNL, SFS, BBS, CBCS) must agree with.  Also home of the one
definition of a correct engine answer, :func:`answer_error`, which the
soaks and the engine state machine share: :func:`constrained_reference`
(the engine-free ground truth for one query) compared with
:func:`same_multiset`.

This module keeps its own dominance loop and imports nothing from
``repro.skyline.sfs`` or ``repro.geometry.dominance``: an oracle that shared
the kernel under test would inherit its bugs.
"""

from __future__ import annotations

import numpy as np


def brute_force_skyline(points: np.ndarray) -> np.ndarray:
    """Return the indices of the skyline rows of ``points``.

    A row is in the skyline iff no other row dominates it.  Exact coordinate
    duplicates dominate neither each other nor themselves, so all copies of
    an undominated point are returned (standard skyline semantics).
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        p = points[i]
        le = np.all(points <= p, axis=1)
        lt = np.any(points < p, axis=1)
        if np.any(le & lt):
            keep[i] = False
    return np.flatnonzero(keep)


def is_skyline(points: np.ndarray, candidate: np.ndarray) -> bool:
    """Return True if ``candidate`` rows are exactly the skyline of
    ``points`` (as multisets of coordinates)."""
    points = np.asarray(points, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    return same_multiset(points[brute_force_skyline(points)], candidate)


def same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    """True if ``a`` and ``b`` hold the same rows, order aside."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if len(a) == 0:
        return True
    a_sorted = a[np.lexsort(a.T[::-1])]
    b_sorted = b[np.lexsort(b.T[::-1])]
    return bool(np.array_equal(a_sorted, b_sorted))


def constrained_reference(data: np.ndarray, constraints) -> np.ndarray:
    """The ground-truth constrained skyline, computed without the engine."""
    region = data[constraints.satisfied_mask(data)]
    if len(region) == 0:
        return region
    return region[brute_force_skyline(region)]


def answer_error(outcome, rows: np.ndarray, constraints) -> str | None:
    """None if ``outcome`` answers ``constraints`` over the live ``rows``
    correctly, else what is wrong with it.

    Correct means flagged ``stale`` (the cache fallbacks that may miss
    points say so) or equal, as a multiset, to :func:`constrained_reference`.
    """
    if outcome.stale:
        return None
    expected = constrained_reference(rows, constraints)
    if same_multiset(outcome.skyline, expected):
        return None
    return (
        f"answer differs from the reference ({len(outcome.skyline)} vs "
        f"{len(expected)} points, case={outcome.case}, rung={outcome.degraded})"
    )
