"""The benchmark's oracle: expected answers computed without ``repro.skyline``.

Everything here works on the raw arrays the workload generator produced.  A
constrained skyline is a numpy mask over the rows followed by this module's
own sort-and-peel skyline; ``dynamic_mixed`` is replayed on a mirror array
with an alive mask, which also yields the live set the recovered table must
hold.  Answers are compared as coordinate multisets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from perfbench.workloads import INSERT, QUERY


def _lexsorted(points: np.ndarray) -> np.ndarray:
    return points[np.lexsort(points.T[::-1])] if len(points) else points


def skyline(points: np.ndarray) -> np.ndarray:
    """The skyline rows of ``points`` (smaller is better), duplicates kept.

    Sort by coordinate sum (ties, which rounding can produce between a row
    and its dominator, broken lexicographically), then peel: the first
    remaining row is undominated, so it joins the skyline together with its
    exact copies, and every row it dominates is dropped.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return points.reshape(0, points.shape[-1])
    rest = points[np.lexsort((*points.T[::-1], points.sum(axis=1)))]
    kept: List[np.ndarray] = []
    while len(rest):
        head = rest[0]
        kept.append(rest[np.all(rest == head, axis=1)])
        rest = rest[np.any(rest < head, axis=1)]
    return np.concatenate(kept)


def same_multiset(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the two point sets hold the same rows the same number of times."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(_lexsorted(a), _lexsorted(b)))


def expected(
    data: np.ndarray, ops: Sequence[Tuple[str, object]]
) -> Tuple[List[Optional[np.ndarray]], np.ndarray]:
    """Replay ``ops`` on a mirror of ``data``.

    Returns one entry per op -- the expected skyline for a query, the row ids
    an insert must be assigned, ``None`` for a delete -- and the rows alive
    after the last op.
    """
    inserted = sum(len(payload) for kind, payload in ops if kind == INSERT)
    n = len(data)
    mirror = np.empty((n + inserted, data.shape[1]))
    mirror[:n] = data
    alive = np.zeros(len(mirror), dtype=bool)
    alive[:n] = True

    answers: List[Optional[np.ndarray]] = []
    memo = {}  # repeated constraints between two writes share one answer
    for kind, payload in ops:
        if kind == QUERY:
            key = (tuple(payload.lo), tuple(payload.hi))
            if key not in memo:
                rows = mirror[:n]
                inside = (
                    alive[:n]
                    & np.all(rows >= payload.lo, axis=1)
                    & np.all(rows <= payload.hi, axis=1)
                )
                memo[key] = skyline(rows[inside])
            answers.append(memo[key])
            continue
        memo.clear()
        if kind == INSERT:
            mirror[n : n + len(payload)] = payload
            alive[n : n + len(payload)] = True
            answers.append(np.arange(n, n + len(payload)))
            n += len(payload)
        else:
            alive[payload] = False
            answers.append(None)
    return answers, mirror[:n][alive[:n]]
