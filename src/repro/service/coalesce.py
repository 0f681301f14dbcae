"""In-flight deduplication and subsumption coalescing.

Two requests for the same constraint region should share one execution;
so should a request whose region is *answerable from* an in-flight
query's result.  The :class:`InFlightTable` tracks every leader request
currently queued or executing and lets later submissions join it as
followers; when the leader finishes, the service derives each follower's
answer from the leader's skyline and resolves its future -- one storage
execution, many answered clients.

**When is piggybacking exact?**  The paper's case analysis (Section 5)
answers this.  For min-skylines, filtering a result Sky(S, C) down to a
smaller region C' is bit-exact iff C' only *shrinks upper bounds*:

    C'.lo == C.lo  (element-wise)   and   C'.hi <= C.hi  (element-wise)

which is the multi-dimensional generalization of Theorem 3 (case b: upper
constraint decreased -> "just filter", no fetch, provably stable).  Plain
region containment is **not** sufficient: raising a lower bound is the
paper's unstable case d -- a point's dominators may lie between the old
and new lower bound, so points absent from Sky(S, C) can *resurface* in
Sky(S, C') and no filter of the parent's answer can produce them.  The
containment predicate below therefore accepts exactly the equal-``lo``,
shrunken-``hi`` geometry and nothing else; everything riskier executes on
its own.

Followers also never inherit a parent's failure or degradation: if the
leader errors, exceeds its deadline, or answers from the cache fallback
(``stale``/``unavailable``), every follower falls back to its own
execution via a forced re-enqueue.  Coalescing may only ever substitute a
bit-identical answer.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cases import classify_change
from repro.geometry.constraints import Constraints

__all__ = ["KIND_DEDUP", "KIND_SUBSUMED", "InFlightEntry", "InFlightTable", "can_coalesce"]

#: follower kinds
KIND_DEDUP = "dedup"  # identical constraints
KIND_SUBSUMED = "subsumed"  # pure upper-bound shrink of the leader's region


def can_coalesce(parent: Constraints, child: Constraints) -> bool:
    """True iff ``child``'s exact answer is a pure filter of ``parent``'s.

    Requires ``child.lo == parent.lo`` element-wise and
    ``child.hi <= parent.hi`` element-wise (generalized Theorem 3).  Equal
    constraints qualify too (the filter is the identity); the service
    prefers the cheaper dedup path for those.
    """
    if parent.ndim != child.ndim:
        return False
    return bool(
        np.array_equal(child.lo, parent.lo) and np.all(child.hi <= parent.hi)
    )


def derive_follower_skyline(
    parent: Constraints, child: Constraints, parent_skyline: np.ndarray
) -> np.ndarray:
    """The child's exact skyline, filtered from the parent's answer.

    Only valid when :func:`can_coalesce` holds -- asserted, because a
    wrong coalesce is a silent wrong answer.
    """
    assert can_coalesce(parent, child), "coalescing an unsafe containment"
    return parent_skyline[child.satisfied_mask(parent_skyline)].copy()


def follower_case(parent: Constraints, child: Constraints) -> str:
    """The overlap-case label stamped on a coalesced outcome (``exact``
    for identical constraints, ``case_b``/``general_stable`` for
    upper-bound shrinks)."""
    return classify_change(parent, child)


class InFlightEntry:
    """One leader request plus the followers piggybacking on it."""

    __slots__ = ("leader", "followers", "done")

    def __init__(self, leader):
        self.leader = leader
        self.followers: List[Tuple[object, str]] = []
        self.done = False


class InFlightTable:
    """Registry of queued/executing leader requests, keyed by constraints.

    All transitions run under one lock, so a follower can never attach to
    an entry whose leader has already been finished (the join and the
    finish race is decided atomically; the loser executes on its own).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[object, InFlightEntry] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _find(self, constraints: Constraints) -> Tuple[Optional[InFlightEntry], Optional[str]]:
        entry = self._entries.get(constraints.key())
        if entry is not None and not entry.done:
            return entry, KIND_DEDUP
        for candidate in self._entries.values():
            if candidate.done:
                continue
            if can_coalesce(candidate.leader.constraints, constraints):
                return candidate, KIND_SUBSUMED
        return None, None

    def try_join(self, request) -> Optional[str]:
        """Attach ``request`` as a follower of a compatible in-flight
        leader; returns the follower kind, or None when nothing matches."""
        with self._lock:
            entry, kind = self._find(request.constraints)
            if entry is None:
                return None
            entry.followers.append((request, kind))
            request.entry = entry
            return kind

    def register(self, request) -> Optional[str]:
        """Make ``request`` a leader (returns None), unless a compatible
        leader appeared since the caller's :meth:`try_join` -- then join it
        instead and return the follower kind."""
        with self._lock:
            entry, kind = self._find(request.constraints)
            if entry is not None:
                entry.followers.append((request, kind))
                request.entry = entry
                return kind
            entry = InFlightEntry(request)
            self._entries[request.constraints.key()] = entry
            request.entry = entry
            return None

    def finish(self, request) -> List[Tuple[object, str]]:
        """Retire ``request``'s leadership; returns the followers to
        resolve.  Idempotent and a no-op for non-leaders."""
        entry = getattr(request, "entry", None)
        if entry is None or entry.leader is not request:
            return []
        with self._lock:
            if entry.done:
                return []
            entry.done = True
            key = request.constraints.key()
            if self._entries.get(key) is entry:
                del self._entries[key]
            followers, entry.followers = entry.followers, []
            return followers
