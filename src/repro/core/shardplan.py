"""Shard-pruning planner: which shards can contribute to a constrained skyline.

This is the PartitionCache idea transplanted to skylines.  Given the
constraint region ``C`` and each shard's summary (live MBR + count), classify
every shard:

``disjoint``
    The shard is empty, or its MBR does not intersect ``C`` -- no live row
    of the shard satisfies the constraints, so it cannot contribute.

``dominated``
    Some *other* nonempty shard ``i`` has its MBR fully inside ``C`` and
    ``mbr_hi(i) <= corner(j)`` componentwise with strict ``<`` in at least
    one dimension, where ``corner(j) = max(mbr_lo(j), C.lo)`` is the best
    (most dominating) point shard ``j`` could possibly place inside ``C``.
    Every actual point ``p`` of shard ``i`` then lies inside ``C`` (MBR
    inside region) and satisfies ``p <= mbr_hi(i) <= corner(j) <= q`` for
    every in-region point ``q`` of shard ``j``, strictly below in the strict
    dimension -- so ``p`` dominates ``q`` and shard ``j`` cannot contribute
    a skyline point.  Domination is safe transitively: a dominator that is
    itself dominated is dominated only by another fully-inside shard whose
    points dominate at least as strongly, and the chain bottoms out at a
    surviving shard (mutual domination is impossible because the strict
    inequality would force ``mbr_lo(i) < mbr_lo(i)``).

``surviving``
    Everything else -- the shard must be scanned.

Pruning uses only the summaries (zero I/O), and the decisions for one
constraint region are themselves cacheable: :class:`PruningSetCache` is an
LRU keyed by ``Constraints.key()`` so a repeat query skips both the pruned
shards *and* the pruning computation.  The engine invalidates it whenever a
shard MBR actually grows (see ``ShardedTable.record_append``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.constraints import Constraints
from repro.geometry.dominance import dominates
from repro.storage.sharding import ShardSummary

DECISION_DISJOINT = "disjoint"
DECISION_DOMINATED = "dominated"
DECISION_SURVIVING = "surviving"

__all__ = [
    "DECISION_DISJOINT",
    "DECISION_DOMINATED",
    "DECISION_SURVIVING",
    "ShardDecision",
    "prune_shards",
    "PruningSetCache",
]


@dataclass(frozen=True)
class ShardDecision:
    """One shard's classification with a machine-readable reason.

    Reasons: ``empty-shard``, ``mbr-disjoint-dim{d}``,
    ``dominated-by-shard{i}``, ``in-region``.
    """

    shard_id: int
    decision: str
    reason: str

    @property
    def pruned(self) -> bool:
        return self.decision != DECISION_SURVIVING

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "decision": self.decision,
            "reason": self.reason,
        }


def _disjoint_dim(summary: ShardSummary, constraints: Constraints) -> Optional[int]:
    """First dimension where the shard MBR misses the region, else None."""
    for d in range(len(constraints.lo)):
        if (
            summary.mbr_hi[d] < constraints.lo[d]
            or summary.mbr_lo[d] > constraints.hi[d]
        ):
            return d
    return None


def prune_shards(
    summaries: Sequence[ShardSummary], constraints: Constraints
) -> List[ShardDecision]:
    """Classify every shard ``disjoint | dominated | surviving`` for ``C``.

    Pure function of the summaries and the region -- no table access.
    Returns one decision per shard, in shard-id order.
    """
    lo = np.asarray(constraints.lo, dtype=float)
    hi = np.asarray(constraints.hi, dtype=float)

    decisions: List[Optional[ShardDecision]] = [None] * len(summaries)
    candidates: List[ShardSummary] = []  # non-disjoint, still in play
    for s in summaries:
        if s.empty:
            decisions[s.shard_id] = ShardDecision(
                s.shard_id, DECISION_DISJOINT, "empty-shard"
            )
            continue
        d = _disjoint_dim(s, constraints)
        if d is not None:
            decisions[s.shard_id] = ShardDecision(
                s.shard_id, DECISION_DISJOINT, f"mbr-disjoint-dim{d}"
            )
            continue
        candidates.append(s)

    # Dominators must be nonempty with their whole MBR inside the region,
    # so that every one of their actual points is a valid in-region witness.
    dominators = [
        s
        for s in candidates
        if np.all(lo <= s.mbr_lo) and np.all(s.mbr_hi <= hi)
    ]
    for s in candidates:
        # corner(j): the most optimistic point shard j could place in C.
        corner = np.maximum(s.mbr_lo, lo)
        verdict: Optional[ShardDecision] = None
        for other in dominators:
            if other.shard_id != s.shard_id and dominates(other.mbr_hi, corner):
                verdict = ShardDecision(
                    s.shard_id,
                    DECISION_DOMINATED,
                    f"dominated-by-shard{other.shard_id}",
                )
                break
        decisions[s.shard_id] = verdict or ShardDecision(
            s.shard_id, DECISION_SURVIVING, "in-region"
        )
    return list(decisions)  # type: ignore[arg-type]


class PruningSetCache:
    """LRU cache of pruning decisions keyed by constraint region.

    The PartitionCache trick verbatim: the set of shards that can contribute
    to a region is a function of (region, shard summaries), so it is cached
    under ``Constraints.key()`` and reused until a summary changes -- the
    engine calls :meth:`invalidate` when any shard MBR grows (or a delete
    could shrink one), which drops every entry.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple, List[ShardDecision]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, constraints: Constraints) -> Optional[List[ShardDecision]]:
        key = constraints.key()
        decisions = self._entries.get(key)
        if decisions is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return decisions

    def store(
        self, constraints: Constraints, decisions: List[ShardDecision]
    ) -> None:
        key = constraints.key()
        self._entries[key] = decisions
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every cached pruning set (a shard summary changed)."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "invalidations": self.invalidations,
        }
