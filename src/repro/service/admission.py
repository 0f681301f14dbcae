"""Admission control: load shedding by priority class and queue depth.

Admission sits between :meth:`QueryService.submit` and the ingress queue
and answers one question per request -- *admit or shed?* -- from the queue
depth alone.  Each priority class owns a fraction of the queue's capacity
(:data:`SHED_FRACTIONS`); once the depth reaches ``capacity * fraction``
that class is shed.  ``batch`` traffic sheds at half a queue, ``normal``
near a full one, and ``interactive`` never here -- only the queue itself
rejects it, when full: a graceful brownout instead of a cliff.

Shedding is always explicit: a shed request resolves to a typed ``shed``
outcome carrying the reason string, never an exception, never a silent
drop.  Requests that join an in-flight execution (deduplicated or
subsumption-coalesced) bypass admission entirely -- piggybacking costs no
queue slot and no storage work, so coalescing is the overload *remedy*,
not more load.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["SHED_FRACTIONS", "shed_reason"]

#: Per-class fraction of the queue's capacity at which that class sheds.
#: 1.0 means only the hard capacity bound applies (the queue rejects).
SHED_FRACTIONS: Dict[str, float] = {
    "interactive": 1.0,
    "normal": 0.9,
    "batch": 0.5,
}


def shed_reason(priority: str, depth: int, capacity: int) -> Optional[str]:
    """None to admit a ``priority`` request at queue ``depth``, or a
    human-readable shed reason."""
    frac = SHED_FRACTIONS[priority]
    threshold = capacity * frac
    if frac < 1.0 and depth >= threshold:
        return (
            f"queue depth {depth} >= {threshold:.0f} "
            f"({frac:.0%} of capacity {capacity}) for priority {priority!r}"
        )
    return None
