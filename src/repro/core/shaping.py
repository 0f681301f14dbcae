"""Plan shaping: a region's boxes are coalesced by what fetching them costs.

The region computers emit the disjoint boxes of the (a)MPR; each box issued
is one range query, charged one seek per table it touches plus the pages it
transfers -- not the points in them.  :func:`shape` is the one pass between
the region and the plan (:meth:`repro.core.planner.Planner.plan` runs it on
every non-exact hit, :class:`~repro.core.strategies.CostBased` prices
candidates with it), driven by the table's I/O-free
:class:`~repro.storage.table.Forecast`:

1. a box forecast to hold no row (some marginal is empty: the table would
   answer it without a seek) is dropped -- the call is saved;
2. a group of boxes is replaced by its bounding box -- its *hull* -- when
   the hull is forecast to cost **fewer seeks than the members** and either
   **reads no more rows than they do together** (they tile it: zero extra
   points) or **reads no more pages than the largest member already does
   and at most twice their rows**; otherwise the group is split by the first
   axis-parallel plane with members strictly on both sides and each side is
   shaped on its own; a group no plane separates is issued as it is.

The hulls of the two sides of a cut are separated by it, so the output is
pairwise disjoint by construction, and every hull lies in the query region
``C'`` (the region's boxes do, and ``C'`` is convex): MPR <= output <= C',
the containment that makes the aMPR safe (paper Section 5.3).  The caller
drops cached points inside a hull from the reuse set, as
:func:`repro.core.mpr.compute_mpr` does for its own conservative boxes.

"Twice their rows" is an invariant, not a knob: it keeps the paper's metric
(points read) within its bound where a page holds most of a small table.
At paper scale a box spans many pages, no hull fits in its largest member's,
and shaping fades to dropped empties and exact tilings (DESIGN.md section 5,
item 17).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.geometry.box import BoxSet

__all__ = ["Shaped", "shape"]

#: slack on "no more rows than the members": the two sides are the same
#: product of counts summed in a different order
_ROWS_SLACK = 1.0 + 1e-9


class Shaped(NamedTuple):
    """What :func:`shape` made of a region."""

    #: the boxes to issue: pairwise disjoint, no empty row; the region's own
    #: :class:`BoxSet` when nothing was dropped or coalesced
    boxes: BoxSet
    #: how many of ``boxes`` are hulls of several region boxes
    hulls: int
    #: predicted latency of issuing ``boxes`` one by one
    io_ms: float


def shape(region: BoxSet, forecast: Callable) -> Shaped:
    """Shape ``region`` (disjoint boxes) into the range queries to issue;
    ``forecast(lo, hi)`` is the table's."""
    if not len(region):
        return Shaped(region, 0, 0.0)
    lo, hi = region.lo, region.hi
    cost = forecast(lo, hi)
    priced = np.array([cost.rows, cost.seeks, cost.pages])
    total = priced.sum(axis=1)  # of issuing every box: the dropped cost 0
    live = np.flatnonzero(priced[0] > 0)
    # Explicit stack, not recursion: an exact-MPR plan can hold thousands of
    # boxes.  ``issued`` lists the members of each output box.
    issued, hulls = [], 0
    stack = [live] if len(live) else []
    while stack:
        group = stack.pop()
        if len(group) == 1:
            issued.append(group)
            continue
        saved = _saved_by_hull(cost, priced[:, group], group)
        if saved is not None:
            total -= saved
            hulls += 1
            issued.append(group)
            continue
        sides = _guillotine(lo[group], hi[group])
        if sides is None:
            issued.extend(group[:, None])
        else:
            stack.extend(group[side] for side in reversed(sides))
    io_ms = cost.model.fetch_cost_ms(total[1], total[2])
    if not hulls and len(issued) == len(region):
        return Shaped(region, 0, io_ms)
    if not issued:
        return Shaped(BoxSet.empty(region.ndim), 0, io_ms)
    # One segmented min / max gives every output box, a hull or not.
    members = np.concatenate(issued)
    starts = np.cumsum([0] + [len(group) for group in issued[:-1]])
    return Shaped(
        BoxSet(
            np.minimum.reduceat(lo[members], starts),
            np.maximum.reduceat(hi[members], starts),
        ),
        hulls,
        io_ms,
    )


def _saved_by_hull(cost, members: np.ndarray, group: np.ndarray) -> Optional[np.ndarray]:
    """What issuing the group's hull instead of the group changes, as the
    ``(rows, seeks, pages)`` to take off the members' totals, when the rule
    in the module docstring makes the replacement; else None.  ``members``
    holds the group's own ``rows`` / ``seeks`` / ``pages``."""
    rows, pages, seeks = cost.hull(group)
    apart = members.sum(axis=1)
    if seeks < apart[1] and (
        rows <= apart[0] * _ROWS_SLACK
        or (pages <= members[2].max() and rows <= 2.0 * apart[0])
    ):
        return apart - (rows, seeks, pages)
    return None


def _guillotine(lo: np.ndarray, hi: np.ndarray) -> Optional[tuple]:
    """Positions of the boxes on either side of the first axis-parallel
    plane with boxes strictly on both sides (``lo`` / ``hi`` the closed
    bounds of at least two boxes), or None when no plane separates them.

    Per dimension: order by lower bound, take the running maximum of the
    upper bounds; there is a cut wherever it is strictly below the next
    lower bound.
    """
    order = np.argsort(lo, axis=0, kind="stable")
    dims = np.arange(lo.shape[1])
    reach = np.maximum.accumulate(hi[order, dims], axis=0)
    cuts = reach[:-1] < lo[order, dims][1:]
    first = int(cuts.T.argmax())  # dimension-major
    dim, after = divmod(first, len(cuts))
    if not cuts[after, dim]:
        return None
    return order[: after + 1, dim], order[after + 1 :, dim]
