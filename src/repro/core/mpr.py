"""The Missing Points Region (paper Section 5, Definition 5, Algorithm 1).

Given a cached item ``(Sky(S,C), MBR, C)`` and new constraints ``C'``, the
MPR is the minimal region whose points' skyline membership cannot be decided
from the cache alone.  It consists of:

1. the part of ``R_C'`` outside the old region (new territory -- nothing
   cached applies there),
2. in unstable cases, the *invalidated* part of the overlap: regions that a
   now-expelled cached skyline point used to dominate (those suppressed
   points can re-enter the skyline, Corollary 2),

minus the dominance regions ``DR(u, C')`` of the cached skyline points that
survive the new constraints -- wherever a surviving point still dominates,
nothing new can appear (Theorem 6: completeness; Theorem 7: minimality).

The computation is pure hyper-rectangle algebra: cut ``R_C'`` along the old
constraint planes, and repeatedly subtract closed corner regions.  The
result is a set of *disjoint* axis-orthogonal boxes that can be issued
directly as range queries -- the form the paper's Algorithm 1 produces.
The piece count is O(|H| * |Sky| * |D|)-bounded work and grows steeply with
dimensionality (paper Figure 4/9), which is what the approximate MPR
(:mod:`repro.core.ampr`) trades against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.core.stability import guaranteed_stable
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from repro.obs import NULL_OBS

__all__ = ["MPRResult", "compute_mpr"]

#: The pruners of :func:`compute_mpr`: every survivor (None), a fixed
#: array, or a function of the survivors.
Pruners = Union[None, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass
class MPRResult:
    """The decomposed missing-points region of one cache-vs-query pair.

    - ``boxes``: the disjoint boxes covering the MPR, as the
      :class:`~repro.geometry.box.BoxSet` the decomposition ran on, which
      the planner shapes into the range queries it issues
      (:mod:`repro.core.shaping`);
    - ``surviving``: cached skyline points satisfying the new constraints
      (they are merged with the fetched points, Theorem 6);
    - ``stable``: whether the cached skyline was stable for this query
      (operationally -- syntactic stability or no expelled points);
    - ``invalidated``: how many boxes, the last of ``boxes``, came from
      cache invalidation rather than new territory.  A diagnostic of the
      *region*: the planner's shaping pass may coalesce or drop these boxes
      before anything is issued.
    """

    boxes: BoxSet
    surviving: np.ndarray
    stable: bool
    invalidated: int = 0


def compute_mpr(
    old: Constraints,
    skyline: np.ndarray,
    new: Constraints,
    prune_with: Pruners = None,
    max_invalidation_pieces: Optional[int] = None,
    max_invalidation_anchors: Optional[int] = None,
    obs=None,
) -> MPRResult:
    """Compute the (possibly approximate) MPR of a cached item for ``new``.

    ``skyline`` is the item's cached ``Sky(S, C)`` for ``old``: every row
    lies in the closed region ``R_C``.

    ``prune_with`` selects which cached skyline points' dominance regions
    are subtracted in the final step: ``None`` uses every *surviving* point
    (the exact MPR of Definition 5); a subset of the surviving points yields
    a conservative superset of the MPR.  It is a function from the
    surviving points to that subset, called only when there is a region to
    prune (this is how :class:`~repro.core.ampr.ApproximateMPR` plugs in --
    fewer, larger boxes, no false negatives); the fixed ``(k, d)`` array
    form is kept for the ablations and the tests.

    The call pays only for the region its case leaves to fetch.  New
    territory ``R_C' \\ R_C`` is one box minus one box
    (:meth:`~repro.geometry.box.BoxSet.difference`).  When it and the
    invalidated region are both empty -- every case b, and every stable
    ``C'`` inside ``C`` -- the result is returned before any pruner is
    chosen or any corner subtracted.

    ``max_invalidation_pieces`` bounds the piece count of the unstable-case
    invalidation decomposition.  The exact union of expelled dominance
    regions is a staircase whose tiling can explode combinatorially when
    many skyline points are expelled at once (the effect behind the paper's
    "cache invalidation yields a prohibitive amount of range queries for
    MPR", Section 7.2).  When the budget is exceeded, the union is covered
    conservatively by a single corner region anchored at the componentwise
    minimum of the expelled points -- a superset, so completeness is
    untouched; only extra points are read.  ``None`` keeps the exact
    decomposition (the faithful Algorithm 1 behaviour).

    ``max_invalidation_anchors`` coarsens the expelled-point set *before*
    tiling: the points are chunked into at most that many groups and each
    group replaced by its componentwise minimum, whose corner region covers
    the whole group -- again a conservative superset, but with a bounded and
    typically tiny tiling: the aMPR's "fewer, larger, disjoint range
    queries" trade-off applied to the unstable case.

    When the returned boxes cover some surviving cached skyline points
    (possible only under the conservative approximations above, and only
    in invalidation boxes: new territory lies outside ``R_C``), those
    points are dropped from ``surviving``: they will be re-fetched from disk
    along with any exact duplicates, keeping the merged pool an exact
    multiset.

    ``obs`` optionally attaches an :class:`~repro.obs.Observability`: the
    whole decomposition runs inside an ``mpr.compute`` span (with a nested
    ``stability.check``), and the box count / stability feed the
    ``mpr_rectangles_per_query`` histogram and ``mpr_computations_total``
    counter.
    """
    obs = NULL_OBS if obs is None else obs
    with obs.tracer.span("mpr.compute") as span:
        result = _compute_mpr(
            old,
            skyline,
            new,
            prune_with,
            max_invalidation_pieces,
            max_invalidation_anchors,
            obs,
        )
        if obs.enabled:
            span.set(
                boxes=len(result.boxes),
                invalidated_boxes=result.invalidated,
                surviving=len(result.surviving),
                stable=result.stable,
            )
            obs.metrics.observe("mpr_rectangles_per_query", len(result.boxes))
            obs.metrics.inc(
                "mpr_computations_total",
                stable="stable" if result.stable else "unstable",
            )
    return result


def _compute_mpr(
    old: Constraints,
    skyline: np.ndarray,
    new: Constraints,
    prune_with: Pruners,
    max_invalidation_pieces: Optional[int],
    max_invalidation_anchors: Optional[int],
    obs,
) -> MPRResult:
    """The Algorithm-1 body behind :func:`compute_mpr` (see its docstring).

    The region is a :class:`~repro.geometry.box.BoxSet` throughout, built
    straight from the constraint bounds -- every step on it is a whole-set
    array operation -- and leaves as one, in the returned result, for the
    planner to shape and the executor to read row by row.
    """
    if old.ndim != new.ndim:
        raise ValueError("constraint dimensionality mismatch")
    skyline = np.asarray(skyline, dtype=float)
    if skyline.ndim != 2 or skyline.shape[1] != old.ndim:
        raise ValueError("skyline must be a (k, d) array matching the constraints")
    if prune_with is not None and not callable(prune_with):
        prune_with = np.asarray(prune_with, dtype=float)
        if prune_with.ndim != 2 or prune_with.shape[1] != old.ndim:
            raise ValueError(
                "prune_with must be a (k, d) array matching the constraints"
            )

    satisfied = new.satisfied_mask(skyline)
    surviving = skyline.compress(satisfied, axis=0)

    if not old.overlaps(new):
        # Disjoint regions: the cache tells us nothing; the MPR is all of
        # R_C' (still "stable" per Theorem 1 -- nothing cached is reusable
        # or invalidated).
        region = BoxSet(new.lo[None], new.hi[None])
        return MPRResult(boxes=region, surviving=surviving, stable=True)

    # Step 1 -- new territory: R_C' minus the old region, one box minus one
    # box.
    pieces = BoxSet.difference(new.lo, new.hi, old.lo, old.hi)

    # Step 2 -- invalidation (unstable case): parts of the overlap dominated
    # by expelled skyline points.  Syntactically stable items cannot have
    # expelled dominators below the overlap, and items with nothing expelled
    # have nothing to invalidate.
    expelled = len(skyline) - len(surviving)
    with obs.tracer.span("stability.check") as sspan:
        stable = expelled == 0 or guaranteed_stable(old, new)
        sspan.set(stable=stable, expelled=expelled)
    invalid = BoxSet.empty(new.ndim)
    if not stable:
        overlap = BoxSet(
            np.maximum(new.lo, old.lo)[None], np.minimum(new.hi, old.hi)[None]
        )
        anchors = skyline.compress(~satisfied, axis=0)
        if (
            max_invalidation_anchors is not None
            and len(anchors) > max_invalidation_anchors
        ):
            anchors = _coarsen_dominators(anchors, max_invalidation_anchors)
        invalid = _invalidated_regions(
            overlap, anchors, max_invalidation_pieces, obs=obs
        )
    if not len(pieces) and not len(invalid):
        # Nothing to fetch (every case b, and a stable C' inside C): no
        # pruner can shrink an empty region.
        return MPRResult(boxes=pieces, surviving=surviving, stable=stable)

    # Step 3 -- subtract the dominance regions of (a subset of) the
    # surviving cached skyline points.
    if prune_with is None:
        pruners = surviving
    elif callable(prune_with):
        pruners = prune_with(surviving)
    else:
        pruners = prune_with
    pieces = _subtract_corners(pieces, pruners)
    invalid = _subtract_corners(invalid, pruners)

    if len(surviving) and len(invalid):
        # Conservative invalidation boxes may cover surviving points; drop
        # those from the reuse set -- they (and their duplicates) arrive via
        # the fetch.  New territory lies outside the closed R_C, which holds
        # every cached point, so it covers none.
        surviving = surviving[~invalid.union_mask(surviving)]
    return MPRResult(
        boxes=BoxSet.concat([pieces, invalid]),
        surviving=surviving,
        stable=stable,
        invalidated=len(invalid),
    )


def _invalidated_regions(
    overlap: BoxSet, removed: np.ndarray, budget: Optional[int], obs=NULL_OBS
) -> BoxSet:
    """Disjoint boxes covering ``overlap`` intersected with the union of the
    expelled points' dominance regions (conservatively, under a budget).

    Fallback ladder when the exact staircase tiling exceeds the budget:

    1. *coarsen*: chunk the expelled points (in lexicographic order) into a
       bounded number of groups and replace each group by its componentwise
       minimum -- a virtual dominator whose corner region covers the whole
       group, so the union can only grow (conservative) while the tiling
       stays small;
    2. *collapse*: a single corner region at the componentwise minimum of
       every expelled point.
    """
    if len(removed) == 0:
        return BoxSet.empty(overlap.ndim)
    anchors = removed
    for attempt in range(3):
        result = _corner_union_tiling(overlap, anchors, budget)
        if result is not None:
            return result
        if attempt == 0:
            obs.metrics.inc("mpr_invalidation_fallbacks_total", step="coarsen")
            anchors = _coarsen_dominators(removed, groups=24)
        else:
            obs.metrics.inc("mpr_invalidation_fallbacks_total", step="collapse")
            anchors = removed.min(axis=0).reshape(1, -1)
    # The single-anchor tiling is one intersection; it cannot exceed any
    # positive budget, but guard anyway.
    return overlap.split_corner(removed.min(axis=0))[0]


def _corner_union_tiling(
    overlap: BoxSet, anchors: np.ndarray, budget: Optional[int]
) -> Optional[BoxSet]:
    """Tile ``overlap`` intersected with the union of the anchors' corner
    regions into disjoint boxes; None if the piece count exceeds ``budget``."""
    invalid = [BoxSet.empty(overlap.ndim)]
    n_invalid, left = 0, len(overlap)
    for hit, remaining in overlap.split_corners(anchors):
        # the budget holds the pieces as they stood before this split
        if budget is not None and left + n_invalid > budget:
            return None
        invalid.append(hit)
        n_invalid, left = n_invalid + len(hit), len(remaining)
        if not left:
            break
    return BoxSet.concat(invalid)


def _coarsen_dominators(points: np.ndarray, groups: int) -> np.ndarray:
    """Cover a point set by at most ``groups`` componentwise-minimum anchors.

    Points are chunked in lexicographic order (neighbouring skyline points
    sit close along the staircase, so per-chunk minima stay tight), into
    chunks whose sizes differ by at most one, the larger first."""
    if len(points) <= groups:
        return points
    size, extra = divmod(len(points), groups)
    chunk = np.arange(groups)
    starts = chunk * size + np.minimum(chunk, extra)
    ordered = points[np.lexsort(points.T[::-1])]
    return np.minimum.reduceat(ordered, starts, axis=0)


def _subtract_corners(boxes: BoxSet, points: np.ndarray) -> BoxSet:
    """Subtract the closed corner region of every point from every box
    (``boxes`` holds no empty row and neither does the result).

    Points are processed in ascending coordinate-sum order: points nearer
    the origin have larger dominance regions, so processing them first
    shrinks the piece set early (the same intuition the paper borrows from
    sort-based skyline algorithms for the aMPR).
    """
    if not len(boxes) or len(points) == 0:
        return boxes
    if len(points) > 1:
        points = points[np.argsort(points.sum(axis=1), kind="stable")]
    return boxes.subtract_corners(points)
