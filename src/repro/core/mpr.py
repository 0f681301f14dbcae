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
from typing import Callable, Union

import numpy as np

from repro.core.stability import guaranteed_stable
from repro.geometry.box import BoxSet, _holds_double
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
    corner_cover: bool = False,
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

    ``corner_cover`` chooses how the unstable case's invalidated region --
    the overlap ``R_C ∩ R_C'`` intersected with the union of the expelled
    cached skyline points' dominance regions -- is covered.  False tiles it
    exactly, as Algorithm 1 does: a staircase of disjoint boxes, one corner
    cut per expelled point, whose piece count grows steeply when many
    points are expelled at once (the paper's "cache invalidation yields a
    prohibitive amount of range queries for MPR", Section 7.2).  True
    covers it with the single box ``overlap ∩ DR(m)``, ``m`` the
    componentwise minimum of the expelled points: it contains every
    expelled point's corner region, so it is a conservative superset --
    completeness is untouched, only extra points are read -- built in a
    few scalar steps and independent of the skyline's row order.  That is
    the aMPR's "fewer, but larger" range queries applied to the unstable
    case.

    When the returned boxes cover some surviving cached skyline points
    (possible only under the conservative cover above, and only in
    invalidation boxes: new territory lies outside ``R_C``), those points
    are dropped from ``surviving``: they will be re-fetched from disk along
    with any exact duplicates, keeping the merged pool an exact multiset.

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
            corner_cover,
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
    corner_cover: bool,
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
        cover = _corner if corner_cover else _staircase
        invalid = cover(old, new, skyline.compress(~satisfied, axis=0))
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


def _staircase(old: Constraints, new: Constraints, expelled: np.ndarray) -> BoxSet:
    """Disjoint boxes tiling the overlap intersected with the union of the
    ``expelled`` points' corner regions exactly: one corner cut per point,
    stopping once nothing of the overlap is left to cut."""
    overlap = BoxSet(
        np.maximum(new.lo, old.lo)[None], np.minimum(new.hi, old.hi)[None]
    )
    invalid = [BoxSet.empty(new.ndim)]
    for hit, remaining in overlap.split_corners(expelled):
        invalid.append(hit)
        if not len(remaining):
            break
    return BoxSet.concat(invalid)


def _corner(old: Constraints, new: Constraints, expelled: np.ndarray) -> BoxSet:
    """The one box ``overlap ∩ DR(m)``, ``m`` the componentwise minimum of
    the ``expelled`` points, or no box when it holds no double (every
    expelled point lies above ``C'`` in some dimension).

    Its bounds are the ones :meth:`~repro.geometry.box.BoxSet.split_corner`
    of the overlap by ``m`` takes -- ``lo = max(max(new.lo, old.lo), m)``,
    ``hi = min(new.hi, old.hi)``, the second operand on a tie, as
    ``np.maximum`` / ``np.minimum`` take it -- so the sign of a zero face is
    theirs; for one box, Python floats cost less than the array calls."""
    lo = [a if a > b else b for a, b in zip(new.lo.tolist(), old.lo.tolist())]
    lo = [a if a > b else b for a, b in zip(lo, expelled.min(axis=0).tolist())]
    hi = [a if a < b else b for a, b in zip(new.hi.tolist(), old.hi.tolist())]
    if not _holds_double(lo, hi):
        return BoxSet.empty(new.ndim)
    return BoxSet(np.array([lo]), np.array([hi]))


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
