"""Cache search strategies (paper Section 6.1).

When several cached items overlap a query, a strategy picks the one expected
to be cheapest to complete.  All seven strategies from the paper are
implemented; each takes the query constraints and the candidate items and
returns one item.

- **Random** -- uniform choice (the control).
- **MaxOverlap** -- largest overlap volume between the item's constraint
  region and the query region (high overlap means a small MPR).
- **MaxOverlapSP** -- like MaxOverlap but stable items are always preferred
  over unstable ones, "even if there is an unstable option with a higher
  degree of overlap".
- **Prioritized1D** -- prefers simple single-bound cases in the paper's
  experimentally chosen order: case b, case c, case a, general stable,
  case d, general unstable; ties broken by overlap.
- **PrioritizedND(c1, c2, c3, c4)** -- scores each changed bound by its case
  penalty and sums, "penalizing cache items for each dimension where
  constraints differ"; lowest total wins, ties broken by overlap.  The
  paper's tuned variant is (10, 0, 5, 20) ("Std") and the deliberately bad
  one (10, 50, 30, 0) ("Bad").
- **OptimumDistance** -- smallest distance between the item's and the
  query's lower constraint corner, "to give priority to likely dominating
  regions".
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import CacheItem, Candidates
from repro.core.cases import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_EXACT,
    GENERAL_STABLE,
    GENERAL_UNSTABLE,
    bound_change_counts,
)
from repro.core.shaping import shape
from repro.core.stability import guaranteed_stable_columns
from repro.geometry.constraints import Constraints, overlap_volumes, overlaps_columns
from repro.obs import NULL_OBS

Rng = Union[int, np.random.Generator, None]


class CacheSearchStrategy:
    """Base class: rank candidate items, return the best.

    ``select`` is a template method: it validates, opens a ``cache.select``
    span, delegates the actual ranking to ``_select`` (overridable), and
    counts the pick in ``strategy_selections_total{strategy=...}``.
    Observability defaults to the shared no-op; the CBCS engine rebinds it
    via :meth:`bind_obs` when instrumented.

    A scoring strategy implements ``_scores``: the ranking keys of *all*
    candidates at once, computed by broadcasting over the ``(d, k)`` columns
    of their constraint bounds (:class:`~repro.core.cache.Candidates`, which
    the cache search hands over ready).  ``_select`` picks the first
    lexicographic maximum in candidate order (the cache lists candidates by
    ascending ``item_id``, so that is the tie-break), and ``score`` is the
    one-column case of the same computation.  No key is ever NaN: an argmax
    would promote one.
    """

    name = "abstract"
    obs = NULL_OBS
    #: Machine-readable reason an unselected candidate lost; strategies with
    #: non-score-based selection override it (``Random``: "not-sampled",
    #: ``CostBased``: "costlier-plan").  Surfaced per candidate by the
    #: explain layer (:mod:`repro.obs.explain`).
    rejection_reason = "outscored"

    def bind_obs(self, obs) -> "CacheSearchStrategy":
        """Attach observability (selection spans + counters)."""
        self.obs = NULL_OBS if obs is None else obs
        return self

    def select(
        self,
        query: Constraints,
        items: Sequence[CacheItem],
        record: bool = True,
    ) -> CacheItem:
        """Return the preferred cache item for ``query``.

        ``items`` is what :meth:`repro.core.cache.SkylineCache.candidates`
        returned, or any sequence of items (their columns are then built
        here).  ``record=False`` skips the selection span and the
        ``strategy_selections_total`` counter -- the explain-only planning
        path uses it so an ``explain()`` followed by ``query()`` counts one
        selection, not two.
        """
        if not items:
            raise ValueError("select() requires at least one candidate item")
        items = Candidates.of(items)
        obs = self.obs
        if not obs.enabled or not record:
            return self._select(query, items)
        with obs.tracer.span(
            "cache.select", strategy=self.name, candidates=len(items)
        ) as span:
            item = self._select(query, items)
            span.set(item_id=item.item_id)
        obs.metrics.inc("strategy_selections_total", strategy=self.name)
        return item

    def score(self, query: Constraints, item: CacheItem):
        """Inspection-only ranking score of one candidate (no side effects).

        Returns what ``_scores`` ranks by (a float, or a tuple when there
        are several keys), or None for strategies whose selection is not a
        per-item static score (``Random``).  The explain layer records this
        next to each candidate so rejections are explainable: the selected
        item's score weakly dominates every rejected one's.
        """
        one = Candidates.of([item])
        try:
            keys = self._scores(query, one.lo, one.hi)
        except NotImplementedError:
            return None
        parts = tuple(key.item() for key in keys)
        return parts[0] if len(parts) == 1 else parts

    def _select(self, query: Constraints, items: Candidates) -> CacheItem:
        return items[_first_maximum(self._scores(query, items.lo, items.hi))]

    def _scores(
        self, query: Constraints, lo: np.ndarray, hi: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Ranking keys (most significant first, higher is better), one
        ``(k,)`` array each, of the candidates whose constraints are the
        columns of the ``(d, k)`` arrays ``lo`` / ``hi``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RandomStrategy(CacheSearchStrategy):
    """Uniformly random choice among the overlapping items."""

    name = "Random"
    rejection_reason = "not-sampled"

    def __init__(self, seed: Rng = None):
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    def select(
        self, query: Constraints, items: Sequence[CacheItem], record: bool = True
    ) -> CacheItem:
        """A dry run (``record=False``) draws from the generator and then
        rewinds it, so it names the item the next recorded pick over the
        same candidates takes and leaves that pick unchanged."""
        if record:
            return super().select(query, items)
        state = self._rng.bit_generator.state
        try:
            return super().select(query, items, record=False)
        finally:
            self._rng.bit_generator.state = state

    def _select(self, query: Constraints, items: Candidates) -> CacheItem:
        return items[int(self._rng.integers(len(items)))]


class MaxOverlap(CacheSearchStrategy):
    """Largest constraint-region overlap volume with the query."""

    name = "MaxOverlap"

    def _scores(self, query: Constraints, lo: np.ndarray, hi: np.ndarray):
        return (overlap_volumes(lo, hi, query),)


class MaxOverlapSP(CacheSearchStrategy):
    """Stability-preferring MaxOverlap: any stable item beats any unstable
    one; overlap volume breaks ties within each group."""

    name = "MaxOverlapSP"

    def _scores(self, query: Constraints, lo: np.ndarray, hi: np.ndarray):
        stable = guaranteed_stable_columns(lo, hi, query)
        return (stable.astype(int), overlap_volumes(lo, hi, query))


class Prioritized1D(CacheSearchStrategy):
    """Case-priority ranking for single-bound changes (Section 6.1).

    Priority order (best first): case b, case c, case a, general stable,
    case d, general unstable.  Exact matches outrank everything; ties are
    settled by MaxOverlap.
    """

    name = "Prioritized1D"

    _PRIORITY: Dict[str, int] = {
        CASE_EXACT: 7,
        CASE_B: 6,
        CASE_C: 5,
        CASE_A: 4,
        GENERAL_STABLE: 3,
        CASE_D: 2,
        GENERAL_UNSTABLE: 1,
    }

    def _scores(self, query: Constraints, lo: np.ndarray, hi: np.ndarray):
        # classify_change, for every candidate at once
        counts = bound_change_counts(lo, hi, query)
        changed = counts.sum(axis=0)
        rank = self._PRIORITY
        single = [rank[CASE_A], rank[CASE_B], rank[CASE_C], rank[CASE_D]] @ counts
        general = np.where(
            counts[3] == 0, rank[GENERAL_STABLE], rank[GENERAL_UNSTABLE]
        )
        priority = np.where(
            changed == 0,
            rank[CASE_EXACT],
            np.where(changed == 1, single, general),
        )
        priority[~overlaps_columns(lo, hi, query)] = 0  # disjoint: no priority
        return (priority, overlap_volumes(lo, hi, query))


class PrioritizedND(CacheSearchStrategy):
    """Per-bound case scoring summed over every differing dimension.

    Each changed bound of each dimension is classified as one of the four
    incremental cases and charged that case's penalty; the item with the
    lowest total is selected (ties: larger overlap).  ``PrioritizedND.std()``
    and ``PrioritizedND.bad()`` build the paper's two evaluated variants.
    """

    name = "PrioritizedND"

    def __init__(self, c1: float, c2: float, c3: float, c4: float):
        self.penalties: Dict[str, float] = {
            CASE_A: float(c1),
            CASE_B: float(c2),
            CASE_C: float(c3),
            CASE_D: float(c4),
        }
        self.name = f"PrioritizedND({c1:g},{c2:g},{c3:g},{c4:g})"

    @classmethod
    def std(cls) -> "PrioritizedND":
        """The paper's well-performing variant, PrioritizednD (Std)."""
        return cls(10, 0, 5, 20)

    @classmethod
    def bad(cls) -> "PrioritizedND":
        """The paper's deliberately mis-weighted variant, PrioritizednD (Bad)."""
        return cls(10, 50, 30, 0)

    def _scores(self, query: Constraints, lo: np.ndarray, hi: np.ndarray):
        penalty = [
            self.penalties[case] for case in (CASE_A, CASE_B, CASE_C, CASE_D)
        ] @ bound_change_counts(lo, hi, query)
        return (0.0 - penalty, overlap_volumes(lo, hi, query))


class OptimumDistance(CacheSearchStrategy):
    """Smallest L2 distance between lower constraint corners."""

    name = "OptimumDistance"

    def _scores(self, query: Constraints, lo: np.ndarray, hi: np.ndarray):
        # a dimension unbounded below on both sides is at distance 0, not
        # inf - inf
        corner = query.lo[:, None]
        gap = np.zeros(lo.shape)
        np.subtract(lo, corner, out=gap, where=lo != corner)
        return (-np.sqrt((gap * gap).sum(axis=0)),)


class CostBased(CacheSearchStrategy):
    """EXTENSION (not in the paper): pick by *estimated execution cost*.

    The paper's strategies rank items by proxies (overlap volume, stability,
    per-bound case penalties).  This strategy evaluates the real plan: it
    runs the region computer for each of the most-overlapping candidates,
    shapes the region as the planner will (:func:`repro.core.shaping.shape`)
    and prices the boxes that would be issued with the table's forecast --
    seeks and pages under its disk constants -- then picks the cheapest.

    Selection itself becomes more expensive (one region computation per
    evaluated candidate), so ``max_candidates`` bounds the evaluation to
    the most-overlapping few; the paper anticipates exactly this tension
    when it notes that smarter cache search "would become more complicated"
    (Section 6.3).
    """

    name = "CostBased"
    rejection_reason = "costlier-plan"

    def __init__(self, table, region, max_candidates: int = 4):
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        self.table = table
        self.region = region
        self.max_candidates = max_candidates

    def _select(self, query: Constraints, items: Candidates) -> CacheItem:
        overlap = overlap_volumes(items.lo, items.hi, query)
        shortlist = np.argsort(-overlap, kind="stable")[: self.max_candidates]
        best, best_cost = items[shortlist[0]], float("inf")
        for item in (items[i] for i in shortlist):
            cost = self._estimated_cost(query, item)
            if cost < best_cost:
                best, best_cost = item, cost
        return best

    def score(self, query: Constraints, item: CacheItem):
        """Negated estimated plan cost (higher is better, like ``_score``)."""
        return -self._estimated_cost(query, item)

    def _estimated_cost(self, query: Constraints, item: CacheItem) -> float:
        """Predicted ``io_ms`` of the plan the engine would issue: the
        region shaped and priced by the planner's own pass.  Pricing is not
        planning: ``record=False`` keeps it out of the region's metrics."""
        mpr = self.region.compute(item.constraints, item.skyline, query, record=False)
        return shape(mpr.boxes, self.table.forecast).io_ms


def _first_maximum(keys: Sequence[np.ndarray]) -> int:
    """Index of the first row holding the lexicographic maximum of ``keys``
    (what ``max`` over per-row key tuples returns): ``lexsort`` is stable,
    so the first row of the ascending order of the negated keys."""
    if len(keys) == 1:
        return int(keys[0].argmax())
    return int(np.lexsort([-key for key in reversed(keys)])[0])


def default_strategy_suite(seed: Rng = 0) -> List[CacheSearchStrategy]:
    """Return all strategies the paper compares in Figure 11."""
    return [
        RandomStrategy(seed=seed),
        MaxOverlap(),
        MaxOverlapSP(),
        Prioritized1D(),
        PrioritizedND.std(),
        PrioritizedND.bad(),
        OptimumDistance(),
    ]
