"""The pure planning layer of the CBCS engine.

:class:`Planner` owns everything about answering Sky(S, C') that can be
decided *without touching the disk*: which cached skyline to reuse (via the
configured :class:`~repro.core.strategies.CacheSearchStrategy`), which
overlap case the query falls into (Section 5's cases a-d), and which
disjoint range queries cover the missing-points region (exact MPR or aMPR)
-- always against that *one* item, as in the paper's Section 6: every region
computer has the single interface ``compute(old, skyline, new)`` (combining
several items was built, measured and removed; DESIGN.md section 5 item 11).
It emits a :class:`QueryPlan` -- the one record of a pass: what the engine
executes and what EXPLAIN shows.

Both :meth:`repro.core.cbcs.CBCS.explain` and the execution path call the
same :meth:`Planner.plan`, so explain/execute agreement holds by
construction: there is exactly one piece of code that decides what a query
will do -- a miss is just the degenerate plan (the whole region, nothing
reused).

The region's boxes are not the plan's: between the two runs the one shaping
pass (:func:`repro.core.shaping.shape`), which prices boxes and their
bounding boxes with the table's forecast, drops the ones forecast empty and
coalesces where that saves seeks -- for every region computer that emits
more than one box, so there is nothing to switch.

The planner performs zero I/O.  Its only inputs are the query constraints,
the candidate cache items (the caller does the cache search, because the
cache lookup is stateful -- hit/miss counters, verification), and the
table's I/O-free forecast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.cases import CASE_EXACT, classify_change
from repro.core.shaping import shape
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints

CASE_MISS = "miss"


def score_as_json(score):
    """Render a strategy score (float / tuple / None) as strict JSON."""
    if score is None:
        return None
    if isinstance(score, (tuple, list)):
        return [float(part) for part in score]
    return float(score)


@dataclass
class QueryPlan:
    """One pass of the query body: how CBCS answers (or would answer) a query.

    Built by :meth:`Planner.plan` without touching the disk or mutating the
    cache -- the same record :meth:`CBCS.explain` returns and the engine
    executes.  ``items`` are the cache candidates it was planned against,
    ``item`` the selected one (None on a miss) and ``mpr`` the computed
    missing-points region (None on a miss or an exact hit, where there is
    nothing to compute) -- the region *before* shaping: ``boxes`` cover
    ``mpr.boxes`` and lie in the query region.  ``reusable`` holds the
    cached skyline points that carry over into the answer: the item's whole
    skyline on an exact hit, the MPR's survivors outside every planned box
    on any other hit, None on a miss (nothing is reused).

    ``estimated_points`` and ``candidates_scored`` are read only by
    ``explain()`` and EXPLAIN records, so only :meth:`Planner.annotate`
    computes them; the execution path never pays for the estimator.  The
    engine fills ``rejected``, ``cache_items`` and ``parts`` as the pass
    runs, for the EXPLAIN record built after it.
    """

    constraints: Constraints
    case: str
    #: the boxes issued, in order, as closed float bounds (the executor
    #: reads their rows)
    boxes: BoxSet
    items: Sequence = ()
    item: Optional[object] = None
    mpr: Optional[object] = None
    reusable: Optional[np.ndarray] = None
    #: the table's forecast of the rows the planned range queries read
    estimated_points: int = 0
    #: per-candidate scoring table (one dict per cache item considered,
    #: with overlap/case/score and a rejection reason) -- see
    #: :meth:`Planner.candidate_table`; empty until :meth:`Planner.annotate`
    candidates_scored: Sequence[dict] = ()
    #: items cache verification healed away before the plan was built
    rejected: Sequence = ()
    #: cache size the plan was built against (before this query's insert)
    cache_items: int = 0
    #: per-box ``RangeResult``s of the completed fetch, in plan order
    parts: tuple = ()

    @property
    def cache_hit(self) -> bool:
        return self.item is not None

    @property
    def stable(self) -> Optional[bool]:
        if self.mpr is not None:
            return self.mpr.stable
        return True if self.item is not None else None

    @property
    def candidates(self) -> int:
        return len(self.items) if self.item is not None else 0

    @property
    def item_id(self) -> Optional[int]:
        return None if self.item is None else self.item.item_id

    @property
    def reusable_points(self) -> int:
        return 0 if self.reusable is None else len(self.reusable)

    @property
    def range_queries(self) -> int:
        """Boxes issued -- ``len(boxes)``, after shaping."""
        return len(self.boxes)

    @property
    def region_boxes(self) -> int:
        """Boxes the region computer emitted, before shaping (the paper's
        "range queries generated", Figure 9)."""
        return len(self.boxes if self.mpr is None else self.mpr.boxes)

    def to_dict(self) -> dict:
        """JSON-serializable rendering of the plan.

        Infinite box bounds become ``None`` so the result round-trips
        through strict JSON.
        """
        record = {
            "case": self.case,
            "cache_hit": self.cache_hit,
            "stable": self.stable,
            "candidates": self.candidates,
            "item_id": self.item_id,
            "reusable_points": self.reusable_points,
            "range_queries": self.range_queries,
            "region_boxes": self.region_boxes,
            "estimated_points": self.estimated_points,
            "boxes": self.boxes.to_dicts(),
        }
        if self.candidates_scored:
            record["candidates_scored"] = [
                dict(row) for row in self.candidates_scored
            ]
        return record

    def summary(self) -> str:
        """One-line human-readable rendering."""
        source = f"item #{self.item_id}" if self.cache_hit else "no cache item"
        return (
            f"case={self.case} via {source} ({self.candidates} candidates); "
            f"reuse {self.reusable_points} cached points, issue "
            f"{self.range_queries} range queries (~{self.estimated_points} "
            f"points)"
        )


class Planner:
    """Pure query planner: cache-item selection + case + region, no I/O.

    ``forecast(lo, hi)`` is the table's
    (:meth:`repro.storage.table.DiskTable.forecast`): an in-memory pricing
    of closed boxes -- the planner trusts it to charge no simulated I/O.
    """

    def __init__(self, strategy, region_computer, forecast: Callable):
        self.strategy = strategy
        self.region = region_computer
        self._forecast = forecast

    def select(
        self, constraints: Constraints, candidates, record: bool = True
    ) -> Optional[object]:
        """Pick the cache item to reuse, or None when nothing qualifies.

        The key probe's exact match (``candidates.exact``) is the item
        itself: the strategy is not consulted.  ``record=False`` (the
        explain-only path) suppresses the strategy's selection span and
        ``strategy_selections_total`` counter so a dry-run plan leaves the
        observability counters untouched.
        """
        if not candidates:
            return None
        if candidates.exact:
            return candidates[0]
        return self.strategy.select(constraints, candidates, record=record)

    def candidate_row(
        self,
        constraints: Constraints,
        item,
        selected: bool = False,
        rejection: Optional[str] = None,
    ) -> dict:
        """One candidate's scoring-table entry (strict-JSON dict)."""
        return {
            "item_id": item.item_id,
            "case": classify_change(item.constraints, constraints),
            "overlap_volume": float(
                item.constraints.overlap_volume(constraints)
            ),
            "skyline_size": int(item.skyline_size),
            "score": score_as_json(self.strategy.score(constraints, item)),
            "selected": bool(selected),
            "rejection": None if selected else rejection,
        }

    def candidate_table(
        self, constraints: Constraints, candidates, chosen=None
    ) -> List[dict]:
        """Score every candidate the strategy considered, selected first.

        Each row carries the candidate's overlap volume, incremental case,
        strategy score, and -- for the unselected -- a machine-readable
        rejection reason (the strategy's ``rejection_reason``, e.g.
        ``"outscored"``).  Pure and side-effect free: scoring never touches
        the disk or the cache counters.
        """
        rows = [
            self.candidate_row(
                constraints,
                item,
                selected=item is chosen,
                rejection=self.strategy.rejection_reason,
            )
            for item in candidates
        ]
        rows.sort(key=lambda row: not row["selected"])
        return rows

    def plan(
        self,
        constraints: Constraints,
        candidates,
        item=None,
        record: bool = True,
    ) -> QueryPlan:
        """Plan one query against the given (already verified) candidates.

        The only builder of plans: a miss (nothing selectable) is the
        single range query over the whole region with nothing reused; an exact match -- the cache's key probe found it, so
        there is no case to classify -- fetches nothing; every other hit
        fetches the missing-points region, shaped by forecast cost
        (:func:`repro.core.shaping.shape`) -- cached points inside a
        coalesced box leave the reuse set and arrive via the fetch.

        ``item`` lets the caller pass a pre-selected (and cache-verified)
        item so selection is not repeated; with the default None the
        strategy picks from ``candidates``.  ``record=False`` keeps a
        dry-run plan out of the selection counters and the region
        computer's MPR metrics.
        """
        if item is None:
            item = self.select(constraints, candidates, record=record)
        if item is None:
            return QueryPlan(
                constraints,
                CASE_MISS,
                BoxSet(constraints.lo[None], constraints.hi[None]),
                items=candidates,
            )
        if candidates.exact:
            return QueryPlan(
                constraints,
                CASE_EXACT,
                BoxSet.empty(constraints.ndim),
                items=candidates,
                item=item,
                reusable=item.skyline,
            )
        case = classify_change(item.constraints, constraints)
        mpr = self.compute_region(item, constraints, record=record)
        fetch, hulls, reusable = mpr.boxes, 0, mpr.surviving
        if len(fetch) > 1:
            # (one box has nothing to coalesce with, and whether it is
            # empty the table finds out without a seek)
            fetch, hulls, _ = shape(fetch, self._forecast)
        if hulls and len(reusable):
            reusable = reusable[~fetch.union_mask(reusable)]
        return QueryPlan(
            constraints,
            case,
            fetch,
            items=candidates,
            item=item,
            mpr=mpr,
            reusable=reusable,
        )

    def forecast(self, boxes: BoxSet):
        """The table's :class:`~repro.storage.table.Forecast` of ``boxes``."""
        return self._forecast(boxes.lo, boxes.hi)

    def annotate(self, plan: QueryPlan) -> QueryPlan:
        """Fill the plan's explain-only fields; returns the plan.

        ``estimated_points`` (the forecast rows of the planned boxes) and
        ``candidates_scored`` (strategy scoring table) are pure and
        I/O-free but not free: only ``explain()`` and EXPLAIN records call
        this, never the execution path.
        """
        plan.estimated_points = int(round(self.forecast(plan.boxes).rows.sum()))
        plan.candidates_scored = self.candidate_table(
            plan.constraints, plan.items, chosen=plan.item
        )
        return plan

    def compute_region(self, item, constraints, record=True):
        """Compute the missing-points region of the query against ``item``;
        ``record=False`` keeps a dry run out of the MPR span and metrics."""
        return self.region.compute(
            item.constraints, item.skyline, constraints, record=record
        )
