"""The Cache-Based Constrained Skyline engine (paper Section 6).

"Upon receiving a query Sky(S, C'), we perform a search on the R*-tree
fetching all cache items where R_C' intersects MBR != empty.  If none exist,
Sky(S, C') is computed naively.  If more than one cache item is returned, we
select the most efficient based on a cache search strategy.  We then compute
the MPR.  Finally we fetch the points in the MPR, merge them with the cached
Sky(S, C), and compute Sky(S, C')."  (The search here is an overlap test
over a flat table of the cached MBRs, not an R*-tree: same candidate set,
see :mod:`repro.core.cache`.)

The engine is split into three layers (see ``docs/architecture.md``):

- a pure :class:`~repro.core.planner.Planner` that owns cache-item
  selection, case classification (Section 5) and MPR/aMPR planning -- zero
  I/O, shared verbatim by :meth:`CBCS.explain` and the execution path;
- an :class:`~repro.core.executor.Executor` that runs a plan's disjoint
  range queries, in plan order on the calling thread, against the one
  table the engine holds -- a :class:`~repro.storage.table.DiskTable`, a
  :class:`~repro.storage.sharding.ShardedTable`, or either behind a
  fault injector, all satisfying
  :class:`~repro.storage.backend.StorageBackend`;
- with resilience on, each of those range queries is one
  :meth:`repro.resilience.Resilience.read` (validation + retry + circuit
  breaker) instead of a bare ``table.range_query``.

``CBCS`` itself keeps the stateful glue, and states the paper's sequence
exactly once, as one pass in two steps: :meth:`CBCS._plan` (search,
verify, select, plan -- a miss is the degenerate plan) and
:meth:`CBCS._execute` (fetch the plan's boxes, merge with the reusable
points, skyline, cache).  The :class:`~repro.core.planner.QueryPlan` is
the one record of the pass.  :meth:`CBCS._serve` runs that pass once;
with resilience on, a pass that fails falls straight to the cache (a
flagged ``stale`` answer, else ``unavailable``).  :meth:`CBCS.query` is the
per-query preamble and epilogue (id, root span, outcome record, and --
after the fact -- the EXPLAIN record).
Every query returns a :class:`~repro.stats.QueryOutcome` with the
Figure-10 stage breakdown.

The engine also takes writes (paper Section 6.2: "Dynamic data can be
supported by viewing each cache item as a separate dataset with a
continuous skyline query maintained by any existing method").
:meth:`CBCS.insert_points` and :meth:`CBCS.delete_points` write the table
and maintain every cached item whose constraint region holds a written row;
with ``durability=`` each batch is WAL-logged first and :meth:`CBCS.recover`
rebuilds a crashed engine.  A write made through the table itself, behind
the engine's back, moves ``table.write_count``; the next query or explain
sees it and drops the whole cache, so such a write costs misses, never a
stale answer.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.ampr import ApproximateMPR
from repro.core.cache import SkylineCache
from repro.core.cases import CASE_EXACT
from repro.core.executor import Executor
from repro.core.planner import CASE_MISS, Planner, QueryPlan
from repro.core.strategies import CacheSearchStrategy, MaxOverlapSP
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints, overlap_volumes
from repro.geometry.dominance import dominated_mask
from repro.obs import NULL_OBS, bind
from repro.resilience import DEGRADABLE, DeadlineExceeded, resolve_resilience
from repro.resilience.deadline import Deadline
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, Stopwatch
from repro.storage.durability import DurabilityManager, UnsupportedDurableTable
from repro.storage.table import (
    DiskTable,
    checked_rowids,
    checked_rows,
    concat_results,
)

__all__ = [
    "CBCS",
    "CASE_MISS",
    "QueryPlan",
    "RUNG_STALE",
    "RUNG_UNAVAILABLE",
]

#: The labels a failed pass's answer carries in ``QueryOutcome.degraded``:
#: ``stale`` serves a possibly-outdated cached skyline; ``unavailable`` is
#: the empty last resort when storage is down and nothing cached overlaps.
RUNG_STALE = "stale"
RUNG_UNAVAILABLE = "unavailable"


class CBCS:
    """Cache-Based Constrained Skyline query engine."""

    def __init__(
        self,
        table: DiskTable,
        cache: Optional[SkylineCache] = None,
        strategy: Optional[CacheSearchStrategy] = None,
        region_computer=None,
        skyline_algorithm: Callable[[np.ndarray], np.ndarray] = sfs_skyline,
        cache_results: bool = True,
        obs=None,
        resilience=None,
        durability=None,
    ):
        """``region_computer`` defaults to the 1-NN aMPR, the paper's default
        for interactive workloads; pass :class:`~repro.core.ampr.ExactMPR`
        for minimal reads.

        ``obs`` attaches an :class:`~repro.obs.Observability` to the whole
        engine: queries run inside ``cbcs.query`` spans (with nested cache
        search / selection / MPR / fetch / skyline spans), and the cache,
        strategy, and region computer are bound to the same registry.  With
        the default ``None`` everything stays on the shared no-op.

        ``resilience`` enables the fault-tolerance layer: pass ``True`` for
        defaults or a :class:`repro.resilience.Resilience` to tune the
        retry policy / circuit breaker.  With it on, every storage range
        query is a :meth:`repro.resilience.Resilience.read` (validated,
        retried per box, guarded by the circuit breaker); a pass whose
        retries are exhausted is served from the cache, flagged stale,
        instead of raising, and cache items are invariant-verified
        before CBCS prunes with them.  The default ``None`` keeps the
        historic fail-fast behaviour with zero overhead.

        ``durability`` enables the WAL-backed write path: a directory (or a
        prepared :class:`~repro.storage.durability.DurabilityManager`)
        where :meth:`insert_points` / :meth:`delete_points` batches are
        journaled before they apply and the table is checkpointed.  The
        default ``None`` keeps writes in memory only.  A table the log cannot
        checkpoint (a :class:`~repro.storage.sharding.ShardedTable`) raises
        :class:`~repro.storage.durability.UnsupportedDurableTable` before
        anything is created or bound.
        """
        if durability is not None and not callable(getattr(table, "save", None)):
            raise UnsupportedDurableTable(
                f"CBCS({type(table).__name__}(...), durability=...) is not "
                "supported: the write-ahead log checkpoints and recovers a "
                "DiskTable only (a durable ShardedTable is the parked "
                "'durable fleet' item in ROADMAP.md)"
            )
        self.table = table
        # explicit None checks: an empty SkylineCache is falsy (len 0)
        self.cache = cache if cache is not None else SkylineCache()
        self.strategy = strategy if strategy is not None else MaxOverlapSP()
        self.region = (
            region_computer if region_computer is not None else ApproximateMPR(k=1)
        )
        self.skyline_algorithm = skyline_algorithm
        self.cache_results = cache_results
        #: the method label of every outcome (``CBCS[<region computer>]``)
        self.name = f"CBCS[{self.region.name}]"
        self.obs = NULL_OBS if obs is None else obs
        self.resilience = resolve_resilience(resilience)
        self._verify = self.resilience is not None
        if obs is not None:
            self.cache.bind_metrics(obs.metrics)
            self.strategy.bind_obs(obs)
            if hasattr(self.region, "bind_obs"):
                self.region.bind_obs(obs)
            if self.table.obs is NULL_OBS:
                self.table.bind_obs(obs)
            if self.resilience is not None:
                self.resilience.bind_metrics(obs.metrics)
        self.planner = Planner(self.strategy, self.region, self.table.forecast)
        self.executor = Executor()
        if durability is not None and not isinstance(durability, DurabilityManager):
            durability = DurabilityManager(durability)
        self.durability: Optional[DurabilityManager] = durability
        #: set by :meth:`recover` on recovered engines
        self.recovery_report = None
        if durability is not None:
            # A fresh durability directory needs the base snapshot:
            # recovery rebuilds "checkpoint + tail", never from nothing.
            durability.ensure_checkpoint(table)
        #: ``table.write_count`` when the cache was last known current
        self._writes_seen = table.write_count

    def close(self) -> None:
        """Close the table's log, then the cache's, each with a final
        checkpoint when its snapshot lacks anything
        (:meth:`~repro.storage.wal.CheckpointedLog.close`), so the next start
        replays nothing and finds the cache warm; without logs there is
        nothing to flush.
        """
        if self.durability is not None:
            self.durability.close(self.table)
        self.executor.close()
        self.cache.close()

    def _sync(self) -> None:
        """Drop the whole cache if the table was written behind the engine's
        back (``table.append`` / ``table.delete`` called directly): which
        items such a write touched is unknown, and a miss is never wrong.
        The engine's own writes maintain the cache and record the counter."""
        writes = self.table.write_count
        if writes != self._writes_seen:
            self.cache.clear()
            self._writes_seen = writes

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        constraints: Constraints,
        query_id: Optional[str] = None,
        deadline=None,
    ) -> QueryOutcome:
        """Answer one constrained skyline query, reusing the cache.

        With resilience enabled, storage faults are retried and -- once
        retries are exhausted or the circuit breaker opens -- the query is
        served from the cache instead of raising: the best-overlap cached
        skyline flagged ``stale``, or an empty ``unavailable`` answer.
        Degraded outcomes are always labeled (``QueryOutcome.degraded``);
        this method never lets a storage error escape when resilience is
        on.

        ``query_id`` correlates everything this query produces -- trace
        spans, plan, outcome record, metric exemplar, EXPLAIN record --
        under one id.  Callers (e.g. ``QueryService``) may pass their own;
        otherwise one is minted here whenever observability is enabled.
        With observability disabled no id is minted and the answer is
        bit-identical to the uninstrumented path.

        ``deadline`` (a number of milliseconds or an armed
        :class:`~repro.resilience.deadline.Deadline`) bounds this query
        end to end.  Wall-clock time, simulated I/O, and simulated retry
        backoff all charge the same budget.  When it expires mid-flight the
        query stops fetching and serves the best cached answer it has,
        flagged ``stale=True``; with nothing cached it raises the
        typed :class:`~repro.resilience.DeadlineExceeded` -- never a silent
        hang, never a partial unflagged result.  A query that completes
        just past its deadline still returns its answer.  Without
        resilience the deadline is only checked at ingress (there is no
        retry/fetch machinery to charge it from).
        """
        if constraints.ndim != self.table.ndim:
            raise ValueError("constraints dimensionality does not match the table")
        self._sync()
        if deadline is not None:
            deadline = Deadline.normalize(deadline)
        obs = self.obs
        if query_id is None and obs.enabled:
            query_id = obs.correlation.new_id()
        with bind(query_id):
            with obs.tracer.span("cbcs.query", strategy=self.strategy.name) as qspan:
                outcome, plan = self._serve(constraints, qspan, deadline)
            # the epilogue: none with observability off and no caller's id
            if query_id is not None:
                outcome.query_id = query_id
                if obs.enabled:
                    obs.record_outcome(outcome)
                    # the EXPLAIN record is built after the fact, and only
                    # when asked
                    if obs.explainer is not None:
                        obs.explainer.record(self._explain(outcome, plan))
        return outcome

    def _serve(self, constraints: Constraints, qspan, deadline):
        """Run the query body once -- :meth:`_plan`, then :meth:`_execute`.

        Returns the outcome and the pass's plan (None when planning itself
        raised) -- what EXPLAIN describes.  Without resilience storage
        errors propagate.  With it the pass runs under one retry state,
        and a pass that fails -- exhausted retries, an open breaker, or a
        per-request ``deadline`` spent mid-pass -- falls straight to the
        cache: ``stale`` serves the best-overlap cached skyline, flagged;
        with the deadline spent and nothing cached the typed
        :class:`DeadlineExceeded` propagates -- the serving layer's cue to
        emit ``deadline_exceeded``; otherwise ``unavailable`` is the empty,
        flagged last resort.
        """
        if self.resilience is None:
            if deadline is not None:
                deadline.check("ingress")
            watch = Stopwatch(tracer=self.obs.tracer)
            plan = self._plan(constraints, qspan, watch)
            return self._execute(plan, watch), plan

        metrics = self.obs.metrics
        plan = None
        watch = Stopwatch(tracer=self.obs.tracer)
        state = self.resilience.new_state(deadline=deadline)
        try:
            plan = self._plan(constraints, qspan, watch)
            outcome = self._execute(plan, watch, state)
        except DeadlineExceeded:
            pass
        except DEGRADABLE:
            metrics.inc("degradation_entered_total", method=self.name)
        else:
            outcome.retries = state.retries
            return outcome, plan

        if deadline is not None and deadline.expired:
            metrics.inc("query_deadline_exceeded_total", method=self.name)
        outcome = self._serve_stale(constraints, qspan)
        if outcome is None:
            if deadline is not None:
                # Out of time and nothing cached: surface the typed outcome
                # rather than inventing an empty "unavailable" answer.
                deadline.check("cache fallback")
            qspan.set(degraded=RUNG_UNAVAILABLE)
            outcome = QueryOutcome(
                skyline=np.empty((0, constraints.ndim)),
                method=self.name,
                case=None,
                stable=None,
                cache_hit=False,
                degraded=RUNG_UNAVAILABLE,
                stale=True,
            )
        outcome.retries = state.retries
        return outcome, plan

    def _plan(self, constraints: Constraints, qspan, watch) -> QueryPlan:
        """The query body's first half -- the ``processing`` stage: search
        the cache, verify and select one item (or none), plan.

        A miss is just the plan that reuses nothing, an exact match the plan
        that fetches nothing.

        The cache search starts with a key probe: an item cached under these
        very constraints comes back alone and is the plan's item, with no
        overlap search, strategy or case classification.  With cache
        verification on, the chosen item is invariant-checked (and healed
        out of the cache if corrupt) *before* CBCS prunes with it; the
        strategy then re-picks among the rest -- after a healed exact
        match, among the whole overlap search.  The items healed away and
        the cache size the plan saw land on the plan, for EXPLAIN.
        """
        obs = self.obs
        cache_items = len(self.cache)
        rejected = []
        with watch.stage("processing"):
            with obs.tracer.span("cache.search"):
                candidates = self.cache.candidates(constraints)
            item = self.planner.select(constraints, candidates)
            while (
                self._verify
                and item is not None
                and not self.cache.verify_and_heal(item)
            ):
                rejected.append(item)
                candidates = self._without(constraints, candidates, item)
                item = self.planner.select(constraints, candidates)
            if obs.enabled:
                obs.metrics.inc(
                    "cache_lookups_total",
                    strategy=self.strategy.name,
                    outcome="hit" if item is not None else "miss",
                )
            with obs.tracer.span("case.classify") as cspan:
                plan = self.planner.plan(constraints, candidates, item=item)
                if obs.enabled:
                    cspan.set(case=plan.case, item_id=plan.item_id)
        plan.rejected, plan.cache_items = rejected, cache_items
        if obs.enabled:
            qspan.set(case=plan.case, cache_hit=plan.cache_hit, stable=plan.stable)
        return plan

    def _execute(self, plan: QueryPlan, watch, retry_state=None) -> QueryOutcome:
        """The query body's second half: fetch the plan's boxes, merge them
        with the reusable cached points (none on a miss), take the skyline,
        cache it.  An exact match fetches nothing: its item's skyline is the
        answer.  A completed fetch's per-box results land on the plan.

        ``outcome.io`` is the sum of what this pass's own range results
        were stamped with, so queries running at once on one engine
        (``QueryService`` workers) never bill each other.  Under resilience
        a pass that raised returned no result to carry its charge: what it
        read (a truncated or corrupt payload that validation rejected)
        stays on the table's counters alone -- no outcome is billed for it.
        """
        obs = self.obs
        item = plan.item
        if plan.case == CASE_EXACT:
            self.cache.touch(item)
            return QueryOutcome(
                skyline=item.skyline.copy(),
                method=self.name,
                timings=watch.timings,
                case=CASE_EXACT,
                stable=True,
                cache_hit=True,
            )

        with watch.stage("fetch_wall"):
            parts = self.executor.fetch(
                self.table, plan.boxes, self.resilience, retry_state
            )
            fetched = concat_results(parts, self.table.ndim)
        plan.parts = parts

        with watch.stage("skyline"):
            with obs.tracer.span("skyline.merge") as mspan:
                reusable = plan.reusable
                if reusable is not None and len(fetched) == 0:
                    # Nothing new: the surviving cached points are already a
                    # skyline among themselves (Definition 1), and by Theorem 6
                    # they are complete -- e.g. case b's "just filter" shortcut.
                    skyline = reusable
                else:
                    pool = (
                        np.vstack([reusable, fetched.points])
                        if reusable is not None and len(reusable)
                        else fetched.points
                    )
                    skyline = pool[self.skyline_algorithm(pool)]
                if obs.enabled:
                    mspan.set(
                        cached=plan.reusable_points,
                        fetched=len(fetched),
                        skyline=len(skyline),
                    )

        if item is not None:
            self.cache.touch(item)
        if self.cache_results:
            inserted = self.cache.insert(plan.constraints, skyline)
            if (
                self._verify
                and inserted is not None
                and retry_state is not None
                and retry_state.retries
            ):
                # The fetch path saw faults: re-verify what we just stored
                # so a slipped-through corruption cannot poison later queries.
                self.cache.verify_and_heal(inserted)
        io = fetched.io_stats()
        watch.timings.fetch_io_ms = io.simulated_io_ms
        return QueryOutcome(
            skyline=skyline,
            method=self.name,
            timings=watch.timings,
            io=io,
            case=plan.case,
            stable=plan.stable,
            cache_hit=plan.cache_hit,
        )

    def _serve_stale(self, constraints: Constraints, qspan) -> Optional[QueryOutcome]:
        """The stale serve: best-overlap cached skyline filtered to the
        query region, flagged ``stale=True`` (may miss points whose
        dominators fell outside the cached region); None when nothing
        cached overlaps (or every candidate fails verification)."""
        with self.obs.tracer.span("cbcs.stale_serve"):
            candidates = self.cache.candidates(constraints, record=False)
            while candidates:
                overlap = overlap_volumes(candidates.lo, candidates.hi, constraints)
                best = candidates[int(overlap.argmax())]
                if not self._verify or self.cache.verify_and_heal(best):
                    points = best.skyline[constraints.satisfied_mask(best.skyline)]
                    qspan.set(degraded=RUNG_STALE, item_id=best.item_id)
                    return QueryOutcome(
                        skyline=points.copy(),
                        method=self.name,
                        case=None,
                        stable=None,
                        cache_hit=True,
                        degraded=RUNG_STALE,
                        stale=True,
                    )
                candidates = self._without(constraints, candidates, best)
        return None

    def _without(self, constraints: Constraints, candidates, item):
        """``candidates`` once verification healed ``item`` out of the cache.
        When ``item`` was the key probe's exact match, that is the overlap
        search the probe skipped -- unrecorded: the query's one lookup is
        already counted."""
        if candidates.exact:
            return self.cache.candidates(constraints, record=False)
        return candidates.without(item)

    def _explain(self, outcome: QueryOutcome, plan) -> dict:
        """This query's EXPLAIN record, built after the fact from the
        pass's plan (only called with an ``ExplainRecorder`` installed)."""
        from repro.obs.explain import explain_record, plan_sections

        sections = {}
        # planning itself can fail a pass (healing a corrupt item writes to
        # a durable cache's log); such a record is just the outcome head
        if plan is not None:
            sections = plan_sections(self.planner, plan)
        return explain_record(
            outcome, self.name, strategy=self.strategy.name, **sections
        )

    def explain(self, constraints: Constraints) -> QueryPlan:
        """Describe how a query would be answered, without executing it.

        Delegates to the same :class:`~repro.core.planner.Planner` the
        execution path runs, so the plan agrees with execution by
        construction.  Performs the cache search (key probe first, so an
        exact match is planned without the strategy), strategy selection
        and region computation but issues no disk fetches and leaves the
        cache untouched (no use counters, no insertion, no
        ``strategy_selections_total`` increments) -- safe to call
        repeatedly, and an ``explain()`` before a ``query()`` counts the
        pair as exactly one lookup and at most one selection.  The one
        exception is a write made through the table behind the engine's
        back: like :meth:`query`, explain drops the cache first, so it never
        plans with a stale item.  The returned plan's ``candidates_scored``
        lists every candidate considered with its score and rejection
        reason.
        """
        if constraints.ndim != self.table.ndim:
            raise ValueError("constraints dimensionality does not match the table")
        self._sync()
        candidates = self.cache.candidates(constraints, record=False)
        return self.planner.annotate(
            self.planner.plan(constraints, candidates, record=False)
        )

    # ------------------------------------------------------------------
    # Cache management helpers
    # ------------------------------------------------------------------
    def warm(self, queries) -> int:
        """Preload the cache by answering ``queries``; returns #items cached.

        Used for the paper's independent-query workload, which "assumes a
        preloaded cache with 2000 queries" (Section 7.1).
        """
        for constraints in queries:
            self.query(constraints)
        return len(self.cache)

    # ------------------------------------------------------------------
    # Writes (paper Section 6.2)
    # ------------------------------------------------------------------
    def insert_points(self, rows: np.ndarray) -> np.ndarray:
        """Append rows to the table and maintain every cached item whose
        constraint region holds one; returns the new row ids.

        A new row either is dominated within the item's skyline (nothing
        changes) or enters it, evicting the cached points it dominates --
        exact, since the points those evicted members dominated are, by
        transitivity, dominated by the new row too.  With durability on,
        the batch is WAL-logged (and fsynced) first: it is committed the
        moment the log record is durable.
        """
        rows = checked_rows(rows, self.table.ndim)
        self._sync()
        if self.durability is not None:
            self.durability.log_insert(rows, start=self.table.n)
        new_ids = self.table.append(rows)
        for row in rows:
            self._maintain_insert(row)
        self._writes_seen = self.table.write_count
        if self.durability is not None:
            self.durability.maybe_checkpoint(self.table)
        return new_ids

    def delete_points(self, rowids) -> int:
        """Delete table rows and maintain every cached item whose constraint
        region held one; returns how many rows died.

        A deleted row that was not in an item's skyline was dominated and
        changes nothing.  One that was may have suppressed other points, so
        the item is refreshed: one range query over its constraint region
        re-derives its skyline.  With resilience on that read is validated
        and retried like any fetch; a refresh that still fails, or finds
        nothing, evicts the item (a miss, never staleness).
        """
        rowids = checked_rowids(rowids)
        # each id once, in the order given: a repeated id is one row, to be
        # logged, killed and maintained once
        rowids = rowids[np.sort(np.unique(rowids, return_index=True)[1])]
        # Reading the coordinates first also validates the row ids, so an
        # out-of-range id fails before anything reaches the WAL.  A row
        # already deleted dies no second time: it is not logged and no item
        # is maintained for it.
        live, coords = [], []
        for r in rowids.tolist():
            try:
                coords.append(self.table.row(r))
            except KeyError:
                continue
            live.append(r)
        if not live:
            return 0
        rowids = np.asarray(live, dtype=np.int64)
        self._sync()
        if self.durability is not None:
            self.durability.log_delete(rowids, np.asarray(coords))
        killed = self.table.delete(rowids)
        for row in coords:
            self._maintain_delete(row)
        self._writes_seen = self.table.write_count
        if self.durability is not None:
            self.durability.maybe_checkpoint(self.table)
        return killed

    def _maintain_insert(self, row: np.ndarray) -> None:
        row = row.reshape(1, -1)
        for item in self.cache.containing(row[0]):
            sky = item.skyline
            if dominated_mask(row, sky)[0]:
                continue  # dominated within the item: skyline unchanged
            keep = ~dominated_mask(sky, row)
            self.cache.replace_skyline(item, np.vstack([sky[keep], row]))

    def _maintain_delete(self, row: np.ndarray) -> None:
        for item in self.cache.containing(row):
            if not np.all(item.skyline == row, axis=1).any():
                continue  # dominated point: its absence changes nothing
            c = item.constraints
            try:
                fetched = self.executor.fetch(
                    self.table, BoxSet(c.lo[None], c.hi[None]), self.resilience
                )[0].points
            except DEGRADABLE:
                self.cache.remove(item)
                continue
            if len(fetched):
                skyline = fetched[self.skyline_algorithm(fetched)]
                self.cache.replace_skyline(item, skyline)
            else:
                self.cache.remove(item)

    # ------------------------------------------------------------------
    # Durability lifecycle
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint the table's log (and the cache's, if it is durable)."""
        if self.durability is not None:
            self.durability.checkpoint(self.table)
        self.cache.checkpoint()

    @classmethod
    def recover(cls, source, table_wrapper=None, **kwargs) -> "CBCS":
        """Rebuild a durable engine after a crash.

        ``source`` is the durability directory (or a prepared
        :class:`~repro.storage.durability.DurabilityManager`, e.g. one
        carrying the drill's fault injector); remaining ``kwargs`` go to
        the engine constructor (cache, resilience, ...).
        ``table_wrapper`` optionally re-wraps the recovered table (e.g. in
        a :class:`~repro.storage.faults.FaultyDiskTable`) before the
        engine adopts it.

        Recovery: load the last table checkpoint, replay the WAL tail
        (torn tail truncated), then *reconcile the cache* -- every cache
        item whose region contains a replayed row is dropped, because the
        crash may have swallowed that item's in-memory maintenance.  Over-
        evicting costs a cache miss; under-evicting would serve stale
        skylines, so reconciliation always errs on eviction.  The
        :class:`~repro.storage.durability.RecoveryReport` lands on
        ``engine.recovery_report``.
        """
        manager = (
            source
            if isinstance(source, DurabilityManager)
            else DurabilityManager(source)
        )
        table, report = manager.recover()
        if table_wrapper is not None:
            table = table_wrapper(table)
        engine = cls(table, durability=manager, **kwargs)
        for _op, rows in report.replayed:
            for row in np.atleast_2d(rows):
                for item in engine.cache.containing(row):
                    engine.cache.remove(item)
        engine.recovery_report = report
        # Seal the recovered state so the next restart replays nothing (a
        # replay of nothing leaves the snapshot as it was).
        manager.seal(engine.table)
        return engine
