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
exactly once, in :meth:`CBCS._answer`: search, verify, select, plan (a miss
is the degenerate plan), fetch the plan's boxes, merge with the reusable
points, skyline, cache.  The degradation ladder is a table of rungs walked
by one loop in :meth:`CBCS._serve`, each rung one more pass of that same
body.  :meth:`CBCS.query` is the per-query preamble and epilogue (id,
root span, outcome record, and -- after the fact -- the EXPLAIN record).
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

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.core.ampr import ApproximateMPR
from repro.core.cache import SkylineCache
from repro.core.cases import CASE_EXACT
from repro.core.executor import Executor
from repro.core.planner import CASE_MISS, PlannedQuery, Planner, QueryPlan
from repro.core.strategies import CacheSearchStrategy, MaxOverlapSP
from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints, overlap_volumes
from repro.geometry.dominance import dominated_mask
from repro.obs import NULL_OBS, bind, current_query_id
from repro.resilience import DEGRADABLE, DeadlineExceeded, resolve_resilience
from repro.resilience.deadline import Deadline
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, Stopwatch
from repro.storage.durability import DurabilityManager
from repro.storage.table import DiskTable, checked_rowids, checked_rows

__all__ = [
    "CBCS",
    "CASE_MISS",
    "QueryPlan",
    "RUNG_AMPR",
    "RUNG_BOUNDING",
    "RUNG_STALE",
    "RUNG_UNAVAILABLE",
]

#: Degradation-ladder rung labels stamped into ``QueryOutcome.degraded``.
#: ``ampr`` and ``bounding`` answers are still exact; ``stale`` serves a
#: possibly-outdated cached skyline; ``unavailable`` is the empty last
#: resort when storage is down and nothing cached overlaps.
RUNG_AMPR = "ampr"
RUNG_BOUNDING = "bounding"
RUNG_STALE = "stale"
RUNG_UNAVAILABLE = "unavailable"


class Rung(NamedTuple):
    """One fetching rung of the degradation ladder.

    ``label`` is stamped on the outcome (None: the configured, undegraded
    plan); ``region`` overrides the region computer; ``use_cache=False``
    plans against no candidates at all.
    """

    label: Optional[str]
    region: Optional[object] = None
    use_cache: bool = True


@dataclass
class Attempt:
    """One pass of the query body, as the EXPLAIN record will describe it.

    Created per rung by :meth:`CBCS._serve` and filled in by
    :meth:`CBCS._answer` as it goes, so a pass that dies mid-fetch still
    shows what it planned.  Lives for one ``query()`` call; outcomes never
    reference it.
    """

    #: plans built so far for this query (1 unless the ladder was walked)
    number: int
    rung: Rung
    #: cache size the plan was built against (before this query's insert)
    cache_items: int
    #: items cache verification healed away before the plan was built
    rejected: List = field(default_factory=list)
    planned: Optional[PlannedQuery] = None
    #: per-box ``RangeResult``s of the completed fetch, in plan order
    parts: tuple = ()


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
        retried per box against a shared per-query budget, guarded by the
        circuit breaker); exhausted retries fall down the degradation
        ladder (aMPR re-plan -> bounding fetch -> stale cache serve)
        instead of raising, and cache items are invariant-verified
        before CBCS prunes with them.  The default ``None`` keeps the
        historic fail-fast behaviour with zero overhead.

        ``durability`` enables the WAL-backed write path: a directory (or a
        prepared :class:`~repro.storage.durability.DurabilityManager`)
        where :meth:`insert_points` / :meth:`delete_points` batches are
        journaled before they apply and the table is checkpointed.  The
        default ``None`` keeps writes in memory only.
        """
        self.table = table
        # explicit None checks: an empty SkylineCache is falsy (len 0)
        self.cache = cache if cache is not None else SkylineCache()
        self.strategy = strategy if strategy is not None else MaxOverlapSP()
        self.region = (
            region_computer if region_computer is not None else ApproximateMPR(k=1)
        )
        self.skyline_algorithm = skyline_algorithm
        self.cache_results = cache_results
        self.obs = NULL_OBS if obs is None else obs
        self.resilience = resolve_resilience(resilience)
        self._verify = self.resilience is not None and self.resilience.verify_cache
        self._fallback_region = (
            ApproximateMPR(k=1)
            if self.resilience is not None
            and not isinstance(self.region, ApproximateMPR)
            else None
        )
        #: The degradation ladder's fetching rungs, walked in order by
        #: :meth:`_serve` -- every answer from them is still exact.
        #: ``ampr`` re-plans with a 1-NN aMPR (fewer, larger range queries
        #: mean fewer fault opportunities; absent when the engine already
        #: runs an aMPR); ``bounding`` is a single range query over the
        #: whole constraint region plus a from-scratch skyline.
        self._ladder = [Rung(None)]
        if self._fallback_region is not None:
            self._ladder.append(Rung(RUNG_AMPR, region=self._fallback_region))
        self._ladder.append(Rung(RUNG_BOUNDING, use_cache=False))
        if obs is not None:
            self.cache.bind_metrics(obs.metrics)
            self.strategy.bind_obs(obs)
            if hasattr(self.region, "bind_obs"):
                self.region.bind_obs(obs)
            if self.table.obs is NULL_OBS:
                self.table.bind_obs(obs)
            if self.resilience is not None:
                self.resilience.bind_metrics(obs.metrics)
            if self._fallback_region is not None:
                self._fallback_region.bind_obs(obs)
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

    @property
    def name(self) -> str:
        return f"CBCS[{self.region.name}]"

    def close(self) -> None:
        """Close the table's log, then the cache's, each with a final
        checkpoint (:meth:`~repro.storage.wal.CheckpointedLog.close`) so the
        next start replays nothing and finds the cache warm; without logs
        there is nothing to flush.
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
        retries are exhausted or the circuit breaker opens -- the query
        degrades down the ladder instead of raising: aMPR re-plan, then a
        single bounding range query, then serving the best-overlap cached
        skyline flagged ``stale``.  Degraded outcomes are always labeled
        (``QueryOutcome.degraded``); this method never lets a storage error
        escape when resilience is on.

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
        query stops descending the ladder and serves the best cached answer
        it has, flagged ``stale=True``; with nothing cached it raises the
        typed :class:`~repro.resilience.DeadlineExceeded` -- never a silent
        hang, never a partial unflagged result.  A query that completes
        just past its deadline still returns its answer.  Without
        resilience the deadline is only checked at ingress (there is no
        retry/fetch machinery to charge it from).
        """
        if constraints.ndim != self.table.ndim:
            raise ValueError("constraints dimensionality does not match the table")
        self._sync()
        deadline = Deadline.normalize(deadline)
        obs = self.obs
        if query_id is None and obs.enabled:
            query_id = obs.correlation.new_id()
        with bind(query_id):
            with obs.tracer.span("cbcs.query", strategy=self.strategy.name) as qspan:
                outcome, attempt = self._serve(constraints, qspan, deadline)
            outcome.query_id = query_id
            obs.record_outcome(outcome)
            # the EXPLAIN record is built after the fact, and only when asked
            if obs.explainer is not None:
                obs.explainer.record(self._explain(outcome, attempt))
        return outcome

    def _serve(self, constraints: Constraints, qspan, deadline):
        """Walk the rung table until one pass of the body succeeds.

        Returns the outcome plus the final :class:`Attempt` (what EXPLAIN
        describes).  Without resilience only the configured rung runs and
        storage errors propagate.  With it, each rung is one more pass of
        :meth:`_answer` under a fresh retry budget; the outcome carries the
        retries of every rung tried.

        A per-request ``deadline`` gates the descent: a fetching rung is
        only attempted while budget remains, and a rung interrupted by
        :class:`DeadlineExceeded` ends the walk (cheaper rungs still cost
        fetches the budget cannot pay for).  After the last rung:
        ``stale`` serves the best-overlap cached skyline, flagged; with the
        deadline spent and nothing cached the typed exception propagates
        -- the serving layer's cue to emit ``deadline_exceeded``;
        otherwise ``unavailable`` is the empty, flagged last resort.
        """
        if self.resilience is None:
            if deadline is not None:
                deadline.check("ingress")
            attempt = Attempt(1, self._ladder[0], len(self.cache))
            return self._answer(constraints, qspan, attempt), attempt

        metrics = self.obs.metrics
        retries = 0
        for number, rung in enumerate(self._ladder, 1):
            if number > 1 and deadline is not None and deadline.expired:
                break
            attempt = Attempt(number, rung, len(self.cache))
            state = self.resilience.new_state(deadline=deadline)
            try:
                outcome = self._answer(constraints, qspan, attempt, state)
            except DeadlineExceeded:
                break
            except DEGRADABLE:
                if number == 1:
                    metrics.inc("degradation_entered_total", method=self.name)
                continue
            finally:
                retries += state.retries
            if rung.label is not None:
                outcome.degraded = rung.label
                qspan.set(degraded=rung.label)
            outcome.retries = retries
            return outcome, attempt

        if deadline is not None and deadline.expired:
            metrics.inc("query_deadline_exceeded_total", method=self.name)
        outcome = self._serve_stale(constraints, qspan)
        if outcome is None:
            if deadline is not None:
                # Out of time and nothing cached: surface the typed outcome
                # rather than inventing an empty "unavailable" answer.
                deadline.check("degradation ladder")
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
        outcome.retries = retries
        return outcome, attempt

    def _answer(
        self, constraints: Constraints, qspan, attempt: Attempt, retry_state=None
    ) -> QueryOutcome:
        """The query body -- the paper's Section 6, written once.

        Search the cache and pick one item (or none); plan; fetch the
        plan's boxes; merge them with the reusable cached points (none on
        a miss); take the skyline; cache it.  A miss is just the plan that
        reuses nothing, an exact match the plan that fetches nothing, and
        ``attempt.rung`` only varies the planning: the ``ampr`` rung swaps
        the region computer, the ``bounding`` rung plans against no
        candidates -- which *is* the miss plan.

        With cache verification on, the chosen item is invariant-checked
        (and healed out of the cache if corrupt) *before* CBCS prunes with
        it; the strategy then re-picks among the rest.

        ``outcome.io`` is the sum of what this pass's own range results
        were stamped with, so queries running at once on one engine
        (``QueryService`` workers) never bill each other.  Under resilience
        an attempt that raised returned no result to carry its charge: what
        it read (a truncated or corrupt payload that validation rejected)
        stays on the table's counters alone, like the reads of a rung that
        failed -- no outcome is billed for it.
        """
        obs = self.obs
        rung = attempt.rung
        watch = Stopwatch(tracer=obs.tracer)

        candidates, item = (), None
        with watch.stage("processing"):
            if rung.use_cache:
                with obs.tracer.span("cache.search"):
                    candidates = self.cache.candidates(constraints)
                item = self.planner.select(constraints, candidates)
                while (
                    self._verify
                    and item is not None
                    and not self.cache.verify_and_heal(item)
                ):
                    attempt.rejected.append(item)
                    candidates = candidates.without(item)
                    item = self.planner.select(constraints, candidates)
                obs.metrics.inc(
                    "cache_lookups_total",
                    strategy=self.strategy.name,
                    outcome="hit" if item is not None else "miss",
                )
            with obs.tracer.span("case.classify") as cspan:
                planned = attempt.planned = self.planner.plan(
                    constraints, candidates, item=item, region_override=rung.region
                )
                plan = planned.plan
                cspan.set(case=plan.case, item_id=plan.item_id)
                plan.query_id = current_query_id()
        qspan.set(case=plan.case, cache_hit=plan.cache_hit, stable=plan.stable)

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
            fetch = self.executor.fetch(
                self.table, plan.boxes, self.resilience, retry_state
            )
        attempt.parts = fetch.parts
        fetched = fetch.result

        with watch.stage("skyline"):
            with obs.tracer.span("skyline.merge") as mspan:
                reusable = planned.reusable
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
            inserted = self.cache.insert(constraints, skyline)
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
        """The stale-serve rung: best-overlap cached skyline filtered to the
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
                candidates = candidates.without(best)
        return None

    def _explain(self, outcome: QueryOutcome, attempt: Attempt) -> dict:
        """This query's EXPLAIN record, built after the fact from the final
        attempt (only called with an ``ExplainRecorder`` installed)."""
        from repro.obs.explain import explain_record, plan_sections

        sections = {}
        # planning itself can fail a pass (healing a corrupt item writes to
        # a durable cache's log); such a record is just the outcome head
        if attempt.planned is not None:
            sections = plan_sections(
                self.planner,
                attempt.cache_items,
                not attempt.rung.use_cache,
                attempt.rejected,
                attempt.planned,
                attempt.parts,
            )
        return explain_record(
            outcome,
            self.name,
            attempt.number,
            strategy=self.strategy.name,
            **sections,
        )

    def explain(self, constraints: Constraints) -> QueryPlan:
        """Describe how a query would be answered, without executing it.

        Delegates to the same :class:`~repro.core.planner.Planner` the
        execution path runs, so the plan agrees with execution by
        construction.  Performs the cache search, strategy selection and
        region computation but issues no disk fetches and leaves the cache
        untouched (no use counters, no insertion, no
        ``strategy_selections_total`` increments) -- safe to call
        repeatedly, and an ``explain()`` before a ``query()`` counts the
        pair as exactly one lookup and one selection.  The one exception is
        a write made through the table behind the engine's back: like
        :meth:`query`, explain drops the cache first, so it never plans
        with a stale item.  The returned plan's ``candidates_scored`` lists
        every candidate considered with its score and rejection reason.
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
        # invalid request fails before anything reaches the WAL.
        coords = [self.table.row(int(r)) for r in rowids]
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
                ).result.points
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
        # Seal the recovered state so the next restart replays nothing.
        manager.checkpoint(engine.table)
        return engine
