"""Partition-aware sharded CBCS: shard-pruned planning, per-shard caches,
fan-out/merge execution.

:class:`ShardedCBCS` is the fleet engine over a
:class:`~repro.storage.sharding.ShardedTable`.  One query runs in four
steps, each reusing a layer built earlier:

1. **Prune** (:mod:`repro.core.shardplan`): classify every shard
   ``disjoint | dominated | surviving`` from its MBR summary -- zero I/O --
   and cache the decision set per constraint region
   (:class:`~repro.core.shardplan.PruningSetCache`), so a repeat query skips
   both the pruned shards *and* the pruning computation.
2. **Fan out**: surviving shards each answer the query on their own full
   CBCS engine (own :class:`~repro.core.cache.SkylineCache`, own
   ``build_backend`` stack, own resilience/circuit breaker), dispatched
   through the bounded :class:`~repro.core.executor.Executor` pool and
   gathered in shard order -- deterministic at any worker count.
3. **Merge**: pool the per-shard constrained skylines and run one final
   dominance pass.  Correctness: ``Sky(S ∩ C) = Sky(∪_i Sky(S_i ∩ C))`` --
   a global skyline point is undominated in its own shard (so it survives
   step 2) and undominated in the pool (so it survives the merge); a
   non-skyline point is dominated by some global skyline point, which is in
   the pool.  Coordinate duplicates on different shards both survive,
   exactly as both survive the unsharded pass.  The merged answer is
   therefore **bit-identical** to the unsharded engine's
   (``repro.bench.shardsweep`` enforces this over seeds x shard counts x
   strategies).
4. **Account**: the fleet outcome's I/O is the sum of the per-shard deltas
   (reconciles with the shard tables' counters by construction); the stage
   breakdown sums per-shard work, with the fetch stage taking the
   worker-pool makespan when the fan-out actually overlapped.

Writes (``dynamic=True``) are routed the same way rows were partitioned:
``insert_points`` returns one ``(shard_id, rowid)`` id per input row, in
input order -- row ids are shard-local, so only the pair names a row -- and
``delete_points`` takes those ids back, one argument like the unsharded
engine's.

Observability is fleet-level by design: shard engines run with ``obs=None``
and the fleet goes through the same :func:`repro.core.cbcs.ingress` as an
unsharded engine, recording exactly one outcome and one EXPLAIN record
(with a ``shard_pruning`` section) per query, so per-method metric
reconciliation (``queries_total`` vs ``points_read_total``) keeps holding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cbcs import (
    CBCS,
    RUNG_AMPR,
    RUNG_BOUNDING,
    RUNG_STALE,
    RUNG_UNAVAILABLE,
    ingress,
)
from repro.core.dynamic import DynamicCBCS
from repro.core.executor import Executor, effective_latency_ms
from repro.core.shardplan import (
    PruningSetCache,
    ShardDecision,
    prune_shards,
)
from repro.geometry.constraints import Constraints
from repro.obs import NULL_OBS
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, Stopwatch
from repro.storage.pager import IOStats
from repro.storage.sharding import ShardedTable

__all__ = ["ShardedCBCS", "ShardedOutcome"]

#: Ladder rungs ordered worst-last; the fleet reports the worst rung any
#: shard fell to, so degradation semantics stay visible through the merge.
_RUNG_SEVERITY = {
    None: 0,
    RUNG_AMPR: 1,
    RUNG_BOUNDING: 2,
    RUNG_STALE: 3,
    RUNG_UNAVAILABLE: 4,
}


@dataclass
class ShardedOutcome(QueryOutcome):
    """A :class:`~repro.stats.QueryOutcome` plus the shard accounting.

    ``shards_pruned``/``shards_scanned`` are the shard-level analogue of
    ``points_read``: how much of the fleet the pruning pass saved versus
    touched.  ``merge_candidates`` is the pooled per-shard skyline size fed
    to the final dominance pass -- the second term of the I/O
    reconciliation (sum of per-shard ``points_read`` + merge candidates).
    """

    shards_total: int = 0
    shards_pruned: int = 0
    shards_scanned: int = 0
    merge_candidates: int = 0
    pruning_cached: bool = False
    shard_decisions: List[ShardDecision] = field(default_factory=list)
    per_shard: List[dict] = field(default_factory=list)

    def pruning_record(self) -> dict:
        """The pruning pass's verdicts and counts, JSON-ready (shared by
        the outcome record and the EXPLAIN record)."""
        return {
            "shards_total": self.shards_total,
            "shards_pruned": self.shards_pruned,
            "shards_scanned": self.shards_scanned,
            "merge_candidates": self.merge_candidates,
            "pruning_cached": self.pruning_cached,
            "decisions": [d.as_dict() for d in self.shard_decisions],
        }

    def as_record(self) -> dict:
        record = super().as_record()
        record["sharding"] = {
            **self.pruning_record(),
            "per_shard": [dict(p) for p in self.per_shard],
        }
        return record


class ShardedCBCS:
    """The fleet CBCS engine over a :class:`ShardedTable`.

    Every shard gets a *full* engine of its own -- a fresh in-memory cache,
    planner, ``build_backend`` stack, resilience -- so per-shard circuit
    breakers come for free:

    - ``strategy_factory()``, called once per shard at construction -> the
      shard's strategy (None: the engine default; a fresh instance per
      shard so no state is shared across threads);
    - ``shard_table_wrapper(shard_id, table)`` -> the table the shard's
      engine actually queries (e.g. a ``FaultyDiskTable`` around one shard
      to fault it specifically);
    - ``resilience`` is forwarded to every shard engine; pass ``True`` so
      each shard resolves its *own* breaker + retry budget.

    ``dynamic=True`` builds :class:`~repro.core.dynamic.DynamicCBCS`
    shard engines and enables :meth:`insert_points` / :meth:`delete_points`
    (which exchange ``(shard_id, rowid)`` ids) with pruning-set invalidation
    tied to actual MBR growth.
    """

    def __init__(
        self,
        table: ShardedTable,
        strategy_factory: Optional[Callable[[], object]] = None,
        skyline_algorithm: Callable[[np.ndarray], np.ndarray] = sfs_skyline,
        cache_results: bool = True,
        obs=None,
        resilience=None,
        workers: int = 1,
        dynamic: bool = False,
        shard_table_wrapper=None,
    ):
        self.table = table
        self.obs = NULL_OBS if obs is None else obs
        self.skyline_algorithm = skyline_algorithm
        self.workers = int(workers)
        self.dynamic = bool(dynamic)
        self.pruning_cache = PruningSetCache()
        self.executor = Executor(workers=self.workers, obs=obs)
        engine_cls = DynamicCBCS if dynamic else CBCS
        self.engines: List = []
        for shard in table:
            shard_table = shard.table
            if shard_table_wrapper is not None:
                shard_table = shard_table_wrapper(shard.shard_id, shard_table)
            self.engines.append(
                engine_cls(
                    shard_table,
                    strategy=strategy_factory()
                    if strategy_factory is not None
                    else None,
                    skyline_algorithm=skyline_algorithm,
                    cache_results=cache_results,
                    obs=None,  # fleet-level observability only (see module doc)
                    resilience=resilience,
                    workers=1,  # parallelism lives at the shard fan-out
                )
            )

    @property
    def name(self) -> str:
        return f"ShardedCBCS[{self.table.n_shards}x{self.engines[0].region.name}]"

    @property
    def n_shards(self) -> int:
        return self.table.n_shards

    def shard_caches(self) -> List:
        """Per-shard ``SkylineCache`` handles, in shard order (the hook
        ``QueryService`` and ``repro.obs.cacheview`` aggregate across)."""
        return [engine.cache for engine in self.engines]

    def close(self) -> None:
        self.executor.close()
        for engine in self.engines:
            engine.close()

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        constraints: Constraints,
        query_id: Optional[str] = None,
        deadline=None,
    ) -> ShardedOutcome:
        """Answer one constrained skyline query across the fleet.

        Prune -> fan out -> merge -> account (module doc).  The answer is
        bit-identical to an unsharded engine over the same data; degraded /
        stale flags surface the *worst* shard rung, so a faulted shard's
        degradation semantics are preserved per shard and visible at the
        fleet level.
        """
        return ingress(
            self,
            constraints,
            query_id,
            deadline,
            "sharded.query",
            shards=self.table.n_shards,
        )

    def _serve(self, constraints: Constraints, qspan, deadline):
        """Prune, fan out, merge and account (see :meth:`query`); the
        fleet's EXPLAIN record needs only the outcome and the region."""
        obs = self.obs
        watch = Stopwatch(tracer=obs.tracer, profiler=obs.profiler)

        with watch.stage("processing"):
            with obs.tracer.span("shard.prune") as pspan:
                decisions = self.pruning_cache.lookup(constraints)
                pruning_cached = decisions is not None
                if decisions is None:
                    decisions = prune_shards(self.table.summaries, constraints)
                    self.pruning_cache.store(constraints, decisions)
                surviving = [d.shard_id for d in decisions if not d.pruned]
                if obs.enabled:
                    pspan.set(
                        cached=pruning_cached,
                        pruned=len(decisions) - len(surviving),
                        surviving=len(surviving),
                    )

        sub_outcomes: List[QueryOutcome] = []
        if surviving:
            tasks = [
                (lambda engine=self.engines[sid]: engine.query(
                    constraints, deadline=deadline
                ))
                for sid in surviving
            ]
            with watch.stage("fetch_wall"):
                sub_outcomes = self.executor.map_ordered(tasks)
            # fetch_wall measured the real fan-out wall time; replace it
            # below with the per-shard sum so the breakdown stays additive
            # with the per-shard stage accounting (parallel overlap is
            # expressed in fetch_io_ms instead, as the executor does).
            watch.timings.fetch_wall_ms = 0.0

        skylines = [sub.skyline for sub in sub_outcomes if len(sub.skyline)]
        merge_candidates = int(sum(len(s) for s in skylines))
        with watch.stage("skyline"):
            with obs.tracer.span("shard.merge") as mspan:
                if not skylines:
                    skyline = np.empty((0, constraints.ndim))
                else:
                    pool = (
                        np.vstack(skylines) if len(skylines) > 1 else skylines[0]
                    )
                    skyline = pool[self.skyline_algorithm(pool)]
                if obs.enabled:
                    mspan.set(
                        candidates=merge_candidates, skyline=len(skyline)
                    )

        io = IOStats()
        for sub in sub_outcomes:
            io.add(sub.io)
        timings = watch.timings
        timings.processing_ms += sum(s.timings.processing_ms for s in sub_outcomes)
        timings.fetch_wall_ms += sum(s.timings.fetch_wall_ms for s in sub_outcomes)
        timings.skyline_ms += sum(s.timings.skyline_ms for s in sub_outcomes)
        timings.io_ms_total = sum(s.timings.io_ms_total for s in sub_outcomes)
        shard_io = [s.timings.fetch_io_ms for s in sub_outcomes]
        timings.fetch_io_ms = (
            effective_latency_ms(shard_io, self.workers)
            if self.workers > 1
            else float(sum(shard_io))
        )

        degraded = max(
            (s.degraded for s in sub_outcomes),
            key=lambda r: _RUNG_SEVERITY.get(r, 0),
            default=None,
        )
        outcome = ShardedOutcome(
            skyline=skyline,
            method=self.name,
            timings=timings,
            io=io,
            case=None,
            stable=None,
            cache_hit=any(s.cache_hit for s in sub_outcomes),
            degraded=degraded,
            stale=any(s.stale for s in sub_outcomes),
            retries=sum(s.retries for s in sub_outcomes),
            shards_total=len(decisions),
            shards_pruned=len(decisions) - len(surviving),
            shards_scanned=len(surviving),
            merge_candidates=merge_candidates,
            pruning_cached=pruning_cached,
            shard_decisions=list(decisions),
            per_shard=[
                {
                    "shard_id": sid,
                    "skyline_size": int(sub.skyline_size),
                    "points_read": int(sub.points_read),
                    "case": sub.case,
                    "cache_hit": bool(sub.cache_hit),
                    "degraded": sub.degraded,
                    "stale": bool(sub.stale),
                    "retries": int(sub.retries),
                }
                for sid, sub in zip(surviving, sub_outcomes)
            ],
        )
        if obs.enabled:
            qspan.set(
                pruned=outcome.shards_pruned,
                scanned=outcome.shards_scanned,
                degraded=degraded,
                stale=outcome.stale,
            )
            self._record_shard_metrics(outcome)
        return outcome, constraints

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_shard_metrics(self, outcome: ShardedOutcome) -> None:
        obs = self.obs
        obs.metrics.inc(
            "pruning_cache_lookups_total",
            outcome="hit" if outcome.pruning_cached else "miss",
        )
        for decision in outcome.shard_decisions:
            if decision.pruned:
                obs.metrics.inc("shards_pruned_total", reason=decision.decision)
        if outcome.shards_scanned:
            obs.metrics.inc("shards_scanned_total", amount=outcome.shards_scanned)
        obs.metrics.observe("merge_candidates", outcome.merge_candidates)

    def _explain(self, outcome: ShardedOutcome, constraints: Constraints) -> dict:
        """The fleet-level EXPLAIN record: the shared outcome head plus the
        shard decisions.

        ``predicted_surviving`` is the planner's claim (shards classified
        surviving); ``actual_surviving`` counts scanned shards that really
        contributed at least one point -- the pair feeds the
        ``calibration_shard_*`` MARE.
        """
        from repro.obs.explain import explain_record

        return explain_record(
            outcome,
            self.name,
            outcome.retries + 1,
            constraints={
                "lo": [float(v) for v in constraints.lo],
                "hi": [float(v) for v in constraints.hi],
            },
            shard_pruning={
                **outcome.pruning_record(),
                "predicted_surviving": outcome.shards_scanned,
                "actual_surviving": sum(
                    1 for p in outcome.per_shard if p["skyline_size"] > 0
                ),
            },
            actual={
                "points": outcome.points_read,
                "pages": outcome.io.pages_read,
                "seeks": outcome.io.seeks,
                "io_ms": outcome.io.simulated_io_ms,
                "skyline_size": outcome.skyline_size,
                "total_ms": outcome.total_ms,
            },
        )

    # ------------------------------------------------------------------
    # Maintenance (dynamic mode)
    # ------------------------------------------------------------------
    def _require_dynamic(self, operation: str) -> None:
        if not self.dynamic:
            raise TypeError(
                f"{operation} requires dynamic=True (DynamicCBCS shard engines)"
            )

    def insert_points(self, rows) -> List[Tuple[int, int]]:
        """Route new rows to their shards and maintain caches + summaries.

        Returns one ``(shard_id, rowid)`` id per input row, in input order
        (row ids are shard-local, so the pair is what names a row); the
        same ids are what :meth:`delete_points` accepts.

        Each shard's :class:`DynamicCBCS` does its own continuous cache
        maintenance; the fleet drops its cached pruning sets **only when a
        shard MBR actually grew** -- an insert inside the current MBR cannot
        change any disjoint/dominated classification, so those cached
        decisions stay valid and are kept.

        The whole batch is validated before any shard is touched, so a
        malformed row cannot leave an earlier shard's rows inserted with no
        id returned for them.
        """
        self._require_dynamic("insert_points")
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.table.ndim:
            raise ValueError("inserted rows must match the table's dimensionality")
        if rows.size and not np.isfinite(rows).all():
            raise ValueError("inserted rows must be finite")
        by_shard: dict = {}
        for position, row in enumerate(rows):
            by_shard.setdefault(self.table.route(row), []).append(position)
        ids: List = [None] * len(rows)
        for sid, positions in sorted(by_shard.items()):
            block = rows[positions]
            rowids = self.engines[sid].insert_points(block)
            for position, rowid in zip(positions, rowids):
                ids[position] = (sid, int(rowid))
            # Dropped shard by shard: a failure on a later shard (a WAL
            # write, say) must not keep pruning sets older than this MBR.
            if self.table.record_append(sid, block):
                self.pruning_cache.invalidate()
        return ids

    def delete_points(self, ids: Sequence[Tuple[int, int]]) -> int:
        """Delete rows by the ``(shard_id, rowid)`` ids :meth:`insert_points`
        returns; conservatively drops cached pruning sets (a delete can
        empty a shard or shrink its true extent, and the kept superset MBR
        cannot prove a ``dominated`` witness still exists)."""
        self._require_dynamic("delete_points")
        by_shard: dict = {}
        for sid, rowid in ids:
            if not 0 <= sid < self.n_shards:
                raise IndexError(f"shard id {sid} out of range")
            by_shard.setdefault(int(sid), []).append(int(rowid))
        # Dropped before any shard is touched: a bad row id on a later shard
        # must not leave pruning sets that predate an earlier shard's deletes.
        self.pruning_cache.invalidate()
        deleted = 0
        for sid, rowids in sorted(by_shard.items()):
            deleted += self.engines[sid].delete_points(rowids)
            self.table.record_delete(sid)
        return deleted

    def warm(self, queries) -> int:
        """Answer ``queries`` to preload every per-shard cache."""
        for constraints in queries:
            self.query(constraints)
        return sum(len(cache) for cache in self.shard_caches())

    def __repr__(self) -> str:
        return (
            f"ShardedCBCS(shards={self.table.n_shards}, "
            f"workers={self.workers}, dynamic={self.dynamic})"
        )
