"""Bit-identity sweep: the sharded engine must answer like the unsharded one.

The headline invariant of the sharded refactor (ISSUE PR 10): for every
seed x shard count x strategy cell, :class:`~repro.core.sharded.ShardedCBCS`
returns *exactly* the unsharded engine's answer -- same points, same flags,
same order after canonical sort -- and its I/O accounting reconciles:

- fleet ``points_read`` equals the sum of per-shard ``points_read``;
- ``shards_pruned + shards_scanned == shards_total`` on every query;
- the merge candidates equal the pooled per-shard skyline sizes;
- over a clean run, the accumulated per-query I/O equals the shard tables'
  own counters (nothing reads the disk without being attributed).

With a fault profile, one shard's table is wrapped in a
:class:`~repro.storage.faults.FaultyDiskTable` and every shard engine runs
resilient: non-stale fleet answers must still match the reference skyline
computed directly over the data, stale answers must be flagged
(``stale=True``), and the faulted shard's degradations must surface in the
fleet outcome -- per-shard resilience semantics preserved through the
merge.

Run via ``python -m repro.bench --shard-sweep N [--faults PROFILE]`` (exit
code 7 on failure) or directly::

    from repro.bench.shardsweep import run_shard_sweep
    report = run_shard_sweep(n_queries=40, seeds=(0, 1))
    assert report.passed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import scaled
from repro.core.cbcs import CBCS
from repro.core.sharded import ShardedCBCS
from repro.core.strategies import MaxOverlap, MaxOverlapSP
from repro.data.generator import independent
from repro.skyline.reference import constrained_reference, same_multiset
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

#: Strategy factories swept (name -> zero-arg constructor).
SWEEP_STRATEGIES = {
    "max-overlap-sp": MaxOverlapSP,
    "max-overlap": MaxOverlap,
}

DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)


@dataclass
class ShardSweepReport:
    """Everything the sweep checked, plus the pass/fail verdict inputs."""

    seeds: Tuple[int, ...]
    shard_counts: Tuple[int, ...]
    strategies: Tuple[str, ...]
    profile: Optional[str]
    workers: int
    n_queries: int
    cells: int = 0
    queries_checked: int = 0
    answer_mismatches: int = 0
    flag_mismatches: int = 0
    io_mismatches: int = 0
    accounting_mismatches: int = 0
    unhandled_exceptions: int = 0
    stale_serves: int = 0
    retries: int = 0
    shards_pruned: int = 0
    shards_scanned: int = 0
    faulted_shard_degradations: int = 0
    pruning_cache_hits: int = 0
    errors: List[str] = field(default_factory=list)
    points_read_by_shards: Dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.unhandled_exceptions == 0
            and self.answer_mismatches == 0
            and self.flag_mismatches == 0
            and self.io_mismatches == 0
            and self.accounting_mismatches == 0
        )

    def as_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "shard_counts": list(self.shard_counts),
            "strategies": list(self.strategies),
            "profile": self.profile,
            "workers": self.workers,
            "n_queries": self.n_queries,
            "cells": self.cells,
            "queries_checked": self.queries_checked,
            "answer_mismatches": self.answer_mismatches,
            "flag_mismatches": self.flag_mismatches,
            "io_mismatches": self.io_mismatches,
            "accounting_mismatches": self.accounting_mismatches,
            "unhandled_exceptions": self.unhandled_exceptions,
            "stale_serves": self.stale_serves,
            "retries": self.retries,
            "shards_pruned": self.shards_pruned,
            "shards_scanned": self.shards_scanned,
            "faulted_shard_degradations": self.faulted_shard_degradations,
            "pruning_cache_hits": self.pruning_cache_hits,
            "points_read_by_shards": {
                str(k): v for k, v in sorted(self.points_read_by_shards.items())
            },
            "errors": list(self.errors),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"# shard sweep (seeds={list(self.seeds)}, "
            f"shards={list(self.shard_counts)}, "
            f"strategies={list(self.strategies)}, "
            f"faults={self.profile or 'none'}, workers={self.workers})",
            f"cells checked        : {self.cells} "
            f"({self.queries_checked} query comparisons)",
            f"answer mismatches    : {self.answer_mismatches}",
            f"flag mismatches      : {self.flag_mismatches}",
            f"io mismatches        : {self.io_mismatches}",
            f"accounting mismatches: {self.accounting_mismatches}",
            f"unhandled exceptions : {self.unhandled_exceptions}",
            f"shards pruned/scanned: {self.shards_pruned}/{self.shards_scanned}",
            f"pruning cache hits   : {self.pruning_cache_hits}",
        ]
        if self.profile:
            lines.append(
                f"stale serves         : {self.stale_serves} (all flagged); "
                f"retries: {self.retries}; faulted-shard degradations: "
                f"{self.faulted_shard_degradations}"
            )
        for err in self.errors[:20]:
            lines.append(f"error: {err}")
        if len(self.errors) > 20:
            lines.append(f"... and {len(self.errors) - 20} more errors")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _check_accounting(report: ShardSweepReport, outcome, label: str) -> None:
    """Per-query shard accounting + I/O reconciliation checks."""
    ok = (
        outcome.shards_pruned + outcome.shards_scanned == outcome.shards_total
        and len(outcome.per_shard) == outcome.shards_scanned
    )
    if not ok:
        report.accounting_mismatches += 1
        report.errors.append(
            f"{label}: pruned {outcome.shards_pruned} + scanned "
            f"{outcome.shards_scanned} != total {outcome.shards_total}"
        )
    per_shard_points = sum(p["points_read"] for p in outcome.per_shard)
    if outcome.points_read != per_shard_points:
        report.io_mismatches += 1
        report.errors.append(
            f"{label}: fleet points_read {outcome.points_read} != "
            f"sum of per-shard {per_shard_points}"
        )
    pooled = sum(p["skyline_size"] for p in outcome.per_shard)
    if outcome.merge_candidates != pooled:
        report.io_mismatches += 1
        report.errors.append(
            f"{label}: merge candidates {outcome.merge_candidates} != "
            f"pooled per-shard skylines {pooled}"
        )


def run_shard_sweep(
    n_queries: int = 40,
    seeds: Sequence[int] = (0, 1),
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    strategies: Optional[Sequence[str]] = None,
    profile: Optional[str] = None,
    faulted_shard: int = 0,
    n_points: Optional[int] = None,
    ndim: int = 4,
    workers: int = 1,
    obs=None,
) -> ShardSweepReport:
    """Run the bit-identity sweep and return its report.

    Clean mode (``profile=None``): each (seed, strategy) runs an unsharded
    reference engine, then every shard count re-answers the same
    partition-skewed stream on a range-partitioned fleet; every answer must
    match bit-for-bit and every counter must reconcile, including the
    end-of-cell check that accumulated per-query I/O equals the shard
    tables' own counters.

    Fault mode (``profile="default"`` etc.): shard ``faulted_shard`` is
    wrapped in a fault-injecting table and engines run resilient; non-stale
    answers are checked against the reference skyline over the raw data,
    stale answers must be flagged, and the faulted shard must be the one
    degrading.
    """
    strategy_names = tuple(strategies or SWEEP_STRATEGIES)
    for name in strategy_names:
        if name not in SWEEP_STRATEGIES:
            raise ValueError(
                f"unknown sweep strategy {name!r}; "
                f"expected one of {sorted(SWEEP_STRATEGIES)}"
            )
    if n_points is None:
        n_points = scaled(2_000, 8_000, 30_000)
    report = ShardSweepReport(
        seeds=tuple(seeds),
        shard_counts=tuple(shard_counts),
        strategies=strategy_names,
        profile=profile,
        workers=int(workers),
        n_queries=int(n_queries),
    )

    for seed in seeds:
        data = independent(n_points, ndim, seed=seed)
        queries = list(
            WorkloadGenerator(data, seed=seed + 1).partition_stream(
                n_queries, tenants=6, key_dim=0
            )
        )
        for strategy_name in strategy_names:
            make_strategy = SWEEP_STRATEGIES[strategy_name]
            references = None
            if profile is None:
                ref_engine = CBCS(DiskTable(data), strategy=make_strategy())
                references = [ref_engine.query(q) for q in queries]
                ref_engine.close()
            for count in shard_counts:
                label = f"seed={seed} strategy={strategy_name} shards={count}"
                report.cells += 1
                engine = _build_engine(
                    data,
                    count,
                    make_strategy,
                    profile=profile,
                    faulted_shard=faulted_shard,
                    seed=seed,
                    workers=workers,
                    obs=obs,
                )
                _run_cell(
                    report, engine, queries, data, references, label,
                    profile=profile,
                    faulted_shard=faulted_shard % count,
                )
                report.pruning_cache_hits += engine.pruning_cache.hits
                report.points_read_by_shards[count] = (
                    report.points_read_by_shards.get(count, 0)
                    + engine.table.stats_total().points_read
                )
                engine.close()
    return report


def _build_engine(
    data,
    n_shards: int,
    make_strategy,
    profile: Optional[str],
    faulted_shard: int,
    seed: int,
    workers: int,
    obs,
) -> ShardedCBCS:
    table = ShardedTable(data, n_shards, mode="range", key_dim=0)
    wrapper = None
    resilience = None
    if profile is not None:
        from repro.storage.faults import FaultInjector, FaultyDiskTable, get_profile

        fault_profile = get_profile(profile)
        target = faulted_shard % n_shards

        def wrapper(shard_id, shard_table):
            if shard_id != target:
                return shard_table
            return FaultyDiskTable(
                shard_table,
                FaultInjector(profile=fault_profile, seed=seed),
            )

        resilience = True
    return ShardedCBCS(
        table,
        strategy_factory=make_strategy,
        workers=workers,
        obs=obs,
        resilience=resilience,
        shard_table_wrapper=wrapper,
    )


def _run_cell(
    report: ShardSweepReport,
    engine: ShardedCBCS,
    queries,
    data,
    references,
    label: str,
    profile: Optional[str],
    faulted_shard: int,
) -> None:
    io_accum = 0
    for i, constraints in enumerate(queries):
        qlabel = f"{label} query={i}"
        try:
            outcome = engine.query(constraints)
        except Exception as exc:  # must never happen, clean or faulted
            report.unhandled_exceptions += 1
            report.errors.append(f"{qlabel}: {type(exc).__name__}: {exc}")
            continue
        report.queries_checked += 1
        report.shards_pruned += outcome.shards_pruned
        report.shards_scanned += outcome.shards_scanned
        report.retries += outcome.retries
        _check_accounting(report, outcome, qlabel)
        io_accum += outcome.points_read
        if profile is not None:
            for entry in outcome.per_shard:
                if entry["degraded"] is not None:
                    if entry["shard_id"] == faulted_shard:
                        report.faulted_shard_degradations += 1
                    else:
                        report.flag_mismatches += 1
                        report.errors.append(
                            f"{qlabel}: un-faulted shard "
                            f"{entry['shard_id']} degraded "
                            f"({entry['degraded']})"
                        )
            if outcome.stale:
                report.stale_serves += 1
                continue
            reference = constrained_reference(data, constraints)
            if not same_multiset(np.asarray(outcome.skyline), reference):
                report.answer_mismatches += 1
                report.errors.append(
                    f"{qlabel}: non-stale answer differs from reference "
                    f"({len(outcome.skyline)} vs {len(reference)} points)"
                )
            continue
        reference = references[i]
        if not same_multiset(
            np.asarray(outcome.skyline), np.asarray(reference.skyline)
        ):
            report.answer_mismatches += 1
            report.errors.append(
                f"{qlabel}: answer differs from unsharded "
                f"({len(outcome.skyline)} vs {len(reference.skyline)} points)"
            )
        if bool(outcome.stale) != bool(reference.stale) or (
            outcome.degraded is not None
        ) != (reference.degraded is not None):
            report.flag_mismatches += 1
            report.errors.append(
                f"{qlabel}: flags differ (stale {outcome.stale} vs "
                f"{reference.stale}, degraded {outcome.degraded} vs "
                f"{reference.degraded})"
            )
    if profile is None:
        # End-of-cell reconciliation: everything the queries were charged is
        # exactly what the shard tables' own counters saw.
        table_points = engine.table.stats_total().points_read
        if io_accum != table_points:
            report.io_mismatches += 1
            report.errors.append(
                f"{label}: accumulated per-query points_read {io_accum} != "
                f"shard-table counters {table_points}"
            )
