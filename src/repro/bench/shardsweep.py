"""Shard sweep: the same engine over two tables must answer alike.

Sharding is a storage layout, so the sweep holds the engine fixed and varies
the table under it: per (seed, strategy) an unsharded
``CBCS(DiskTable(data))`` answers a partition-skewed stream, then
``CBCS(ShardedTable(data, n))`` re-answers it for every shard count.

Clean cells -- at every shard count:

- answers equal as multisets and stale / degraded flags equal;
- the overlap ``case`` equal, and per-query ``points_read`` no higher than
  the rows inside the queried region: a plan is priced by the layout, so
  how far its boxes are coalesced differs with the shard count, but they
  stay disjoint and inside the region, and the default ``bitmap`` plan
  reads exactly the matching rows -- never more than not caching would;
- at one shard the skyline bytes and the whole ``IOStats`` equal: the
  one-shard fleet *is* the plain table;
- over the cell, the accumulated per-query ``points_read`` equals the shard
  tables' own counters (nothing reads a disk without being attributed).

Faulted cells (``profile="default"`` etc.): one shard's table is wrapped in
a :class:`~repro.storage.faults.FaultyDiskTable` and the engine runs
resilient -- the fleet is one storage dependency with one breaker, and a
faulted shard fails only the boxes that touch it.  Non-stale answers must
equal :func:`~repro.skyline.reference.constrained_reference` over the raw
data, stale ones must be flagged, and no exception may escape.

Run via ``python -m repro.bench --shard-sweep N [--faults PROFILE]`` (exit
code 7 on failure) or directly::

    from repro.bench.shardsweep import run_shard_sweep
    report = run_shard_sweep(n_queries=40, seeds=(0, 1))
    assert report.passed
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import scaled
from repro.core.cbcs import CBCS
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
    n_queries: int
    cells: int = 0
    queries_checked: int = 0
    answer_mismatches: int = 0
    flag_mismatches: int = 0
    io_mismatches: int = 0
    unhandled_exceptions: int = 0
    stale_serves: int = 0
    retries: int = 0
    errors: List[str] = field(default_factory=list)
    points_read_by_shards: Dict[int, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.unhandled_exceptions == 0
            and self.answer_mismatches == 0
            and self.flag_mismatches == 0
            and self.io_mismatches == 0
        )

    def as_dict(self) -> dict:
        record = asdict(self)
        record["points_read_by_shards"] = {
            str(k): v for k, v in sorted(self.points_read_by_shards.items())
        }
        record["passed"] = self.passed
        return record

    def render_text(self) -> str:
        lines = [
            f"# shard sweep (seeds={list(self.seeds)}, "
            f"shards={list(self.shard_counts)}, "
            f"strategies={list(self.strategies)}, "
            f"faults={self.profile or 'none'})",
            f"cells checked        : {self.cells} "
            f"({self.queries_checked} query comparisons)",
            f"answer mismatches    : {self.answer_mismatches}",
            f"flag mismatches      : {self.flag_mismatches}",
            f"io mismatches        : {self.io_mismatches}",
            f"unhandled exceptions : {self.unhandled_exceptions}",
        ]
        if self.profile:
            lines.append(
                f"stale serves         : {self.stale_serves} (all flagged); "
                f"retries: {self.retries}"
            )
        for err in self.errors[:20]:
            lines.append(f"error: {err}")
        if len(self.errors) > 20:
            lines.append(f"... and {len(self.errors) - 20} more errors")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def run_shard_sweep(
    n_queries: int = 40,
    seeds: Sequence[int] = (0, 1),
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    strategies: Optional[Sequence[str]] = None,
    profile: Optional[str] = None,
    faulted_shard: int = 0,
    n_points: Optional[int] = None,
    ndim: int = 4,
    obs=None,
) -> ShardSweepReport:
    """Run the sweep and return its report (invariants: module doc).

    ``profile`` switches every cell to fault mode with shard
    ``faulted_shard`` (modulo the shard count) wrapped in a fault-injecting
    table; clean mode compares against the unsharded engine instead.
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
                report.cells += 1
                table = ShardedTable(data, count, mode="range", key_dim=0)
                if profile is not None:
                    _fault_shard(table[faulted_shard % count], profile, seed)
                engine = CBCS(
                    table,
                    strategy=make_strategy(),
                    obs=obs,
                    resilience=True if profile is not None else None,
                )
                _run_cell(
                    report,
                    engine,
                    queries,
                    data,
                    references,
                    f"seed={seed} strategy={strategy_name} shards={count}",
                )
                report.points_read_by_shards[count] = (
                    report.points_read_by_shards.get(count, 0)
                    + table.stats.points_read
                )
                engine.close()
    return report


def _fault_shard(shard, profile: str, seed: int) -> None:
    from repro.storage.faults import FaultInjector, FaultyDiskTable, get_profile

    shard.table = FaultyDiskTable(
        shard.table, FaultInjector(profile=get_profile(profile), seed=seed)
    )


def _run_cell(
    report: ShardSweepReport,
    engine: CBCS,
    queries,
    data,
    references,
    label: str,
) -> None:
    """One cell; ``references`` are the unsharded engine's outcomes, or None
    in fault mode."""
    n_shards = engine.table.n_shards
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
        report.retries += outcome.retries
        io_accum += outcome.points_read
        if references is None:
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
        in_region = int(constraints.satisfied_mask(data).sum())
        if outcome.case != reference.case or outcome.points_read > in_region:
            report.io_mismatches += 1
            report.errors.append(
                f"{qlabel}: read {outcome.points_read} points as "
                f"{outcome.case}; the region holds {in_region}, unsharded "
                f"read {reference.points_read} as {reference.case}"
            )
        if n_shards == 1 and not (
            outcome.skyline.tobytes() == reference.skyline.tobytes()
            and outcome.io == reference.io
        ):
            report.io_mismatches += 1
            report.errors.append(
                f"{qlabel}: one shard is not the plain table "
                f"({outcome.io} vs {reference.io})"
            )
    if references is not None:
        # Everything the queries were charged is exactly what the shard
        # tables' own counters saw.
        table_points = engine.table.stats.points_read
        if io_accum != table_points:
            report.io_mismatches += 1
            report.errors.append(
                f"{label}: accumulated per-query points_read {io_accum} != "
                f"shard-table counters {table_points}"
            )
