"""Crash-recovery drill: kill the engine mid-write, recover, prove bit-exactness.

The durability layer's acceptance test (companion to the chaos soak).  Each
scenario runs a seeded interleaved insert/delete/query schedule against a
durable :class:`~repro.core.dynamic.DynamicCBCS` (WAL-backed table updates,
disk-backed cache) with one crash point armed -- mid-WAL-append (clean and
torn), at the fsync boundary, mid-table-checkpoint, mid-cache-snapshot --
then recovers from the on-disk state and checks every verification query
**bit-exactly** against an uncrashed reference engine that applied exactly
the committed update prefix.

"Committed" is the WAL contract: an update is committed iff its log record
survived (each update batch is exactly one record, LSNs dense from 1, so
the recovered ``last_lsn`` *is* the committed prefix length).  A torn final
record is truncated on recovery and the update correctly un-happens.

Everything is seeded -- dataset, schedule, crash placement -- so a failing
drill replays bit-for-bit.  Run via ``python -m repro.bench --crash-drill``
(exit code 5 on failure) or as part of ``--chaos``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.cbcs import RUNG_STALE, RUNG_UNAVAILABLE
from repro.core.cache import SkylineCache
from repro.core.cache_backend import DiskCacheBackend
from repro.core.dynamic import DynamicCBCS
from repro.data.generator import independent
from repro.ioutil import atomic_write_json
from repro.skyline.reference import same_multiset
from repro.storage.durability import DurabilityManager
from repro.storage.faults import (
    FaultInjector,
    FaultyDiskTable,
    SimulatedCrash,
    get_profile,
)
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

__all__ = ["CrashScenario", "ScenarioResult", "CrashDrillReport", "run_crash_drill"]

#: Answers on these rungs are legitimately non-exact (only reachable when
#: the drill runs with a fault profile on top of the crash).
_STALE_RUNGS = (RUNG_STALE, RUNG_UNAVAILABLE)


@dataclass(frozen=True)
class CrashScenario:
    """One armed crash: where, after how many hits, and how torn."""

    name: str
    point: Optional[str]  # None = clean-shutdown control (warm restart)
    after: int = 0
    torn_fraction: Optional[float] = None


#: The drill's canonical scenario set.  ``after`` values land the crash
#: mid-schedule (the WAL points are hit by the table WAL *and* the cache
#: WAL, so even small counts reach deep into the run).
DEFAULT_SCENARIOS = (
    CrashScenario("warm-restart", None),
    CrashScenario("wal-append-clean", "wal.append", after=6),
    CrashScenario("wal-append-torn", "wal.append", after=9, torn_fraction=0.6),
    CrashScenario("wal-fsync-lost", "wal.fsync", after=4),
    CrashScenario("table-checkpoint", "table.checkpoint", after=0),
    CrashScenario("cache-snapshot", "cache.snapshot", after=0),
)


@dataclass
class ScenarioResult:
    name: str
    crash_point: Optional[str]
    crashed: bool = False
    committed_ops: int = 0
    total_ops: int = 0
    replayed_ops: int = 0
    checkpoint_lsn: int = 0
    tail_status: str = "clean"
    cache_tail_status: str = "clean"
    cache_restored_from: Optional[str] = None
    cache_restored_items: int = 0
    queries_checked: int = 0
    stale_serves: int = 0
    mismatches: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors and self.mismatches == 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "crash_point": self.crash_point,
            "crashed": self.crashed,
            "committed_ops": self.committed_ops,
            "total_ops": self.total_ops,
            "replayed_ops": self.replayed_ops,
            "checkpoint_lsn": self.checkpoint_lsn,
            "tail_status": self.tail_status,
            "cache_tail_status": self.cache_tail_status,
            "cache_restored_from": self.cache_restored_from,
            "cache_restored_items": self.cache_restored_items,
            "queries_checked": self.queries_checked,
            "stale_serves": self.stale_serves,
            "mismatches": self.mismatches,
            "errors": list(self.errors),
            "passed": self.passed,
        }


@dataclass
class CrashDrillReport:
    seed: int
    profile: str
    scenarios: List[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.scenarios) and all(s.passed for s in self.scenarios)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "scenarios": [s.as_dict() for s in self.scenarios],
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"# crash-recovery drill (seed={self.seed}, profile={self.profile})"
        ]
        for s in self.scenarios:
            status = "ok" if s.passed else "FAIL"
            lines.append(
                f"{s.name:<18} [{status}] crash={s.crash_point or 'none'} "
                f"committed={s.committed_ops}/{s.total_ops} "
                f"replayed={s.replayed_ops} tail={s.tail_status}"
                f"/{s.cache_tail_status} "
                f"cache={s.cache_restored_from} "
                f"checked={s.queries_checked} mismatches={s.mismatches}"
            )
            for err in s.errors:
                lines.append(f"    error: {err}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _make_schedule(rng: np.random.Generator, data: np.ndarray, n_ops: int):
    """A seeded interleaved op schedule over a driver-side live-row model.

    Returns ``(steps, updates)`` where ``steps`` interleaves ``("query",
    constraints)`` with ``("update", k)`` markers and ``updates[k]`` is the
    k-th update batch -- the unit the WAL commits, so ``updates[:last_lsn]``
    is exactly the committed prefix a reference engine must apply.
    """
    gen = WorkloadGenerator(data, seed=int(rng.integers(1 << 31)))
    queries = iter(gen.independent_queries(n_ops * 2))
    ndim = data.shape[1]
    n0 = len(data)
    alive = list(range(n0))
    next_id = n0
    steps = []
    updates = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.4:
            rows = rng.random((int(rng.integers(1, 4)), ndim))
            updates.append(("insert", rows))
            steps.append(("update", len(updates) - 1))
            for _ in range(len(rows)):
                alive.append(next_id)
                next_id += 1
        elif roll < 0.7 and len(alive) > 4:
            picks = rng.choice(len(alive), size=int(rng.integers(1, 3)), replace=False)
            rowids = sorted(alive[int(i)] for i in picks)
            for rid in rowids:
                alive.remove(rid)
            updates.append(("delete", np.asarray(rowids, dtype=np.int64)))
            steps.append(("update", len(updates) - 1))
        else:
            steps.append(("query", next(queries)))
    return steps, updates


def _build_engine(
    data: np.ndarray,
    dur_dir: Path,
    cache_dir: Path,
    injector: Optional[FaultInjector],
    profile,
    fsync: bool,
):
    """One durable engine over (possibly fault-injected) storage."""
    table = DiskTable(data.copy())
    faulty = profile is not None and profile.total_rate > 0
    if faulty:
        table = FaultyDiskTable(table, injector)
    manager = DurabilityManager(
        dur_dir, fsync=fsync, checkpoint_every=5, injector=injector
    )
    cache = SkylineCache(
        backend=DiskCacheBackend(
            cache_dir, fsync=fsync, checkpoint_every=8, injector=injector
        )
    )
    engine = DynamicCBCS(
        table,
        cache=cache,
        durability=manager,
        resilience=True if faulty else None,
    )
    return engine


def _check_queries(result: ScenarioResult, engine, reference, queries) -> None:
    """Compare the recovered engine's answers to the uncrashed reference."""
    for i, constraints in enumerate(queries):
        outcome = engine.query(constraints)
        ref = reference.query(constraints)
        result.queries_checked += 1
        if outcome.degraded in _STALE_RUNGS:
            result.stale_serves += 1
            continue
        if not same_multiset(
            np.asarray(outcome.skyline), np.asarray(ref.skyline)
        ):
            result.mismatches += 1
            result.errors.append(
                f"check query {i}: recovered answer differs from reference "
                f"({len(outcome.skyline)} vs {len(ref.skyline)} points)"
            )


def run_crash_drill(
    seed: int = 0,
    profile: str = "none",
    n_points: int = 400,
    ndim: int = 3,
    n_ops: int = 16,
    n_check_queries: int = 10,
    fsync: bool = True,
    scenarios=DEFAULT_SCENARIOS,
    out_dir=None,
) -> CrashDrillReport:
    """Run every crash scenario; returns the :class:`CrashDrillReport`.

    ``profile`` layers ordinary storage faults (retried by the resilience
    stack) on top of the crashes -- the CI job runs ``default``.  With
    ``out_dir`` set, each scenario's durability/cache directories survive
    under it and ``recovery_report.json`` is written there (the CI
    artifacts); otherwise everything lives in a temp directory.
    """
    fault_profile = get_profile(profile)
    report = CrashDrillReport(seed=seed, profile=fault_profile.name)
    root = Path(out_dir) if out_dir is not None else Path(tempfile.mkdtemp())
    root.mkdir(parents=True, exist_ok=True)
    data = independent(n_points, ndim, seed=seed)

    for scenario in scenarios:
        result = ScenarioResult(name=scenario.name, crash_point=scenario.point)
        report.scenarios.append(result)
        sdir = root / scenario.name
        dur_dir, cache_dir = sdir / "durability", sdir / "cache"
        rng = np.random.default_rng(seed)
        steps, updates = _make_schedule(rng, data, n_ops)
        result.total_ops = len(updates)
        check_queries = list(
            WorkloadGenerator(data, seed=seed + 1).independent_queries(
                n_check_queries
            )
        )
        injector = FaultInjector(profile=fault_profile, seed=seed)
        try:
            engine = _build_engine(
                data, dur_dir, cache_dir, injector, fault_profile, fsync
            )
            # Arm only after construction: the base checkpoint must exist,
            # or there is nothing to recover onto.
            if scenario.point is not None:
                injector.arm_crash(
                    scenario.point,
                    after=scenario.after,
                    torn_fraction=scenario.torn_fraction,
                )
            try:
                for kind, arg in steps:
                    if kind == "query":
                        engine.query(arg)
                    else:
                        op, payload = updates[arg]
                        if op == "insert":
                            engine.insert_points(payload)
                        else:
                            engine.delete_points(payload)
                # Clean shutdown is crash-exposed too: its final table and
                # cache checkpoints are where the snapshot points fire when
                # the schedule alone did not reach them.
                engine.close()
            except SimulatedCrash:
                result.crashed = True
            else:
                if scenario.point is not None:
                    result.errors.append(
                        f"armed crash point {scenario.point!r} never fired"
                    )
                    continue

            # ----------------------------------------------------------
            # Recovery: fresh manager + cache over the surviving files.
            # ----------------------------------------------------------
            injector.disarm_crashes()
            manager = DurabilityManager(
                dur_dir, fsync=fsync, checkpoint_every=5, injector=injector
            )
            cache = SkylineCache(
                backend=DiskCacheBackend(
                    cache_dir, fsync=fsync, checkpoint_every=8, injector=injector
                )
            )
            faulty = fault_profile.total_rate > 0
            recovered = DynamicCBCS.recover(
                manager,
                cache=cache,
                resilience=True if faulty else None,
                table_wrapper=(
                    (lambda t: FaultyDiskTable(t, injector)) if faulty else None
                ),
            )
            rec_report = recovered.recovery_report
            result.committed_ops = rec_report.last_lsn
            result.replayed_ops = rec_report.replayed_ops
            result.checkpoint_lsn = rec_report.checkpoint_lsn
            result.tail_status = rec_report.tail_status
            result.cache_tail_status = cache.backend.wal.opened_tail_status
            result.cache_restored_from = cache.backend.restored_from
            result.cache_restored_items = cache.backend.restored_items

            if scenario.point is None:
                # The control must actually restart warm.
                if cache.backend.restored_from == "cold":
                    result.errors.append(
                        "warm-restart control came back cold (no cache state)"
                    )
                if result.committed_ops != len(updates):
                    result.errors.append(
                        f"clean shutdown lost updates: committed "
                        f"{result.committed_ops} of {len(updates)}"
                    )
            if result.committed_ops > len(updates):
                result.errors.append(
                    f"recovered more updates ({result.committed_ops}) than "
                    f"were issued ({len(updates)})"
                )
                continue

            # Uncrashed reference: exactly the committed prefix, no
            # durability, no faults -- answers are exact by construction.
            reference = DynamicCBCS(DiskTable(data.copy()))
            for op, payload in updates[: result.committed_ops]:
                if op == "insert":
                    reference.insert_points(payload)
                else:
                    reference.delete_points(payload)
            _check_queries(result, recovered, reference, check_queries)
            recovered.close()
            reference.close()
        except Exception as exc:  # a drill must report, never explode
            result.errors.append(f"{type(exc).__name__}: {exc}")

    if out_dir is not None:
        atomic_write_json(root / "recovery_report.json", report.as_dict())
    return report
