"""Soaks: the engine under storage faults, crashes, overload and sharding.

The paper's correctness claim (Definition 1) is that every CBCS answer is
Sky(S, C').  Four seeded scenarios hold the engine to it where it is most
likely to break; each turns its failed pass conditions into named
``errors`` of one :class:`SoakReport`, which passes when there are none:

=========  ===================  ==========================================  ====
scenario   flag                 fails on                                    exit
=========  ===================  ==========================================  ====
chaos      ``--chaos N``        a wrong answer, an escaped exception, the   4
                                stale floor, an incomplete breaker cycle
crash      ``--crash-drill``    a wrong recovered answer, a crash point     5
                                that never fired, a cold or lossy warm
                                restart
overload   ``--overload N``     a wrong answer, accounting not closed, the  6
                                p99 bound, no coalescing
shards     ``--shard-sweep N``  a wrong answer, an escaped exception; clean 7
                                (no ``--faults``): any difference from the
                                unsharded engine, one-shard ``IOStats``
=========  ===================  ==========================================  ====

Every answer goes through one verdict,
:func:`~repro.skyline.reference.answer_error`: flagged ``stale``, or equal to
the reference skyline of the rows that are live.  Run them through ``python
-m repro.bench`` or directly::

    from repro.bench import soak
    report = soak.chaos(200, "default", seed=0)
    print(report.render_text())
    assert report.passed
"""

from __future__ import annotations

import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.harness import scaled
from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.core.strategies import MaxOverlap, MaxOverlapSP
from repro.data.generator import independent
from repro.ioutil import atomic_write_json
from repro.service import AdmissionPolicy, QueryService, RequestRejected
from repro.skyline.reference import answer_error, same_multiset
from repro.storage.durability import DurabilityManager
from repro.storage.faults import FaultInjector, FaultyDiskTable, SimulatedCrash
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.storage.wal import CheckpointedLog
from repro.workload.generator import WorkloadGenerator

#: chaos: the share of queries that must be answered above the stale rung
MIN_EXACT_FRACTION = 0.99

#: crash: (name, crash point or None for the clean-shutdown control, hits
#: skipped before it fires, torn fraction).  The WAL points are hit by the
#: table WAL *and* the cache WAL, so small counts reach deep into the run.
CRASH_SCENARIOS = (
    ("warm-restart", None, 0, None),
    ("wal-append-clean", "wal.append", 6, None),
    ("wal-append-torn", "wal.append", 9, 0.6),
    ("wal-fsync-lost", "wal.fsync", 4, None),
    ("table-checkpoint", "table.checkpoint", 0, None),
    ("cache-snapshot", "cache.snapshot", 0, None),
)

#: overload: arrivals per second as a multiple of the calibrated saturation
RATE_MULTIPLIER = 2.0
QUEUE_CAPACITY = 64
#: serial queries before the schedule: the first half warms the cache, the
#: second half measures the steady-state service time
CALIBRATION_QUERIES = 25
#: interactive requests' deadline, in mean service times
DEADLINE_MULTIPLIER = 25.0
MIN_COALESCED = 1
#: slack on the p99 bound, for scheduler jitter on loaded runners
P99_SLACK_MS = 250.0
#: PacedEngine: an answer takes max(simulated I/O ms * PACE, FLOOR_MS) of wall time
PACE = 1.0
FLOOR_MS = 2.0
_PRIORITY_MIX = (("interactive", 0.3), ("normal", 0.5), ("batch", 0.2))

#: shards: the layouts and the strategies every seed is swept over
SHARD_COUNTS = (1, 2, 4, 8)
SWEEP_STRATEGIES = {"max-overlap-sp": MaxOverlapSP, "max-overlap": MaxOverlap}


@dataclass
class SoakReport:
    """What one soak counted and measured; it passed iff nothing failed."""

    scenario: str
    seed: int
    profile: str
    counts: Dict[str, int] = field(default_factory=dict)
    facts: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def render_text(self) -> str:
        lines = [f"# {self.scenario} soak (faults={self.profile}, seed={self.seed})"]
        for key, value in {**self.counts, **self.facts}.items():
            if isinstance(value, dict):
                value = " ".join(f"{k}={v}" for k, v in value.items()) or "-"
            elif isinstance(value, float):
                value = f"{value:.4g}"
            lines.append(f"{key:<21}: {value}")
        lines += [f"error: {err}" for err in self.errors[:20]]
        if len(self.errors) > 20:
            lines.append(f"... and {len(self.errors) - 20} more errors")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _faulty(table, profile: str, seed: int, obs=None) -> FaultyDiskTable:
    """``table`` behind a seeded injector of ``profile`` (``table.injector``),
    counting into ``obs``'s metrics when observability is on.  A ``none``
    profile injects nothing but still takes a forced outage."""
    metrics = obs.metrics if obs is not None and obs.enabled else None
    return FaultyDiskTable(
        table, FaultInjector(profile=profile, seed=seed, metrics=metrics)
    )


def _query(report: SoakReport, label: str, engine, constraints):
    """``engine.query``; an exception that escapes is an error, not a crash."""
    try:
        return engine.query(constraints)
    except Exception as exc:
        report.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def _check(report: SoakReport, label: str, outcome, rows, constraints) -> None:
    """The verdict on one answer; stale answers are counted."""
    report.counts["stale_serves"] += outcome.stale
    error = answer_error(outcome, rows, constraints)
    if error is not None:
        report.errors.append(f"{label}: {error}")


# ----------------------------------------------------------------------
# chaos: storage faults and a breaker drill
# ----------------------------------------------------------------------
def chaos(n: int = 200, profile: str = "default", seed: int = 0, obs=None) -> SoakReport:
    """``n`` mixed queries (refinement chains and independent ones) against
    a resilient CBCS over a faulty table, then a forced outage long enough
    to open the circuit breaker, querying on through cooldown and half-open
    probes until it closes again.  The drill's queries count towards neither
    the stale floor nor the verdict."""
    data = independent(scaled(2_000, 10_000, 50_000), 4, seed=seed)
    table = _faulty(DiskTable(data), profile, seed, obs)
    injector = table.injector
    engine = CBCS(table, obs=obs, resilience=True)
    breaker = engine.resilience.breaker
    gen = WorkloadGenerator(data, seed=seed)
    queries = list(gen.exploratory_stream(n // 2))
    queries += list(gen.independent_queries(n - n // 2))

    report = SoakReport("chaos", seed, injector.profile.name)
    report.counts = dict.fromkeys(
        ("queries", "stale_serves", "retries", "drill_queries"), 0
    )
    report.counts["queries"] = len(queries)
    rungs: Dict[str, int] = {}
    for i, constraints in enumerate(queries):
        outcome = _query(report, f"query {i}", engine, constraints)
        if outcome is None:
            continue
        report.counts["retries"] += outcome.retries
        if outcome.degraded is not None:
            rungs[outcome.degraded] = rungs.get(outcome.degraded, 0) + 1
        _check(report, f"query {i}", outcome, data, constraints)
    report.facts["rungs"] = rungs
    report.facts["faults_injected"] = injector.fault_counts()
    exact = 1.0 - report.counts["stale_serves"] / max(len(queries), 1)
    if exact < MIN_EXACT_FRACTION:
        report.errors.append(
            f"stale floor: {exact:.1%} of queries answered above the stale "
            f"rung, below {MIN_EXACT_FRACTION:.0%}"
        )

    states = [breaker.state]
    drill = iter(WorkloadGenerator(data, seed=seed + 1).independent_queries(40))

    def drill_until(state: str) -> None:
        for _ in range(20):
            if breaker.state == state:
                return
            label = f"drill query {report.counts['drill_queries']}"
            _query(report, label, engine, next(drill))
            report.counts["drill_queries"] += 1
            states.append(breaker.state)

    # A generous outage budget keeps the half-open probes failing too;
    # rejections while open never reach storage, so they do not spend it.
    injector.force_outage(10_000)
    drill_until("open")
    injector.clear_outage()
    drill_until("closed")
    for transition in breaker.transitions:
        if transition.to_state not in states:
            states.append(transition.to_state)
    report.facts["breaker_states_seen"] = states
    if not {"open", "half_open", "closed"} <= set(states):
        report.errors.append(
            f"breaker cycle: saw {sorted(set(states))}, "
            "not open, half_open and closed"
        )
    return report


# ----------------------------------------------------------------------
# crash: kill a durable engine mid-write, recover, check every answer
# ----------------------------------------------------------------------
def crash(profile: str = "default", seed: int = 0, out_dir=None) -> SoakReport:
    """Each of :data:`CRASH_SCENARIOS` runs one seeded insert / delete /
    query schedule against a durable :class:`CBCS` (WAL-backed table,
    disk cache) with its crash point armed, recovers from the files left
    behind, and checks verification queries against the live rows of the
    committed prefix of the schedule.

    An update is committed iff its WAL record survived: each update batch is
    one record and LSNs are dense from 1, so the recovered ``last_lsn`` *is*
    the committed prefix length, and a torn final record un-happens.  With
    ``out_dir`` each scenario's durability and cache directories stay under
    it next to ``recovery_report.json``; without, they are removed.
    """
    report = SoakReport("crash", seed, profile)
    keep = out_dir is not None
    with nullcontext(out_dir) if keep else tempfile.TemporaryDirectory() as root:
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        data = independent(400, 3, seed=seed)
        for scenario in CRASH_SCENARIOS:
            row = _crash_scenario(root, data, profile, seed, *scenario)
            row["passed"] = not row["errors"]
            report.facts[row["name"]] = row
            report.errors += [f"{row['name']}: {err}" for err in row["errors"]]
        rows = list(report.facts.values())
        report.counts = {
            "scenarios": len(rows),
            "queries_checked": sum(r["queries_checked"] for r in rows),
            "stale_serves": sum(r["stale_serves"] for r in rows),
        }
        if keep:
            atomic_write_json(
                root / "recovery_report.json",
                {"seed": seed, "profile": profile, "scenarios": rows,
                 "passed": report.passed},
            )
    return report


def _make_schedule(rng: np.random.Generator, data: np.ndarray, n_ops: int = 16):
    """``(steps, updates)`` for ``n_ops`` seeded ops: ``steps`` interleaves ``("query", constraints)``
    with ``("update", k)``, and ``updates[k]`` is the k-th update batch --
    the unit the WAL commits.  Inserted rows take the next row ids."""
    gen = WorkloadGenerator(data, seed=int(rng.integers(1 << 31)))
    queries = iter(gen.independent_queries(n_ops * 2))
    alive = list(range(len(data)))
    next_id = len(data)
    steps, updates = [], []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.4:
            rows = rng.random((int(rng.integers(1, 4)), data.shape[1]))
            updates.append(("insert", rows))
            alive += range(next_id, next_id + len(rows))
            next_id += len(rows)
        elif roll < 0.7 and len(alive) > 4:
            picks = rng.choice(len(alive), size=int(rng.integers(1, 3)), replace=False)
            rowids = sorted(alive[int(i)] for i in picks)
            for rid in rowids:
                alive.remove(rid)
            updates.append(("delete", np.asarray(rowids, dtype=np.int64)))
        else:
            steps.append(("query", next(queries)))
            continue
        steps.append(("update", len(updates) - 1))
    return steps, updates


def _live_rows(data: np.ndarray, updates) -> np.ndarray:
    """The rows live after ``updates``, by the schedule's own row ids."""
    rows = np.vstack([data] + [p for op, p in updates if op == "insert"])
    deleted = [p for op, p in updates if op == "delete"]
    return np.delete(rows, np.concatenate([np.empty(0, np.int64)] + deleted), axis=0)


def _durable_state(sdir: Path, injector):
    """A durability manager and a durable cache over ``sdir``'s files."""
    manager = DurabilityManager(
        sdir / "durability", fsync=True, checkpoint_every=5, injector=injector
    )
    log = CheckpointedLog(
        sdir / "cache", "cache", fsync=True, checkpoint_every=8, injector=injector
    )
    return manager, SkylineCache(log=log)


def _crash_scenario(root: Path, data, profile, seed, name, point, after, torn) -> dict:
    """One scenario's row of ``recovery_report.json``."""
    row = {
        "name": name, "crash_point": point, "crashed": False,
        "committed_ops": 0, "total_ops": 0, "replayed_ops": 0,
        "checkpoint_lsn": 0, "tail_status": "clean",
        "cache_tail_status": "clean", "cache_restored_from": None,
        "cache_restored_items": 0, "queries_checked": 0, "stale_serves": 0,
        "mismatches": 0, "errors": [],
    }
    errors = row["errors"]
    steps, updates = _make_schedule(np.random.default_rng(seed), data)
    row["total_ops"] = len(updates)
    checks = WorkloadGenerator(data, seed=seed + 1).independent_queries(10)
    table = _faulty(DiskTable(data.copy()), profile, seed)
    injector = table.injector
    try:
        manager, cache = _durable_state(root / name, injector)
        engine = CBCS(table, cache=cache, durability=manager, resilience=True)
        # Armed only now: the base checkpoint must exist to recover onto.
        if point is not None:
            injector.arm_crash(point, after=after, torn_fraction=torn)
        try:
            for kind, arg in steps:
                if kind == "query":
                    engine.query(arg)
                elif updates[arg][0] == "insert":
                    engine.insert_points(updates[arg][1])
                else:
                    engine.delete_points(updates[arg][1])
            # A clean shutdown's final checkpoints are where the snapshot
            # points fire when the schedule alone did not reach them.
            engine.close()
        except SimulatedCrash:
            row["crashed"] = True
        else:
            if point is not None:
                errors.append(f"crash point fired: {point!r} was armed, never fired")
                return row

        injector.disarm_crashes()
        manager, cache = _durable_state(root / name, injector)
        restored_items = len(cache)
        recovered = CBCS.recover(
            manager,
            cache=cache,
            resilience=True,
            table_wrapper=lambda t: FaultyDiskTable(t, injector),
        )
        rec = recovered.recovery_report
        row.update(
            committed_ops=rec.last_lsn,
            replayed_ops=rec.replayed_ops,
            checkpoint_lsn=rec.checkpoint_lsn,
            tail_status=rec.tail_status,
            cache_tail_status=cache.log.wal.opened_tail_status,
            cache_restored_from=cache.restored_from,
            cache_restored_items=restored_items,
        )
        committed = rec.last_lsn
        if point is None and cache.restored_from == "cold":
            errors.append("warm restart: the control came back cold")
        if point is None and committed != len(updates):
            errors.append(
                f"warm restart: committed {committed} of {len(updates)} updates"
            )
        if committed > len(updates):
            errors.append(f"recovered {committed} updates of {len(updates)} issued")
            return row
        live = _live_rows(data, updates[:committed])
        for i, constraints in enumerate(checks):
            outcome = recovered.query(constraints)
            row["queries_checked"] += 1
            row["stale_serves"] += outcome.stale
            error = answer_error(outcome, live, constraints)
            if error is not None:
                row["mismatches"] += 1
                errors.append(f"check query {i}: recovered {error}")
        recovered.close()
    except Exception as exc:  # a drill must report, never explode
        errors.append(f"{type(exc).__name__}: {exc}")
    return row


# ----------------------------------------------------------------------
# overload: open-loop arrivals through the QueryService ingress
# ----------------------------------------------------------------------
class PacedEngine:
    """Replays an engine's simulated disk time as wall-clock time.

    The engine charges simulated I/O milliseconds and answers in
    microseconds of wall time, so no arrival rate could overload it.  This
    shim sleeps after each answer until
    ``max(outcome.timings.fetch_io_ms * PACE, FLOOR_MS)`` has passed since
    the query began: the simulated disk replayed as wall time, which makes
    saturation, queue growth and shedding real.  Exceptions
    (:class:`~repro.resilience.errors.DeadlineExceeded` included) propagate
    unpadded; everything else is the engine's.
    """

    def __init__(self, engine):
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def query(self, constraints, query_id=None, deadline=None):
        t0 = time.perf_counter()
        outcome = self.engine.query(constraints, query_id=query_id, deadline=deadline)
        leftover = max(outcome.timings.fetch_io_ms * PACE, FLOOR_MS) / 1000.0 - (
            time.perf_counter() - t0
        )
        if leftover > 0:
            time.sleep(leftover)
        return outcome


def overload(
    n: int = 200, profile: str = "none", seed: int = 0, obs=None, workers: int = 4
) -> SoakReport:
    """``n`` zipf-skewed requests submitted open-loop -- on a fixed
    exponential arrival schedule, whether or not the service keeps up -- at
    :data:`RATE_MULTIPLIER` times the saturation rate of ``workers`` paced
    workers, calibrated on :data:`CALIBRATION_QUERIES` serial queries.  Each
    request draws a priority; interactive ones carry a deadline, so backlog
    yields typed ``deadline_exceeded`` next to shedding.

    The p99 bound is what the worst admitted request waits behind a full
    queue: shedding, not luck, must keep latency bounded.
    """
    if n < 1:
        raise ValueError("n must be positive")
    data = independent(scaled(2_000, 10_000, 30_000), 4, seed=seed)
    table = _faulty(DiskTable(data), profile, seed, obs)
    engine = PacedEngine(CBCS(table, obs=obs, resilience=True))
    stream = WorkloadGenerator(data, seed=seed).zipf_stream(
        CALIBRATION_QUERIES + n, universe=max(8, min(25, n // 4))
    )
    warmup, queries = stream[:CALIBRATION_QUERIES], stream[CALIBRATION_QUERIES:]
    half = CALIBRATION_QUERIES // 2
    for constraints in warmup[:half]:
        engine.query(constraints)
    t0 = time.perf_counter()
    for constraints in warmup[half:]:
        engine.query(constraints)
    service_s = max((time.perf_counter() - t0) / (len(warmup) - half), 1e-4)
    saturation_rps = workers / service_s
    target_rps = RATE_MULTIPLIER * saturation_rps
    p99_limit_ms = (
        (QUEUE_CAPACITY / workers + 4.0) * service_s * 1000.0 * 8.0 + P99_SLACK_MS
    )

    rng = np.random.default_rng(seed + 1)
    names = [name for name, _ in _PRIORITY_MIX]
    weights = [w for _, w in _PRIORITY_MIX]
    priorities = [names[i] for i in rng.choice(len(names), n, p=weights)]
    gaps = rng.exponential(1.0 / target_rps, size=n)
    deadline_ms = max(DEADLINE_MULTIPLIER * service_s * 1000.0, 10.0)

    report = SoakReport("overload", seed, table.injector.profile.name)
    report.counts["stale_serves"] = 0
    futures = []
    done_at: List[Optional[float]] = [None] * n
    latencies: List[float] = []
    by_priority: Dict[str, Dict[str, int]] = {}
    raised = 0
    service = QueryService(
        engine, workers=workers, policy=AdmissionPolicy(capacity=QUEUE_CAPACITY)
    )
    try:
        # submit() never blocks: a schedule the service cannot keep up with
        # turns into queue depth and typed rejections, never into a client
        # that slows itself down.
        start = next_arrival = time.perf_counter()
        for i, constraints in enumerate(queries):
            next_arrival += gaps[i]
            delay = next_arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted_at = time.perf_counter()
            future = service.submit(
                constraints,
                priority=priorities[i],
                deadline_ms=deadline_ms if priorities[i] == "interactive" else None,
            )

            def stamp(_future, i=i):
                done_at[i] = time.perf_counter()

            future.add_done_callback(stamp)
            futures.append((i, constraints, priorities[i], submitted_at, future))
        for i, constraints, priority, submitted_at, future in futures:
            try:
                result = future.result()
            except Exception:
                raised += 1
                status = "error"
            else:
                rejected = isinstance(result, RequestRejected)
                status = result.status if rejected else "answered"
            tally = by_priority.setdefault(priority, {})
            tally[status] = tally.get(status, 0) + 1
            if status != "answered":
                continue
            end = done_at[i] if done_at[i] is not None else time.perf_counter()
            latencies.append((end - submitted_at) * 1000.0)
            _check(report, f"request {i}", result, data, constraints)
        elapsed = time.perf_counter() - start
    finally:
        service.close()
        engine.close()

    stats = service.stats()
    for key in ("submitted", "answered", "shed", "rejected_queue_full",
                "deadline_exceeded", "coalesced_dedup", "coalesced_subsumed"):
        report.counts[key] = stats[key]
    report.counts["error_count"] = stats["errors"]
    c = report.counts
    coalesced = c["coalesced_dedup"] + c["coalesced_subsumed"]
    p50, p95, p99, top = (
        [float(v) for v in np.percentile(latencies, [50, 95, 99, 100])]
        if latencies else [float("nan")] * 4
    )
    report.facts = {
        "workers": workers,
        "mean_service_ms": service_s * 1000.0,
        "saturation_rps": saturation_rps,
        "target_rps": target_rps,
        "achieved_rps": n / elapsed if elapsed > 0 else 0.0,
        "p50_ms": p50, "p95_ms": p95, "p99_ms": p99, "max_ms": top,
        "p99_limit_ms": p99_limit_ms,
        "shed_rate": (c["shed"] + c["rejected_queue_full"]) / max(c["submitted"], 1),
        "coalesce_rate": coalesced / max(c["submitted"], 1),
        "by_priority": by_priority,
    }
    terminal = (c["answered"] + c["shed"] + c["rejected_queue_full"]
                + c["deadline_exceeded"] + c["error_count"])
    if c["submitted"] != terminal:
        report.errors.append(
            f"accounting closed: {c['submitted']} submitted, {terminal} ended "
            "answered, shed, rejected, past deadline or in error"
        )
    if raised != c["error_count"]:
        report.errors.append(
            f"accounting closed: {raised} requests raised, the service "
            f"counted {c['error_count']} errors"
        )
    if latencies and p99 > p99_limit_ms:
        report.errors.append(
            f"p99 bound: answered p99 {p99:.1f} ms > {p99_limit_ms:.0f} ms"
        )
    if coalesced < MIN_COALESCED:
        report.errors.append(f"coalescing: {coalesced} requests coalesced")
    return report


# ----------------------------------------------------------------------
# shards: one engine over a plain and a sharded table
# ----------------------------------------------------------------------
def shards(n: int = 40, profile: str = "none", seed: int = 0, obs=None) -> SoakReport:
    """Seeds ``seed`` and ``seed + 1`` x :data:`SWEEP_STRATEGIES` x
    :data:`SHARD_COUNTS`: ``CBCS(ShardedTable(data, count))`` answers ``n``
    queries of a partition-skewed stream.

    Clean (``profile="none"``) every cell is also compared with
    ``CBCS(DiskTable(data))`` on the same queries: equal answers and stale /
    degraded flags, equal overlap ``case``, per-query ``points_read`` no
    higher than the rows in the queried region (a plan is priced by the
    layout, so its coalescing differs with the shard count), and at one
    shard equal skyline bytes and ``IOStats``; over a cell, the per-query
    ``points_read`` add up to the shard tables' own counters.  Faulted, the
    first shard's table injects ``profile`` and the engine runs resilient.
    """
    faulted = profile != "none"
    report = SoakReport("shards", seed, profile)
    report.counts = dict.fromkeys(
        ("cells", "queries_checked", "stale_serves", "retries"), 0
    )
    points_by_shards: Dict[int, int] = {}
    for s in (seed, seed + 1):
        data = independent(scaled(2_000, 8_000, 30_000), 4, seed=s)
        queries = WorkloadGenerator(data, seed=s + 1).partition_stream(
            n, tenants=6, key_dim=0
        )
        for name, strategy in SWEEP_STRATEGIES.items():
            plain = None
            if not faulted:
                ref_engine = CBCS(DiskTable(data), strategy=strategy())
                plain = [ref_engine.query(q) for q in queries]
                ref_engine.close()
            for count in SHARD_COUNTS:
                report.counts["cells"] += 1
                table = ShardedTable(data, count, mode="range", key_dim=0)
                if faulted:
                    table[0].table = _faulty(table[0].table, profile, s)
                engine = CBCS(
                    table, strategy=strategy(), obs=obs,
                    resilience=True if faulted else None,
                )
                label = f"seed={s} strategy={name} shards={count}"
                _shard_cell(report, engine, queries, data, plain, label)
                points_by_shards[count] = (
                    points_by_shards.get(count, 0) + table.stats.points_read
                )
                engine.close()
    report.facts["points_read_by_shards"] = points_by_shards
    return report


def _shard_cell(report: SoakReport, engine, queries, data, plain, label: str) -> None:
    """One cell; ``plain`` holds the unsharded engine's outcomes (None when
    faulted)."""
    one_shard = engine.table.n_shards == 1
    points = 0
    for i, (constraints, ref) in enumerate(zip(queries, plain or [None] * len(queries))):
        qlabel = f"{label} query={i}"
        outcome = _query(report, qlabel, engine, constraints)
        if outcome is None:
            continue
        report.counts["queries_checked"] += 1
        report.counts["retries"] += outcome.retries
        points += outcome.points_read
        _check(report, qlabel, outcome, data, constraints)
        if ref is None:
            continue
        if not same_multiset(outcome.skyline, ref.skyline):
            report.errors.append(
                f"{qlabel}: answer differs from unsharded "
                f"({len(outcome.skyline)} vs {len(ref.skyline)} points)"
            )
        if outcome.stale != ref.stale or (outcome.degraded is None) != (
            ref.degraded is None
        ):
            report.errors.append(
                f"{qlabel}: flags differ from unsharded (stale {outcome.stale} "
                f"vs {ref.stale}, degraded {outcome.degraded} vs {ref.degraded})"
            )
        in_region = int(constraints.satisfied_mask(data).sum())
        if outcome.case != ref.case or outcome.points_read > in_region:
            report.errors.append(
                f"{qlabel}: read bound: read {outcome.points_read} points as "
                f"{outcome.case}; the region holds {in_region}, unsharded read "
                f"{ref.points_read} as {ref.case}"
            )
        if one_shard and not (
            outcome.skyline.tobytes() == ref.skyline.tobytes()
            and outcome.io == ref.io
        ):
            report.errors.append(
                f"{qlabel}: one-shard IOStats: not the plain table's "
                f"({outcome.io} vs {ref.io})"
            )
    if plain is not None and points != engine.table.stats.points_read:
        report.errors.append(
            f"{label}: io attribution: per-query points_read add up to "
            f"{points}, the shard tables counted {engine.table.stats.points_read}"
        )
