"""Pass runner and metric arithmetic.

Timing method.  A workload's op sequence is run pass after pass, each on a
fresh engine, until ``--seconds`` are spent (run length is the benchmark's, the
same on both sides of a comparison).  Host speed wanders by tens of percent
between passes of identical code, so an op's latency is the *minimum* of its
``perf_counter`` time over the passes (its noise floor); percentiles and
throughput are taken over that vector.  The host also changes speed in phases
longer than a run, which the floor follows; :mod:`perfbench.probe` is timed in
the same passes the same way, and every floor figure is scaled by it
(``host.scale``).  Simulated disk time is the engine's own deterministic model
and is reported on its own, never added to wall-clock.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from perfbench import probe as host
from perfbench import trace as tracing
from perfbench import verify
from perfbench.workloads import DELETE, INSERT, QUERY, Workload

#: a run makes at least this many timed passes, however short ``--seconds`` is
MIN_PASSES = 5

CASES = (
    "exact",
    "case_a",
    "case_b",
    "case_c",
    "case_d",
    "general_stable",
    "general_unstable",
    "miss",
)
#: span-name prefix -> layer for the ``share.*`` metrics; the self time of the
#: query spans themselves is the engine glue (``cbcs``)
SHARE_LAYERS = (
    "cache",
    "planner",
    "region",
    "executor",
    "table",
    "btree",
    "sfs",
    "shardplan",
    "sharded",
    "cbcs",
)
QUERY_SPANS = ("cbcs.query", "sharded.query")


@dataclass
class PassResult:
    """What one pass over the op sequence produced."""

    latency: np.ndarray  # seconds per op
    probe: np.ndarray  # seconds per host-speed probe (one before every probe.EVERY-th op)
    results: list  # per op: QueryOutcome | new row ids | deleted count | Exception
    counters: Dict[str, float]
    finish: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return float(self.latency.sum())


def timed_setup(workload: Workload, tmp: Path):
    """One set-up on the clock; returns the state it built and its seconds."""
    gc.collect()
    start = perf_counter()
    state = workload.setup(tmp)
    return state, perf_counter() - start


def _counters(engine) -> Dict[str, float]:
    """The engine's own exact counters at the end of a pass."""
    engines = getattr(engine, "engines", [engine])
    caches = [e.cache.stats() for e in engines]
    out = {
        key: float(sum(c[key] for c in caches))
        for key in ("hits", "misses", "evictions", "items")
    }
    pruning = getattr(engine, "pruning_cache", None)
    if pruning is not None:
        out["pruning_hit_rate"] = pruning.stats()["hit_rate"]
    return out


def run_pass(
    workload: Workload,
    state: dict,
    pass_dir: Path,
    recorder: Optional[tracing.Recorder] = None,
    engine=None,
) -> PassResult:
    """Run every op once on a fresh engine, timing each call from outside."""
    if engine is None:
        engine = workload.engine(state, pass_dir)
    installed = tracing.install(recorder, engine) if recorder is not None else None
    try:
        calls = {
            QUERY: engine.query,
            INSERT: getattr(engine, "insert_points", None),
            DELETE: getattr(engine, "delete_points", None),
        }
        ops = workload.ops
        latency = np.empty(len(ops))
        probe = np.empty(-(-len(ops) // host.EVERY))
        results: list = [None] * len(ops)
        gc.collect()
        for i, (kind, payload) in enumerate(ops):
            if i % host.EVERY == 0:
                start = perf_counter()
                host.probe()
                probe[i // host.EVERY] = perf_counter() - start
            if recorder is not None:
                recorder.op = i
            call = calls[kind]
            start = perf_counter()
            try:
                results[i] = call(payload)
            except Exception as exc:  # a failed op is a result, not a crash
                traceback.print_exc(file=sys.stderr)
                results[i] = exc
            latency[i] = perf_counter() - start
        counters = _counters(engine)
        if installed is not None:
            counters.update(installed.counters())
    finally:
        if installed is not None:
            installed.remove()
    finish = workload.finish(engine, pass_dir) if workload.finish is not None else {}
    if workload.finish is None:
        engine.close()
    return PassResult(
        latency=latency, probe=probe, results=results, counters=counters, finish=finish
    )


def failed_ops(
    workload: Workload, expected: Sequence, live_rows: np.ndarray, result: PassResult
) -> int:
    """Ops of one pass that raised, answered wrongly, or answered stale/degraded;
    the post-recovery live-set check counts as one more op when it fails."""
    failed = 0
    for (kind, payload), want, got in zip(workload.ops, expected, result.results):
        if isinstance(got, Exception):
            failed += 1
        elif kind == QUERY:
            ok = (
                not got.stale
                and got.degraded is None
                and verify.same_multiset(want, got.skyline)
            )
            failed += not ok
        elif kind == INSERT:
            failed += not np.array_equal(want, got)
        else:
            failed += got != len(payload)
    if "live_rows" in result.finish:
        failed += not verify.same_multiset(live_rows, result.finish["live_rows"])
    return failed


def attempted_ops(workload: Workload) -> int:
    return len(workload.ops) + (workload.finish is not None)


def _kinds(workload: Workload) -> np.ndarray:
    return np.array([kind for kind, _ in workload.ops])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def noise_floor(passes: Sequence[PassResult]) -> np.ndarray:
    """Per-op minimum latency over the passes, in seconds."""
    return np.min([p.latency for p in passes], axis=0)


def host_probe_ms(passes: Sequence[PassResult]) -> float:
    """The probe's noise floor, taken as an op's is: per position the minimum
    over the passes, then the median over the positions."""
    return float(np.median(np.min([p.probe for p in passes], axis=0)) * 1e3)


def end_to_end(
    workload: Workload,
    setup_times: Sequence[float],
    first: PassResult,
    floor: np.ndarray,
    scale: float,
) -> Dict[str, dict]:
    """The bounded metrics.  The timings are noise floors times ``scale``
    (``host.scale``); the two counts repeat exactly, so they are read from the
    first pass."""
    query_ms = floor[_kinds(workload) == QUERY] * 1e3
    outcomes = [r for r in first.results if hasattr(r, "skyline")]
    return {
        "setup_s": _metric(min(setup_times) * scale, "s"),
        "query_p50_ms": _metric(np.median(query_ms) * scale, "ms"),
        "throughput_ops_s": _metric(len(floor) / floor.sum() / scale, "1/s"),
        "sim_io_ms_per_query": _metric(
            np.mean([o.timings.io_ms_total for o in outcomes]), "ms"
        ),
        "points_read_per_query": _metric(
            np.mean([o.points_read for o in outcomes]), "count"
        ),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def unbounded_end_to_end(
    workload: Workload, passes: Sequence[PassResult], floor: np.ndarray, scale: float
) -> Dict[str, dict]:
    """End-to-end figures that carry no bound and are reported with the
    per-layer metrics: the tail percentiles (too unsteady from run to run to
    bound), the write-path and restart timings (zero on workloads that do not
    write) -- noise floors times ``scale`` like the bounded ones -- and the
    host-speed probe that ``scale`` comes from."""
    kinds = _kinds(workload)
    floor_ms = floor * 1e3 * scale
    inserts, deletes = floor_ms[kinds == INSERT], floor_ms[kinds == DELETE]
    writes = floor_ms[kinds != QUERY]
    recovery = [p.finish["recovery_s"] for p in passes if "recovery_s" in p.finish]
    return {
        "query_p90_ms": _metric(np.percentile(floor_ms[kinds == QUERY], 90), "ms"),
        "query_p95_ms": _metric(np.percentile(floor_ms[kinds == QUERY], 95), "ms"),
        "insert_p50_ms": _metric(np.median(inserts) if len(inserts) else 0.0, "ms"),
        "delete_p50_ms": _metric(np.median(deletes) if len(deletes) else 0.0, "ms"),
        "write_p90_ms": _metric(np.percentile(writes, 90) if len(writes) else 0.0, "ms"),
        "recovery_s": _metric(min(recovery) * scale if recovery else 0.0, "s"),
        "host.probe_ms": _metric(host.REFERENCE_MS / scale, "ms"),
        "host.scale": _metric(scale, "ratio"),
    }


def per_pass(workload: Workload, passes: Sequence[PassResult]) -> Dict[str, list]:
    """Single-pass figures printed beside the noise floor."""
    is_query = _kinds(workload) == QUERY
    return {
        "total_s": [p.total_s for p in passes],
        "query_p50_ms": [float(np.median(p.latency[is_query]) * 1e3) for p in passes],
    }


def _shard_cases(outcomes) -> List[str]:
    """Overlap case of every engine-level answer (per shard when sharded)."""
    cases: List[str] = []
    for outcome in outcomes:
        per_shard = getattr(outcome, "per_shard", None)
        if per_shard is None:
            cases.append(outcome.case)
        else:
            cases.extend(part["case"] for part in per_shard)
    return cases


def _share(self_by_name: Dict[str, float], total: float) -> Dict[str, float]:
    by_layer = dict.fromkeys(SHARE_LAYERS, 0.0)
    for name, seconds in self_by_name.items():
        layer = "cbcs" if name in QUERY_SPANS else name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += seconds
    return {layer: (seconds / total if total else 0.0) for layer, seconds in by_layer.items()}


def per_layer(
    workload: Workload,
    passes: Sequence[PassResult],
    floor: np.ndarray,
    traced: PassResult,
    recorder: tracing.Recorder,
    twin_p50_ms: Optional[float],
) -> Dict[str, dict]:
    """Every per-layer metric from one traced pass plus the engine's counters.

    ``*_ms_per_query`` is span self time over the query ops divided by the
    number of queries; counts that the outcomes carry (range queries, pages,
    points) are exact and do not depend on the trace.
    """
    kinds = _kinds(workload)
    query_ops = set(np.flatnonzero(kinds == QUERY).tolist())
    insert_ops = set(np.flatnonzero(kinds == INSERT).tolist())
    delete_ops = set(np.flatnonzero(kinds == DELETE).tolist())
    writes = insert_ops | delete_ops
    nq, n_ins, n_del = len(query_ops), len(insert_ops), len(delete_ops)

    self_q = tracing.layer_self_seconds(recorder, query_ops)
    self_ins = tracing.layer_self_seconds(recorder, insert_ops)
    self_del = tracing.layer_self_seconds(recorder, delete_ops)
    by_name: Dict[str, list] = defaultdict(list)
    for span in recorder.spans:
        by_name[span[tracing.NAME]].append(span)

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    def ms_per_query(*names: str) -> float:
        return sum(self_q.get(n, 0.0) for n in names) / nq * 1e3

    def of(name: str, ops: set) -> list:
        return [s for s in by_name[name] if s[tracing.OP] in ops]

    def notes(name: str, ops: set) -> list:
        return [s[tracing.NOTE] for s in of(name, ops)]

    outcomes = [r for r in traced.results if hasattr(r, "skyline")]
    io = {
        key: sum(getattr(o.io, key) for o in outcomes)
        for key in ("range_queries", "empty_queries", "pages_read", "seeks", "points_read")
    }
    cases = _shard_cases(outcomes)
    counters = traced.counters
    sfs = notes("sfs.skyline", query_ops)
    sfs_in = sum(n["in"] for n in sfs)
    merges = notes("sharded.merge", query_ops)
    sharded = [o for o in outcomes if hasattr(o, "shards_total")]
    checkpoints = of("durability.checkpoint", writes)
    user_bytes = sum(np.asarray(payload).nbytes for kind, payload in workload.ops if kind != QUERY)
    # single pass against single pass: the twin runs once
    pass_p50_ms = statistics.median(per_pass(workload, passes)["query_p50_ms"])

    m: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = _metric(value, unit)

    put("cache.candidates_ms_per_query", ms_per_query("cache.candidates"), "ms")
    put("cache.insert_ms_per_query", ms_per_query("cache.insert"), "ms")
    put("cache.candidates_per_query", sum(notes("cache.candidates", query_ops)) / nq, "count")
    put("cache.hit_rate", per(counters["hits"], counters["hits"] + counters["misses"]), "ratio")
    put("cache.exact_hit_rate", per(cases.count("exact"), len(cases)), "ratio")
    put("cache.evictions", counters["evictions"], "count")
    put("cache.items_final", counters["items"], "count")
    put("planner.select_ms_per_query", ms_per_query("planner.select"), "ms")
    put("planner.plan_ms_per_query", ms_per_query("planner.plan"), "ms")
    for case in CASES:
        put(f"planner.case_share.{case}", per(cases.count(case), len(cases)), "ratio")
    put("region.compute_ms_per_query", ms_per_query("region.compute"), "ms")
    put("region.boxes_per_query", sum(notes("region.compute", query_ops)) / nq, "count")
    put("executor.fetch_self_ms_per_query", ms_per_query("executor.fetch"), "ms")
    put("table.range_query_ms_per_query", ms_per_query("table.range_query"), "ms")
    put("table.range_queries_per_query", io["range_queries"] / nq, "count")
    put("table.empty_range_share", per(io["empty_queries"], io["range_queries"]), "ratio")
    put("table.pages_read_per_query", io["pages_read"] / nq, "count")
    put("table.seeks_per_query", io["seeks"] / nq, "count")
    put(
        "table.points_read_per_skyline_point",
        per(io["points_read"], sum(len(o.skyline) for o in outcomes)),
        "ratio",
    )
    put("table.append_ms_per_insert", per(self_ins.get("table.append", 0.0), n_ins) * 1e3, "ms")
    put("btree.range_rows_ms_per_query", ms_per_query("btree.range_rows"), "ms")
    put("btree.calls_per_query", len(of("btree.range_rows", query_ops)) / nq, "count")
    put("sfs.ms_per_query", ms_per_query("sfs.skyline"), "ms")
    put("sfs.input_points_per_query", sfs_in / nq, "count")
    put("sfs.output_share", per(sum(n["out"] for n in sfs), sfs_in), "ratio")
    put(
        "shardplan.prune_ms_per_query",
        ms_per_query("shardplan.lookup", "shardplan.prune", "shardplan.store"),
        "ms",
    )
    put(
        "shardplan.pruned_share",
        per(sum(o.shards_pruned for o in sharded), sum(o.shards_total for o in sharded)),
        "ratio",
    )
    put("shardplan.pruning_cache_hit_rate", counters.get("pruning_hit_rate", 0.0), "ratio")
    put("sharded.fanout_ms_per_query", ms_per_query("sharded.fanout"), "ms")
    put("sharded.merge_ms_per_query", ms_per_query("sharded.merge"), "ms")
    put("sharded.merge_candidates_per_query", sum(n["in"] for n in merges) / nq, "count")
    put("sharded.shards_scanned_per_query", sum(o.shards_scanned for o in sharded) / nq, "count")
    put("sharded.vs_unsharded_p50_ratio", per(pass_p50_ms, twin_p50_ms or 0.0), "ratio")
    put("dynamic.insert_self_ms", per(self_ins.get("dynamic.insert", 0.0), n_ins) * 1e3, "ms")
    put("dynamic.delete_self_ms", per(self_del.get("dynamic.delete", 0.0), n_del) * 1e3, "ms")
    put(
        "dynamic.refreshes_per_delete",
        per(len(of("table.range_query", delete_ops)), n_del),
        "count",
    )
    put(
        "wal.append_ms_per_write",
        per(sum(map(tracing.duration, of("wal.append", writes))), len(writes)) * 1e3,
        "ms",
    )
    put("wal.appends", len(of("wal.append", writes)), "count")
    put("wal.bytes_per_user_byte", per(counters.get("wal_bytes", 0.0), user_bytes), "ratio")
    put("durability.checkpoints", len(checkpoints), "count")
    put("durability.checkpoint_ms", sum(map(tracing.duration, checkpoints)) * 1e3, "ms")
    put("durability.recover_ms", traced.finish.get("durability_recover_s", 0.0) * 1e3, "ms")

    put("cbcs.self_ms_per_query", ms_per_query(*QUERY_SPANS), "ms")
    untraced_s = statistics.median(p.total_s for p in passes)
    put("trace.overhead_pct", (traced.total_s / untraced_s - 1.0) * 100.0, "%")

    # Where the query time goes: all queries, the cheap half, the slow tenth.
    # Queries are classed by their untraced noise-floor latency.
    floor_q = floor[kinds == QUERY]
    order = np.flatnonzero(kinds == QUERY)
    fast = set(order[floor_q < np.median(floor_q)].tolist())
    slow = set(order[floor_q > np.percentile(floor_q, 90)].tolist())
    for suffix, ops in (("", query_ops), (".fast", fast), (".slow", slow)):
        roots = [s for name in QUERY_SPANS for s in of(name, ops) if s[tracing.PARENT] < 0]
        total = sum(map(tracing.duration, roots))
        shares = _share(tracing.layer_self_seconds(recorder, ops), total)
        for layer, value in shares.items():
            put(f"share.{layer}{suffix}", value, "ratio")

    return m


def measure(
    workload: Workload, seconds: float, trace: bool, tmp: Path, trace_path: Optional[Path] = None
) -> dict:
    """Run timed passes until ``seconds`` are spent (at least :data:`MIN_PASSES`),
    a timed set-up before the first and before every ``workload.setup_every``-th
    after it (so ``setup_s`` samples the host over the whole run, as the passes
    do), check every answer, and (with ``trace``) add one traced pass.  Returns
    the full result record."""
    begin = perf_counter()
    expected, live_rows = verify.expected(workload.data, workload.ops)

    passes: List[PassResult] = []
    setup_times: List[float] = []
    failed = 0
    state = None
    longest_setup = longest_pass = 0.0  # wall seconds
    while True:
        with_setup = len(passes) % workload.setup_every == 0
        ahead = longest_pass + (longest_setup if with_setup else 0.0)
        if len(passes) >= MIN_PASSES and perf_counter() - begin + ahead > seconds:
            break
        if with_setup:
            state = None  # let the previous build go before timing the next
            state, spent = timed_setup(workload, tmp)
            setup_times.append(spent)
            longest_setup = max(longest_setup, spent)
        start = perf_counter()
        result = run_pass(workload, state, tmp / "pass")
        failed += failed_ops(workload, expected, live_rows, result)
        # only the first pass's outcomes are read again (the counts are
        # deterministic); drop the rest so memory does not grow with passes
        if passes:
            result.results = []
        passes.append(result)
        longest_pass = max(longest_pass, perf_counter() - start)

    floor = noise_floor(passes)
    scale = host.REFERENCE_MS / host_probe_ms(passes)
    record = {
        "workload": workload.name,
        "params": workload.params,
        "data_digest": workload.data_digest(),
        "ops_digest": workload.ops_digest(),
        "ops": len(workload.ops),
        "passes": len(passes),
        "end_to_end": end_to_end(workload, setup_times, passes[0], floor, scale),
        "unbounded": unbounded_end_to_end(workload, passes, floor, scale),
        "per_pass": per_pass(workload, passes),
        "setup_times_s": setup_times,
    }
    attempted = attempted_ops(workload) * len(passes)

    if trace:
        recorder = tracing.Recorder()
        traced = run_pass(workload, state, tmp / "pass", recorder)
        failed += failed_ops(workload, expected, live_rows, traced)
        attempted += attempted_ops(workload)
        twin_p50_ms = None
        if workload.twin is not None:
            twin = run_pass(workload, state, tmp / "pass", engine=workload.twin())
            failed += failed_ops(workload, expected, live_rows, twin)
            attempted += attempted_ops(workload)
            twin_p50_ms = float(np.median(twin.latency) * 1e3)
        record["per_layer"] = per_layer(
            workload, passes, floor, traced, recorder, twin_p50_ms
        )
        record["spans"] = len(recorder.spans)
        if trace_path is not None:
            recorder.dump(trace_path)

    record["attempted"] = attempted
    record["failed"] = failed
    record["unbounded"]["failed_ops_share"] = _metric(failed / attempted, "ratio")
    if trace:
        record["per_layer"].update(record["unbounded"])
    return record
