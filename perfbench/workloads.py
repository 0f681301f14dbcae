"""The five benchmark workloads: seeded inputs, set-up, and a fresh engine per pass.

A workload is a fixed op sequence over a dataset.  ``setup`` does everything a
deployment pays once (data, table + index build, cache preload) and is what
``setup_s`` times; ``engine`` then builds the per-pass state (fresh caches, for
``dynamic_mixed`` a fresh table and durability directory) so every timed pass
starts from the same point.  The program under test receives only the
generated inputs, never the seed.

What ``--seed`` redraws, and what it does not.  Every seed redraws every
:data:`REDRAWN_EVERY`-th row of the dataset and, for ``dynamic_mixed``, the
inserted rows and the delete victims.  The other rows and the query geometry
(session shapes, tenant intervals, the preload set, the read/write
interleaving) come from :data:`QUERY_SEED` for every seed but
:data:`HELD_OUT_SEED`, which draws its own.  The reason is the size the
run-time cap allows: with 200-400 queries per pass over a few thousand rows a
handful of large-region queries carry most of the work.  Redrawing the queries
moved throughput, p95 and points read by 27-44% between seeds, and redrawing
all the rows under fixed queries still moved p50, throughput and simulated I/O
by 8-12% (interquartile range over median; the same values to the percent in
two sweeps, so data, not host) -- half the widest bound a metric may carry, so
the seeds a spread is taken over share one geometry and three rows in four.  A
change tuned to that input is caught on the held-out seed, none of whose rows
or queries it has seen.  :meth:`Workload.data_digest` and
:meth:`Workload.ops_digest` say which of the two a seed changed.

Sizes were shrunk from the issue's starting points (rows first) until a pass
costs about a second, so that a run fits fourteen or more; README.md records
the final values and the reasons.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.core.dynamic import DynamicCBCS
from repro.core.sharded import ShardedCBCS
from repro.core.strategies import MaxOverlapSP
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.storage.durability import DurabilityManager
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

QUERY, INSERT, DELETE = "query", "insert", "delete"
Op = Tuple[str, object]  # (kind, Constraints | rows array | row-id array)

NDIM = 4
QUERY_SEED = 2015
#: the seed a later claim must also hold on: the only one with its own queries
HELD_OUT_SEED = 1
HELD_OUT_QUERY_SEED = 2016
#: a seed redraws every fourth row; the rest are the query seed's
REDRAWN_EVERY = 4


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@dataclass
class Workload:
    """One benchmark workload bound to a seed."""

    name: str
    params: Dict[str, object]
    #: the rows the first op sees (the oracle's input)
    data: np.ndarray
    ops: List[Op]
    #: ``setup(tmp_dir)`` regenerates the data and builds tables, indexes and
    #: preloaded caches; returns the state ``engine`` needs.  Timed as ``setup_s``.
    setup: Callable[[Path], dict]
    #: ``engine(state, pass_dir)`` -> a fresh engine for one pass
    engine: Callable[[dict, Path], object]
    #: ``finish(engine, pass_dir)`` -> what the end of a pass measured
    finish: Optional[Callable[[object, Path], dict]] = None
    #: ``twin()`` -> a reference engine the same ops are also run on (traced runs)
    twin: Optional[Callable[[], object]] = None
    #: a timed set-up runs before every ``setup_every``-th pass
    setup_every: int = 1

    def data_digest(self) -> str:
        """SHA-256 over the rows the first op sees."""
        return hashlib.sha256(np.ascontiguousarray(self.data).tobytes()).hexdigest()

    def ops_digest(self) -> str:
        """SHA-256 over the op sequence alone (kinds, boxes, written rows, victims)."""
        h = hashlib.sha256()
        for kind, payload in self.ops:
            h.update(kind.encode())
            if kind == QUERY:
                h.update(np.asarray(payload.lo, dtype=float).tobytes())
                h.update(np.asarray(payload.hi, dtype=float).tobytes())
            else:
                h.update(np.ascontiguousarray(payload).tobytes())
        return h.hexdigest()


def _query_seed(seed: int) -> int:
    return HELD_OUT_QUERY_SEED if seed == HELD_OUT_SEED else QUERY_SEED


def _base_rows(params: dict, query_seed: int, workload: int) -> np.ndarray:
    return generate(params["distribution"], params["rows"], NDIM, _rng(query_seed, workload, 0))


def _data(params: dict, seed: int, workload: int) -> np.ndarray:
    """The query seed's rows (they are independent draws, so position means
    nothing) with every :data:`REDRAWN_EVERY`-th redrawn from ``seed``."""
    rows = _base_rows(params, _query_seed(seed), workload)
    redrawn = rows[::REDRAWN_EVERY]
    redrawn[:] = generate(params["distribution"], len(redrawn), NDIM, _rng(seed, workload))
    return rows


def _query_generator(params: dict, seed: int, workload: int) -> WorkloadGenerator:
    """The workload's query source: anchored on the query seed's rows (the
    generator reads only their mean, deviation and extent), so the boxes do not
    move with the data."""
    query_seed = _query_seed(seed)
    return WorkloadGenerator(
        _base_rows(params, query_seed, workload), seed=_rng(query_seed, workload)
    )


def _queries(constraints) -> List[Op]:
    return [(QUERY, c) for c in constraints]


# ----------------------------------------------------------------------
# explore: the paper's workload (1), cache empty at pass start, unbounded
# ----------------------------------------------------------------------
EXPLORE = {"rows": 5_000, "distribution": "independent", "queries": 250}


def explore(seed: int) -> Workload:
    p = EXPLORE
    data = _data(p, seed, 0)
    stream = _query_generator(p, seed, 0).exploratory_stream(p["queries"])
    return Workload(
        name="explore",
        params=dict(p, engine="CBCS default: aMPR k=1, MaxOverlapSP, unbounded cache"),
        data=data,
        ops=_queries(stream),
        setup=lambda tmp: {"table": DiskTable(_data(p, seed, 0))},
        engine=lambda state, pass_dir: CBCS(state["table"]),
    )


# ----------------------------------------------------------------------
# independent_warm: the paper's workload (2), working set > cache capacity
# ----------------------------------------------------------------------
INDEPENDENT_WARM = {
    "rows": 2_000,
    "distribution": "independent",
    "cache_capacity": 100,
    "preload_queries": 200,
    "queries": 200,
}


def independent_warm(seed: int) -> Workload:
    p = INDEPENDENT_WARM
    data = _data(p, seed, 1)
    gen = _query_generator(p, seed, 1)
    preload = gen.independent_queries(p["preload_queries"])
    fresh = gen.independent_queries(p["queries"])

    def setup(tmp: Path) -> dict:
        table = DiskTable(_data(p, seed, 1))
        warm = CBCS(table, cache=SkylineCache(capacity=p["cache_capacity"]))
        warm.warm(preload)
        path = tmp / "warm-cache.npz"
        warm.cache.save(path)
        return {"table": table, "cache_path": path}

    return Workload(
        name="independent_warm",
        params=dict(p, engine="CBCS default, LRU cache saved once and reloaded per pass"),
        data=data,
        ops=_queries(fresh),
        setup=setup,
        engine=lambda state, pass_dir: CBCS(
            state["table"], cache=SkylineCache.load(state["cache_path"])
        ),
        setup_every=4,  # a set-up replays the 200 preload queries: as long as a pass
    )


# ----------------------------------------------------------------------
# cold_scan: every query a miss -- B-tree scan + heap fetch + SFS only
# ----------------------------------------------------------------------
COLD_SCAN = {"rows": 5_000, "distribution": "anticorrelated", "queries": 200}


def cold_scan(seed: int) -> Workload:
    p = COLD_SCAN
    data = _data(p, seed, 2)
    stream = _query_generator(p, seed, 2).independent_queries(p["queries"])
    return Workload(
        name="cold_scan",
        params=dict(p, engine="CBCS(cache_results=False)"),
        data=data,
        ops=_queries(stream),
        setup=lambda tmp: {"table": DiskTable(_data(p, seed, 2))},
        engine=lambda state, pass_dir: CBCS(state["table"], cache_results=False),
    )


# ----------------------------------------------------------------------
# sharded_tenants: repeat-heavy tenant traffic over 8 range shards
# ----------------------------------------------------------------------
SHARDED_TENANTS = {
    "rows": 30_000,
    "distribution": "independent",
    "shards": 8,
    "plan": "best_index",
    "queries": 400,
    "tenants": 8,
    "concentration": 0.12,
}


def _best_index_table(rows: np.ndarray) -> DiskTable:
    return DiskTable(rows, plan=SHARDED_TENANTS["plan"])


def sharded_tenants(seed: int) -> Workload:
    p = SHARDED_TENANTS
    data = _data(p, seed, 3)
    stream = _query_generator(p, seed, 3).partition_stream(
        p["queries"], tenants=p["tenants"], concentration=p["concentration"]
    )
    return Workload(
        name="sharded_tenants",
        params=dict(p, engine="ShardedCBCS(strategy_factory=MaxOverlapSP), range shards on dim 0"),
        data=data,
        ops=_queries(stream),
        setup=lambda tmp: {
            "table": ShardedTable(
                _data(p, seed, 3),
                p["shards"],
                mode="range",
                key_dim=0,
                table_factory=_best_index_table,
            )
        },
        engine=lambda state, pass_dir: ShardedCBCS(
            state["table"], strategy_factory=MaxOverlapSP
        ),
        # sharded.vs_unsharded_p50_ratio: the same rows in one unsharded table
        twin=lambda: CBCS(_best_index_table(data), strategy=MaxOverlapSP()),
    )


# ----------------------------------------------------------------------
# dynamic_mixed: reads beside durable writes on the same cache and indexes
# ----------------------------------------------------------------------
DYNAMIC_MIXED = {
    "rows": 1_000,
    "distribution": "independent",
    "cache_capacity": 8,
    "queries": 200,
    "insert_batches": 100,
    "insert_rows": 4,
    "delete_batches": 100,
    "delete_rows": 2,
    "wal_fsync": True,
    "checkpoint_every": 64,
}


def dynamic_mixed(seed: int) -> Workload:
    p = DYNAMIC_MIXED
    data = _data(p, seed, 4)
    stream = _query_generator(p, seed, 4).exploratory_stream(p["queries"])
    write_rng = _rng(seed, 4, 2)

    kinds = (
        [QUERY] * (p["queries"] - 1)
        + [INSERT] * p["insert_batches"]
        + [DELETE] * p["delete_batches"]
    )
    _rng(_query_seed(seed), 4, 1).shuffle(kinds)
    kinds.insert(0, QUERY)  # every delete has a queried region to aim at

    # Mirror of the table as the ops will leave it: appended rows get
    # sequential ids (DiskTable.append), deletes only ever name live rows.
    mirror = np.empty((p["rows"] + p["insert_batches"] * p["insert_rows"], NDIM))
    mirror[: p["rows"]] = data
    alive = np.zeros(len(mirror), dtype=bool)
    alive[: p["rows"]] = True
    n = p["rows"]

    ops: List[Op] = []
    queries = iter(stream)
    last: Constraints = None
    for kind in kinds:
        if kind == QUERY:
            last = next(queries)
            ops.append((QUERY, last))
        elif kind == INSERT:
            rows = write_rng.uniform(0.0, 1.0, size=(p["insert_rows"], NDIM))
            mirror[n : n + len(rows)] = rows
            alive[n : n + len(rows)] = True
            n += len(rows)
            ops.append((INSERT, rows))
        else:
            # One victim is a skyline member of the region just queried, so the
            # cached items holding it have to be refreshed (the listing that
            # sells is a good one); the rest are any live rows.
            live = np.flatnonzero(alive[:n])
            inside = live[last.satisfied_mask(mirror[live])]
            if len(inside):
                best = inside[np.argmin(mirror[inside].sum(axis=1))]
            else:
                best = live[0]
            others = write_rng.choice(
                live[live != best], size=p["delete_rows"] - 1, replace=False
            )
            ids = np.sort(np.concatenate([[best], others])).astype(np.int64)
            alive[ids] = False
            ops.append((DELETE, ids))

    def manager(directory: Path) -> DurabilityManager:
        return DurabilityManager(
            directory, fsync=p["wal_fsync"], checkpoint_every=p["checkpoint_every"]
        )

    def engine(state: dict, pass_dir: Path) -> DynamicCBCS:
        # the durable engine owns and mutates its table: every pass (and the
        # timed set-up) builds table, indexes and base checkpoint from scratch
        shutil.rmtree(pass_dir, ignore_errors=True)
        return DynamicCBCS(
            DiskTable(_data(p, seed, 4)),
            cache=SkylineCache(capacity=p["cache_capacity"]),
            durability=manager(pass_dir),
        )

    def setup(tmp: Path) -> dict:
        engine({}, tmp / "setup").close()
        return {}

    def finish(engine: DynamicCBCS, pass_dir: Path) -> dict:
        """Stop like a crash (no final checkpoint, the tail stays in the WAL),
        then time the restart and read back what it recovered."""
        engine.durability.wal.close()
        engine.executor.close()
        restart = manager(pass_dir)
        replay = restart.recover
        times = {}

        def timed_replay():
            start = perf_counter()
            try:
                return replay()
            finally:
                times["durability_recover_s"] = perf_counter() - start

        restart.recover = timed_replay
        start = perf_counter()
        recovered = DynamicCBCS.recover(restart)
        times["recovery_s"] = perf_counter() - start
        try:
            return dict(
                times,
                live_rows=recovered.table.full_scan().points,
                replayed_ops=recovered.recovery_report.replayed_ops,
            )
        finally:
            recovered.close()

    return Workload(
        name="dynamic_mixed",
        params=dict(p, engine="DynamicCBCS(durability=dir, on_delete=refresh), LRU cache"),
        data=data,
        ops=ops,
        setup=setup,
        engine=engine,
        finish=finish,
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "explore": explore,
    "independent_warm": independent_warm,
    "cold_scan": cold_scan,
    "sharded_tenants": sharded_tenants,
    "dynamic_mixed": dynamic_mixed,
}
