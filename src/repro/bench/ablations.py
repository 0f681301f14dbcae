"""Ablation experiments for design choices beyond the paper's figures.

The paper defers cache replacement (Section 6.2) to future work, and its
aMPR approximates only the dominance-pruning loop.  This module measures
those choices in isolation:

- ``ablation_replacement``: LRU vs LCU vs an unbounded cache under
  capacity pressure on the interactive workload;
- ``ablation_invalidation``: how the unstable-case invalidation cover --
  the exact staircase or the aMPR's one corner -- trades range queries
  against points read.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.bench.harness import make_cbcs, run_queries, scaled
from repro.bench.reporting import format_table
from repro.bench.experiments import FigureReport
from repro.core.ampr import ApproximateMPR
from repro.core.cache import SkylineCache
from repro.core.mpr import compute_mpr
from repro.data.generator import generate
from repro.skyline.sfs import sfs_skyline
from repro.workload.generator import WorkloadGenerator


def ablation_page_cache(seed: int = 0) -> FigureReport:
    """Semantic caching (CBCS) vs plain page caching (a warm buffer pool).

    The paper restarts the DBMS between runs, so its Baseline never benefits
    from a warm OS/DBMS page cache.  This ablation grants the Baseline a
    generous buffer pool and shows the two mechanisms are orthogonal: a page
    cache removes repeated *read latency*, but the Baseline still fetches
    and dominance-tests every point of S_C per query, while CBCS's semantic
    caching avoids examining most of them at all -- the quantity that
    dominates at database scale.
    """
    from repro.skyline.baseline import BaselineMethod
    from repro.storage.table import DiskTable

    n = scaled(30_000, 100_000, 500_000)
    data = generate("independent", n, 4, seed=seed)
    n_queries = scaled(50, 120, 300)
    buffer_pages = 4096  # comfortably holds every hot page

    engines = {
        "Baseline (cold cache)": BaselineMethod(DiskTable(data)),
        "Baseline (warm buffer)": BaselineMethod(
            DiskTable(data, buffer_pages=buffer_pages)
        ),
        "CBCS aMPR (cold cache)": make_cbcs(data, region=ApproximateMPR(1)),
    }
    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for label, engine in engines.items():
        gen = WorkloadGenerator(data, seed=seed + 1)
        result = run_queries(engine, gen.exploratory_stream(n_queries))
        series[label] = {
            "io_ms": result.mean_io_ms(),
            "wall_ms": result.mean_wall_ms(),
            "mean_points_read": result.mean_points_read(),
        }
        rows.append([label, result.mean_io_ms(), result.mean_wall_ms(),
                     result.mean_points_read()])
    text = format_table(
        ["configuration", "sim I/O (ms)", "CPU wall (ms)", "points read"],
        rows,
        title=f"Semantic vs page caching (|S|={n}, |D|=4, interactive)",
    )
    return FigureReport(
        figure="ablation-page-cache",
        title="CBCS vs a warm buffer pool",
        text=text,
        series=series,
    )


def ablation_skyline_algorithm(seed: int = 0) -> FigureReport:
    """CBCS with SFS vs BNL vs divide-and-conquer (Section 7.3's claim
    that the caching benefit is independent of the skyline algorithm)."""
    from repro.skyline.bnl import bnl_skyline
    from repro.skyline.bskytree import bskytree_skyline
    from repro.skyline.dandc import dandc_skyline
    from repro.skyline.sfs import sfs_skyline
    from repro.storage.table import DiskTable
    from repro.core.cbcs import CBCS

    n = scaled(20_000, 100_000, 500_000)
    data = generate("independent", n, 4, seed=seed)
    n_queries = scaled(40, 100, 300)

    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for label, algorithm in [
        ("SFS", sfs_skyline),
        ("BNL", bnl_skyline),
        ("D&C", dandc_skyline),
        ("BSkyTree", bskytree_skyline),
    ]:
        engine = CBCS(DiskTable(data), skyline_algorithm=algorithm)
        gen = WorkloadGenerator(data, seed=seed + 1)
        result = run_queries(engine, gen.exploratory_stream(n_queries))
        skyline_ms = result.mean_stage_ms()["skyline"]
        series[label] = {
            "io_ms": result.mean_io_ms(),
            "wall_ms": result.mean_wall_ms(),
            "mean_points_read": result.mean_points_read(),
            "mean_skyline_ms": skyline_ms,
        }
        rows.append(
            [label, result.mean_io_ms(), result.mean_wall_ms(), skyline_ms,
             result.mean_points_read()]
        )
    text = format_table(
        ["skyline algorithm", "sim I/O (ms)", "CPU wall (ms)",
         "skyline stage (ms)", "mean points read"],
        rows,
        title=f"CBCS independence of the skyline algorithm (|S|={n}, |D|=4)",
    )
    return FigureReport(
        figure="ablation-skyline-algorithm",
        title="CBCS with SFS / BNL / D&C",
        text=text,
        series=series,
    )


def ablation_cost_strategy(seed: int = 0) -> FigureReport:
    """The cost-based strategy (extension) vs the paper's best heuristics
    on the independent multi-user workload."""
    from repro.core.strategies import CostBased, MaxOverlapSP, PrioritizedND
    from repro.storage.table import DiskTable
    from repro.core.cbcs import CBCS
    from repro.bench.harness import run_independent_workload

    n = scaled(20_000, 100_000, 500_000)
    data = generate("independent", n, 4, seed=seed)

    rows = []
    series: Dict[str, Dict[str, float]] = {}
    configs = [
        ("MaxOverlapSP", lambda table: MaxOverlapSP()),
        ("PrioritizednD (Std)", lambda table: PrioritizedND.std()),
        ("CostBased", lambda table: CostBased(table, ApproximateMPR(1))),
    ]
    for label, factory in configs:
        table = DiskTable(data)
        engine = CBCS(
            table, strategy=factory(table), region_computer=ApproximateMPR(1)
        )
        result = run_independent_workload(
            data, {label: engine},
            n_queries=scaled(25, 80, 200),
            warm_queries=scaled(100, 400, 2000),
            seed=seed + 6,
        )[label]
        proc_ms = result.mean_stage_ms()["processing"]
        series[label] = {
            "io_ms": result.mean_io_ms(),
            "wall_ms": result.mean_wall_ms(),
            "mean_points_read": result.mean_points_read(),
            "processing_ms": proc_ms,
        }
        rows.append(
            [label, result.mean_io_ms(), result.mean_wall_ms(),
             result.mean_points_read(), proc_ms]
        )
    text = format_table(
        ["strategy", "sim I/O (ms)", "CPU wall (ms)", "mean points read",
         "selection overhead (ms)"],
        rows,
        title=f"Cost-based cache search (|S|={n}, |D|=4, independent)",
    )
    return FigureReport(
        figure="ablation-cost-strategy",
        title="Heuristic vs cost-based item selection",
        text=text,
        series=series,
    )


def ablation_replacement(seed: int = 0) -> FigureReport:
    """Replacement policies under capacity pressure (Section 6.2)."""
    n = scaled(20_000, 100_000, 500_000)
    data = generate("independent", n, 4, seed=seed)
    gen_seed = seed + 1
    n_queries = scaled(60, 150, 400)
    capacity = 8

    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for label, cache in [
        ("unbounded", SkylineCache()),
        ("LRU, cap 8", SkylineCache(capacity=capacity, policy="lru")),
        ("LCU, cap 8", SkylineCache(capacity=capacity, policy="lcu")),
    ]:
        engine = make_cbcs(data, region=ApproximateMPR(1), cache=cache)
        gen = WorkloadGenerator(data, seed=gen_seed)
        result = run_queries(engine, gen.exploratory_stream(n_queries))
        hits = sum(1 for o in result.outcomes if o.cache_hit)
        series[label] = {
            "io_ms": result.mean_io_ms(),
            "wall_ms": result.mean_wall_ms(),
            "mean_points_read": result.mean_points_read(),
            "hit_rate": hits / len(result),
            "evictions": float(cache.evictions),
        }
        rows.append(
            [label, result.mean_io_ms(), result.mean_wall_ms(),
             result.mean_points_read(), f"{hits}/{len(result)}", cache.evictions]
        )
    text = format_table(
        ["cache", "sim I/O (ms)", "CPU wall (ms)", "mean points read",
         "cache hits", "evictions"],
        rows,
        title=f"Cache replacement under pressure (|S|={n}, |D|=4, interactive)",
    )
    return FigureReport(
        figure="ablation-replacement",
        title="LRU vs LCU vs unbounded cache",
        text=text,
        series=series,
    )


def ablation_invalidation(seed: int = 0) -> FigureReport:
    """Invalidation cover: boxes vs points read (unstable cases)."""
    # Independent 3-D keeps the exact-staircase reference computable; the
    # explosion that motivates the approximation is itself the subject of
    # Figure 9 and needs no re-demonstration here.
    n = 20_000
    ndim = 3
    data = generate("independent", n, ndim, seed=seed)
    gen = WorkloadGenerator(data, seed=seed + 3)

    # Build unstable cache/query pairs: raise a random lower bound.
    rng = np.random.default_rng(seed + 4)
    pairs = []
    while len(pairs) < scaled(20, 40, 80):
        old = gen.initial_query()
        inside = data[old.satisfied_mask(data)]
        if len(inside) < 20:
            continue
        dim = int(rng.integers(ndim))
        width = old.hi[dim] - old.lo[dim]
        new = old.with_bound(dim, lower=float(old.lo[dim] + 0.2 * width))
        pairs.append((old, inside[sfs_skyline(inside)], new))

    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for label, corner in [("exact staircase", False), ("one corner (aMPR)", True)]:
        boxes_counts: List[int] = []
        reads: List[int] = []
        for old, skyline, new in pairs:
            surviving = skyline[new.satisfied_mask(skyline)]
            result = compute_mpr(
                old, skyline, new,
                prune_with=surviving[:1] if len(surviving) else surviving,
                corner_cover=corner,
            )
            boxes_counts.append(len(result.boxes))
            reads.append(int(result.boxes.union_mask(data).sum()))
        series[label] = {
            "mean_boxes": float(np.mean(boxes_counts)),
            "mean_points": float(np.mean(reads)),
        }
        rows.append([label, float(np.mean(boxes_counts)), float(np.mean(reads))])
    text = format_table(
        ["invalidation cover", "mean range queries", "mean points to read"],
        rows,
        title=f"Unstable-case invalidation approximation (independent, |S|={n}, |D|={ndim})",
    )
    return FigureReport(
        figure="ablation-invalidation",
        title="Invalidation cover trade-off",
        text=text,
        series=series,
    )
