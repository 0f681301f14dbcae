"""Experiment runner shared by every figure benchmark.

The paper evaluates three methods -- Baseline [3], BBS [19] and CBCS (with
exact MPR or aMPR) -- under two workloads (Section 7.1):

1. *interactive exploratory search*: refinement chains starting from an
   empty cache, and
2. *independent queries*: unrelated queries against a preloaded cache.

This module builds methods over a dataset, runs workloads through them, and
aggregates the per-query :class:`~repro.stats.QueryOutcome` records into the
quantities the paper plots (mean simulated I/O with CPU wall beside it,
stable/unstable splits, points read, range queries generated/non-empty).

Scaling: the authors ran 1M-5M points on PostgreSQL; a pure-Python
reproduction trims cardinalities while preserving every comparison's shape.
``REPRO_BENCH_SCALE`` selects ``quick`` (CI), ``default``, or ``full``
(closest to paper scale, slow).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.core.strategies import CacheSearchStrategy, MaxOverlapSP
from repro.geometry.constraints import Constraints
from repro.obs import current as current_obs
from repro.skyline.baseline import BaselineMethod
from repro.skyline.bbs import BBSMethod
from repro.stats import QueryOutcome, StageTimings
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

SCALES = ("quick", "default", "full")


def bench_scale() -> str:
    """Return the requested benchmark scale (env ``REPRO_BENCH_SCALE``)."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE={scale!r} invalid; expected one of {SCALES}"
        )
    return scale


def scaled(quick, default, full):
    """Pick a parameter by the active benchmark scale."""
    return {"quick": quick, "default": default, "full": full}[bench_scale()]


# ----------------------------------------------------------------------
# Ambient fault injection (``python -m repro.bench --faults PROFILE``)
# ----------------------------------------------------------------------
_fault_state: Dict[str, object] = {"profile": None, "seed": 0}


def active_fault_profile() -> Optional[str]:
    """The ambient fault profile name, or None when faults are off."""
    return _fault_state["profile"]  # type: ignore[return-value]


@contextmanager
def activate_faults(profile: Optional[str], seed: int = 0):
    """Run the ``with`` body with storage fault injection active.

    While active, every :func:`make_cbcs` engine gets its
    :class:`~repro.storage.table.DiskTable` wrapped in a
    :class:`~repro.storage.faults.FaultyDiskTable` (its own seeded
    injector, so figures stay independent) and runs with the default
    resilience layer, exercising retries and the cache fallback under
    the benchmark workloads.  Baseline and BBS have no resilience layer and
    keep pristine tables.
    """
    previous = dict(_fault_state)
    _fault_state.update(profile=profile, seed=seed)
    try:
        yield
    finally:
        _fault_state.clear()
        _fault_state.update(previous)


@dataclass
class MethodResult:
    """All query outcomes of one method over one workload."""

    method: str
    outcomes: List[QueryOutcome] = field(default_factory=list)

    def mean_io_ms(self) -> float:
        """Average simulated disk time per query (the time axes' clock), ms."""
        return float(np.mean(self.io_ms_values()))

    def mean_wall_ms(self) -> float:
        """Average measured CPU wall time per query, ms."""
        return float(np.mean([o.timings.wall_ms for o in self.outcomes]))

    def mean_points_read(self) -> float:
        """Average heap rows read from disk per query (Figure 8's y-axis)."""
        return float(np.mean([o.points_read for o in self.outcomes]))

    def mean_range_queries(self) -> float:
        """Average range queries issued per query (Figure 9's y-axis)."""
        return float(np.mean([o.range_queries for o in self.outcomes]))

    def io_ms_values(self) -> np.ndarray:
        """Per-query simulated I/O (for distribution/box-plot figures)."""
        return np.array([o.timings.fetch_io_ms for o in self.outcomes])

    def split_by_stability(self) -> Dict[str, "MethodResult"]:
        """Return {'stable': ..., 'unstable': ...} sub-results (cache hits
        only, matching the paper's aMPR (Stable)/(Unstable) curves)."""
        stable = MethodResult(f"{self.method} (Stable)")
        unstable = MethodResult(f"{self.method} (Unstable)")
        for o in self.outcomes:
            if o.stable is True:
                stable.outcomes.append(o)
            elif o.stable is False:
                unstable.outcomes.append(o)
        return {"stable": stable, "unstable": unstable}

    def mean_stage_ms(self) -> Dict[str, float]:
        """Average milliseconds per ``StageTimings`` field (Figure 10's
        bars): the three measured stages and the simulated ``fetch_io``."""
        return {
            f.name[: -len("_ms")]: float(
                np.mean([getattr(o.timings, f.name) for o in self.outcomes])
            )
            for f in fields(StageTimings)
        }

    def __len__(self) -> int:
        return len(self.outcomes)


# ----------------------------------------------------------------------
# Method factories
# ----------------------------------------------------------------------
def make_cbcs(
    data: np.ndarray,
    region=None,
    strategy: Optional[CacheSearchStrategy] = None,
    cost_model: Optional[DiskCostModel] = None,
    cache: Optional[SkylineCache] = None,
    obs=None,
) -> CBCS:
    """Build a CBCS engine with a fresh table and cache over ``data``.

    ``obs`` defaults to the ambient observability (``repro.obs.current()``),
    so experiments run under ``repro.obs.activate(...)`` -- e.g. via
    ``python -m repro.bench --obs DIR`` -- are instrumented without any
    signature changes; otherwise the shared no-op is used.
    """
    obs = current_obs() if obs is None else obs
    table = DiskTable(data, cost_model=cost_model)
    resilience = None
    profile = _fault_state["profile"]
    if profile is not None and profile != "none":
        from repro.storage.faults import FaultInjector, FaultyDiskTable

        injector = FaultInjector(
            profile=profile,  # type: ignore[arg-type]
            seed=int(_fault_state["seed"]),  # type: ignore[arg-type]
            metrics=obs.metrics if obs.enabled else None,
        )
        table = FaultyDiskTable(table, injector)
        resilience = True
    return CBCS(
        table,
        cache=cache if cache is not None else SkylineCache(),
        strategy=strategy,
        region_computer=region,
        obs=obs if obs.enabled else None,
        resilience=resilience,
    )


def make_methods(
    data: np.ndarray,
    cost_model: Optional[DiskCostModel] = None,
    include_mpr: bool = False,
    ampr_k: int = 1,
    strategy_factory: Optional[Callable[[], CacheSearchStrategy]] = None,
    obs=None,
) -> Dict[str, object]:
    """Build the paper's method line-up over one dataset.

    Returns a name -> method mapping; CBCS methods get independent tables
    and caches so I/O accounting never crosses methods.  All methods share
    one observability (``obs``, defaulting to the ambient one), so a single
    metrics registry/trace covers the whole line-up, labeled by method.
    """
    obs = current_obs() if obs is None else obs
    obs_arg = obs if obs.enabled else None
    cost_model = cost_model or DiskCostModel()
    table = DiskTable(data, cost_model=cost_model, obs=obs_arg)
    strategy = strategy_factory() if strategy_factory else MaxOverlapSP()
    methods: Dict[str, object] = {
        "Baseline": BaselineMethod(table, obs=obs_arg),
        "BBS": BBSMethod(data, cost_model=cost_model, obs=obs_arg),
        "aMPR": make_cbcs(
            data,
            region=ApproximateMPR(k=ampr_k),
            strategy=strategy,
            cost_model=cost_model,
            obs=obs,
        ),
    }
    if include_mpr:
        methods["MPR"] = make_cbcs(
            data,
            region=ExactMPR(),
            strategy=strategy_factory() if strategy_factory else MaxOverlapSP(),
            cost_model=cost_model,
            obs=obs,
        )
    return methods


# ----------------------------------------------------------------------
# Workload runners
# ----------------------------------------------------------------------
def run_queries(method, queries: Sequence[Constraints]) -> MethodResult:
    """Run every query through ``method`` and collect the outcomes."""
    name = getattr(method, "name", type(method).__name__)
    result = MethodResult(method=name)
    for constraints in queries:
        result.outcomes.append(method.query(constraints))
    return result


def run_interactive_workload(
    data: np.ndarray,
    methods: Dict[str, object],
    n_sessions: int = 5,
    queries_per_session: int = 20,
    seed: int = 0,
) -> Dict[str, MethodResult]:
    """The paper's workload (1): exploratory sessions from an empty cache.

    Each method sees identical query sequences; CBCS engines keep their
    caches across a session stream (the paper's setting) and are reset
    between the independent session sets.
    """
    results = {name: MethodResult(method=name) for name in methods}
    for session_idx in range(n_sessions):
        gen = WorkloadGenerator(data, seed=seed + session_idx)
        queries = gen.exploratory_stream(queries_per_session)
        for name, method in methods.items():
            if isinstance(method, CBCS):
                method.cache.clear()
            results[name].outcomes.extend(run_queries(method, queries).outcomes)
    return results


def run_independent_workload(
    data: np.ndarray,
    methods: Dict[str, object],
    n_queries: int = 50,
    warm_queries: int = 200,
    seed: int = 0,
) -> Dict[str, MethodResult]:
    """The paper's workload (2): independent queries, preloaded cache.

    CBCS caches are warmed with ``warm_queries`` independent queries first
    (the paper preloads 2000); warm-up outcomes are not reported.
    """
    gen = WorkloadGenerator(data, seed=seed)
    warm = gen.independent_queries(warm_queries)
    queries = gen.independent_queries(n_queries)
    results: Dict[str, MethodResult] = {}
    for name, method in methods.items():
        if isinstance(method, CBCS):
            method.cache.clear()
            method.warm(warm)
        results[name] = run_queries(method, queries)
        results[name].method = name
    return results

