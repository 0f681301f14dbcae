"""Cache-Based Constrained Skyline (CBCS) -- the paper's contribution.

Modules:

- :mod:`~repro.core.stability` -- when a cached skyline's non-members remain
  non-members under new constraints (Definition 4, Theorem 1, Corollaries
  1-2);
- :mod:`~repro.core.cases` -- the four incremental single-bound overlap
  cases and their specialized minimal-read solutions (Theorems 2-5);
- :mod:`~repro.core.mpr` -- the Missing Points Region: the minimal region
  that must be fetched for arbitrary constraint changes, decomposed into
  disjoint range queries (Definition 5, Algorithm 1, Theorems 6-7);
- :mod:`~repro.core.ampr` -- the approximate MPR that prunes with only the
  k cached skyline points nearest the query (Section 5.3);
- :mod:`~repro.core.cache` -- the in-memory skyline cache with a flat
  table of result MBRs and LRU/LCU replacement (Sections 6, 6.2);
- :mod:`~repro.core.strategies` -- the seven cache search strategies of
  Section 6.1;
- :mod:`~repro.core.planner` -- the pure planning layer (selection, case
  classification, MPR planning; zero I/O) behind both ``CBCS.explain`` and
  execution;
- :mod:`~repro.core.executor` -- runs a plan's disjoint range queries
  against the engine's table, in plan order (each one guarded by
  ``Resilience.read`` when resilience is on);
- :mod:`~repro.core.cbcs` -- the CBCS query engine tying it all together,
  including the extension the paper flags as future work: writes, with
  continuous per-item skyline maintenance (Section 6.2) and an optional
  WAL-backed durable write path.
"""

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cache import CacheItem, SkylineCache
from repro.core.cases import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_DISJOINT,
    CASE_EXACT,
    GENERAL_STABLE,
    GENERAL_UNSTABLE,
    classify_change,
)
from repro.core.cbcs import CBCS
from repro.core.executor import Executor, FetchOutcome
from repro.core.planner import PlannedQuery, Planner, QueryPlan
from repro.core.mpr import MPRResult, compute_mpr
from repro.core.stability import guaranteed_stable, is_stable_for
from repro.core.strategies import (
    CostBased,
    MaxOverlap,
    MaxOverlapSP,
    OptimumDistance,
    Prioritized1D,
    PrioritizedND,
    RandomStrategy,
    default_strategy_suite,
)

__all__ = [
    "ApproximateMPR",
    "CASE_A",
    "CASE_B",
    "CASE_C",
    "CASE_D",
    "CASE_DISJOINT",
    "CASE_EXACT",
    "CBCS",
    "CacheItem",
    "CostBased",
    "ExactMPR",
    "Executor",
    "FetchOutcome",
    "PlannedQuery",
    "Planner",
    "QueryPlan",
    "GENERAL_STABLE",
    "GENERAL_UNSTABLE",
    "MPRResult",
    "MaxOverlap",
    "MaxOverlapSP",
    "OptimumDistance",
    "Prioritized1D",
    "PrioritizedND",
    "RandomStrategy",
    "SkylineCache",
    "classify_change",
    "compute_mpr",
    "default_strategy_suite",
    "guaranteed_stable",
    "is_stable_for",
]
