"""repro -- reproduction of "Efficient caching for constrained skyline
queries" (Mortensen, Chester, Assent, Magnani; EDBT 2015).

The library answers constrained skyline queries over a simulated
disk-resident table, reusing an in-memory cache of earlier results via the
paper's Missing Points Region machinery.

Quickstart::

    import numpy as np
    from repro import CBCS, Constraints, DiskTable
    from repro.data import generate

    data = generate("independent", 100_000, 4, seed=0)
    engine = CBCS(DiskTable(data))
    first = engine.query(Constraints([0.2] * 4, [0.8] * 4))
    # a refined query reuses the cached result and reads far fewer points:
    second = engine.query(Constraints([0.2] * 4, [0.8, 0.8, 0.8, 0.85]))

See README.md for the architecture overview, DESIGN.md for the
paper-to-module map, and ``examples/`` for runnable scenarios.
"""

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cache import CacheItem, SkylineCache
from repro.core.cbcs import CBCS
from repro.core.mpr import MPRResult, compute_mpr
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
from repro.geometry.box import Box
from repro.geometry.constraints import Constraints
from repro.geometry.interval import Interval
from repro.skyline.baseline import BaselineMethod
from repro.skyline.bbs import BBSMethod, BBSScan, bbs_skyline
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bskytree import bskytree_skyline
from repro.skyline.cardinality import expected_skyline_size
from repro.skyline.dandc import dandc_skyline
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, StageTimings
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

__version__ = "1.0.0"

__all__ = [
    "ApproximateMPR",
    "BBSMethod",
    "BBSScan",
    "BaselineMethod",
    "Box",
    "CBCS",
    "CacheItem",
    "Constraints",
    "CostBased",
    "DiskCostModel",
    "DiskTable",
    "ExactMPR",
    "Interval",
    "MPRResult",
    "MaxOverlap",
    "MaxOverlapSP",
    "OptimumDistance",
    "Prioritized1D",
    "PrioritizedND",
    "QueryOutcome",
    "RandomStrategy",
    "SkylineCache",
    "StageTimings",
    "WorkloadGenerator",
    "bbs_skyline",
    "bnl_skyline",
    "bskytree_skyline",
    "compute_mpr",
    "dandc_skyline",
    "expected_skyline_size",
    "default_strategy_suite",
    "sfs_skyline",
]
