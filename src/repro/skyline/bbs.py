"""Branch-and-Bound Skyline (Papadias et al. [19]) with constraints.

BBS is "the best known technique ... which uses an R-tree index and a
heap-based priority queue to guide the search for skyline points, while
pruning paths in an R-tree if outside the constraints" (paper Section 1).
It is I/O-optimal among index-based methods and is the state-of-the-art
comparator in the paper's experiments.

Algorithm: entries (nodes or points) are expanded in ascending *mindist*
order, where mindist is the coordinate sum of the entry's lower corner
clipped into the constraint region.  An entry is pruned when its MBR misses
the constraint region or when its clipped lower corner is strictly dominated
by an already-found skyline point; because mindist is monotone (and ties
between rounded sums are broken nodes first, then lexicographically), a
point popped undominated is guaranteed final.

Each popped R-tree node models one page read; the count is returned so the
caller can charge simulated random-access I/O for it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.constraints import Constraints
from repro.index.rtree import RTree
from repro.obs import NULL_OBS
from repro.stats import QueryOutcome, Stopwatch
from repro.storage.costmodel import DiskCostModel


@dataclass
class BBSResult:
    """Skyline points plus the number of R-tree nodes read."""

    skyline: np.ndarray
    nodes_accessed: int
    heap_pushes: int


def bbs_skyline(tree: RTree, constraints: Optional[Constraints] = None) -> BBSResult:
    """Run constrained BBS over an R-tree of points to completion.

    ``constraints`` of None computes the unconstrained skyline.  Skyline
    rows come out in the order the heap confirms them: ascending mindist
    (coordinate sum), BBS's progressive order [19].
    """
    ndim = tree.ndim
    if constraints is not None and constraints.ndim != ndim:
        raise ValueError("constraints dimensionality does not match the tree")
    c_lo = constraints.lo if constraints is not None else None
    c_hi = constraints.hi if constraints is not None else None
    sky = np.empty((0, ndim))
    tiebreak = itertools.count()
    heap: list = []
    nodes_accessed = heap_pushes = 0

    def clip(lo: np.ndarray) -> np.ndarray:
        return lo if c_lo is None else np.maximum(lo, c_lo)

    def meets(node) -> bool:
        return c_lo is None or bool(
            np.all(node.lo <= c_hi) and np.all(c_lo <= node.hi)
        )

    def corner_dominated(lo: np.ndarray) -> bool:
        if not len(sky):
            return False
        best = clip(lo)
        le = np.all(sky <= best, axis=1)
        lt = np.any(sky < best, axis=1)
        return bool(np.any(le & lt))

    def push(node, point) -> None:
        nonlocal heap_pushes
        lo = point if point is not None else node.lo
        # Coordinate sums tie in floating point (1e-38 + 1 == 1): at equal
        # mindist a node goes before a point and points go in lexicographic
        # order, so whatever dominates a point is still popped before it.
        key = (float(clip(lo).sum()), point is not None, tuple(lo.tolist()))
        heapq.heappush(heap, (*key, next(tiebreak), node, point))
        heap_pushes += 1

    root = tree.root
    if root.lo is not None and meets(root):
        push(root, None)
    while heap:
        *_, node, point = heapq.heappop(heap)
        if point is not None:
            if not corner_dominated(point):
                sky = np.vstack([sky, point])
            continue
        nodes_accessed += 1
        if corner_dominated(node.lo):
            continue
        if node.is_leaf:
            pts = node.entry_lo
            if c_lo is not None:
                pts = pts[np.all(pts >= c_lo, axis=1) & np.all(pts <= c_hi, axis=1)]
            for p in pts:
                if not corner_dominated(p):
                    push(None, p)
        else:
            for child in node.children:
                if meets(child) and not corner_dominated(child.lo):
                    push(child, None)
    return BBSResult(
        skyline=sky, nodes_accessed=nodes_accessed, heap_pushes=heap_pushes
    )


class BBSMethod:
    """Query-method wrapper around BBS for the benchmark harness.

    Builds (or accepts) an STR-packed R-tree over the dataset and charges
    one random page read per node access under the given cost model.
    """

    name = "BBS"

    def __init__(
        self,
        data: np.ndarray,
        cost_model: Optional[DiskCostModel] = None,
        max_entries: int = 128,
        tree: Optional[RTree] = None,
        obs=None,
    ):
        self.cost_model = cost_model or DiskCostModel()
        # explicit None check: an empty RTree is falsy (len 0)
        if tree is None:
            tree = RTree.bulk_load_points(
                np.asarray(data, dtype=float), max_entries=max_entries
            )
        self.tree = tree
        self.obs = NULL_OBS if obs is None else obs

    def query(self, constraints: Constraints) -> QueryOutcome:
        """Answer one constrained skyline query."""
        obs = self.obs
        watch = Stopwatch(tracer=obs.tracer)
        with obs.tracer.span("bbs.query") as span:
            with watch.stage("fetch_wall"):
                result = bbs_skyline(self.tree, constraints)
            if obs.enabled:
                span.set(
                    nodes_accessed=result.nodes_accessed,
                    heap_pushes=result.heap_pushes,
                    skyline=len(result.skyline),
                )
        io_ms = result.nodes_accessed * self.cost_model.fetch_cost_ms(1, 1)
        watch.timings.fetch_io_ms = io_ms
        outcome = QueryOutcome(
            skyline=result.skyline,
            method=self.name,
            timings=watch.timings,
            nodes_accessed=result.nodes_accessed,
        )
        outcome.io.pages_read = result.nodes_accessed
        outcome.io.seeks = result.nodes_accessed
        outcome.io.simulated_io_ms = io_ms
        obs.record_outcome(outcome)
        return outcome
