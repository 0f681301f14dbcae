"""A static R-tree over points or rectangles, packed by STR bulk loading.

This is the dataset index under the R-tree baseline the paper compares
against: BBS [19], the I/O-optimal constrained-skyline algorithm.  It is
built once with Sort-Tile-Recursive bulk loading, the standard way to pack a
static R-tree, and never updated.  (The cache of Section 6 does not use it:
its MBR lookup is the flat bounds table in :mod:`repro.core.cache`.)

Leaf entries carry a rectangle (``lo``/``hi``; equal for points) and an
opaque payload (a row id for dataset trees).  Nodes track their level
(leaves are level 0).  BBS walks the nodes itself, from :attr:`RTree.root`,
and charges one page read per node it pops.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np


class RNode:
    """One R-tree node.  Leaves hold entry rectangles + payloads; internal
    nodes hold child nodes.  ``lo``/``hi`` cache the node's MBR."""

    __slots__ = ("level", "entry_lo", "entry_hi", "payloads", "children", "lo", "hi")

    def __init__(self, level: int):
        self.level = level
        self.entry_lo: Optional[np.ndarray] = None  # (k, d) for leaves
        self.entry_hi: Optional[np.ndarray] = None
        self.payloads: Optional[list] = None
        self.children: Optional[List["RNode"]] = None  # for internal nodes
        self.lo: Optional[np.ndarray] = None  # node MBR
        self.hi: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def entry_count(self) -> int:
        """Return the number of entries (leaf rectangles or children)."""
        if self.is_leaf:
            return 0 if self.entry_lo is None else len(self.entry_lo)
        return len(self.children)

    def recompute_mbr(self) -> None:
        """Recompute the cached MBR from the node's entries."""
        if self.is_leaf:
            if self.entry_lo is None or len(self.entry_lo) == 0:
                self.lo = self.hi = None
                return
            self.lo = self.entry_lo.min(axis=0)
            self.hi = self.entry_hi.max(axis=0)
        else:
            if not self.children:
                self.lo = self.hi = None
                return
            self.lo = np.min([c.lo for c in self.children], axis=0)
            self.hi = np.max([c.hi for c in self.children], axis=0)


class RTree:
    """A static R-tree built by STR bulk loading."""

    def __init__(self, ndim: int, max_entries: int = 64, min_entries: Optional[int] = None):
        if ndim < 1:
            raise ValueError("ndim must be positive")
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.ndim = ndim
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, int(round(0.4 * max_entries)))
        if self.min_entries * 2 > max_entries:
            raise ValueError("min_entries must be at most max_entries / 2")
        self._size = 0
        root = RNode(level=0)
        root.entry_lo = np.empty((0, ndim))
        root.entry_hi = np.empty((0, ndim))
        root.payloads = []
        self._root = root

    # ------------------------------------------------------------------
    # Bulk loading (STR)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load_points(
        cls,
        points: np.ndarray,
        payloads: Optional[Sequence] = None,
        max_entries: int = 64,
    ) -> "RTree":
        """STR bulk-load a tree over point data.

        ``payloads`` defaults to row indices ``0..n-1``.
        """
        points = np.asarray(points, dtype=float)
        if payloads is None:
            payloads = np.arange(len(points), dtype=np.int64)
        return cls.bulk_load_boxes(points, points, payloads, max_entries=max_entries)

    @classmethod
    def bulk_load_boxes(
        cls,
        los: np.ndarray,
        his: np.ndarray,
        payloads: Sequence,
        max_entries: int = 64,
    ) -> "RTree":
        """STR bulk-load a tree over rectangle data."""
        los = np.asarray(los, dtype=float)
        his = np.asarray(his, dtype=float)
        if los.ndim != 2 or los.shape != his.shape:
            raise ValueError("los and his must be matching (n, d) arrays")
        n, ndim = los.shape
        tree = cls(ndim, max_entries=max_entries)
        if n == 0:
            return tree
        centers = (los + his) / 2.0

        leaves: List[RNode] = []
        payload_arr = (
            np.asarray(payloads)
            if isinstance(payloads, np.ndarray)
            else payloads
        )
        for idx in _str_tiles(centers, np.arange(n), max_entries, dim=0):
            leaf = RNode(level=0)
            leaf.entry_lo = los[idx].copy()
            leaf.entry_hi = his[idx].copy()
            if isinstance(payload_arr, np.ndarray):
                leaf.payloads = list(payload_arr[idx])
            else:
                leaf.payloads = [payload_arr[i] for i in idx]
            leaf.recompute_mbr()
            leaves.append(leaf)

        level_nodes = leaves
        level = 0
        while len(level_nodes) > 1:
            level += 1
            node_centers = np.array(
                [(node.lo + node.hi) / 2.0 for node in level_nodes]
            )
            parents: List[RNode] = []
            for idx in _str_tiles(
                node_centers, np.arange(len(level_nodes)), max_entries, dim=0
            ):
                parent = RNode(level=level)
                parent.children = [level_nodes[i] for i in idx]
                parent.recompute_mbr()
                parents.append(parent)
            level_nodes = parents
        tree._root = level_nodes[0]
        tree._size = n
        return tree

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> RNode:
        return self._root

    @property
    def height(self) -> int:
        return self._root.level + 1

    def all_payloads(self) -> list:
        """Return every payload in the tree (tree order)."""
        out: list = []
        for node in self.iter_leaves():
            out.extend(node.payloads)
        return out

    def iter_leaves(self) -> Iterator[RNode]:
        """Yield every leaf node (tree order; no access accounting)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def iter_nodes(self) -> Iterator[RNode]:
        """Yield every node, root first (no access accounting)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # Invariants (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError on any structural violation."""
        assert self._root.level + 1 == self.height
        count = self._check_node(self._root, is_root=True)
        assert count == self._size, f"size mismatch: {count} vs {self._size}"

    def _check_node(self, node: RNode, is_root: bool = False) -> int:
        if node.is_leaf:
            k = node.entry_count()
            assert k <= self.max_entries, "leaf overflow"
            if not is_root:
                assert k >= self.min_entries, "leaf underflow"
            if k:
                np.testing.assert_array_equal(node.lo, node.entry_lo.min(axis=0))
                np.testing.assert_array_equal(node.hi, node.entry_hi.max(axis=0))
                assert len(node.payloads) == k
            return k
        assert node.children, "empty internal node"
        k = len(node.children)
        assert k <= self.max_entries, "internal overflow"
        if not is_root:
            assert k >= self.min_entries, "internal underflow"
        total = 0
        for child in node.children:
            assert child.level == node.level - 1, "level mismatch"
            assert np.all(node.lo <= child.lo) and np.all(node.hi >= child.hi), (
                "child MBR outside parent MBR"
            )
            total += self._check_node(child)
        node_lo = np.min([c.lo for c in node.children], axis=0)
        node_hi = np.max([c.hi for c in node.children], axis=0)
        np.testing.assert_array_equal(node.lo, node_lo)
        np.testing.assert_array_equal(node.hi, node_hi)
        return total


def _str_tiles(
    centers: np.ndarray, indices: np.ndarray, capacity: int, dim: int
) -> List[np.ndarray]:
    """Sort-Tile-Recursive partition of ``indices`` into tiles of ``capacity``.

    Recursively sorts by successive dimensions and slices into vertical
    slabs, the classic STR packing of Leutenegger et al.
    """
    n = len(indices)
    if n <= capacity:
        return [indices]
    ndim = centers.shape[1]
    remaining_dims = ndim - dim
    order = indices[np.argsort(centers[indices, dim], kind="stable")]
    n_tiles = math.ceil(n / capacity)
    if remaining_dims <= 1:
        # Even sizes (differing by at most one) keep every tile at or above
        # half capacity, so bulk-loaded nodes respect the min-fill invariant.
        return list(np.array_split(order, n_tiles))
    n_slabs = math.ceil(n_tiles ** (1.0 / remaining_dims))
    tiles: List[np.ndarray] = []
    for slab in np.array_split(order, n_slabs):
        tiles.extend(_str_tiles(centers, slab, capacity, dim + 1))
    return tiles
