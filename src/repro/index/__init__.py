"""Disk-style index structures built from scratch.

- :class:`~repro.index.btree.BPlusTree` -- an order-configurable B+-tree with
  array-backed leaves, standing in for the per-dimension PostgreSQL B-tree
  indexes of the paper's experimental setup (Section 7).
- :class:`~repro.index.rtree.RTree` -- a static R-tree packed by STR bulk
  loading, the dataset index of the BBS [19] and nearest-neighbour baselines.
"""

from repro.index.btree import BPlusTree
from repro.index.rtree import RTree

__all__ = ["BPlusTree", "RTree"]
