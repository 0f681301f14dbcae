"""Disk-style index structures built from scratch.

- :class:`~repro.index.rtree.RTree` -- a static R-tree packed by STR bulk
  loading, the dataset index of the BBS [19] baseline.

The per-dimension indexes of the paper's PostgreSQL setup (Section 7) are
sorted columns private to :mod:`repro.storage.table`.
"""

from repro.index.rtree import RTree

__all__ = ["RTree"]
