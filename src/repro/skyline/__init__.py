"""Skyline algorithms.

In-memory algorithms (operating on an ``(n, d)`` array, returning the indices
of skyline rows):

- :func:`~repro.skyline.reference.brute_force_skyline` -- the O(n^2)
  definition, used as the oracle in tests;
- :func:`~repro.skyline.bnl.bnl_skyline` -- Block-Nested-Loops [3];
- :func:`~repro.skyline.sfs.sfs_skyline` -- Sort-Filter Skyline [8], the
  algorithm the paper uses inside both its Baseline and CBCS;
- :func:`~repro.skyline.dandc.dandc_skyline` -- divide-and-conquer [3],
  demonstrating CBCS's independence of the skyline algorithm (Section 7.3).

Index/disk-based:

- :func:`~repro.skyline.bbs.bbs_skyline` -- Branch-and-Bound Skyline [19] on
  an R-tree, the I/O-optimal state of the art for constrained skylines
  without caching, with constraint pruning;
- :class:`~repro.skyline.baseline.BaselineMethod` -- the naive plan of [3]:
  one range query for ``S_C`` followed by SFS.
"""

from repro.skyline.baseline import BaselineMethod
from repro.skyline.bbs import BBSMethod, BBSResult, bbs_skyline
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bskytree import bskytree_skyline
from repro.skyline.dandc import dandc_skyline
from repro.skyline.reference import brute_force_skyline, is_skyline
from repro.skyline.sfs import sfs_skyline

__all__ = [
    "BBSMethod",
    "BBSResult",
    "BaselineMethod",
    "bbs_skyline",
    "bnl_skyline",
    "bskytree_skyline",
    "dandc_skyline",
    "brute_force_skyline",
    "is_skyline",
    "sfs_skyline",
]
