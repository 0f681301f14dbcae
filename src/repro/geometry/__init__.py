"""Geometric primitives for constrained skyline processing.

This subpackage provides the low-level spatial algebra that the paper's
Missing Points Region (MPR) machinery is built on:

- :class:`~repro.geometry.box.BoxSet` -- the one region type: a set of
  axis-aligned boxes as two ``(n, d)`` arrays of closed float bounds, with
  corner and box subtraction and point membership over the whole set in a
  fixed number of array operations each.
- :mod:`~repro.geometry.constraints` -- helpers for the paper's constraint
  pairs ``C = <C_lo, C_hi>`` (closed boxes) and their overlap relationships.
- :mod:`~repro.geometry.dominance` -- Pareto dominance tests (Definition 2
  of the paper); the MPR cuts dominance regions ``DR(s)`` as closed corners
  of a :class:`~repro.geometry.box.BoxSet`.
"""

from repro.geometry.box import BoxSet
from repro.geometry.constraints import Constraints
from repro.geometry.dominance import dominated_mask, dominates, weakly_dominated_mask

__all__ = [
    "BoxSet",
    "Constraints",
    "dominated_mask",
    "dominates",
    "weakly_dominated_mask",
]
