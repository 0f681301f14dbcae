"""Geometric primitives for constrained skyline processing.

This subpackage provides the low-level spatial algebra that the paper's
Missing Points Region (MPR) machinery is built on:

- :class:`~repro.geometry.interval.Interval` -- a 1-D interval with
  independently open/closed endpoints.
- :class:`~repro.geometry.box.Box` -- an axis-aligned hyper-rectangle made of
  per-dimension intervals, with intersection, containment, subtraction and
  disjoint-decomposition operations.
- :class:`~repro.geometry.box.BoxSet` -- a set of boxes as four ``(n, d)``
  arrays; corner / box subtraction, merging and membership over the whole
  set in one broadcast each.
- :mod:`~repro.geometry.constraints` -- helpers for the paper's constraint
  pairs ``C = <C_lo, C_hi>`` (closed boxes) and their overlap relationships.
- :mod:`~repro.geometry.dominance` -- Pareto dominance tests and dominance
  regions ``DR(s)`` / ``DR(s, C)`` (Definition 2 of the paper).
"""

from repro.geometry.box import Box, BoxSet
from repro.geometry.constraints import Constraints
from repro.geometry.dominance import (
    dominance_region,
    dominates,
    dominated_mask,
    weakly_dominated_mask,
)
from repro.geometry.interval import Interval

__all__ = [
    "Box",
    "BoxSet",
    "Constraints",
    "Interval",
    "dominance_region",
    "dominated_mask",
    "dominates",
    "weakly_dominated_mask",
]
