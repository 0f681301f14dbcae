"""Stateful property testing of the full engine.

Hypothesis drives random interleavings of queries, refinements, inserts,
deletes, vacuums and cache clears against a :class:`DynamicCBCS` engine;
after every single action, the invariant is checked: the engine's answer to
a fresh query equals the brute-force constrained skyline of the current
live data.  This is the strongest end-to-end guarantee in the test suite.
"""

import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cache import SkylineCache
from repro.core.dynamic import DynamicCBCS
from repro.geometry.constraints import Constraints
from repro.skyline.reference import brute_force_skyline
from repro.storage.table import DiskTable

coord = st.floats(min_value=0.0, max_value=1.0)


def canonical(points):
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return points
    return points[np.lexsort(points.T[::-1])]


class EngineMachine(RuleBasedStateMachine):
    NDIM = 2

    @initialize(
        seed=st.integers(0, 1000),
        region_kind=st.sampled_from(["ampr1", "ampr3", "exact"]),
        capacity=st.sampled_from([None, 4]),
    )
    def setup(self, seed, region_kind, capacity):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1, size=(120, self.NDIM))
        regions = {
            "ampr1": ApproximateMPR(1),
            "ampr3": ApproximateMPR(3),
            "exact": ExactMPR(),
        }
        self.engine = DynamicCBCS(
            DiskTable(data),
            cache=SkylineCache(capacity=capacity),
            region_computer=regions[region_kind],
        )
        self.rng = rng
        self.last_query = None

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _check(self, constraints):
        out = self.engine.query(constraints)
        live = self.engine.table.data_view()[self.engine.table._alive]
        inside = live[constraints.satisfied_mask(live)]
        expected = inside[brute_force_skyline(inside)] if len(inside) else inside
        got = canonical(out.skyline)
        exp = canonical(expected)
        assert got.shape == exp.shape, (
            f"case={out.case}: got {got.shape[0]}, expected {exp.shape[0]}"
        )
        if len(exp):
            np.testing.assert_allclose(got, exp)
        self.last_query = constraints

    @rule(a=coord, b=coord, c=coord, d=coord)
    def fresh_query(self, a, b, c, d):
        lo = [min(a, b), min(c, d)]
        hi = [max(a, b), max(c, d)]
        self._check(Constraints(lo, hi))

    @precondition(lambda self: self.last_query is not None)
    @rule(
        dim=st.integers(0, NDIM - 1),
        which=st.sampled_from(["lo", "hi"]),
        delta=st.floats(min_value=-0.15, max_value=0.15),
    )
    def refine_last_query(self, dim, which, delta):
        q = self.last_query
        if which == "lo":
            new_lo = float(np.clip(q.lo[dim] + delta, 0.0, q.hi[dim]))
            refined = q.with_bound(dim, lower=new_lo)
        else:
            new_hi = float(np.clip(q.hi[dim] + delta, q.lo[dim], 1.0))
            refined = q.with_bound(dim, upper=new_hi)
        self._check(refined)

    @rule(n=st.integers(1, 3), seed=st.integers(0, 10_000))
    def insert_rows(self, n, seed):
        rows = np.random.default_rng(seed).uniform(0, 1, size=(n, self.NDIM))
        self.engine.insert_points(rows)

    @precondition(lambda self: self.engine.table.live_count > 20)
    @rule(seed=st.integers(0, 10_000))
    def delete_rows(self, seed):
        alive = np.flatnonzero(self.engine.table._alive)
        pick = np.random.default_rng(seed).choice(alive, size=2, replace=False)
        self.engine.delete_points(pick)

    @rule()
    def vacuum(self):
        self.engine.table.vacuum()

    @rule()
    def clear_cache(self):
        self.engine.cache.clear()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def cache_respects_capacity(self):
        if getattr(self, "engine", None) is None:
            return
        cap = self.engine.cache.capacity
        if cap is not None:
            assert len(self.engine.cache) <= cap

    @invariant()
    def cached_items_are_antichains(self):
        if getattr(self, "engine", None) is None:
            return
        for item in self.engine.cache:
            sky = item.skyline
            for s in sky:
                le = np.all(sky <= s, axis=1)
                lt = np.any(sky < s, axis=1)
                assert not np.any(le & lt), "cached skyline holds a dominated point"


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
