"""Stateful property testing of the full engine, whatever table it runs on.

Hypothesis draws the storage -- a plain :class:`DiskTable`, or a
:class:`ShardedTable` of 1, 2 or 4 range or hash shards -- the
dimensionality, smooth or duplicate-heavy rows, region computer and cache
capacity, then drives random interleavings of queries (fresh, refined, and
cornered on a live row, and repeats of earlier ones), inserts, deletes,
vacuums and cache clears against a :class:`CBCS` over it -- the writes both
through the engine and through ``engine.table`` directly, behind the
engine's back.  A repeat whose item is still cached, with every write seen
by the engine, must be the cache's exact hit and read nothing.
After every query the answer must pass
:func:`~repro.skyline.reference.answer_error` -- the soaks' verdict: equal
to the reference skyline of the live rows, or flagged stale -- over a mirror
the machine keeps itself from the ids the engine hands back, never the
table's own tombstones.  This is the strongest end-to-end guarantee in
the test suite.  Every plan the engine executes on the way is held to the
containment that makes it safe, MPR <= R <= C': its boxes are pairwise
disjoint, lie in the queried region, hold every live row the region
computer's boxes hold, and none of the cached points it reuses.

The table starts inside ``[1/6, 5/6]^d`` and grows outwards (inserts and
queries range over ``[0, 1]^d``, both hitting the 1/6 grid often), so rows
land outside every shard's first bounding box and on its faces: the machine
fails within its budget when ``ShardedTable.range_query`` tests a face
strictly, and when ``append`` stops growing the bounds.
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
from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.skyline.reference import answer_error
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable
from tests.geometry.regions import pairwise_disjoint

GRID = 6
MAX_NDIM = 3

#: a coordinate: anywhere in [0, 1], or exactly on the duplicate-heavy grid
coord = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, GRID).map(lambda k: k / GRID),
)

TABLES = {
    "disk": DiskTable,
    **{
        f"{mode}{n}": (lambda data, n=n, mode=mode: ShardedTable(data, n, mode=mode))
        for n in (1, 2, 4)
        for mode in ("range", "hash")
    },
}


class EngineMachine(RuleBasedStateMachine):
    @initialize(
        seed=st.integers(0, 1000),
        ndim=st.sampled_from([2, 3]),
        table_kind=st.sampled_from(sorted(TABLES)),
        on_grid=st.booleans(),
        region_kind=st.sampled_from(["ampr1", "ampr3", "exact"]),
        capacity=st.sampled_from([None, 4]),
    )
    def setup(self, seed, ndim, table_kind, on_grid, region_kind, capacity):
        self.ndim = ndim
        self.on_grid = on_grid
        data = self._rows(np.random.default_rng(seed), 120, 1 / GRID, 1 - 1 / GRID)
        regions = {
            "ampr1": ApproximateMPR(1),
            "ampr3": ApproximateMPR(3),
            "exact": ExactMPR(),
        }
        self.engine = CBCS(
            TABLES[table_kind](data),
            cache=SkylineCache(capacity=capacity),
            region_computer=regions[region_kind],
        )
        #: the machine's own record of the live rows: row id -> values
        self.live = dict(enumerate(data))
        self.last_query = None
        #: every query asked so far, for the repeats
        self.asked = []
        #: ``table.write_count`` as of the engine's last look at the table
        #: (a query syncs it, the engine's own writes keep it)
        self.writes_seen = self.engine.table.write_count
        plan = self.engine.planner.plan
        self.engine.planner.plan = lambda *args, **kwargs: self._checked(
            plan(*args, **kwargs)
        )

    def _checked(self, plan):
        """MPR <= R <= C' for a plan the engine is about to execute."""
        boxes, mpr = plan.boxes, plan.mpr
        if mpr is None:
            return plan
        query = plan.constraints
        # the region itself: disjoint boxes, each holding a double
        assert not mpr.boxes.is_empty().any()
        assert pairwise_disjoint(mpr.boxes)
        assert pairwise_disjoint(boxes)
        # the issued boxes: inside R_C', covering the region's live rows
        assert not boxes.is_empty().any()
        assert (boxes.lo >= query.lo).all() and (boxes.hi <= query.hi).all()
        rows = np.array(list(self.live.values()))
        assert boxes.union_mask(rows)[mpr.boxes.union_mask(rows)].all()
        assert not boxes.union_mask(plan.reusable).any()
        return plan

    def _rows(self, rng, n, lo=0.0, hi=1.0):
        rows = rng.uniform(lo, hi, size=(n, self.ndim))
        return np.round(rows * GRID) / GRID if self.on_grid else rows

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def _check(self, constraints):
        out = self.engine.query(constraints)
        error = answer_error(out, np.array(list(self.live.values())), constraints)
        assert error is None, error
        self.last_query = constraints
        self.last_answer = out.skyline
        self.asked.append(constraints)
        self.writes_seen = self.engine.table.write_count
        return out

    def _repeat(self, constraints):
        """C' = C: with its item cached and no write unseen, the query is an
        exact hit that issues no range query."""
        cached = (
            self.engine.cache.exact_match(constraints) is not None
            and self.engine.table.write_count == self.writes_seen
        )
        out = self._check(constraints)
        if cached:
            assert out.case == "exact", out.case
            assert out.io.range_queries == 0

    @rule(bounds=st.lists(st.tuples(coord, coord), min_size=MAX_NDIM, max_size=MAX_NDIM))
    def fresh_query(self, bounds):
        bounds = bounds[: self.ndim]
        self._check(
            Constraints([min(b) for b in bounds], [max(b) for b in bounds])
        )

    @rule(
        pick=st.integers(0, 10_000),
        upper=st.lists(coord, min_size=MAX_NDIM, max_size=MAX_NDIM),
    )
    def query_cornered_on_a_row(self, pick, upper):
        """Lower corner on a live row: it sits on the region's closed faces
        and must be in the answer."""
        ids = sorted(self.live)
        lo = self.live[ids[pick % len(ids)]]
        self._check(Constraints(lo, np.maximum(lo, upper[: self.ndim])))

    @precondition(lambda self: self.last_query is not None)
    @rule(
        dim=st.integers(0, MAX_NDIM - 1),
        which=st.sampled_from(["lo", "hi"]),
        delta=st.floats(min_value=-0.15, max_value=0.15),
    )
    def refine_last_query(self, dim, which, delta):
        q = self.last_query
        dim %= self.ndim
        if which == "lo":
            new_lo = float(np.clip(q.lo[dim] + delta, 0.0, q.hi[dim]))
            refined = q.with_bound(dim, lower=new_lo)
        else:
            new_hi = float(np.clip(q.hi[dim] + delta, q.lo[dim], 1.0))
            refined = q.with_bound(dim, upper=new_hi)
        self._check(refined)

    @precondition(lambda self: self.asked)
    @rule(pick=st.integers(0, 10_000))
    def repeat_an_earlier_query(self, pick):
        """Whatever was written since -- through the engine, behind it, or
        refreshed by a delete -- a repeat is right, and exact when cached."""
        self._repeat(self.asked[pick % len(self.asked)])

    @rule(n=st.integers(1, 3), seed=st.integers(0, 10_000))
    def insert_rows(self, n, seed):
        rows = self._rows(np.random.default_rng(seed), n)
        ids = self.engine.insert_points(rows)
        assert ids.dtype == np.int64 and not set(ids.tolist()) & set(self.live)
        self.live.update(zip(ids.tolist(), rows))
        # read your writes: the tightest region that holds the new rows
        self._check(Constraints(rows.min(axis=0), rows.max(axis=0)))

    @precondition(lambda self: len(self.live) > 20)
    @rule(seed=st.integers(0, 10_000))
    def delete_rows(self, seed):
        pick = np.random.default_rng(seed).choice(
            sorted(self.live), size=2, replace=False
        )
        assert self.engine.delete_points(pick) == 2
        for rowid in pick.tolist():
            del self.live[rowid]
        self.writes_seen = self.engine.table.write_count

    @precondition(lambda self: self.last_query is not None and len(self.live) > 20)
    @rule()
    def delete_a_row_of_the_last_answer(self):
        """An engine delete of a skyline row refreshes the item cached under
        the last query (``replace_skyline``); that query asked again is an
        exact hit on the refreshed item."""
        answered = [
            i for i, row in self.live.items()
            if (self.last_answer == row).all(axis=1).any()
        ]
        if not answered:
            return
        assert self.engine.delete_points([answered[0]]) == 1
        del self.live[answered[0]]
        self.writes_seen = self.engine.table.write_count
        self._repeat(self.last_query)

    @rule(n=st.integers(1, 3), seed=st.integers(0, 10_000), corner=st.booleans())
    def append_through_table(self, n, seed, corner):
        """A write the engine does not make maintains no cached item, so an
        answer is right only if the engine notices the write.  A row on the
        last query's lower corner dominates its whole region: asking that
        query again tells a stale exact hit at once."""
        rows = self._rows(np.random.default_rng(seed), n)
        if corner and self.last_query is not None:
            rows[0] = self.last_query.lo
        ids = self.engine.table.append(rows)
        self.live.update(zip(ids.tolist(), rows))
        if self.last_query is not None:
            self._check(self.last_query)

    @precondition(lambda self: len(self.live) > 20)
    @rule(seed=st.integers(0, 10_000))
    def delete_through_table(self, seed):
        """Deletes behind the engine; one victim is a row of the last
        answer when one is still live (a delete since may have taken it),
        and that query is asked again."""
        ids = sorted(self.live)
        pick = list(np.random.default_rng(seed).choice(ids, size=2, replace=False))
        answered = []
        if self.last_query is not None and len(self.last_answer):
            answered = [
                i for i in ids
                if (self.last_answer == self.live[i]).all(axis=1).any()
            ]
        if answered:
            pick[0] = answered[0]
            if pick[1] == pick[0]:
                pick[1] = next(i for i in ids if i != pick[0])
        assert self.engine.table.delete(pick) == 2
        for rowid in pick:
            del self.live[rowid]
        if self.last_query is not None:
            self._check(self.last_query)

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
    def table_agrees_with_the_mirror(self):
        if getattr(self, "engine", None) is None:
            return
        assert self.engine.table.live_count == len(self.live)

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
    max_examples=50, stateful_step_count=25, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
