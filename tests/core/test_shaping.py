"""The planner's shaping pass and the forecast it is driven by.

Rows sit *on* the faces of the boxes throughout: the region computers cut at
data coordinates (constraint bounds and cached skyline points), so a face
holding rows is the common case, not an edge case.  On a lattice table the
dimensions are independent and the forecast of a box is its exact row count.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cbcs import CBCS
from repro.core.shaping import shape
from repro.geometry.constraints import Constraints
from repro.storage.costmodel import DiskCostModel
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable, Forecast
from repro.workload.generator import WorkloadGenerator
from tests.geometry.regions import closed, contains, holds_a_double, mask
from tests.geometry.regions import pairwise_disjoint, rows_of
from tests.geometry.test_box import boxset

HALVES = [0.0, 0.5, 1.0, 1.5, 2.0]


def lattice(*axes):
    return np.array(list(itertools.product(*axes)), dtype=float)


def table_of(rows, page_size=1, plan="bitmap"):
    return DiskTable(rows, cost_model=DiskCostModel(page_size=page_size), plan=plan)


def forecast_of(table, boxes):
    rows = boxset(boxes, table.ndim)
    return table.forecast(rows.lo, rows.hi)


def issued(boxes, table):
    return rows_of(shape(boxset(boxes, table.ndim), table.forecast).boxes)


def key(box):
    """A box as a hashable value."""
    return tuple(box[0]), tuple(box[1])


def within(inner, outer):
    return all(a >= b for a, b in zip(inner[0], outer[0])) and all(
        a <= b for a, b in zip(inner[1], outer[1])
    )


def iv(lo, hi, lo_open=False, hi_open=False):
    """One dimension's closed bounds: an open face at a finite value is the
    adjacent double inside it."""
    if lo_open and math.isfinite(lo):
        lo = math.nextafter(lo, math.inf)
    if hi_open and math.isfinite(hi):
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


def box(*intervals):
    """The box of one :func:`iv` per dimension, as ``(lo, hi)``."""
    return [lo for lo, _ in intervals], [hi for _, hi in intervals]


def slab(lo, hi, lo_open=False, hi_open=False):
    """``lo..hi`` on x, ``[0, 1]`` on y."""
    return box(iv(lo, hi, lo_open, hi_open), iv(0.0, 1.0))


def assert_shaped(boxes, table, out):
    """The invariants of one shaping pass, the rule included."""
    rows = table.data_view()
    live = [b for b in boxes if mask([b], rows).any()]
    assert pairwise_disjoint(out)
    # every row inside an input box is inside exactly one output box
    if boxes:
        inside = mask(boxes, rows)
        hits = (
            boxset(out, table.ndim).mask(rows).sum(axis=0)
            if out
            else np.zeros(len(rows), dtype=int)
        )
        assert (hits[inside] == 1).all() and hits.max(initial=0) <= 1
    costs = forecast_of(table, boxes)
    # keyed by the boxes as a plan issues them, so a box issued as it came
    # is found and a hull's members are judged by the doubles they hold
    price = dict(zip(map(key, boxes), zip(costs.rows, costs.pages, costs.seeks)))
    for box_ in out:
        # inside the inputs' hull
        for dim in range(table.ndim):
            assert box_[0][dim] >= min(b[0][dim] for b in live)
            assert box_[1][dim] <= max(b[1][dim] for b in live)
        if key(box_) in price:
            continue
        # a hull: fewer seeks than its members, and no more rows -- or no
        # more pages than its largest member and at most twice their rows
        members = [b for b in price if price[b][0] > 0 and within(b, box_)]
        assert len(members) > 1
        hull = forecast_of(table, [box_])
        rows_apart = sum(price[b][0] for b in members)
        assert hull.seeks[0] < sum(price[b][2] for b in members)
        assert hull.rows[0] <= rows_apart * (1 + 1e-9) or (
            hull.pages[0] <= max(price[b][1] for b in members)
            and hull.rows[0] <= 2 * rows_apart
        )


class TestFacesThatTouch:
    """Two boxes meeting at ``x = 1`` with a row on the plane, every
    open/closed combination, one row per page (only tilings coalesce)."""

    rows = lattice(HALVES, HALVES[:3])

    @pytest.mark.parametrize("left_open,right_open", [(True, False), (False, True)])
    def test_one_face_closed_is_a_tiling(self, left_open, right_open):
        pair = [slab(0.0, 1.0, hi_open=left_open), slab(1.0, 2.0, lo_open=right_open)]
        table = table_of(self.rows)
        out = issued(pair, table)
        assert out == [slab(0.0, 2.0)]
        assert_shaped(pair, table, out)

    def test_both_open_leaves_the_plane_unread(self):
        pair = [slab(0.0, 1.0, hi_open=True), slab(1.0, 2.0, lo_open=True)]
        table = table_of(self.rows)
        assert issued(pair, table) == pair  # x = 1.0 in neither, rows there
        assert_shaped(pair, table, pair)

    def test_both_faces_closed_reads_the_shared_face_once(self):
        """Not a region any computer emits (the plane is in both), but no
        plane separates the two and the hull reads fewer rows than they do."""
        pair = [slab(0.0, 1.0), slab(1.0, 2.0)]
        out = issued(pair, table_of(self.rows))
        assert out == [slab(0.0, 2.0)]

    def test_hull_face_is_closed_iff_a_member_attaining_it_is(self):
        """Two members share the hull's lower bound on y, one of them open
        there: the face stays closed, and the row on it is read."""
        low = box(iv(0.0, 1.0), iv(0.0, 1.0, lo_open=True))
        high = box(iv(1.0, 2.0, lo_open=True), iv(0.0, 1.0))
        table = table_of(lattice(HALVES, HALVES[:3]), page_size=128)
        (hull,) = out = issued([low, high], table)
        assert hull == closed([0.0, 0.0], [2.0, 1.0])
        assert contains(hull, [1.5, 0.0])
        assert_shaped([low, high], table, out)

    def test_point_and_open_neighbour_coalesce_in_either_order(self):
        point = box(iv(1.0, 1.0))
        rest = box(iv(1.0, 2.0, lo_open=True))
        table = table_of(lattice(HALVES))
        for order in ([point, rest], [rest, point]):
            assert issued(order, table) == [closed([1.0], [2.0])]


class TestGuillotine:
    def test_l_shape_result_does_not_depend_on_list_order(self):
        corner = box(*[iv(0.0, 1.0, hi_open=True)] * 2)
        right = box(iv(1.0, 2.0), iv(0.0, 1.0, hi_open=True))
        above = box(iv(0.0, 1.0, hi_open=True), iv(1.0, 2.0))
        table = table_of(lattice(HALVES, HALVES))
        results = {
            frozenset(map(key, issued(order, table)))
            for order in itertools.permutations([corner, right, above])
        }
        # the first separating plane is x = 1: the column left of it tiles
        column = box(iv(0.0, 1.0, hi_open=True), iv(0.0, 2.0))
        assert results == {frozenset(map(key, [column, right]))}

    def test_planes_that_only_touch_do_not_separate(self):
        """``x = 1`` is in boxes on both sides of it (disjoint by ``y``): a
        cut there would let the two hulls share the plane and read its rows
        twice.  The far box keeps the five from coalescing at once."""
        quad = [
            box(iv(0.0, 1.0), iv(0.0, 1.0, hi_open=True)),
            box(iv(0.0, 1.0, hi_open=True), iv(1.0, 2.0)),
            box(iv(1.0, 2.0), iv(1.0, 2.0)),
            box(iv(1.0, 2.0, lo_open=True), iv(0.0, 1.0, hi_open=True)),
        ]
        far = closed([10.0, 0.0], [11.0, 2.0])
        table = table_of(lattice(np.arange(0.0, 11.5, 0.5), HALVES), page_size=128)
        assert pairwise_disjoint(quad + [far])
        out = issued(quad + [far], table)
        assert out == [closed([0.0, 0.0], [2.0, 2.0]), far]
        assert_shaped(quad + [far], table, out)

    def test_pinwheel_comes_back_unchanged(self):
        """Four arms around a hub that holds rows: no plane separates them,
        and their hull would read the hub."""
        arms = [
            box(iv(0.0, 2.0, hi_open=True), iv(0.0, 1.0, hi_open=True)),
            box(iv(2.0, 3.0), iv(0.0, 2.0, hi_open=True)),
            box(iv(1.0, 3.0, lo_open=True), iv(2.0, 3.0)),
            box(iv(0.0, 1.0), iv(1.0, 3.0)),
        ]
        axis = np.arange(0.0, 3.5, 0.5)
        table = table_of(lattice(axis, axis))
        assert pairwise_disjoint(arms)
        assert issued(arms, table) == arms
        assert_shaped(arms, table, arms)

    def test_deep_chain_needs_no_recursion(self):
        """Thousands of open boxes with a row in every gap between them: every
        level of the decomposition splits one box off and coalesces
        nothing."""
        n = 3 * sys.getrecursionlimit()
        chain = [box(iv(float(i), i + 1.0, True, True)) for i in range(n)]
        table = table_of(lattice(np.arange(0.0, n + 0.5, 0.5)))
        assert issued(chain, table) == chain

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_guillotine_decompositions(self, data):
        """Cut a lattice-aligned box by random planes, give every cut a
        random open/closed split (one side closed, or neither), drop a few
        pieces: the output is disjoint, covers every row of the input
        exactly once, stays in its hull, and every hull obeys the rule."""
        ndim = data.draw(st.integers(1, 3))
        axis = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        pieces = [closed([0.0] * ndim, [3.0] * ndim)]
        for _ in range(data.draw(st.integers(0, 5))):
            at = data.draw(st.integers(0, len(pieces) - 1))
            dim = data.draw(st.integers(0, ndim - 1))
            cut = data.draw(st.sampled_from(axis[1:-1]))
            below_open, above_open = data.draw(
                st.sampled_from([(True, False), (False, True), (True, True)])
            )
            lo, hi = pieces.pop(at)
            down = iv(-math.inf, cut, True, below_open)
            up = iv(cut, math.inf, above_open, True)
            halves = (
                (lo, hi[:dim] + [min(hi[dim], down[1])] + hi[dim + 1 :]),
                (lo[:dim] + [max(lo[dim], up[0])] + lo[dim + 1 :], hi),
            )
            pieces.extend(half for half in halves if holds_a_double(half))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pieces), max_size=len(pieces)))
        pieces = [piece for piece, kept in zip(pieces, keep) if kept]
        rows = lattice(*[data.draw(st.sampled_from([axis, axis[::2], axis[1::2]]))] * ndim)
        table = table_of(
            rows,
            page_size=data.draw(st.sampled_from([1, 4, 128])),
            plan=data.draw(st.sampled_from(["bitmap", "best_index"])),
        )
        assert pairwise_disjoint(pieces)
        assert_shaped(pieces, table, issued(pieces, table))


class TestForecast:
    data = np.random.default_rng(5).random((600, 3))

    def boxes(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        lo = rng.random((n, 3)) * 0.6
        return [closed(a, a + 0.1 + 0.3 * rng.random(3)) for a in lo]

    @pytest.mark.parametrize("plan", ["bitmap", "best_index", "seqscan"])
    def test_rows_follow_what_the_plan_charges(self, plan):
        table = DiskTable(self.data, plan=plan)
        boxes = self.boxes()
        cost = forecast_of(table, boxes)
        for box, rows, pages, seeks in zip(boxes, cost.rows, cost.pages, cost.seeks):
            counts = [
                table.estimate_count(dim, lo, hi)
                for dim, (lo, hi) in enumerate(zip(*box))
            ]
            want = {
                "bitmap": table.n * np.prod([c / table.n for c in counts]),
                "best_index": min(counts),
                "seqscan": table.n,
            }[plan]
            assert rows == pytest.approx(want)
            shape_ = table.cost_model.fetch_shape([math.ceil(want)])
            assert (pages, seeks) == (shape_[0][0], shape_[1][0])

    def test_best_index_forecast_is_what_the_table_charges(self):
        table = DiskTable(self.data, plan="best_index")
        boxes = self.boxes()
        cost = forecast_of(table, boxes)
        for box, rows, pages, seeks in zip(boxes, cost.rows, cost.pages, cost.seeks):
            part = table.range_query(*box)
            assert (rows, pages, seeks) == (part.rows_fetched, part.pages_read, part.seeks)

    def test_open_faces_are_honoured(self):
        table = table_of(lattice(HALVES, HALVES))
        shut, opened = forecast_of(
            table,
            [closed([0.0, 0.0], [1.0, 1.0]), box(*[iv(0.0, 1.0, True, True)] * 2)],
        ).rows
        assert (shut, opened) == (9.0, 1.0)

    def test_hull_is_priced_from_the_ranks(self):
        table = DiskTable(self.data)
        boxes = self.boxes()
        cost = forecast_of(table, boxes)
        members = np.array([1, 4, 7])
        lo = np.min([boxes[i][0] for i in members], axis=0)
        hi = np.max([boxes[i][1] for i in members], axis=0)
        direct = forecast_of(table, [closed(lo, hi)])
        assert cost.hull(members) == (direct.rows[0], direct.pages[0], direct.seeks[0])

    def test_a_box_is_priced_by_the_shards_it_touches(self):
        rows = lattice(np.arange(0.0, 8.0), np.arange(0.0, 4.0))
        fleet = ShardedTable(rows, 4, key_dim=0)  # two x values per shard
        one, two, none = [
            closed([0.0, 0.0], [1.0, 3.0]),
            closed([1.0, 0.0], [2.0, 3.0]),
            closed([0.0, 5.0], [7.0, 6.0]),  # empty marginal everywhere
        ]
        cost = forecast_of(fleet, [one, two, none])
        assert cost.seeks.tolist() == [1, 2, 0]
        assert cost.rows.tolist() == [8.0, 8.0, 0.0]
        for box, seeks in zip([one, two, none], cost.seeks):
            assert fleet.range_query(*box).seeks == seeks
        # the fleet's sum is not the plain table's product ...
        assert forecast_of(DiskTable(rows), [two]).seeks.tolist() == [1]
        # ... except at one shard, where it is the plain table's forecast
        single, plain = ShardedTable(self.data, 1), DiskTable(self.data)
        for field in ("rows", "pages", "seeks"):
            np.testing.assert_array_equal(
                getattr(forecast_of(single, self.boxes()), field),
                getattr(forecast_of(plain, self.boxes()), field),
            )

    @pytest.mark.parametrize("plan", ["bitmap", "best_index"])
    def test_a_fleet_prices_only_the_shards_its_region_meets(self, plan):
        """Pricing only the shards whose MBR meets the boxes' bounding box
        changes no price: every other shard has an empty marginal."""
        fleet = ShardedTable(
            self.data, 8, key_dim=0, table_factory=lambda r: DiskTable(r, plan=plan)
        )
        every = [shard.table for shard in fleet.shards]
        rng = np.random.default_rng(3)
        regions = [
            # boxes in shards 1 and 3 only: their hull spans shard 2
            [closed([0.13, 0.0, 0.0], [0.2, 1.0, 1.0]),
             closed([0.4, 0.2, 0.0], [0.45, 0.6, 1.0])],
            [closed([-np.inf, 0.5, 0.5], [0.05, np.inf, np.inf])],
            [closed([2.0, 0.0, 0.0], [3.0, 1.0, 1.0])],  # meets no shard
        ]
        for _ in range(30):
            lo = rng.random((int(rng.integers(1, 13)), 3)) * 1.2 - 0.1
            regions.append([closed(a, a + 0.3 * rng.random(3)) for a in lo])
        pruned_some = False
        for boxes in regions:
            rows = boxset(boxes, 3)
            pruned = fleet.forecast(rows.lo, rows.hi)
            whole = Forecast(every, rows.lo, rows.hi)
            pruned_some |= pruned._ranks.shape[0] < len(every)
            for field in ("rows", "pages", "seeks"):
                a, b = getattr(pruned, field), getattr(whole, field)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            members = [np.arange(len(boxes))]
            members += [rng.choice(len(boxes), size=2) for _ in range(3)]
            for chosen in members:
                assert pruned.hull(chosen) == whole.hull(chosen)
        assert pruned_some
        spanned = boxset(regions[0], 3)
        assert fleet.forecast(spanned.lo, spanned.hi)._ranks.shape[0] == 3

    def test_a_fleet_under_seqscan_prices_the_shards_it_can_read(self):
        fleet = ShardedTable(
            self.data, 4, key_dim=0,
            table_factory=lambda r: DiskTable(r, plan="seqscan"),
        )
        box_ = closed([0.0, 0.0, 0.0], [0.1, 1.0, 1.0])  # shard 0 only
        cost = forecast_of(fleet, [box_])
        assert cost.rows.tolist() == [fleet.shards[0].table.n]
        assert cost.rows[0] == fleet.range_query(*box_).rows_fetched

    def test_forecast_charges_no_io(self):
        table = DiskTable(self.data)
        before = table.stats.snapshot()
        shape(boxset(self.boxes(), 3), table.forecast)
        assert table.stats == before


class TestPlans:
    """The pass as :meth:`Planner.plan` runs it."""

    @pytest.mark.parametrize("region", [ApproximateMPR(1), ApproximateMPR(3), ExactMPR()])
    def test_every_plan_covers_its_region_inside_the_query(self, region):
        data = np.random.default_rng(2).random((1_500, 3))
        engine = CBCS(DiskTable(data), region_computer=region)
        filtered = coalesced = 0
        for constraints in WorkloadGenerator(data, seed=3).exploratory_stream(60):
            candidates = engine.cache.candidates(constraints, record=False)
            plan = engine.planner.plan(constraints, candidates, record=False)
            mpr = plan.mpr
            engine.query(constraints)
            if mpr is None:
                continue
            assert plan.region_boxes == len(mpr.boxes)
            assert plan.range_queries == len(plan.boxes) <= plan.region_boxes
            assert pairwise_disjoint(plan.boxes)
            assert (plan.boxes.lo >= constraints.lo).all()
            assert (plan.boxes.hi <= constraints.hi).all()
            fetch = plan.boxes
            in_region = mpr.boxes.union_mask(data)
            assert fetch.union_mask(data)[in_region].all()
            # cached points inside a planned box arrive via the fetch
            assert not fetch.union_mask(plan.reusable).any()
            filtered += len(plan.reusable) < len(mpr.surviving)
            issued_keys = set(map(key, rows_of(plan.boxes)))
            coalesced += not issued_keys <= set(map(key, rows_of(mpr.boxes)))
        assert coalesced > 0 and filtered > 0

    def test_explain_record_shows_the_decision(self):
        from repro.obs import Observability
        from repro.obs.explain import ExplainRecorder

        data = np.random.default_rng(2).random((1_500, 3))
        obs = Observability()
        obs.explainer = recorder = ExplainRecorder(keep=100)
        engine = CBCS(DiskTable(data), obs=obs)
        for constraints in WorkloadGenerator(data, seed=3).exploratory_stream(40):
            engine.query(constraints)
        shaped = 0
        for record in recorder.records:
            plan, predicted = record["plan"], record["predicted_io_ms"]
            assert set(predicted) == {"plan", "region", "one_box"}
            assert plan["range_queries"] == len(record["boxes"]) <= plan["region_boxes"]
            # shaping never predicts a dearer plan than the region's own
            assert predicted["plan"] <= predicted["region"]
            assert predicted["plan"] == pytest.approx(record["predicted"]["io_ms"])
            if record["case"] == "miss":
                assert predicted["plan"] == predicted["region"] == predicted["one_box"]
            shaped += plan["range_queries"] < plan["region_boxes"]
        assert shaped > 0
        engine.close()

    def test_a_miss_is_not_shaped(self):
        """The one-box plan of a miss is issued even when the table would
        answer it without a seek: caching off never reaches the pass."""
        data = np.random.default_rng(2).random((200, 2))
        engine = CBCS(DiskTable(data), cache_results=False)
        outcome = engine.query(Constraints([2.0, 2.0], [3.0, 3.0]))
        assert outcome.io.range_queries == outcome.io.empty_queries == 1
