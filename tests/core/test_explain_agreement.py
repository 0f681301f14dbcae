"""Explain-vs-execute agreement: the plan must predict what query() does.

``CBCS.explain`` runs the same deterministic cache search, strategy
selection, and region computation as ``query`` -- so on any workload with a
deterministic strategy, the predicted case and range-query count must match
the execution exactly, for hits, misses, and the exact-match case alike.
``explain()`` and ``query()`` share ``Planner.plan()``, so this holds by
construction; it is pinned here by calling one right before the other and
comparing the case, the range-query count and the boxes themselves (the
executed boxes are read off the query's EXPLAIN record).
"""

import numpy as np
import pytest

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cbcs import CBCS
from repro.core.strategies import CostBased, RandomStrategy, default_strategy_suite
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.obs import Observability
from repro.obs.explain import ExplainRecorder
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator


def recording_engine(data, **kwargs):
    obs = Observability()
    obs.explainer = ExplainRecorder(keep=1)
    return CBCS(DiskTable(data), obs=obs, **kwargs), obs.explainer


def assert_plan_matches_execution(engine, recorder, constraints):
    """explain() then query(): same case, same range queries, same boxes."""
    plan = engine.explain(constraints)
    outcome = engine.query(constraints)
    [record] = recorder.records
    assert plan.case == outcome.case == record["case"], (
        f"explain predicted case {plan.case!r}, query executed "
        f"{outcome.case!r} for {constraints}"
    )
    assert plan.range_queries == outcome.range_queries, (
        f"case {plan.case}: explain planned {plan.range_queries} range "
        f"queries, query issued {outcome.range_queries}"
    )
    assert plan.cache_hit == outcome.cache_hit
    planned = plan.to_dict()
    assert [row["box"] for row in record["boxes"]] == planned["boxes"]
    assert all(row["actual"] is not None for row in record["boxes"])
    # the record's plan summary and scoring table are the explain() plan's
    assert record["plan"] == {key: planned[key] for key in record["plan"]}
    assert record["candidates"] == planned.get("candidates_scored", [])
    return outcome


@pytest.mark.parametrize("region", [ApproximateMPR(k=1), ExactMPR()])
def test_plan_matches_execution_across_workload(region):
    data = generate("independent", 3000, 3, seed=11)
    engine, recorder = recording_engine(data, region_computer=region)
    gen = WorkloadGenerator(data, seed=12)
    queries = gen.exploratory_stream(30)
    # verbatim repeats of already-cached queries force exact matches
    queries = queries + queries[:4]

    seen_cases = {
        assert_plan_matches_execution(engine, recorder, constraints).case
        for constraints in queries
    }
    # the workload must actually exercise all three top-level shapes
    assert "miss" in seen_cases
    assert "exact" in seen_cases
    assert seen_cases - {"miss", "exact"}, "no cache-hit refinement executed"


BASE = Constraints([0.2, 0.2], [0.8, 0.8])


@pytest.mark.parametrize(
    "case, refined",
    [
        ("exact", BASE),
        ("case_a", Constraints([0.1, 0.2], [0.8, 0.8])),  # lower decreased
        ("case_b", Constraints([0.2, 0.2], [0.8, 0.7])),  # upper decreased
        ("case_c", Constraints([0.2, 0.2], [0.9, 0.8])),  # upper increased
        ("case_d", Constraints([0.3, 0.2], [0.8, 0.8])),  # lower increased
        ("general_stable", Constraints([0.2, 0.2], [0.7, 0.9])),
        ("general_unstable", Constraints([0.3, 0.1], [0.9, 0.8])),
    ],
)
@pytest.mark.parametrize("region", [ApproximateMPR(k=1), ExactMPR()])
def test_every_overlap_case_is_predicted(region, case, refined):
    data = generate("independent", 1500, 2, seed=3)
    engine, recorder = recording_engine(data, region_computer=region)
    miss = assert_plan_matches_execution(engine, recorder, BASE)
    assert miss.case == "miss"
    outcome = assert_plan_matches_execution(engine, recorder, refined)
    assert outcome.case == case


def test_exact_match_predicts_zero_io():
    data = generate("independent", 1000, 2, seed=5)
    engine = CBCS(DiskTable(data))
    gen = WorkloadGenerator(data, seed=6)
    first = gen.initial_query()
    engine.query(first)
    plan = engine.explain(first)
    outcome = engine.query(first)
    assert plan.case == outcome.case == "exact"
    assert plan.range_queries == outcome.range_queries == 0
    assert outcome.points_read == 0


def test_miss_prediction_bounds_actual_reads():
    data = generate("independent", 2000, 3, seed=7)
    engine = CBCS(DiskTable(data))
    gen = WorkloadGenerator(data, seed=8)
    constraints = gen.initial_query()
    plan = engine.explain(constraints)
    outcome = engine.query(constraints)
    assert plan.case == outcome.case == "miss"
    assert plan.range_queries == outcome.range_queries == 1
    # the forecast (product of the exact marginals) estimates the rows in
    # the box: relative error below 1, the calibration ledger's gate
    assert abs(plan.estimated_points - outcome.points_read) < max(
        outcome.points_read, 1
    )


def test_plan_to_dict_is_strict_json():
    import json

    data = generate("independent", 500, 2, seed=1)
    engine = CBCS(DiskTable(data))
    gen = WorkloadGenerator(data, seed=2)
    q = gen.initial_query()
    engine.query(q)
    plan = engine.explain(gen.refine(q))
    payload = plan.to_dict()
    json.dumps(payload, allow_nan=False)
    assert payload["case"] == plan.case
    assert len(payload["boxes"]) == plan.range_queries
    for box in payload["boxes"]:
        for iv in box["intervals"]:
            assert set(iv) == {"lo", "hi", "lo_open", "hi_open"}


def test_explain_under_random_names_the_next_pick_and_draws_nothing():
    """A dry run must not advance ``RandomStrategy``'s generator: explain()
    names the same item every time, the query after it uses that item, and
    the query picks what it picks with no explain before it."""
    data = generate("independent", 2000, 2, seed=5)
    regions = [
        Constraints([0.1 * i, 0.1 * i], [0.6 + 0.05 * i, 0.6 + 0.05 * i])
        for i in range(5)
    ]
    query = Constraints([0.25, 0.25], [0.65, 0.65])
    picks = []
    for explain_first in (True, False):
        engine = CBCS(DiskTable(data), strategy=RandomStrategy(seed=3))
        engine.warm(regions)
        if explain_first:
            named = {engine.explain(query).item_id for _ in range(3)}
            assert len(named) == 1
        plan = engine.planner.plan
        seen = []
        engine.planner.plan = lambda *a, **k: seen.append(plan(*a, **k)) or seen[-1]
        engine.query(query)
        picks.append(seen[0].item.item_id)
        if explain_first:
            assert named == {picks[0]}
    assert picks[0] == picks[1]


@pytest.mark.parametrize(
    "name", [s.name for s in default_strategy_suite()] + [CostBased.name]
)
def test_an_exact_repeat_is_the_key_probe_under_every_strategy(name):
    """C' = C is found by the cache's key probe, whatever the strategy:
    explain() names the item query() serves, case ``exact``; the EXPLAIN
    record lists that one candidate, no boxes and zero cost; the strategy
    is never consulted (no selection counted, ``Random`` draws nothing)."""
    data = generate("independent", 2000, 2, seed=5)
    table = DiskTable(data)
    region = ApproximateMPR(k=1)
    strategy = (
        CostBased(table, region)
        if name == CostBased.name
        else next(s for s in default_strategy_suite(seed=4) if s.name == name)
    )
    obs = Observability()
    obs.explainer = ExplainRecorder(keep=1)
    engine = CBCS(table, strategy=strategy, region_computer=region, obs=obs)
    query = Constraints([0.25, 0.25], [0.65, 0.65])
    # a superset that ties the exact item on overlap volume, listed first,
    # and smaller neighbours on every side
    engine.warm(
        [Constraints([0.1, 0.1], [0.9, 0.9]), query]
        + [Constraints([0.1 * i, 0.1 * i], [0.5 + 0.05 * i] * 2) for i in range(4)]
    )
    exact = engine.cache.exact_match(query)
    selections = obs.metrics.counter_value(
        "strategy_selections_total", strategy=strategy.name
    )
    rng = getattr(strategy, "_rng", None)
    state = None if rng is None else rng.bit_generator.state

    plan = engine.explain(query)
    outcome = engine.query(query)
    [record] = obs.explainer.records
    assert plan.case == outcome.case == record["case"] == "exact"
    assert plan.item_id == record["plan"]["item_id"] == exact.item_id
    np.testing.assert_array_equal(outcome.skyline, exact.skyline)
    assert plan.candidates == 1
    assert [row["item_id"] for row in record["candidates"]] == [exact.item_id]
    assert record["candidates"][0]["selected"]
    assert record["boxes"] == []
    zero = {"points": 0, "pages": 0, "seeks": 0, "io_ms": 0.0}
    assert record["predicted"] == record["actual"] == zero
    assert record["predicted_io_ms"]["plan"] == 0.0
    assert outcome.range_queries == outcome.points_read == 0
    assert (
        obs.metrics.counter_value("strategy_selections_total", strategy=strategy.name)
        == selections
    )
    if rng is not None:
        assert rng.bit_generator.state == state
