"""The engine reads its table through ``table.range_query``, looked up per
call: a wrapper installed on the table instance after the engine is built
sees every planned box of a query and every refresh a delete triggers."""

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable

QUERIES = [
    Constraints([0.1, 0.1], [0.7, 0.7]),
    Constraints([0.2, 0.1], [0.8, 0.7]),  # overlaps the first: a partial hit
    Constraints([0.1, 0.1], [0.7, 0.7]),  # exact repeat: fetches nothing
    Constraints([0.0, 0.3], [0.5, 0.9]),
]


def spy_on(engine):
    """Replace ``engine.table.range_query`` and ``engine.planner.plan`` on
    the instances; return the lists the wrappers append to."""
    reads, plans = [], []
    table, planner = engine.table, engine.planner
    range_query, plan = table.range_query, planner.plan

    def traced_range_query(lo, hi):
        reads.append((tuple(lo), tuple(hi)))
        return range_query(lo, hi)

    def traced_plan(*args, **kwargs):
        planned = plan(*args, **kwargs)
        plans.append(planned.plan)
        return planned

    table.range_query = traced_range_query
    planner.plan = traced_plan
    return reads, plans


@pytest.mark.parametrize("resilience", [None, True])
def test_every_planned_box_reaches_the_table_instance(resilience):
    engine = CBCS(DiskTable(independent(400, 2, seed=4)), resilience=resilience)
    reads, plans = spy_on(engine)
    cases = []
    for constraints in QUERIES:
        del reads[:], plans[:]
        outcome = engine.query(constraints)
        (plan,) = plans
        assert len(reads) == len(plan.boxes) == outcome.io.range_queries
        assert reads == list(zip(map(tuple, plan.boxes.lo), map(tuple, plan.boxes.hi)))
        cases.append(outcome.case)
    assert cases[0] == "miss" and cases[2] == "exact"
    assert cases[1] not in ("miss", "exact")


@pytest.mark.parametrize("resilience", [None, True])
def test_every_refresh_reaches_the_table_instance(resilience):
    engine = CBCS(
        DiskTable(independent(400, 2, seed=4)),
        resilience=resilience,
    )
    for constraints in QUERIES:
        engine.query(constraints)

    def holders(point):
        return [
            item.constraints.key()
            for item in engine.cache
            if np.all(item.skyline == point, axis=1).any()
        ]

    points = np.vstack([item.skyline for item in engine.cache])
    victim = max(points, key=lambda p: len(holders(p)))
    refreshed = holders(victim)
    assert len(refreshed) >= 2  # one delete, several refreshes
    rowid = int(np.flatnonzero(np.all(engine.table.data_view() == victim, axis=1))[0])
    reads, _ = spy_on(engine)
    engine.delete_points([rowid])
    assert sorted(reads) == sorted(refreshed)
