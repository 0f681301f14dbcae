"""How a plan's boxes render, pinned as JSON text.

``QueryPlan.to_dict()["boxes"]`` and an EXPLAIN record's ``boxes[*].box``
render the same closed bounds the same way: one ``{"lo", "hi", "lo_open",
"hi_open"}`` entry per dimension, in that key order, a face at +-inf as
``null``, and both flags ``false`` (every plan row is closed).  The
literals below were written before the rendering moved onto ``BoxSet``
rows; the JSON text is compared, so key order and float spelling count.
"""

import json
import math

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.explain import ExplainRecorder
from repro.obs.sinks import RingBufferSink
from repro.storage.table import DiskTable

#: The 2-D points of ``test_exact_hit_cost.py``: under ``MISS`` the skyline
#: is {(0.12, 0.60), (0.40, 0.50), (0.75, 0.25)}.
DATA = np.array(
    [
        [0.25, 0.75],
        [0.40, 0.50],
        [0.75, 0.25],
        [0.60, 0.60],
        [0.70, 0.70],
        [0.55, 0.65],
        [0.12, 0.60],
        [0.60, 0.12],
        [0.85, 0.22],
        [0.22, 0.85],
    ]
)

INF = math.inf
#: unbounded below on dimension 0 and above on dimension 1
MISS = Constraints([-INF, 0.2], [0.8, INF])
#: case c against MISS: new territory past x = 0.8, cut below y = 0.25 by
#: the survivor (0.75, 0.25)
WIDER = Constraints([-INF, 0.2], [0.9, INF])
#: case a against MISS: new territory below y = 0.2, its -inf face kept
DEEPER = Constraints([-INF, 0.1], [0.8, INF])

RENDERED = {
    "miss": (
        '[{"intervals": ['
        '{"lo": null, "hi": 0.8, "lo_open": false, "hi_open": false}, '
        '{"lo": 0.2, "hi": null, "lo_open": false, "hi_open": false}]}]'
    ),
    "wider": (
        '[{"intervals": ['
        '{"lo": 0.8000000000000002, "hi": 0.9, "lo_open": false, "hi_open": false}, '
        '{"lo": 0.2, "hi": 0.24999999999999997, "lo_open": false, "hi_open": false}]}]'
    ),
    "deeper": (
        '[{"intervals": ['
        '{"lo": null, "hi": 0.8, "lo_open": false, "hi_open": false}, '
        '{"lo": 0.1, "hi": 0.19999999999999998, "lo_open": false, "hi_open": false}]}]'
    ),
}

CASES = {
    "miss": (None, "miss"),
    "wider": (WIDER, "case_c"),
    "deeper": (DEEPER, "case_a"),
}


def observed_engine():
    tracer = Tracer(sinks=[RingBufferSink()])
    obs = Observability(metrics=MetricsRegistry(), tracer=tracer)
    obs.explainer = ExplainRecorder(keep=10)
    return CBCS(DiskTable(DATA), obs=obs), obs


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_and_explain_render_the_same_pinned_boxes(name):
    engine, obs = observed_engine()
    follow_up, case = CASES[name]
    query = MISS
    if follow_up is not None:
        engine.query(MISS)
        query = follow_up
    plan = engine.explain(query)
    assert plan.case == case
    assert json.dumps(plan.to_dict()["boxes"]) == RENDERED[name]
    outcome = engine.query(query)
    assert outcome.case == case
    record = obs.explainer.records[-1]
    assert json.dumps([row["box"] for row in record["boxes"]]) == RENDERED[name]
    assert len(record["boxes"]) == record["plan"]["range_queries"] == 1
