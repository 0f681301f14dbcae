"""What an exact hit costs, and what trimming that cost must not change.

An exact hit (C' = C) answers from the cached skyline with nothing to
fetch; its cost is the engine's fixed per-query glue around a key probe.
:class:`TestExactHitCallBudget` counts that glue in Python calls -- a
deterministic, timing-free guard -- and checks the hit still runs the one
path (``query -> _serve -> _plan -> _execute``) without any of the planning
an overlap hit pays for.  :class:`TestObservabilityParity` pins, as
literals, the spans, counters and EXPLAIN records of an exact and a
fetching hit with observability on, and the outcome's ``query_id`` with it
off.
"""

import sys

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.explain import ExplainRecorder
from repro.obs.sinks import RingBufferSink
from repro.storage.table import DiskTable

#: Python calls one exact hit may make on a ``DiskTable`` engine with
#: observability off (sys.setprofile "call" events, ``query`` itself
#: included), as counted on CPython 3.11.  ``touch`` writes the item's
#: replacement stamps as two attributes, with no bounds-table column to
#: keep in sync (38 before).
EXACT_HIT_CALL_BUDGET = 35

#: What only an overlap hit or a miss runs: strategy scoring, region
#: computation, plan shaping's forecast and the fetch.
NOT_ON_AN_EXACT_HIT = {"_scores", "compute", "compute_region", "forecast", "range_query"}

#: Hand-laid 2-D points: the box [0.2,0.8]^2 has the three-point staircase
#: skyline {(0.25,0.75), (0.40,0.50), (0.75,0.25)}; (0.85,0.22) lies just
#: past its upper bound on dimension 0.
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
BASE = ([0.2, 0.2], [0.8, 0.8])
#: case c against BASE (upper bound on dimension 0 raised): fetches one box
WIDER = ([0.2, 0.2], [0.9, 0.8])


def profiled_calls(engine, constraints):
    """The code objects of every Python call ``engine.query`` makes."""
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(hook)
    try:
        outcome = engine.query(constraints)
    finally:
        sys.setprofile(None)
    return outcome, calls


class TestExactHitCallBudget:
    def hit(self):
        engine = CBCS(DiskTable(np.random.default_rng(0).random((500, 3))))
        engine.query(Constraints([0.1, 0.1, 0.1], [0.6, 0.7, 0.8]))
        engine.query(Constraints([0.1, 0.1, 0.1], [0.6, 0.7, 0.8]))
        # a constraints object of its own, as a repeated request brings
        return profiled_calls(engine, Constraints([0.1, 0.1, 0.1], [0.6, 0.7, 0.8]))

    def test_an_exact_hit_stays_within_its_call_budget(self):
        outcome, calls = self.hit()
        assert outcome.case == "exact"
        assert len(calls) <= EXACT_HIT_CALL_BUDGET, sorted(
            f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}" for code in calls
        )

    def test_an_exact_hit_runs_the_one_path_and_plans_nothing(self):
        _, calls = self.hit()
        names = [code.co_name for code in calls]
        assert [n for n in names if n in ("query", "_serve", "_plan", "_execute")] == [
            "query",
            "_serve",
            "_plan",
            "_execute",
        ]
        assert "select" in names and "plan" in names and "touch" in names
        assert not NOT_ON_AN_EXACT_HIT & set(names)


def observed_engine():
    sink = RingBufferSink()
    obs = Observability(metrics=MetricsRegistry(), tracer=Tracer(sinks=[sink]))
    obs.explainer = ExplainRecorder(keep=10)
    return CBCS(DiskTable(DATA), obs=obs), obs, sink


def spans_of(sink, query_id):
    """(name, depth, attrs) of one query's spans, in emission order."""
    return [
        (span["name"], span["depth"], span["attrs"])
        for span in sink.spans
        if span["attrs"]["query_id"] == query_id
    ]


class TestObservabilityParity:
    """The records an exact and a fetching hit leave with observability on,
    pinned as literals: trimming the per-query glue must not change them."""

    def run(self):
        engine, obs, sink = observed_engine()
        outcomes = [
            engine.query(Constraints(*BASE)),  # miss
            engine.query(Constraints(*BASE)),  # exact hit
            engine.query(Constraints(*WIDER)),  # case c: fetches one box
        ]
        return outcomes, obs, sink

    def test_outcomes_carry_the_minted_ids(self):
        outcomes, _, _ = self.run()
        assert [(o.case, o.query_id) for o in outcomes] == [
            ("miss", "q00000001"),
            ("exact", "q00000002"),
            ("case_c", "q00000003"),
        ]

    def test_span_names_and_attributes(self):
        _, _, sink = self.run()
        assert spans_of(sink, "q00000002") == [
            ("cache.search", 1, {"query_id": "q00000002"}),
            ("case.classify", 1, {"case": "exact", "item_id": 1, "query_id": "q00000002"}),
            ("stage.processing", 1, {"query_id": "q00000002"}),
            (
                "cbcs.query",
                0,
                {
                    "cache_hit": True,
                    "case": "exact",
                    "query_id": "q00000002",
                    "stable": True,
                    "strategy": "MaxOverlapSP",
                },
            ),
        ]
        assert spans_of(sink, "q00000003") == [
            ("cache.search", 1, {"query_id": "q00000003"}),
            (
                "cache.select",
                1,
                {
                    "candidates": 1,
                    "item_id": 1,
                    "query_id": "q00000003",
                    "strategy": "MaxOverlapSP",
                },
            ),
            ("stability.check", 3, {"expelled": 0, "query_id": "q00000003", "stable": True}),
            (
                "mpr.compute",
                2,
                {
                    "boxes": 1,
                    "invalidated_boxes": 0,
                    "query_id": "q00000003",
                    "stable": True,
                    "surviving": 3,
                },
            ),
            ("case.classify", 1, {"case": "case_c", "item_id": 1, "query_id": "q00000003"}),
            ("stage.processing", 1, {"query_id": "q00000003"}),
            (
                "table.range_query",
                1,
                {
                    "plan": "bitmap",
                    "points_read": 1,
                    "query_id": "q00000003",
                    "rows": 1,
                    "rows_fetched": 1,
                    "simulated_io_ms": 5.5,
                },
            ),
            ("stage.fetch_wall", 1, {"query_id": "q00000003"}),
            (
                "skyline.merge",
                1,
                {"cached": 3, "fetched": 1, "query_id": "q00000003", "skyline": 4},
            ),
            ("stage.skyline", 1, {"query_id": "q00000003"}),
            (
                "cbcs.query",
                0,
                {
                    "cache_hit": True,
                    "case": "case_c",
                    "query_id": "q00000003",
                    "stable": True,
                    "strategy": "MaxOverlapSP",
                },
            ),
        ]

    def test_lookup_and_selection_counters(self):
        _, obs, _ = self.run()
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in obs.metrics.as_dict()["counters"]
            if c["name"] in ("cache_lookups_total", "strategy_selections_total")
        }
        assert counters == {
            ("cache_lookups_total", (("outcome", "hit"), ("strategy", "MaxOverlapSP"))): 2.0,
            ("cache_lookups_total", (("outcome", "miss"), ("strategy", "MaxOverlapSP"))): 1.0,
            ("strategy_selections_total", (("strategy", "MaxOverlapSP"),)): 1.0,
        }

    def test_explain_records(self):
        _, obs, _ = self.run()
        _, exact, fetching = obs.explainer.records
        assert exact == {
            "actual": {"io_ms": 0.0, "pages": 0, "points": 0, "seeks": 0},
            "boxes": [],
            "cache_hit": True,
            "cache_items": 1,
            "candidates": [
                {
                    "case": "exact",
                    "item_id": 1,
                    "overlap_volume": 0.3600000000000001,
                    "rejection": None,
                    "score": [1.0, 0.3600000000000001],
                    "selected": True,
                    "skyline_size": 3,
                }
            ],
            "case": "exact",
            "degraded": None,
            "method": "CBCS[aMPR(1NN)]",
            "no_candidates_reason": None,
            "plan": {
                "cache_hit": True,
                "case": "exact",
                "estimated_points": 0,
                "item_id": 1,
                "range_queries": 0,
                "region_boxes": 0,
                "reusable_points": 3,
                "stable": True,
            },
            "predicted": {"io_ms": 0.0, "pages": 0, "points": 0, "seeks": 0},
            "predicted_io_ms": {"one_box": 5.5, "plan": 0.0, "region": 0.0},
            "query_id": "q00000002",
            "schema": 1,
            "stable": True,
            "strategy": "MaxOverlapSP",
        }
        one_box = {"io_ms": 5.5, "pages": 1, "points": 1, "seeks": 1}
        predicted = {"io_ms": 5.5, "pages": 1, "points": 0, "seeks": 1}
        assert fetching == {
            "actual": one_box,
            "boxes": [
                {
                    "actual": one_box,
                    "box": {
                        "intervals": [
                            {"hi": 0.9, "hi_open": False, "lo": 0.8000000000000002, "lo_open": False},
                            {"hi": 0.49999999999999994, "hi_open": False, "lo": 0.2, "lo_open": False},
                        ]
                    },
                    "predicted": predicted,
                }
            ],
            "cache_hit": True,
            "cache_items": 1,
            "candidates": [
                {
                    "case": "case_c",
                    "item_id": 1,
                    "overlap_volume": 0.3600000000000001,
                    "rejection": None,
                    "score": [1.0, 0.3600000000000001],
                    "selected": True,
                    "skyline_size": 3,
                }
            ],
            "case": "case_c",
            "degraded": None,
            "method": "CBCS[aMPR(1NN)]",
            "no_candidates_reason": None,
            "plan": {
                "cache_hit": True,
                "case": "case_c",
                "estimated_points": 0,
                "item_id": 1,
                "range_queries": 1,
                "region_boxes": 1,
                "reusable_points": 3,
                "stable": True,
            },
            "predicted": predicted,
            "predicted_io_ms": {"one_box": 5.5, "plan": 5.5, "region": 5.5},
            "query_id": "q00000003",
            "schema": 1,
            "stable": True,
            "strategy": "MaxOverlapSP",
        }

    @pytest.mark.parametrize("bounds", [BASE, WIDER], ids=["exact", "fetching"])
    def test_with_observability_off_a_callers_id_still_lands_on_the_outcome(
        self, bounds
    ):
        engine = CBCS(DiskTable(DATA))
        engine.query(Constraints(*BASE))
        outcome = engine.query(Constraints(*bounds), query_id="svc-7")
        assert outcome.query_id == "svc-7"
        assert engine.query(Constraints(*bounds)).query_id is None
