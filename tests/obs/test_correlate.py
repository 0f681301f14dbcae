"""Tests for query-id minting, context binding, and artifact joining."""

import json
import threading

import numpy as np

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import Observability
from repro.obs.correlate import (
    QueryCorrelation,
    bind,
    correlate,
    current_query_id,
    main,
    render_correlation,
)
from repro.obs.sinks import JsonlSink, RingBufferSink
from repro.storage.table import DiskTable


class TestBind:
    def test_default_is_none(self):
        assert current_query_id() is None

    def test_bind_installs_and_restores(self):
        with bind("q1"):
            assert current_query_id() == "q1"
        assert current_query_id() is None

    def test_bind_none_is_a_noop(self):
        with bind("outer"):
            with bind(None):
                assert current_query_id() == "outer"
            assert current_query_id() == "outer"

    def test_nested_binds_shadow_and_restore(self):
        with bind("a"):
            with bind("b"):
                assert current_query_id() == "b"
            assert current_query_id() == "a"

    def test_bind_restores_after_exception(self):
        try:
            with bind("q1"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_query_id() is None

    def test_threads_do_not_share_bindings(self):
        seen = {}

        def worker():
            seen["worker"] = current_query_id()

        with bind("main-q"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["worker"] is None  # no implicit propagation


class TestQueryCorrelation:
    def test_ids_are_monotone_and_prefixed(self):
        corr = QueryCorrelation()
        assert corr.new_id() == "q00000001"
        assert corr.new_id() == "q00000002"

    def test_custom_prefix(self):
        assert QueryCorrelation(prefix="svc").new_id() == "svc00000001"

    def test_ids_unique_under_concurrency(self):
        corr = QueryCorrelation()
        ids = []
        lock = threading.Lock()

        def mint():
            mine = [corr.new_id() for _ in range(200)]
            with lock:
                ids.extend(mine)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == len(ids) == 800


def _run_instrumented(tmp_path, n_queries=6):
    obs = Observability()
    obs.tracer.add_sink(JsonlSink(tmp_path / "trace.jsonl"))
    obs.add_outcome_sink(JsonlSink(tmp_path / "queries.jsonl"))
    rng = np.random.default_rng(0)
    engine = CBCS(DiskTable(rng.random((500, 3)), obs=obs), obs=obs)
    outcomes = [
        engine.query(
            Constraints(lo=rng.random(3) * 0.3, hi=0.5 + rng.random(3) * 0.5)
        )
        for _ in range(n_queries)
    ]
    obs.close()
    engine.close()
    return outcomes


class TestEngineCorrelation:
    def test_every_outcome_gets_a_distinct_id(self, tmp_path):
        outcomes = _run_instrumented(tmp_path)
        ids = [o.query_id for o in outcomes]
        assert all(ids)
        assert len(set(ids)) == len(ids)

    def test_all_spans_of_a_query_carry_its_id(self, tmp_path):
        obs = Observability()
        ring = RingBufferSink()
        obs.tracer.add_sink(ring)
        rng = np.random.default_rng(1)
        engine = CBCS(DiskTable(rng.random((500, 3)), obs=obs), obs=obs)
        outcome = engine.query(
            Constraints(lo=np.zeros(3), hi=np.full(3, 0.6))
        )
        assert outcome.query_id is not None
        for span in ring.spans:
            assert (span["attrs"] or {})["query_id"] == outcome.query_id
        engine.close()

    def test_disabled_obs_mints_no_id(self):
        rng = np.random.default_rng(3)
        engine = CBCS(DiskTable(rng.random((200, 3))))
        outcome = engine.query(
            Constraints(lo=np.zeros(3), hi=np.full(3, 0.7))
        )
        assert outcome.query_id is None
        assert outcome.as_record()["query_id"] is None
        engine.close()

    def test_caller_supplied_id_wins(self):
        obs = Observability()
        rng = np.random.default_rng(4)
        engine = CBCS(DiskTable(rng.random((200, 3)), obs=obs), obs=obs)
        outcome = engine.query(
            Constraints(lo=np.zeros(3), hi=np.full(3, 0.7)),
            query_id="svc00000042",
        )
        assert outcome.query_id == "svc00000042"
        engine.close()

    def test_executed_plan_is_stamped_but_explain_is_not(self):
        obs = Observability()
        ring = RingBufferSink()
        obs.tracer.add_sink(ring)
        rng = np.random.default_rng(5)
        engine = CBCS(DiskTable(rng.random((500, 3)), obs=obs), obs=obs)
        base = Constraints(lo=np.zeros(3), hi=np.full(3, 0.6))
        refine = Constraints(lo=np.zeros(3), hi=np.full(3, 0.5))
        engine.query(base)
        assert engine.explain(refine).query_id is None
        engine.close()


class TestCorrelateJoin:
    def test_correlate_joins_spans_and_outcome(self, tmp_path):
        outcomes = _run_instrumented(tmp_path)
        target = outcomes[0].query_id
        joined = correlate(tmp_path, target)
        assert joined["outcome"]["query_id"] == target
        assert joined["spans"]
        assert all(
            s["attrs"]["query_id"] == target for s in joined["spans"]
        )

    def test_correlate_missing_dir_is_empty_not_error(self, tmp_path):
        joined = correlate(tmp_path / "absent", "q00000001")
        assert joined["spans"] == []
        assert joined["outcome"] is None

    def test_torn_jsonl_lines_are_skipped(self, tmp_path):
        (tmp_path / "trace.jsonl").write_text(
            json.dumps({"name": "x", "attrs": {"query_id": "q1"}})
            + "\n{truncated"
        )
        joined = correlate(tmp_path, "q1")
        assert len(joined["spans"]) == 1

    def test_render_correlation_mentions_outcome_and_spans(self, tmp_path):
        outcomes = _run_instrumented(tmp_path)
        text = render_correlation(correlate(tmp_path, outcomes[0].query_id))
        assert outcomes[0].query_id in text
        assert "cbcs.query" in text

    def test_cli_exit_codes(self, tmp_path, capsys):
        outcomes = _run_instrumented(tmp_path)
        assert main([str(tmp_path), outcomes[0].query_id]) == 0
        assert main([str(tmp_path), "q99999999"]) == 1
        capsys.readouterr()

    def test_cli_json_output(self, tmp_path, capsys):
        outcomes = _run_instrumented(tmp_path)
        assert main([str(tmp_path), outcomes[0].query_id, "--json"]) == 0
        joined = json.loads(capsys.readouterr().out)
        assert joined["query_id"] == outcomes[0].query_id


class _GatedEngine:
    """Delegates to a real CBCS but blocks in query() until released, so a
    test can deterministically pile a follower onto an in-flight leader."""

    def __init__(self, engine):
        self.engine = engine
        self.obs = engine.obs
        self.started = threading.Event()
        self.release = threading.Event()

    def query(self, constraints, query_id=None, deadline=None):
        self.started.set()
        assert self.release.wait(timeout=10.0)
        return self.engine.query(constraints, query_id=query_id)

    def close(self):
        self.engine.close()


def _run_coalesced(tmp_path):
    """Serve two identical queries where the second provably piggybacks;
    returns (parent_outcome, child_outcome) with artifacts in tmp_path."""
    from repro.service import QueryService

    obs = Observability()
    obs.tracer.add_sink(JsonlSink(tmp_path / "trace.jsonl"))
    obs.add_outcome_sink(JsonlSink(tmp_path / "queries.jsonl"))
    rng = np.random.default_rng(11)
    engine = _GatedEngine(CBCS(DiskTable(rng.random((400, 3)), obs=obs), obs=obs))
    c = Constraints(lo=np.zeros(3), hi=np.full(3, 0.7))
    with QueryService(engine, workers=1) as svc:
        leader = svc.submit(c)
        assert engine.started.wait(timeout=10.0)
        follower = svc.submit(c)  # joins the in-flight leader
        engine.release.set()
        parent = leader.result(timeout=10.0)
        child = follower.result(timeout=10.0)
    obs.close()
    engine.close()
    assert child.served_by == parent.query_id  # sanity: it did coalesce
    return parent, child


class TestServedByJoin:
    """Satellite 2: a coalesced request is joinable by its *own* query_id;
    the join follows ``served_by`` to the executing query's spans."""

    def test_child_outcome_record_carries_served_by(self, tmp_path):
        parent, child = _run_coalesced(tmp_path)
        joined = correlate(tmp_path, child.query_id)
        assert joined["outcome"]["query_id"] == child.query_id
        assert joined["served_by"] == parent.query_id

    def test_parent_spans_are_joined_one_hop(self, tmp_path):
        parent, child = _run_coalesced(tmp_path)
        joined = correlate(tmp_path, child.query_id)
        # the child's own spans include the zero-duration coalesce event...
        assert any(s["name"] == "service.coalesced" for s in joined["spans"])
        # ...and the executing query's real work appears as parent_spans
        parent_names = {s["name"] for s in joined["parent_spans"]}
        assert "cbcs.query" in parent_names
        assert all(
            s["attrs"]["query_id"] == parent.query_id
            for s in joined["parent_spans"]
        )

    def test_directly_executed_query_has_no_parent(self, tmp_path):
        parent, _child = _run_coalesced(tmp_path)
        joined = correlate(tmp_path, parent.query_id)
        assert joined["served_by"] is None
        assert joined["parent_spans"] == []

    def test_render_mentions_served_by(self, tmp_path):
        parent, child = _run_coalesced(tmp_path)
        text = render_correlation(correlate(tmp_path, child.query_id))
        assert "served by:" in text
        assert parent.query_id in text
        assert "cbcs.query" in text  # the parent's spans render too
