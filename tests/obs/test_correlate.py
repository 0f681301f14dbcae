"""Tests for query-id minting, context binding, and joinable artifacts."""

import json
import threading

import numpy as np

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import Observability
from repro.obs.correlate import QueryCorrelation, bind, current_query_id
from repro.obs.explain import ExplainRecorder
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

    def test_outcome_explain_record_and_spans_share_one_id(self):
        """A plan carries no id: the outcome holds it, and the EXPLAIN
        record and every span of the query repeat it."""
        obs = Observability()
        ring = RingBufferSink()
        obs.tracer.add_sink(ring)
        recorder = obs.explainer = ExplainRecorder(keep=4)
        rng = np.random.default_rng(5)
        engine = CBCS(DiskTable(rng.random((500, 3)), obs=obs), obs=obs)
        base = Constraints(lo=np.zeros(3), hi=np.full(3, 0.6))
        refine = Constraints(lo=np.zeros(3), hi=np.full(3, 0.5))
        engine.query(base)
        assert "query_id" not in engine.explain(refine).to_dict()
        ring.clear()
        outcome = engine.query(refine)
        assert outcome.query_id is not None
        assert recorder.records[-1]["query_id"] == outcome.query_id
        assert ring.spans
        assert {s["attrs"]["query_id"] for s in ring.spans} == {outcome.query_id}
        engine.close()


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


def _jsonl(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def _spans_of(tmp_path, query_id):
    return [
        s
        for s in _jsonl(tmp_path / "trace.jsonl")
        if (s.get("attrs") or {}).get("query_id") == query_id
    ]


def _record_of(tmp_path, query_id):
    (record,) = [
        r for r in _jsonl(tmp_path / "queries.jsonl") if r["query_id"] == query_id
    ]
    return record


class TestServedByJoin:
    """A coalesced request is joinable by its *own* query_id; its outcome
    record's ``served_by`` leads to the executing query's spans."""

    def test_child_outcome_record_carries_served_by(self, tmp_path):
        parent, child = _run_coalesced(tmp_path)
        assert _record_of(tmp_path, child.query_id)["served_by"] == parent.query_id

    def test_parent_spans_are_joined_one_hop(self, tmp_path):
        parent, child = _run_coalesced(tmp_path)
        # the child's own spans hold only the zero-duration coalesce event...
        own = {s["name"] for s in _spans_of(tmp_path, child.query_id)}
        assert own == {"service.coalesced"}
        # ...and following served_by reaches the executing query's real work
        served_by = _record_of(tmp_path, child.query_id)["served_by"]
        assert "cbcs.query" in {s["name"] for s in _spans_of(tmp_path, served_by)}

    def test_directly_executed_query_has_no_parent(self, tmp_path):
        parent, _child = _run_coalesced(tmp_path)
        assert _record_of(tmp_path, parent.query_id)["served_by"] is None
