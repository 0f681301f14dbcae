"""Tests for the concurrent :class:`repro.service.QueryService` front."""

import sys
import threading

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.service import QueryService, RequestRejected
from repro.skyline.sfs import sfs_skyline
from repro.storage.faults import FaultInjector, FaultProfile, FaultyDiskTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.service.test_coalesce import BlockingEngine


@pytest.fixture(scope="module")
def data():
    return independent(1_500, 2, seed=21)


def reference(data, constraints):
    region = data[constraints.satisfied_mask(data)]
    return region[sfs_skyline(region)] if len(region) else region


def same_multiset(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if len(a) == 0:
        return True
    return np.array_equal(a[np.lexsort(a.T[::-1])], b[np.lexsort(b.T[::-1])])


def make_queries(data, n=24):
    gen = WorkloadGenerator(data, seed=5)
    return list(gen.independent_queries(n))


def serve(svc, queries):
    """Submit every query, then wait for each future in submission order;
    returns the outcomes in that order (a query that raised re-raises)."""
    futures = [svc.submit(c) for c in queries]
    return [future.result() for future in futures]


class TestConcurrentServing:
    def test_all_answers_correct_under_concurrency(self, data):
        engine = CBCS(DiskTable(data))
        queries = make_queries(data)
        with QueryService(engine, workers=8) as svc:
            outcomes = serve(svc, queries)
        assert svc.stats()["answered"] == len(queries)
        # each answer is the true constrained skyline of its query,
        # whatever cache state it hit
        for constraints, outcome in zip(queries, outcomes):
            assert same_multiset(outcome.skyline, reference(data, constraints))

    def test_work_spreads_over_worker_threads(self, data):
        engine = CBCS(DiskTable(data))
        threads = []
        query = engine.query

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread().name)
            return query(*args, **kwargs)

        engine.query = recorded
        with QueryService(engine, workers=4) as svc:
            serve(svc, make_queries(data, n=32))
        assert len(threads) == 32
        assert all(name.startswith("cbcs-svc") for name in threads)

    def test_one_shared_cache_serves_every_worker(self, data):
        engine = CBCS(DiskTable(data))
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=4) as svc:
            outcomes = serve(svc, [c] * 16)
        assert svc.stats()["answered"] == 16
        # after the first answer is cached, repeats are exact cache hits;
        # concurrent duplicates may each compute it, but at least the tail
        # of the batch must have hit the shared cache
        assert sum(1 for o in outcomes if o.case == "exact") > 0
        assert len(engine.cache) >= 1

    def test_submit_returns_future(self, data):
        engine = CBCS(DiskTable(data))
        c = Constraints([0.2, 0.2], [0.7, 0.7])
        with QueryService(engine, workers=2) as svc:
            outcome = svc.submit(c).result()
        assert same_multiset(outcome.skyline, reference(data, c))


class TestErrorReporting:
    def test_failures_reported_not_raised(self, data):
        injector = FaultInjector(FaultProfile(transient_io=1.0), seed=3)
        engine = CBCS(FaultyDiskTable(DiskTable(data), injector))  # no resilience
        with QueryService(engine, workers=4) as svc:
            futures = [svc.submit(c) for c in make_queries(data, n=8)]
            errors = [future.exception() for future in futures]
        assert svc.stats()["answered"] == 0
        assert svc.stats()["errors"] == 8
        assert all(isinstance(exc, IOError) for exc in errors)

    def test_resilient_engine_degrades_instead(self, data):
        injector = FaultInjector(FaultProfile(transient_io=1.0), seed=3)
        engine = CBCS(
            FaultyDiskTable(DiskTable(data), injector), resilience=True
        )
        with QueryService(engine, workers=4) as svc:
            outcomes = serve(svc, make_queries(data, n=6))
        assert svc.stats()["errors"] == 0
        assert all(o.degraded is not None for o in outcomes)


class TestObservability:
    def test_every_outcome_carries_a_distinct_service_minted_id(self, data):
        from repro.obs import Observability
        from repro.obs.sinks import RingBufferSink

        obs = Observability()
        ring = RingBufferSink()
        obs.tracer.add_sink(ring)
        engine = CBCS(DiskTable(data, obs=obs), obs=obs)
        with QueryService(engine, workers=4) as svc:
            outcomes = serve(svc, make_queries(data, n=16))
        assert svc.stats()["answered"] == 16
        ids = [o.query_id for o in outcomes]
        assert all(ids)
        assert len(set(ids)) == 16
        # every root span joins its outcome through the same query_id
        roots = [s for s in ring.spans if s["name"] == "cbcs.query"]
        assert {(s["attrs"] or {}).get("query_id") for s in roots} == set(ids)

    def test_engine_without_obs_mints_no_ids(self, data):
        engine = CBCS(DiskTable(data))
        with QueryService(engine, workers=4) as svc:
            outcomes = serve(svc, make_queries(data, n=6))
        assert all(o.query_id is None for o in outcomes)

    def test_answers_identical_with_and_without_observability(self, data):
        from repro.obs import Observability

        queries = make_queries(data, n=12)
        plain = CBCS(DiskTable(data))
        answers_off = [plain.query(c).skyline for c in queries]
        obs = Observability()
        instrumented = CBCS(DiskTable(data, obs=obs), obs=obs)
        answers_on = [instrumented.query(c).skyline for c in queries]
        for off, on in zip(answers_off, answers_on):
            assert np.array_equal(off, on)  # bit-identical, same order


class TestLifecycle:
    def test_close_is_idempotent_and_pool_recreates(self, data):
        engine = CBCS(DiskTable(data))
        svc = QueryService(engine, workers=2)
        c = Constraints([0.1, 0.1], [0.9, 0.9])
        svc.submit(c).result()
        svc.close()
        svc.close()
        # the pool lazily recreates after close
        assert svc.submit(c).result().skyline is not None
        svc.close()

    def test_rejects_nonpositive_workers(self, data):
        with pytest.raises(ValueError):
            QueryService(CBCS(DiskTable(data)), workers=0)

    def test_rejects_nonpositive_capacity(self, data):
        with pytest.raises(ValueError):
            QueryService(CBCS(DiskTable(data)), capacity=0)


class TestDepthShedding:
    """Admission through ``submit``: one worker held on a blocking engine,
    so every later request waits in a 10-slot queue."""

    def test_classes_shed_in_order_and_stats_close(self, data):
        engine = BlockingEngine(data)

        def query(i):
            # distinct lower bounds: no request can coalesce with another
            return Constraints([0.01 * i, 0.0], [1.0, 1.0])

        with QueryService(engine, workers=1, capacity=10) as svc:
            held = svc.submit(query(0))
            assert engine.started.wait(timeout=10.0)
            admitted = [svc.submit(query(i), priority="batch") for i in range(1, 6)]
            batch_shed = svc.submit(query(6), priority="batch")  # depth 5 of 10
            admitted += [svc.submit(query(i), priority="normal") for i in range(7, 11)]
            normal_shed = svc.submit(query(11), priority="normal")  # depth 9
            admitted.append(svc.submit(query(12), priority="interactive"))
            full = svc.submit(query(13), priority="interactive")  # depth 10
            for future, priority in ((batch_shed, "batch"), (normal_shed, "normal")):
                rejected = future.result(timeout=10.0)
                assert isinstance(rejected, RequestRejected)
                assert (rejected.status, rejected.priority) == ("shed", priority)
            rejected = full.result(timeout=10.0)
            assert isinstance(rejected, RequestRejected)
            assert rejected.status == "rejected_queue_full"
            engine.release.set()
            for future in [held] + admitted:
                assert future.result(timeout=10.0).skyline is not None
            stats = svc.stats()
        assert stats["shed_by_class"] == {"interactive": 0, "normal": 1, "batch": 1}
        assert stats["shed"] == sum(stats["shed_by_class"].values()) == 2
        assert stats["rejected_queue_full"] == 1
        assert stats["answered"] == 11 and stats["submitted"] == 14
        assert len(engine.calls) == 11

    def test_concurrent_clients_lose_no_shed_count(self, data):
        """Eight client threads shed into one service: every typed ``shed``
        result is counted once, per class and in total."""
        engine = BlockingEngine(data)
        clients, per_client = 8, 150
        results = [[] for _ in range(clients)]
        with QueryService(engine, workers=1, capacity=10) as svc:
            held = svc.submit(Constraints([0.0, 0.0], [1.0, 1.0]))
            assert engine.started.wait(timeout=10.0)

            def client(k):
                for i in range(per_client):
                    lo = 1e-4 * (1 + k * per_client + i)  # never coalesces
                    c = Constraints([lo, 0.0], [1.0, 1.0])
                    results[k].append(svc.submit(c, priority="batch"))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=client, args=(k,)) for k in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            engine.release.set()
            outcomes = [f.result(timeout=10.0) for k in results for f in k]
            held.result(timeout=10.0)
            stats = svc.stats()
        statuses = [getattr(o, "status", "answered") for o in outcomes]
        shed = statuses.count("shed")
        # batch sheds from half a queue on; racing clients may overshoot
        # that soft bound, never the queue's hard one
        assert shed >= clients * per_client - 10
        assert stats["shed_by_class"]["batch"] == stats["shed"] == shed
        assert stats["rejected_queue_full"] == statuses.count("rejected_queue_full")


class TestShardedEngineService:
    """QueryService over ``CBCS(ShardedTable)``: the service sees an
    ordinary engine -- one cache for its stats."""

    def make_sharded(self, data, n_shards=4):
        from repro.storage.sharding import ShardedTable

        return CBCS(ShardedTable(data, n_shards, mode="range"))

    def test_answers_correct_through_the_service(self, data):
        engine = self.make_sharded(data)
        queries = make_queries(data)
        with QueryService(engine, workers=4) as svc:
            outcomes = serve(svc, queries)
        assert svc.stats()["answered"] == len(queries)
        for constraints, outcome in zip(queries, outcomes):
            assert same_multiset(outcome.skyline, reference(data, constraints))
        engine.close()

    def test_stats_report_the_engine_cache(self, data):
        for engine in (self.make_sharded(data), CBCS(DiskTable(data))):
            queries = make_queries(data, n=16)
            with QueryService(engine, workers=2) as svc:
                serve(svc, queries + queries)  # repeats guarantee some hits
                cache = svc.stats()["cache"]
            assert cache == engine.cache.stats()
            assert cache["hits"] > 0 and cache["items"] == len(engine.cache)
            engine.close()
