"""Tests for in-flight deduplication and subsumption coalescing.

The correctness bar is satellite 4's: a coalesced subsumed answer must be
bit-identical to standalone execution across the overlap cases, and a
follower must fall back to its own execution when its parent degrades or
errors -- coalescing may only ever substitute an exact answer.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.cases import CASE_B, CASE_EXACT, GENERAL_STABLE
from repro.core.cbcs import CBCS
from repro.data.generator import independent
from repro.geometry.constraints import Constraints
from repro.service import QueryService, RequestRejected
from repro.service.coalesce import (
    KIND_DEDUP,
    KIND_SUBSUMED,
    InFlightTable,
    can_coalesce,
    derive_follower_skyline,
)
from repro.skyline.sfs import sfs_skyline
from repro.stats import QueryOutcome, StageTimings
from repro.storage.table import DiskTable


@pytest.fixture(scope="module")
def data():
    return independent(1_200, 2, seed=33)


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


class TestCanCoalesce:
    def test_identical_regions_coalesce(self):
        c = Constraints([0.1, 0.2], [0.8, 0.9])
        assert can_coalesce(c, Constraints([0.1, 0.2], [0.8, 0.9]))

    def test_pure_upper_bound_shrink_coalesces(self):
        parent = Constraints([0.1, 0.2], [0.8, 0.9])
        assert can_coalesce(parent, Constraints([0.1, 0.2], [0.7, 0.9]))
        assert can_coalesce(parent, Constraints([0.1, 0.2], [0.6, 0.5]))

    def test_raised_lower_bound_never_coalesces(self):
        """The paper's unstable case d: dominators between the old and new
        lower bound can make filtered-out points resurface, so no filter of
        the parent's answer is exact."""
        parent = Constraints([0.1, 0.2], [0.8, 0.9])
        assert not can_coalesce(parent, Constraints([0.3, 0.2], [0.8, 0.9]))
        # even combined with an upper shrink (plain containment holds!)
        assert not can_coalesce(parent, Constraints([0.2, 0.3], [0.7, 0.8]))

    def test_widened_upper_bound_never_coalesces(self):
        parent = Constraints([0.1, 0.2], [0.8, 0.9])
        assert not can_coalesce(parent, Constraints([0.1, 0.2], [0.9, 0.9]))

    def test_dimensionality_mismatch_never_coalesces(self):
        parent = Constraints([0.1, 0.2], [0.8, 0.9])
        child = Constraints([0.1, 0.2, 0.0], [0.8, 0.9, 1.0])
        assert not can_coalesce(parent, child)


class TestDeriveFollowerSkyline:
    def test_filtered_answer_matches_standalone(self, data):
        """For every safe geometry, filtering the parent's skyline equals
        computing the child's skyline from scratch -- the generalized
        Theorem 3 the coalescer relies on."""
        parent = Constraints([0.05, 0.05], [0.9, 0.9])
        parent_sky = reference(data, parent)
        for child in [
            Constraints([0.05, 0.05], [0.9, 0.9]),  # identity filter
            Constraints([0.05, 0.05], [0.6, 0.9]),  # case_b: one dim shrunk
            Constraints([0.05, 0.05], [0.5, 0.4]),  # general_stable: both
        ]:
            derived = derive_follower_skyline(parent, child, parent_sky)
            assert same_multiset(derived, reference(data, child))

    def test_unsafe_containment_is_rejected(self, data):
        parent = Constraints([0.05, 0.05], [0.9, 0.9])
        child = Constraints([0.2, 0.2], [0.8, 0.8])  # raised lo: unsafe
        with pytest.raises(AssertionError):
            derive_follower_skyline(parent, child, reference(data, parent))

    def test_resurfacing_point_proves_filtering_unsound(self):
        """Concrete case-d counterexample: a point dominated only by points
        below the raised lower bound is in the child's true skyline but not
        in the parent's answer, so no filter can produce it."""
        pts = np.array([[0.1, 0.1], [0.4, 0.4]])
        parent = Constraints([0.0, 0.0], [1.0, 1.0])
        child = Constraints([0.3, 0.3], [1.0, 1.0])
        parent_sky = reference(pts, parent)  # [[0.1, 0.1]] dominates the other
        child_sky = reference(pts, child)  # [[0.4, 0.4]] resurfaces
        filtered = parent_sky[child.satisfied_mask(parent_sky)]
        assert len(filtered) == 0 and len(child_sky) == 1


class _FakeRequest:
    def __init__(self, constraints):
        self.constraints = constraints
        self.entry = None
        self.future = Future()


class TestInFlightTable:
    def test_join_requires_a_live_leader(self):
        table = InFlightTable()
        leader = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        assert table.try_join(leader) is None  # nothing in flight yet
        assert table.register(leader) is None  # becomes the leader
        assert len(table) == 1

    def test_identical_follower_joins_as_dedup(self):
        table = InFlightTable()
        leader = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        table.register(leader)
        twin = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        assert table.try_join(twin) == KIND_DEDUP

    def test_shrunken_follower_joins_as_subsumed(self):
        table = InFlightTable()
        leader = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        table.register(leader)
        child = _FakeRequest(Constraints([0.1, 0.1], [0.5, 0.8]))
        assert table.try_join(child) == KIND_SUBSUMED

    def test_unsafe_follower_does_not_join(self):
        table = InFlightTable()
        table.register(_FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8])))
        riskier = _FakeRequest(Constraints([0.2, 0.1], [0.8, 0.8]))
        assert table.try_join(riskier) is None

    def test_register_race_joins_instead(self):
        """A request that lost the try_join/register race still attaches as
        a follower instead of becoming a duplicate leader."""
        table = InFlightTable()
        table.register(_FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8])))
        racer = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        assert table.register(racer) == KIND_DEDUP

    def test_finish_returns_followers_once(self):
        table = InFlightTable()
        leader = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        table.register(leader)
        follower = _FakeRequest(Constraints([0.1, 0.1], [0.6, 0.8]))
        table.try_join(follower)
        resolved = table.finish(leader)
        assert [(r, k) for r, k in resolved] == [(follower, KIND_SUBSUMED)]
        assert table.finish(leader) == []  # idempotent
        assert len(table) == 0
        # a finished entry accepts no late joiners
        late = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        assert table.try_join(late) is None

    def test_finish_is_a_noop_for_followers(self):
        table = InFlightTable()
        leader = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        follower = _FakeRequest(Constraints([0.1, 0.1], [0.8, 0.8]))
        table.register(leader)
        table.try_join(follower)
        assert table.finish(follower) == []
        assert len(table) == 1


class BlockingEngine:
    """A fake engine whose query() blocks until released, returning a
    prepared outcome -- lets a test hold a leader in flight while followers
    pile on, then observe exactly what each future resolves to."""

    name = "blocking-fake"

    def __init__(self, data, outcome_fn=None):
        self.data = data
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = []
        self._outcome_fn = outcome_fn

    def query(self, constraints, query_id=None, deadline=None):
        self.calls.append(constraints)
        self.started.set()
        assert self.release.wait(timeout=10.0), "test forgot to release"
        if self._outcome_fn is not None:
            return self._outcome_fn(constraints)
        skyline = reference(self.data, constraints)
        return QueryOutcome(
            skyline=skyline,
            method=self.name,
            timings=StageTimings(),
            query_id=query_id,
        )


class TestServiceCoalescing:
    def hold_leader(self, service, engine, constraints):
        leader = service.submit(constraints)
        assert engine.started.wait(timeout=10.0)
        return leader

    def test_dedup_shares_one_execution_bit_exactly(self, data):
        engine = BlockingEngine(data)
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=1) as svc:
            leader = self.hold_leader(svc, engine, c)
            twins = [svc.submit(c) for _ in range(3)]
            engine.release.set()
            parent = leader.result(timeout=10.0)
            for future in twins:
                child = future.result(timeout=10.0)
                assert same_multiset(child.skyline, parent.skyline)
                assert child.case == CASE_EXACT and child.cache_hit
        assert len(engine.calls) == 1  # one storage execution, four answers
        assert svc.stats()["coalesced_dedup"] == 3

    @pytest.mark.parametrize(
        "child_c, case",
        [
            # case_b: a single upper bound shrunk
            (Constraints([0.1, 0.1], [0.6, 0.8]), CASE_B),
            # general stable change: both upper bounds shrunk
            (Constraints([0.1, 0.1], [0.5, 0.4]), GENERAL_STABLE),
        ],
    )
    def test_subsumed_answer_bit_identical_to_standalone(
        self, data, child_c, case
    ):
        engine = BlockingEngine(data)
        parent_c = Constraints([0.1, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=1) as svc:
            leader = self.hold_leader(svc, engine, parent_c)
            follower = svc.submit(child_c)
            engine.release.set()
            leader.result(timeout=10.0)
            child = follower.result(timeout=10.0)
        # the coalesced answer equals a from-scratch execution, bit for bit
        assert same_multiset(child.skyline, reference(data, child_c))
        assert child.case == case
        assert len(engine.calls) == 1
        assert svc.stats()["coalesced_subsumed"] == 1

    def test_unsafe_overlap_executes_on_its_own(self, data):
        """Raised-lo overlap (case d) must never piggyback."""
        engine = BlockingEngine(data)
        parent_c = Constraints([0.1, 0.1], [0.8, 0.8])
        child_c = Constraints([0.3, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=2) as svc:
            leader = self.hold_leader(svc, engine, parent_c)
            follower = svc.submit(child_c)
            engine.release.set()
            leader.result(timeout=10.0)
            child = follower.result(timeout=10.0)
        assert same_multiset(child.skyline, reference(data, child_c))
        assert child.served_by is None
        assert len(engine.calls) == 2
        assert svc.stats()["coalesced"] == 0

    def test_follower_falls_back_when_parent_degrades(self, data):
        """A stale/degraded parent answer must not be shared: the follower
        re-executes and (here) gets a clean answer of its own."""
        served = {"n": 0}

        def outcome_fn(constraints):
            served["n"] += 1
            skyline = reference(data, constraints)
            if served["n"] == 1:  # the leader's execution comes back stale
                return QueryOutcome(
                    skyline=skyline,
                    method="blocking-fake",
                    timings=StageTimings(),
                    degraded="stale",
                    stale=True,
                )
            return QueryOutcome(
                skyline=skyline, method="blocking-fake", timings=StageTimings()
            )

        engine = BlockingEngine(data, outcome_fn=outcome_fn)
        parent_c = Constraints([0.1, 0.1], [0.8, 0.8])
        child_c = Constraints([0.1, 0.1], [0.6, 0.8])
        with QueryService(engine, workers=1) as svc:
            leader = self.hold_leader(svc, engine, parent_c)
            follower = svc.submit(child_c)
            engine.release.set()
            parent = leader.result(timeout=10.0)
            child = follower.result(timeout=10.0)
        assert parent.stale
        assert not child.stale and child.degraded is None
        assert child.served_by is None  # own execution, not a filtered copy
        assert same_multiset(child.skyline, reference(data, child_c))
        assert len(engine.calls) == 2
        assert svc.stats()["coalesced"] == 0

    def test_follower_falls_back_when_parent_errors(self, data):
        served = {"n": 0}

        def outcome_fn(constraints):
            served["n"] += 1
            if served["n"] == 1:
                raise RuntimeError("leader exploded")
            return QueryOutcome(
                skyline=reference(self.data_ref, constraints),
                method="blocking-fake",
                timings=StageTimings(),
            )

        self.data_ref = data
        engine = BlockingEngine(data, outcome_fn=outcome_fn)
        c = Constraints([0.1, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=1) as svc:
            leader = self.hold_leader(svc, engine, c)
            follower = svc.submit(c)
            engine.release.set()
            with pytest.raises(RuntimeError):
                leader.result(timeout=10.0)
            child = follower.result(timeout=10.0)
        # the leader's failure reaches only the leader; the follower's own
        # execution answers it correctly
        assert same_multiset(child.skyline, reference(data, c))
        assert svc.stats()["errors"] == 1
        assert svc.stats()["answered"] == 1

    def test_coalesced_outcome_carries_ids_for_correlation(self, data):
        """Satellite 2: the piggybacked outcome keeps its own query_id and
        names the executing query in served_by."""
        from repro.obs import MetricsRegistry, Observability, Tracer

        obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
        table = DiskTable(independent(400, 2, seed=3))
        engine = CBCS(table, obs=obs)
        blocking = BlockingEngine(independent(400, 2, seed=3))
        blocking.obs = obs  # service probes engine.obs for id minting

        c = Constraints([0.1, 0.1], [0.8, 0.8])
        with QueryService(blocking, workers=1) as svc:
            leader = self.hold_leader(svc, blocking, c)
            follower = svc.submit(c)
            blocking.release.set()
            parent = leader.result(timeout=10.0)
            child = follower.result(timeout=10.0)
        assert child.query_id is not None
        assert parent.query_id is not None
        assert child.query_id != parent.query_id
        assert child.served_by == parent.query_id
        assert (
            obs.metrics.counter_value("service_coalesced_total", kind="dedup")
            == 1
        )


class TestQueueDeadlines:
    def test_deadline_expired_in_queue_is_a_typed_rejection(self, data):
        """A request whose budget dies while queued resolves to a typed
        deadline_exceeded outcome -- never a silent hang, and the engine is
        never consulted for it."""
        engine = BlockingEngine(data)
        blocker_c = Constraints([0.1, 0.1], [0.8, 0.8])
        # unsafe overlap: must queue behind the blocker, cannot piggyback
        starved_c = Constraints([0.3, 0.1], [0.8, 0.8])
        with QueryService(engine, workers=1) as svc:
            blocker = svc.submit(blocker_c)
            assert engine.started.wait(timeout=10.0)
            starved = svc.submit(starved_c, deadline_ms=1e-3)
            time.sleep(0.05)  # let the tiny budget expire while queued
            engine.release.set()
            blocker.result(timeout=10.0)
            outcome = starved.result(timeout=10.0)
        assert isinstance(outcome, RequestRejected)
        assert outcome.status == "deadline_exceeded"
        assert "queued" in outcome.reason
        assert len(engine.calls) == 1  # the starved request never executed
        assert svc.stats()["deadline_exceeded"] == 1
