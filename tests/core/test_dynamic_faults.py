"""S4: one engine with interleaved insert/delete/query under storage faults.

The chaos soak exercises a static engine; this pins the *dynamic* engine:
with the ``default`` fault profile injected under the guarded read
(``Resilience.read``), an interleaved update/query schedule must keep
every answer either bit-exact against an uncrashed fault-free reference or
explicitly flagged on a stale/unavailable degradation rung -- never
silently wrong.
"""

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.skyline.reference import constrained_reference, same_multiset
from repro.storage.faults import FaultInjector, FaultyDiskTable
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator


def _schedule(rng, data, queries, n_ops):
    """Seeded interleave of inserts, deletes (live ids only), and queries."""
    ndim = data.shape[1]
    alive = list(range(len(data)))
    steps = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35:
            rows = rng.random((int(rng.integers(1, 4)), ndim))
            steps.append(("insert", rows))
        elif roll < 0.6 and len(alive) > 10:
            picks = rng.choice(len(alive), size=int(rng.integers(1, 3)), replace=False)
            rowids = [alive[int(p)] for p in picks]
            for rid in rowids:
                alive.remove(rid)
            steps.append(("delete", np.asarray(rowids, dtype=np.int64)))
        else:
            steps.append(("query", next(queries)))
    return steps


@pytest.mark.parametrize("seed", [0, 3])
def test_interleaved_updates_exact_or_flagged_under_default_faults(seed):
    data = generate("independent", 300, 3, seed=seed)
    injector = FaultInjector(profile="default", seed=seed)
    faulty = CBCS(
        FaultyDiskTable(DiskTable(data.copy()), injector),
        resilience=True,
    )
    reference = CBCS(DiskTable(data.copy()))

    rng = np.random.default_rng(seed + 100)
    queries = iter(
        WorkloadGenerator(data, seed=seed + 200).independent_queries(40)
    )
    checked = flagged = 0
    for kind, payload in _schedule(rng, data, queries, n_ops=40):
        if kind == "insert":
            faulty.insert_points(payload)
            reference.insert_points(payload)
        elif kind == "delete":
            faulty.delete_points(payload)
            reference.delete_points(payload)
        else:
            outcome = faulty.query(payload)
            ref = reference.query(payload)
            checked += 1
            if outcome.stale:
                flagged += 1  # legitimately non-exact, and says so
                continue
            assert same_multiset(
                np.asarray(outcome.skyline), np.asarray(ref.skyline)
            ), f"silently wrong answer under faults (seed={seed})"
    assert checked > 5
    # The drill is only meaningful if most answers stayed exact.
    assert checked - flagged >= checked // 2


def test_interleaved_updates_without_faults_are_bit_exact():
    """Same schedule, no injector: every answer must be exact, none flagged."""
    data = generate("anticorrelated", 250, 3, seed=7)
    engine = CBCS(DiskTable(data.copy()))
    reference = CBCS(DiskTable(data.copy()))
    rng = np.random.default_rng(7)
    queries = iter(WorkloadGenerator(data, seed=77).independent_queries(30))
    for kind, payload in _schedule(rng, data, queries, n_ops=30):
        if kind == "insert":
            engine.insert_points(payload)
            reference.insert_points(payload)
        elif kind == "delete":
            engine.delete_points(payload)
            reference.delete_points(payload)
        else:
            outcome = engine.query(payload)
            ref = reference.query(payload)
            assert outcome.degraded is None
            assert same_multiset(
                np.asarray(outcome.skyline), np.asarray(ref.skyline)
            )


def test_refresh_failure_falls_back_to_eviction():
    """A delete-triggered refresh that degrades must evict, not serve stale."""
    data = generate("independent", 120, 2, seed=5)
    injector = FaultInjector(profile="none", seed=5)
    engine = CBCS(
        FaultyDiskTable(DiskTable(data.copy()), injector),
        resilience=True,
    )
    queries = iter(WorkloadGenerator(data, seed=55).independent_queries(5))
    constraints = next(queries)
    outcome = engine.query(constraints)
    target = None
    for item in engine.cache:
        if len(item.skyline):
            target = item
            break
    if target is None:
        pytest.skip("workload produced no cacheable item")
    victim = np.asarray(target.skyline[0])
    rowid = int(
        np.flatnonzero(np.all(np.isclose(engine.table.data_view(), victim), axis=1))[0]
    )
    # Force the table hard-down so the refresh's guarded read degrades.
    injector.force_outage(calls=1000)
    engine.delete_points([rowid])
    injector.clear_outage()
    # The item is gone (a future miss), not stale.
    assert all(
        not np.any(np.all(item.skyline == victim, axis=1)) for item in engine.cache
    )


def test_refresh_is_retried_through_the_guarded_read():
    """A refresh is a one-box ``Executor.fetch``: with resilience on, a
    transient fault on it is retried and the item is refreshed, not
    evicted."""
    data = generate("independent", 120, 2, seed=5)
    injector = FaultInjector(profile="none", seed=5)
    engine = CBCS(
        FaultyDiskTable(DiskTable(data.copy()), injector),
        resilience=True,
    )
    constraints = Constraints([0.0, 0.0], [0.8, 0.8])
    engine.query(constraints)
    (item,) = engine.cache
    victim = item.skyline[0]
    rowid = int(np.flatnonzero(np.all(engine.table.data_view() == victim, axis=1))[0])
    calls = injector.calls
    injector.force_outage(calls=1)
    engine.delete_points([rowid])
    assert injector.calls == calls + 2  # the failed read and its retry
    (refreshed,) = engine.cache  # replaced in place, not evicted
    assert refreshed.constraints.region() == item.constraints.region()
    live = engine.table.data_view()[engine.table._alive]
    assert same_multiset(refreshed.skyline, constrained_reference(live, constraints))

