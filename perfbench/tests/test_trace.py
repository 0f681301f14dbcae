"""Span bookkeeping: parents, self time, and leaving the engine as it was."""

import pytest

from perfbench import measure, trace
from perfbench.workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(trace, "perf_counter", clock)
    recorder = trace.Recorder()

    def leaf():
        clock.now += 1.0

    leaf = recorder.wrap(leaf, "btree.range_rows")

    def middle():
        clock.now += 0.5
        leaf()
        leaf()
        clock.now += 0.25

    middle = recorder.wrap(middle, "table.range_query", note=lambda result: 7)

    def root():
        clock.now += 2.0
        middle()
        clock.now += 1.0

    root = recorder.wrap(root, "cbcs.query")
    recorder.op = 4
    root()

    names = [span[trace.NAME] for span in recorder.spans]
    assert names == ["cbcs.query", "table.range_query", "btree.range_rows", "btree.range_rows"]
    assert [span[trace.PARENT] for span in recorder.spans] == [-1, 0, 1, 1]
    assert {span[trace.OP] for span in recorder.spans} == {4}
    assert recorder.spans[1][trace.NOTE] == 7
    # root 5.75 long, middle 2.75 of it, the two leaves 1.0 each
    assert recorder.self_times() == pytest.approx([3.0, 0.75, 1.0, 1.0])
    assert trace.layer_self_seconds(recorder) == pytest.approx(
        {"cbcs.query": 3.0, "table.range_query": 0.75, "btree.range_rows": 2.0}
    )
    assert trace.layer_self_seconds(recorder, ops={5}) == {}


def test_span_closes_when_the_call_raises():
    recorder = trace.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "cache.insert")()
    after = recorder.wrap(lambda: None, "cache.touch")
    after()
    assert [span[trace.PARENT] for span in recorder.spans] == [-1, -1]


def _wrapped_objects(engine):
    """Every object whose attributes a trace may replace."""
    engines = getattr(engine, "engines", [engine])
    found = [engine, getattr(engine, "pruning_cache", None), engine.executor]
    for e in engines:
        found += [e, e.cache, e.planner, e.region, e.executor, e.table]
        found += [e.table.index(dim) for dim in range(e.table.ndim)]
        durability = getattr(e, "durability", None)
        if durability is not None:
            found += [durability, durability.wal]
    import repro.core.dynamic
    import repro.core.sharded

    found += [repro.core.dynamic, repro.core.sharded]
    return [obj for obj in found if obj is not None]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_is_bit_identical_and_restores_every_attribute(tiny, tmp_path, name):
    workload = tiny[name](2)
    state = workload.setup(tmp_path)

    plain = measure.run_pass(workload, state, tmp_path / "pass")

    engine = workload.engine(state, tmp_path / "pass")
    objects = _wrapped_objects(engine)
    before = [dict(vars(obj)) for obj in objects]
    recorder = trace.Recorder()
    traced = measure.run_pass(workload, state, tmp_path / "pass", recorder, engine=engine)
    after = [dict(vars(obj)) for obj in objects]

    assert recorder.spans
    for obj, was, now in zip(objects, before, after):
        for key, value in was.items():
            if callable(value):
                assert now[key] is value, (obj, key)
        assert {k for k, v in now.items() if callable(v)} == {
            k for k, v in was.items() if callable(v)
        }, obj

    assert len(plain.results) == len(traced.results)
    for (kind, _), a, b in zip(workload.ops, plain.results, traced.results):
        if kind == "query":
            assert a.skyline.tobytes() == b.skyline.tobytes()
            assert a.points_read == b.points_read
            assert a.range_queries == b.range_queries
        elif kind == "insert":
            assert a.tolist() == b.tolist()
        else:
            assert a == b
