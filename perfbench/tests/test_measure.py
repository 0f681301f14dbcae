"""The run loop and the host-speed scaling of the noise-floor figures."""

import numpy as np
import pytest

from perfbench import measure, probe


def _pass(latency, probe_times):
    return measure.PassResult(
        latency=np.array(latency), probe=np.array(probe_times), results=[], counters={}
    )


def test_the_probe_floor_is_taken_per_position_then_the_median():
    passes = [_pass([1.0], [3e-3, 1e-3, 9e-3]), _pass([1.0], [2e-3, 4e-3, 5e-3])]
    assert measure.host_probe_ms(passes) == pytest.approx(2.0)  # floors 2, 1, 5 ms


def test_a_run_makes_the_minimum_passes_and_scales_its_timings(tiny, tmp_path):
    workload = tiny["independent_warm"](2)
    record = measure.measure(workload, seconds=0.0, trace=False, tmp=tmp_path)

    assert record["passes"] == measure.MIN_PASSES
    assert len(record["setup_times_s"]) == 2  # before passes 0 and 4
    assert record["failed"] == 0
    assert record["attempted"] == len(workload.ops) * measure.MIN_PASSES

    scale = record["unbounded"]["host.scale"]["value"]
    assert record["unbounded"]["host.probe_ms"]["value"] * scale == pytest.approx(
        probe.REFERENCE_MS
    )
    assert record["end_to_end"]["setup_s"]["value"] == pytest.approx(
        min(record["setup_times_s"]) * scale
    )
    # a host twice as slow reads the same: the floor doubles, the scale halves
    floor = np.full(len(workload.ops), 2e-3)
    first = measure.run_pass(workload, workload.setup(tmp_path), tmp_path / "pass")
    slow = measure.end_to_end(workload, [2.0], first, 2 * floor, 0.5)
    quiet = measure.end_to_end(workload, [1.0], first, floor, 1.0)
    for name in ("setup_s", "query_p50_ms", "throughput_ops_s"):
        assert slow[name]["value"] == pytest.approx(quiet[name]["value"])


def test_a_pass_times_the_probe_before_every_nth_op(tiny, tmp_path):
    workload = tiny["cold_scan"](2)
    result = measure.run_pass(workload, workload.setup(tmp_path), tmp_path / "pass")
    assert len(result.probe) == -(-len(workload.ops) // probe.EVERY)
    assert (result.probe > 0).all()
