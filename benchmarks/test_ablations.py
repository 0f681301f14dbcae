"""Ablation benchmarks for design choices the paper leaves open.

- cache replacement (Section 6.2): capped caches must stay usable;
- the unstable-case invalidation cover: the aMPR's one corner means fewer
  range queries but more points to read than the exact staircase.
"""

from repro.bench.ablations import (
    ablation_cost_strategy,
    ablation_invalidation,
    ablation_page_cache,
    ablation_replacement,
    ablation_skyline_algorithm,
)


def test_replacement(figure_runner):
    report = figure_runner(ablation_replacement)
    s = report.series

    # An unbounded cache is at least as effective as any capped one.
    assert s["unbounded"]["hit_rate"] >= s["LRU, cap 8"]["hit_rate"] - 1e-9
    # Capped caches actually evicted under this workload (the test bites).
    assert s["LRU, cap 8"]["evictions"] > 0
    assert s["LCU, cap 8"]["evictions"] > 0
    # Even under pressure the cache keeps a substantial hit rate.
    assert s["LRU, cap 8"]["hit_rate"] > 0.5


def test_page_cache(figure_runner):
    """A warm buffer pool helps the Baseline's I/O but cannot remove its
    CPU work; CBCS avoids examining the points in the first place."""
    report = figure_runner(ablation_page_cache)
    s = report.series

    cold = s["Baseline (cold cache)"]
    warm = s["Baseline (warm buffer)"]
    cbcs = s["CBCS aMPR (cold cache)"]

    # The buffer removes most repeated-read latency ...
    assert warm["io_ms"] < cold["io_ms"]
    # ... but leaves the tuple-examination work untouched.
    assert warm["mean_points_read"] == cold["mean_points_read"]
    # CBCS reads far fewer points than either Baseline configuration.
    assert cbcs["mean_points_read"] < 0.6 * warm["mean_points_read"]


def test_skyline_algorithm_independence(figure_runner):
    """Section 7.3: 'the benefit of our CBCS method is independent of the
    skyline algorithm used, since this is anyway not a bottleneck'."""
    report = figure_runner(ablation_skyline_algorithm)
    s = report.series

    # Identical disk behaviour regardless of the in-memory algorithm.
    reads = [v["mean_points_read"] for v in s.values()]
    assert max(reads) == min(reads)

    # The skyline stage is not the bottleneck: for every algorithm it costs
    # no more than the same queries' simulated fetch I/O.
    for v in s.values():
        assert v["mean_skyline_ms"] <= v["io_ms"]


def test_cost_strategy(figure_runner):
    """The cost-based strategy optimizes points read directly; it must not
    lose on that metric to the heuristics, whatever the selection overhead."""
    report = figure_runner(ablation_cost_strategy)
    s = report.series
    heuristic_best = min(
        s["MaxOverlapSP"]["mean_points_read"],
        s["PrioritizednD (Std)"]["mean_points_read"],
    )
    assert s["CostBased"]["mean_points_read"] <= heuristic_best * 1.1
    # its price is visible as selection overhead
    assert s["CostBased"]["processing_ms"] >= s["MaxOverlapSP"]["processing_ms"]


def test_invalidation(figure_runner):
    report = figure_runner(ablation_invalidation)
    s = report.series

    # The one corner: no more range queries than the exact staircase ...
    assert (
        s["one corner (aMPR)"]["mean_boxes"]
        <= s["exact staircase"]["mean_boxes"] + 1e-9
    )
    # ... at the price of more points to read.
    assert (
        s["exact staircase"]["mean_points"]
        <= s["one corner (aMPR)"]["mean_points"] + 1e-9
    )
