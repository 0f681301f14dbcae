#!/usr/bin/env python3
"""Quickstart: cache-accelerated constrained skyline queries.

Builds a simulated disk table over synthetic data, asks one constrained
skyline query the expensive way, then shows how CBCS answers a refined
query from the cache by fetching only the Missing Points Region.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CBCS, BaselineMethod, Constraints, DiskTable
from repro.data import generate


def describe(label, outcome):
    print(
        f"  {label:<28} case={outcome.case or '-':<16}"
        f" skyline={outcome.skyline_size:>4}"
        f" points_read={outcome.points_read:>6}"
        f" range_queries={outcome.range_queries:>3}"
        f" sim_io={outcome.timings.fetch_io_ms:7.1f} ms"
        f" wall={outcome.timings.wall_ms:6.1f} ms"
    )


def main():
    print("Generating 100,000 independent 4-D points ...")
    data = generate("independent", 100_000, 4, seed=0)

    # Two independent tables so I/O accounting never crosses methods.
    engine = CBCS(DiskTable(data))
    baseline = BaselineMethod(DiskTable(data))

    # A user searching for well-balanced options in the mid-range.
    first = Constraints([0.2, 0.2, 0.2, 0.2], [0.7, 0.7, 0.7, 0.7])
    print("\nInitial query (cold cache -- computed naively):")
    describe("CBCS (miss)", engine.query(first))

    # The user relaxes one upper constraint: classic exploratory refinement.
    refined = Constraints([0.2, 0.2, 0.2, 0.2], [0.7, 0.7, 0.7, 0.8])
    print("\nRefined query (upper constraint increased -- case c):")
    describe("Baseline (no cache)", baseline.query(refined))
    describe("CBCS (cached)", engine.query(refined))

    # Tighten a different dimension: a pure shrink needs no disk at all.
    tightened = Constraints([0.2, 0.2, 0.2, 0.2], [0.6, 0.7, 0.7, 0.8])
    print("\nTightened query (upper constraint decreased -- case b):")
    describe("Baseline (no cache)", baseline.query(tightened))
    describe("CBCS (cached)", engine.query(tightened))

    # Sanity: both methods always return the identical skyline.
    out_a = baseline.query(refined)
    out_b = engine.query(refined)
    canon = lambda a: a[np.lexsort(a.T[::-1])]
    assert np.allclose(canon(out_a.skyline), canon(out_b.skyline))
    print("\nBoth methods return identical skylines -- caching is purely a")
    print("performance device (paper Theorem 6).")


if __name__ == "__main__":
    main()
