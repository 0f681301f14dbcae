#!/usr/bin/env python3
"""Tuning the approximate MPR: points read vs range queries issued.

The exact MPR reads the minimum number of points but decomposes into a
number of range queries that explodes with dimensionality (paper Figs. 4
and 9); the aMPR caps that by pruning with only the k cached skyline points
nearest the query.  This script sweeps k and prints the trade-off the
paper evaluates in Section 7.3.2, plus the exact-MPR reference.

Run:  python examples/ampr_tuning.py [n [pairs]]
"""

import sys

import numpy as np

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.data import generate
from repro.skyline.sfs import sfs_skyline
from repro.workload.generator import WorkloadGenerator


def measure(computer, pairs, data):
    boxes, reads = [], []
    for old, skyline, new in pairs:
        result = computer.compute(old, skyline, new)
        boxes.append(len(result.boxes))
        reads.append(int(result.boxes.union_mask(data).sum()))
    return float(np.mean(boxes)), float(np.mean(reads))


def main(n=20_000, n_pairs=30):
    ndim = 5
    print(
        f"{n:,} independent points, |D|={ndim}; "
        f"{n_pairs} cache/query pairs per row\n"
    )
    data = generate("independent", n, ndim, seed=5)
    gen = WorkloadGenerator(data, seed=9)

    pairs = []
    while len(pairs) < n_pairs:
        old = gen.initial_query()
        new = gen.refine(old)
        inside = data[old.satisfied_mask(data)]
        if len(inside) == 0:
            continue
        pairs.append((old, inside[sfs_skyline(inside)], new))

    print(f"  {'region computer':<14} {'avg range queries':>18} {'avg points to read':>19}")
    for label, computer in [
        ("aMPR, k=1", ApproximateMPR(1)),
        ("aMPR, k=3", ApproximateMPR(3)),
        ("aMPR, k=6", ApproximateMPR(6)),
        ("aMPR, k=10", ApproximateMPR(10)),
        ("exact MPR", ExactMPR()),
    ]:
        n_boxes, n_reads = measure(computer, pairs, data)
        print(f"  {label:<14} {n_boxes:>18.1f} {n_reads:>19.1f}")

    print(
        "\nMore neighbours prune more points but split the region into more"
        "\nrange queries (more random access); the exact MPR is the limit of"
        "\nthat curve.  The paper found k=1 best for interactive sessions and"
        "\nk=5-10 best for independent multi-user traffic (Fig. 12b)."
    )


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:3]))
