#!/usr/bin/env python3
"""Dynamic data: keeping the skyline cache fresh through updates.

The paper sketches dynamic-data support in Section 6.2 ("viewing each cache
item as a separate dataset with a continuous skyline query").  This script
runs a listings site where properties appear and sell while users keep
querying: CBCS maintains its cached skylines through every update and keeps
serving exact answers -- including exact-match hits for repeated queries
whose cached result was silently updated in place.  A bulk load written
straight into the table, behind the engine's back, is noticed too: the next
query drops the cache and reads afresh rather than serve a stale answer.

Run:  python examples/dynamic_updates.py
"""

import numpy as np

from repro import Constraints, DiskTable
from repro.core.cbcs import CBCS
from repro.data.realestate import danish_real_estate
from repro.skyline.sfs import sfs_skyline


def oracle(table, constraints):
    data = table.data_view()[table._alive]
    inside = data[constraints.satisfied_mask(data)]
    return inside[sfs_skyline(inside)]


def main():
    rng = np.random.default_rng(11)
    data = danish_real_estate(60_000, seed=3)
    engine = CBCS(DiskTable(data))

    # A saved search: newer mid-sized homes below 2.5M DKK.
    saved = Constraints([0.0, 60.0, 100.0, 100.0], [40.0, 160.0, 2500.0, 2500.0])

    out = engine.query(saved)
    print(f"initial result: {out.skyline_size} Pareto-optimal listings "
          f"({out.points_read:,} rows read)")

    events = [
        ("3 new listings appear", "insert", 3),
        ("2 skyline listings sell", "delete_skyline", 2),
        ("5 unremarkable listings sell", "delete_dominated", 5),
        ("a bargain appears", "insert_bargain", 1),
        ("a bulk load bypasses the engine", "table_append", 1),
    ]
    for label, kind, count in events:
        if kind == "insert":
            rows = np.column_stack([
                rng.uniform(0, 30, count),        # age
                rng.uniform(70, 150, count),      # sqrm
                rng.uniform(300, 2000, count),    # valuation
                rng.uniform(300, 2000, count),    # price
            ])
            engine.insert_points(rows)
        elif kind == "insert_bargain":
            engine.insert_points(np.array([[1.0, 65.0, 150.0, 120.0]]))
        elif kind == "table_append":
            engine.table.append(np.array([[0.5, 62.0, 140.0, 110.0]]))
        else:
            current = engine.query(saved)
            if kind == "delete_skyline":
                targets = current.skyline[:count]
            else:
                data_view = engine.table.data_view()
                inside = saved.satisfied_mask(data_view) & engine.table._alive
                sky_keys = {tuple(p) for p in current.skyline}
                candidates = [
                    i for i in np.flatnonzero(inside)
                    if tuple(data_view[i]) not in sky_keys
                ][:count]
                engine.delete_points(candidates)
                targets = []
            for point in targets:
                data_view = engine.table.data_view()
                rowid = int(np.flatnonzero(
                    np.all(data_view == point, axis=1) & engine.table._alive
                )[0])
                engine.delete_points([rowid])

        out = engine.query(saved)
        expected = oracle(engine.table, saved)
        status = "exact" if out.case == "exact" else out.case
        ok = out.skyline_size == len(expected)
        print(f"  {label:<32} -> {out.skyline_size:3d} listings "
              f"(served as {status}, read {out.points_read} rows) "
              f"{'[verified]' if ok else '[MISMATCH]'}")
        assert ok

    print("\nEvery answer stayed exact while the dataset churned; repeated")
    print("queries were served from the maintained cache without re-reading,")
    print("until a write bypassed the engine and it fell back to a fresh read.")


if __name__ == "__main__":
    main()
