"""Identity: the engine's answers, their row order, their I/O and EXPLAIN.

The repo benchmark's five workloads (``perfbench/workloads.py``, imported
read-only) run their ops once, untimed, on seeds 0 and 1.  Per workload and
seed, SHA-256 digests cover

- ``answers``: every op's result in op order -- a query's skyline with its
  row order, an insert's new row ids, a delete's count -- and, for
  ``dynamic_mixed``, the live rows its crash-style restart recovers;
- ``io``: every query's ``IOStats``;
- ``cache`` (``dynamic_mixed`` only): the cache's items, id and skyline in
  iteration order, after every write.

Two more digests cover the quick-scale ``fig11a`` and ``fig5a`` EXPLAIN
streams with each record's ``query_id`` dropped (the id is minted per
process).  The expected values live in ``golden.json`` beside this file.  A
change that means to move one of them rewrites the file with
``PYTHONPATH=src python -m tests.test_golden`` and says which digest moved
and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 1)
CASES = [f"{name}/{seed}" for name in workloads.WORKLOADS for seed in SEEDS]
EXPLAINED = ("fig11a", "fig5a")


def _array(h, array) -> None:
    array = np.ascontiguousarray(array)
    h.update(str((array.dtype.str, array.shape)).encode())
    h.update(array.tobytes())


def workload_digests(name: str, seed: int, tmp: Path) -> dict:
    """Run one workload's ops once on a fresh engine; digest what they gave."""
    workload = workloads.WORKLOADS[name](seed)
    engine = workload.engine(workload.setup(tmp), tmp / "pass")
    answers, cache = hashlib.sha256(), hashlib.sha256()
    stats = []
    for kind, payload in workload.ops:
        if kind == workloads.QUERY:
            outcome = engine.query(payload)
            _array(answers, outcome.skyline)
            stats.append(outcome.io.as_dict())
            continue
        if kind == workloads.INSERT:
            _array(answers, engine.insert_points(payload))
        else:
            answers.update(str(int(engine.delete_points(payload))).encode())
        for item in engine.cache:
            cache.update(str(item.item_id).encode())
            _array(cache, item.skyline)
    out = {"io": hashlib.sha256(json.dumps(stats).encode()).hexdigest()}
    if workload.finish is None:
        engine.close()
    else:
        finish = workload.finish(engine, tmp / "pass")
        _array(answers, finish["live_rows"])
        answers.update(str(finish["replayed_ops"]).encode())
        out["cache"] = cache.hexdigest()
    out["answers"] = answers.hexdigest()
    return out


def explain_digest(figure: str, tmp: Path) -> str:
    """SHA-256 of one figure's EXPLAIN stream, query ids dropped (run it with
    ``REPRO_BENCH_SCALE`` unset or ``quick``)."""
    from repro.bench.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--obs", str(tmp), "--explain", figure]) == 0
    h = hashlib.sha256()
    for line in (tmp / "explain.jsonl").read_text().splitlines():
        record = json.loads(line)
        record.pop("query_id", None)
        h.update(json.dumps(record).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_workload_digests(case, golden, tmp_path):
    name, seed = case.split("/")
    assert workload_digests(name, int(seed), tmp_path) == golden[case]


def test_fig11a_explain_stream(golden, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    assert explain_digest("fig11a", tmp_path) == golden["fig11a/explain"]


def test_fig5a_explain_stream(golden, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    assert explain_digest("fig5a", tmp_path) == golden["fig5a/explain"]


if __name__ == "__main__":
    os.environ["REPRO_BENCH_SCALE"] = "quick"
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            name, seed = case.split("/")
            (Path(tmp) / case).mkdir(parents=True)
            digests[case] = workload_digests(name, int(seed), Path(tmp) / case)
        for figure in EXPLAINED:
            (Path(tmp) / figure).mkdir()
            digests[f"{figure}/explain"] = explain_digest(figure, Path(tmp) / figure)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"[digests written to {GOLDEN}]")
