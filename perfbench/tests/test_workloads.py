"""The seed fixes the inputs: same seed, same inputs; another seed, other inputs."""

import numpy as np
import pytest

from perfbench.workloads import DELETE, HELD_OUT_SEED, INSERT, REDRAWN_EVERY, WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digests_are_a_function_of_the_seed(tiny, name):
    again, other = tiny[name](3), tiny[name](4)
    assert tiny[name](3).data_digest() == again.data_digest() != other.data_digest()
    assert tiny[name](3).ops_digest() == again.ops_digest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_held_out_seed_has_its_own_op_sequence(tiny, name):
    assert tiny[name](HELD_OUT_SEED).ops_digest() != tiny[name](0).ops_digest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seeds_share_the_queries_and_redraw_the_writes(tiny, name):
    a, b = tiny[name](3), tiny[name](4)
    queries = [
        [(tuple(c.lo), tuple(c.hi)) for kind, c in w.ops if kind == "query"] for w in (a, b)
    ]
    assert queries[0] == queries[1]
    assert (a.ops_digest() != b.ops_digest()) == (name == "dynamic_mixed")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_seed_redraws_every_fourth_row_and_the_held_out_seed_all(tiny, name):
    a, b, held_out = (tiny[name](seed).data for seed in (3, 4, HELD_OUT_SEED))
    same = (a == b).all(axis=1)
    assert not same[::REDRAWN_EVERY].any()
    assert same.sum() == len(a) - len(a[::REDRAWN_EVERY])
    assert not (a == held_out).all(axis=1).any()


def test_setup_regenerates_the_same_rows(tiny, tmp_path):
    workload = tiny["explore"](5)
    table = workload.setup(tmp_path)["table"]
    assert np.array_equal(table.data_view(), workload.data)


def test_dynamic_deletes_name_live_rows_once(tiny):
    workload = tiny["dynamic_mixed"](1)
    rows = len(workload.data)
    dead = set()
    for kind, payload in workload.ops:
        if kind == INSERT:
            rows += len(payload)
        elif kind == DELETE:
            ids = set(payload.tolist())
            assert len(ids) == len(payload)
            assert max(ids) < rows and not ids & dead
            dead |= ids
    assert workload.ops[0][0] == "query"
