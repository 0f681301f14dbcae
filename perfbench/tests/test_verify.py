"""The oracle against the repo's brute-force reference (shared by no code path)."""

import numpy as np
import pytest

from perfbench import verify
from repro.geometry.constraints import Constraints
from repro.skyline.reference import brute_force_skyline


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("ndim", (2, 4))
def test_skyline_matches_brute_force_on_random_input(seed, ndim):
    points = np.random.default_rng(seed).random((200, ndim))
    assert verify.same_multiset(verify.skyline(points), points[brute_force_skyline(points)])


@pytest.mark.parametrize("seed", range(8))
def test_skyline_keeps_every_copy_on_duplicate_heavy_input(seed):
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 4, size=(300, 3)).astype(float)
    want = points[brute_force_skyline(points)]
    got = verify.skyline(points)
    assert len(got) > len(np.unique(got, axis=0))  # the input does repeat skyline rows
    assert verify.same_multiset(got, want)


def test_skyline_of_nothing_is_empty():
    assert verify.skyline(np.empty((0, 4))).shape == (0, 4)


def test_same_multiset_counts_copies():
    a = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 3.0]])
    assert verify.same_multiset(a, a[::-1])
    assert not verify.same_multiset(a, np.unique(a, axis=0))
    assert not verify.same_multiset(a, a + [[0.0, 0.0], [0.0, 0.0], [0.0, 1e-9]])


def test_expected_replays_writes_on_a_mirror():
    data = np.array([[0.5, 0.5], [0.2, 0.9], [0.9, 0.2]])
    everything = Constraints([0.0, 0.0], [1.0, 1.0])
    ops = [
        ("query", everything),
        ("insert", np.array([[0.1, 0.1]])),
        ("query", everything),
        ("delete", np.array([3])),
        ("query", everything),
    ]
    answers, live = verify.expected(data, ops)
    assert verify.same_multiset(answers[0], data)
    assert np.array_equal(answers[1], [3])
    assert verify.same_multiset(answers[2], np.array([[0.1, 0.1]]))
    assert verify.same_multiset(answers[4], data)
    assert verify.same_multiset(live, data)
