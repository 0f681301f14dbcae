"""Tests for case classification, and Fig. 3's Theorems 2-5 checked on the
region the engine computes (``ExactMPR``) and on the engine's answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cases import (
    CASE_A,
    CASE_B,
    CASE_C,
    CASE_D,
    CASE_DISJOINT,
    CASE_EXACT,
    GENERAL_STABLE,
    GENERAL_UNSTABLE,
    classify_change,
    classify_dimension_changes,
)
from repro.core.ampr import ExactMPR
from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable

from tests.core.conftest import (
    assert_same_point_set,
    constrained_skyline_oracle,
)
from tests.geometry.regions import pairwise_disjoint


OLD = Constraints([0.3, 0.3], [0.7, 0.7])


class TestClassify:
    def test_exact(self):
        assert classify_change(OLD, Constraints([0.3, 0.3], [0.7, 0.7])) == CASE_EXACT

    def test_disjoint(self):
        assert classify_change(OLD, Constraints([0.8, 0.8], [0.9, 0.9])) == CASE_DISJOINT

    def test_case_a_lower_decreased(self):
        assert classify_change(OLD, Constraints([0.2, 0.3], [0.7, 0.7])) == CASE_A

    def test_case_b_upper_decreased(self):
        assert classify_change(OLD, Constraints([0.3, 0.3], [0.7, 0.6])) == CASE_B

    def test_case_c_upper_increased(self):
        assert classify_change(OLD, Constraints([0.3, 0.3], [0.7, 0.8])) == CASE_C

    def test_case_d_lower_increased(self):
        assert classify_change(OLD, Constraints([0.3, 0.4], [0.7, 0.7])) == CASE_D

    def test_general_stable(self):
        new = Constraints([0.2, 0.2], [0.8, 0.6])
        assert classify_change(OLD, new) == GENERAL_STABLE

    def test_general_unstable(self):
        new = Constraints([0.4, 0.2], [0.8, 0.6])
        assert classify_change(OLD, new) == GENERAL_UNSTABLE

    def test_two_bounds_in_one_dim_is_general(self):
        new = Constraints([0.2, 0.3], [0.8, 0.7])
        assert classify_change(OLD, new) == GENERAL_STABLE

    def test_ndim_mismatch(self):
        with pytest.raises(ValueError):
            classify_change(OLD, Constraints([0.0], [1.0]))

    def test_dimension_changes(self):
        new = Constraints([0.2, 0.4], [0.9, 0.7])
        labels = classify_dimension_changes(OLD, new)
        assert sorted(labels) == sorted([CASE_A, CASE_C, CASE_D])


class PaperStyleExample:
    """A hand-constructed 2-D instance in the spirit of Figure 3.

    Old constraints [0.3, 0.3] x [0.7, 0.7]; the old skyline is
    {e=(0.32, 0.50), f=(0.40, 0.38), g=(0.55, 0.32)}.  Each case's fetch
    set (the gray region of Figure 3) is checked on the exact MPR the
    engine computes, and each answer on an engine primed with the old
    query.
    """

    data = np.array(
        [
            [0.32, 0.50],  # e: old skyline
            [0.40, 0.38],  # f: old skyline
            [0.55, 0.32],  # g: old skyline
            [0.45, 0.55],  # h: dominated by f
            [0.60, 0.40],  # i: dominated by f and g
            [0.39, 0.65],  # j: dominated only by e
            [0.20, 0.60],  # a: left of old region (case a territory)
            [0.25, 0.35],  # b: left of old region, dominates e
            [0.72, 0.31],  # k: right of old region, below g's dominance
            [0.75, 0.60],  # l: right of old region, dominated by g
            [0.50, 0.20],  # m: below old region
        ]
    )
    old = OLD
    old_skyline = data[[0, 1, 2]]

    def region(self):
        result = ExactMPR().compute(self.old, self.old_skyline, self.new)
        assert pairwise_disjoint(result.boxes)
        return result

    def fetched_mask(self):
        """Which rows of ``data`` the region's boxes hold."""
        return self.region().boxes.union_mask(self.data)

    def answer(self):
        engine = CBCS(DiskTable(self.data), region_computer=ExactMPR())
        engine.query(self.old)
        return engine.query(self.new)

    def assert_answer_is_the_oracle(self, case):
        outcome = self.answer()
        assert outcome.case == case
        assert_same_point_set(
            outcome.skyline, constrained_skyline_oracle(self.data, self.new)
        )
        return outcome


class TestCaseA(PaperStyleExample):
    new = Constraints([0.15, 0.3], [0.7, 0.7])

    def test_classified(self):
        assert classify_change(self.old, self.new) == CASE_A

    def test_fetch_region_is_delta_c(self):
        # Theorem 2: exactly the points in Delta C, a and b
        assert_same_point_set(self.data[self.fetched_mask()], self.data[[6, 7]])

    def test_solution_matches_oracle(self):
        self.assert_answer_is_the_oracle(CASE_A)

    def test_new_point_can_dominate_cached(self):
        """b dominates e: the merge pass must expel cached points."""
        result = self.answer().skyline
        assert not any(np.array_equal(p, self.data[0]) for p in result)


class TestCaseB(PaperStyleExample):
    new = Constraints([0.3, 0.3], [0.7, 0.45])

    def test_classified(self):
        assert classify_change(self.old, self.new) == CASE_B

    def test_no_fetching(self):
        # Theorem 3: nothing to fetch, and the engine reads nothing
        assert len(self.region().boxes) == 0
        assert self.answer().points_read == 0

    def test_filter_only(self):
        # e (y=0.50) falls outside; f and g remain, and they are the answer
        assert_same_point_set(self.region().surviving, self.data[[1, 2]])
        outcome = self.assert_answer_is_the_oracle(CASE_B)
        assert_same_point_set(outcome.skyline, self.data[[1, 2]])


class TestCaseC(PaperStyleExample):
    new = Constraints([0.3, 0.3], [0.8, 0.7])

    def test_classified(self):
        assert classify_change(self.old, self.new) == CASE_C

    def test_dominance_prunes_delta_c(self):
        fetched_mask = self.fetched_mask()
        # k is in Delta C and not dominated by the old skyline: fetched.
        assert fetched_mask[8]
        # l is in Delta C but dominated by g: pruned, never read.
        assert not fetched_mask[9]

    def test_solution_matches_oracle(self):
        self.assert_answer_is_the_oracle(CASE_C)

    def test_fetches_fewer_than_case_a_logic(self):
        """Theorem 4's pruning reads strictly less than fetching all of
        Delta C whenever cached dominance covers part of it."""
        delta_c = self.new.satisfied_mask(self.data) & ~self.old.satisfied_mask(
            self.data
        )
        assert int(self.fetched_mask().sum()) < int(delta_c.sum())


class TestCaseD(PaperStyleExample):
    new = Constraints([0.38, 0.3], [0.7, 0.7])

    def test_classified(self):
        assert classify_change(self.old, self.new) == CASE_D

    def test_surviving_points_kept(self):
        region = self.region()
        # e (x=0.32) is expelled; f, g survive
        assert_same_point_set(region.surviving, self.data[[1, 2]])
        assert not region.stable

    def test_fetch_covers_invalidated_region_only(self):
        fetched_mask = self.fetched_mask()
        # j was dominated by expelled e and still satisfies new: must fetch.
        assert fetched_mask[5]
        # h is dominated by surviving f: not fetched.
        assert not fetched_mask[3]
        # i is dominated by surviving f/g: not fetched.
        assert not fetched_mask[4]

    def test_solution_matches_oracle(self):
        self.assert_answer_is_the_oracle(CASE_D)


class TestCasePropertyBased:
    """Random single-bound changes: the engine, primed with the old query,
    labels each refinement with its case and answers it as the oracle."""

    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(0, 2),
        which=st.sampled_from(["lo_down", "lo_up", "hi_down", "hi_up"]),
        amount=st.floats(min_value=0.01, max_value=0.25),
    )
    @settings(max_examples=120, deadline=None)
    def test_single_bound_solutions(self, seed, dim, which, amount):
        data = generate("independent", 120, 3, seed=seed % 50)
        old = Constraints([0.25] * 3, [0.75] * 3)
        if which == "lo_down":
            new = old.with_bound(dim, lower=0.25 - amount)
        elif which == "lo_up":
            new = old.with_bound(dim, lower=min(0.25 + amount, 0.74))
        elif which == "hi_down":
            new = old.with_bound(dim, upper=max(0.75 - amount, 0.26))
        else:
            new = old.with_bound(dim, upper=0.75 + amount)
        engine = CBCS(DiskTable(data), region_computer=ExactMPR())
        old_skyline = engine.query(old).skyline
        outcome = engine.query(new)
        if outcome.case == "miss":
            # the cache finds an item by its skyline's MBR, which a raised
            # lower bound can leave behind
            assert not Constraints.covering(old_skyline).overlaps(new)
        else:
            assert outcome.case == classify_change(old, new)
            assert outcome.case in (CASE_A, CASE_B, CASE_C, CASE_D)
        assert_same_point_set(
            outcome.skyline,
            constrained_skyline_oracle(data, new),
            context=f"case {outcome.case}",
        )
