"""Cross-checks of the in-memory skyline algorithms (BNL, SFS, oracle)."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.generator import generate
from repro.skyline import reference, sfs
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bskytree import bskytree_skyline
from repro.skyline.dandc import dandc_skyline
from repro.skyline.reference import brute_force_skyline, is_skyline
from repro.skyline.sfs import sfs_skyline

ALGORITHMS = [bnl_skyline, sfs_skyline, dandc_skyline, bskytree_skyline]


def point_sets(ndim=3, max_n=60):
    return arrays(
        np.float64,
        st.tuples(st.integers(0, max_n), st.just(ndim)),
        elements=st.floats(0, 1),
    )


class TestOracle:
    def test_empty(self):
        assert len(brute_force_skyline(np.empty((0, 2)))) == 0

    def test_single_point(self):
        assert list(brute_force_skyline(np.array([[1.0, 2.0]]))) == [0]

    def test_simple_2d(self):
        pts = np.array([[1, 5], [2, 2], [5, 1], [3, 3], [4, 4]], dtype=float)
        assert list(brute_force_skyline(pts)) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert list(brute_force_skyline(pts)) == [0, 1]

    def test_dominated_duplicates_all_dropped(self):
        pts = np.array([[0.5, 0.5], [2.0, 2.0], [2.0, 2.0]])
        assert list(brute_force_skyline(pts)) == [0]

    def test_is_skyline_helper(self):
        pts = np.array([[1, 5], [2, 2], [5, 1], [3, 3]], dtype=float)
        assert is_skyline(pts, pts[[0, 1, 2]])
        assert not is_skyline(pts, pts[[0, 1]])
        assert not is_skyline(pts, pts[[0, 1, 3]])

    def test_oracle_module_imports_numpy_only(self):
        """The soak oracle must share no code with what it is the oracle for
        (``repro.skyline.sfs``, ``repro.geometry.dominance``)."""
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(reference))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert imported == {"__future__", "numpy"}


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=["bnl", "sfs", "dandc", "bskytree"])
class TestAlgorithms:
    def test_empty(self, algorithm):
        assert len(algorithm(np.empty((0, 3)))) == 0

    def test_single_point(self, algorithm):
        assert list(algorithm(np.array([[0.3, 0.7]]))) == [0]

    def test_all_identical(self, algorithm):
        pts = np.tile([0.5, 0.5], (10, 1))
        assert len(algorithm(pts)) == 10

    def test_total_order_chain(self, algorithm):
        pts = np.array([[i, i] for i in range(10)], dtype=float)
        assert list(algorithm(pts)) == [0]

    def test_antichain(self, algorithm):
        pts = np.array([[i, 10 - i] for i in range(10)], dtype=float)
        assert len(algorithm(pts)) == 10

    @pytest.mark.parametrize(
        "distribution", ["independent", "correlated", "anticorrelated"]
    )
    def test_matches_oracle_on_distributions(self, algorithm, distribution):
        pts = generate(distribution, 300, 4, seed=7)
        got = np.sort(algorithm(pts))
        expected = brute_force_skyline(pts)
        np.testing.assert_array_equal(got, expected)

    def test_matches_oracle_high_dim(self, algorithm):
        pts = generate("independent", 150, 8, seed=3)
        np.testing.assert_array_equal(
            np.sort(algorithm(pts)), brute_force_skyline(pts)
        )

    def test_with_duplicated_block(self, algorithm):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 1, size=(40, 3))
        pts = np.vstack([base, base[:10]])  # exact duplicates
        np.testing.assert_array_equal(
            np.sort(algorithm(pts)), brute_force_skyline(pts)
        )

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, algorithm, pts):
        np.testing.assert_array_equal(
            np.sort(algorithm(pts)), brute_force_skyline(pts)
        )

    @given(point_sets(ndim=2))
    @settings(max_examples=40, deadline=None)
    def test_skyline_is_idempotent(self, algorithm, pts):
        first = pts[algorithm(pts)]
        second = first[algorithm(first)]
        assert len(first) == len(second)

    @given(point_sets(ndim=3, max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_no_skyline_point_dominated(self, algorithm, pts):
        sky = pts[algorithm(pts)]
        for s in sky:
            le = np.all(pts <= s, axis=1)
            lt = np.any(pts < s, axis=1)
            assert not np.any(le & lt)


class TestSfsSpecifics:
    def test_returns_sorted_indices(self):
        pts = generate("independent", 200, 3, seed=1)
        idx = sfs_skyline(pts)
        assert np.all(np.diff(idx) > 0)

    def test_large_input_smoke(self):
        pts = generate("anticorrelated", 20_000, 3, seed=2)
        idx = sfs_skyline(pts)
        # anticorrelated data has a large skyline
        assert len(idx) > 100
        sky = pts[idx]
        # spot-check a sample against the definition
        rng = np.random.default_rng(0)
        for s in sky[rng.choice(len(sky), size=20)]:
            le = np.all(pts <= s, axis=1)
            lt = np.any(pts < s, axis=1)
            assert not np.any(le & lt)


def block_edges(count=6):
    """The input sizes at which the first ``count`` blocks end."""
    edges, end, size = [], 0, sfs._FIRST_BLOCK
    for _ in range(count):
        end += size
        edges.append(end)
        size = min(2 * size, sfs._MAX_BLOCK)
    return edges


class TestSfsAcrossBlocks:
    """Block SFS against the Definition-1 oracle on inputs that span blocks."""

    LONG = 2 * sfs._MAX_BLOCK + 500  # longer than the largest block

    @staticmethod
    def check(pts):
        np.testing.assert_array_equal(sfs_skyline(pts), brute_force_skyline(pts))

    @pytest.mark.parametrize("ndim", [1, 2, 4, 6])
    @pytest.mark.parametrize("n", [700, 3000])
    def test_duplicate_heavy_grid(self, ndim, n):
        rng = np.random.default_rng(100 * ndim + n)
        self.check(rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, ndim)))

    @pytest.mark.parametrize("ndim", [2, 4])
    def test_absorbed_sum_ties(self, ndim):
        """1e16 absorbs the small coordinates: whole runs of equal sums, so
        only the lexicographic tie-break keeps dominators first."""
        rng = np.random.default_rng(ndim)
        pts = rng.integers(0, 4, size=(1500, ndim)).astype(float)
        pts[:, 0] += 1e16
        assert len(np.unique(pts.sum(axis=1))) < len(np.unique(pts, axis=0))
        self.check(pts)

    def test_all_identical_rows(self):
        pts = np.tile([0.5, 0.25, 0.75], (self.LONG, 1))
        assert len(sfs_skyline(pts)) == self.LONG

    def test_total_order_chain(self):
        chain = np.arange(self.LONG, dtype=float)
        pts = np.column_stack([chain, chain, chain])
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(self.LONG)
        assert list(sfs_skyline(pts)) == [0]
        assert list(sfs_skyline(pts[shuffled])) == [int(np.argmin(shuffled))]

    def test_antichain(self):
        ramp = np.arange(self.LONG, dtype=float)
        pts = np.column_stack([ramp, self.LONG - ramp])
        np.testing.assert_array_equal(sfs_skyline(pts), np.arange(self.LONG))

    @pytest.mark.parametrize("edge", block_edges())
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edge(self, edge, offset):
        pts = generate("anticorrelated", edge + offset, 3, seed=edge)
        self.check(pts)

    def test_dominator_in_an_earlier_block_than_its_victim(self):
        """A victim whose only dominator was confirmed blocks earlier."""
        n = block_edges()[2] + 10
        ramp = np.arange(1, n, dtype=float)
        pts = np.vstack([np.column_stack([ramp, n - ramp]), [[1.0, n + 5.0]]])
        # the last row is dominated by row 0 only: (1, n - 1)
        assert n - 1 not in sfs_skyline(pts)
        self.check(pts)


#: Coordinates whose sums tie often: signed zeros, and offsets that 1e16
#: absorbs (the spacing of doubles there is 2).
TIE_GRID = (-0.0, 0.0, 0.25, 1.0, 1e16, 1e16 + 2.0)
#: The same steps without the absorbing offsets.
SMALL_GRID = (-0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def sfs_inputs(draw):
    """``(points, ties)``: up to ~450 rows of 1-5 grid coordinates, so the
    input crosses the 64 / 128 / 256 block edges.  With ``ties`` the grid
    holds 1e16 offsets and one-sided infinities and a row is repeated, so
    two sums are equal; without, a per-row ramp below the grid step makes
    every sum distinct."""
    ties = draw(st.booleans())
    n = draw(st.integers(1, 450))
    ndim = draw(st.integers(1, 5))
    if ties:
        inf = draw(st.sampled_from([np.inf, -np.inf]))  # never both: NaN sums
        grid = TIE_GRID + (inf,)
    else:
        grid = SMALL_GRID
    pts = draw(arrays(np.float64, (n, ndim), elements=st.sampled_from(grid)))
    if ties:
        pts = np.vstack([pts, pts[draw(st.integers(0, n - 1))]])
    else:
        # 450 * 2**-12 < 0.25: the ramp separates rows whose grid sums tie
        # and never reaches the next grid sum
        pts[:, 0] += np.arange(n) * 2.0**-12
    return pts, ties


class TestSfsSortPaths:
    @given(sfs_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle_on_both_sort_paths(self, drawn):
        """Distinct sums take the sum-only sort; any equal pair of sums
        takes the lexicographic fallback that folds equal rows."""
        pts, ties = drawn
        sums = pts.sum(axis=1)
        assert (len(np.unique(sums)) < len(sums)) == ties
        np.testing.assert_array_equal(sfs_skyline(pts), brute_force_skyline(pts))

    def test_signed_zero_rows_are_equal(self):
        pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 1.0], [-0.0, 1.0]])
        assert list(sfs_skyline(pts)) == [0, 1, 3]


class TestSfsRejectsUnsortableInput:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_coordinate_sum(self):
        """Regression: row 0 dominates row 1, but its ``inf - inf`` sum is
        NaN and sorted last, so both rows used to be returned."""
        pts = np.array([[np.inf, -np.inf], [np.inf, 5.0]])
        assert list(brute_force_skyline(pts)) == [0]
        with pytest.raises(ValueError, match="NaN"):
            sfs_skyline(pts)

    def test_nan_coordinate(self):
        with pytest.raises(ValueError, match="NaN"):
            sfs_skyline(np.array([[0.5, np.nan], [0.1, 0.2]]))

    def test_one_sided_infinities_still_sort(self):
        pts = np.array([[np.inf, 1.0], [np.inf, 2.0], [5.0, 3.0], [-np.inf, 9.0]])
        np.testing.assert_array_equal(sfs_skyline(pts), brute_force_skyline(pts))

    @pytest.mark.parametrize(
        "pts", [np.array([0.5, 0.25, 0.75]), np.zeros((2, 3, 4))]
    )
    def test_not_two_dimensional(self, pts):
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            sfs_skyline(pts)
