"""Statistical shape tests for the data generators."""

import numpy as np
import pytest

from repro.data.generator import (
    anticorrelated,
    correlated,
    generate,
    independent,
)
from repro.data.realestate import (
    COLUMNS,
    danish_real_estate,
)
from repro.skyline.sfs import sfs_skyline


class TestBasics:
    @pytest.mark.parametrize(
        "distribution", ["independent", "correlated", "anticorrelated"]
    )
    def test_shape_and_range(self, distribution):
        pts = generate(distribution, 500, 4, seed=1)
        assert pts.shape == (500, 4)
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate("zipf", 10, 2)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            independent(-1, 2)
        with pytest.raises(ValueError):
            independent(10, 0)
        with pytest.raises(ValueError):
            correlated(10, 2, spread=0.0)
        with pytest.raises(ValueError):
            anticorrelated(10, 2, spread=-1.0)

    def test_zero_points(self):
        assert generate("independent", 0, 3).shape == (0, 3)

    def test_seed_reproducibility(self):
        a = generate("correlated", 200, 3, seed=42)
        b = generate("correlated", 200, 3, seed=42)
        np.testing.assert_array_equal(a, b)
        c = generate("correlated", 200, 3, seed=43)
        assert not np.array_equal(a, c)

    def test_generator_object_accepted(self):
        rng = np.random.default_rng(5)
        pts = independent(10, 2, rng)
        assert pts.shape == (10, 2)


class TestDistributionShape:
    def test_correlated_has_high_pairwise_correlation(self):
        pts = correlated(5000, 3, seed=2)
        corr = np.corrcoef(pts.T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(off_diag > 0.7)

    def test_anticorrelated_has_negative_pairwise_correlation(self):
        pts = anticorrelated(5000, 3, seed=3)
        corr = np.corrcoef(pts.T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(off_diag < -0.1)

    def test_independent_near_zero_correlation(self):
        pts = independent(5000, 3, seed=4)
        corr = np.corrcoef(pts.T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.1)

    def test_anticorrelated_sums_concentrated(self):
        pts = anticorrelated(2000, 4, seed=5)
        sums = pts.sum(axis=1)
        assert abs(sums.mean() - 2.0) < 0.1

    def test_skyline_size_ordering(self):
        """The canonical property: |sky(corr)| < |sky(indep)| < |sky(anti)|."""
        n, d, seed = 3000, 4, 6
        sizes = {
            kind: len(sfs_skyline(generate(kind, n, d, seed=seed)))
            for kind in ["independent", "correlated", "anticorrelated"]
        }
        assert sizes["correlated"] < sizes["independent"] < sizes["anticorrelated"]


class TestRealEstate:
    def test_shape_and_columns(self):
        data = danish_real_estate(1000, seed=1)
        assert data.shape == (1000, len(COLUMNS))

    def test_plausible_ranges(self):
        data = danish_real_estate(5000, seed=2)
        age, sqrm, valuation, price = data.T
        assert np.all(age >= 0) and np.all(age <= 155)
        assert np.all(sqrm >= 25) and np.all(sqrm <= 800)
        assert np.all(valuation > 0)
        assert np.all(price > 0)

    def test_price_valuation_strongly_correlated(self):
        data = danish_real_estate(5000, seed=3)
        corr = np.corrcoef(data[:, 2], data[:, 3])[0, 1]
        assert corr > 0.8

    def test_age_valuation_anticorrelated(self):
        data = danish_real_estate(5000, seed=4)
        corr = np.corrcoef(data[:, 0], data[:, 2])[0, 1]
        assert corr < -0.1

    def test_reproducible(self):
        np.testing.assert_array_equal(
            danish_real_estate(100, seed=9), danish_real_estate(100, seed=9)
        )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            danish_real_estate(-5)
