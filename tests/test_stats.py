import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from fuzzterm import paired_ttest
from fuzzterm.errors import LengthMismatch
from fuzzterm.stats import regularized_incomplete_beta, t_two_tailed_p


class TestRegularizedIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_midpoint(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.37, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x)

    def test_against_scipy(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            a = float(rng.uniform(0.05, 50.0))
            b = float(rng.uniform(0.05, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            want = float(scipy.special.betainc(a, b, x))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                want, rel=1e-10, abs=1e-12
            )

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


class TestTwoTailedP:
    def test_zero_statistic(self):
        assert t_two_tailed_p(0.0, 5) == pytest.approx(1.0)

    def test_infinite_statistic(self):
        assert t_two_tailed_p(math.inf, 5) == 0.0
        assert t_two_tailed_p(-math.inf, 5) == 0.0

    def test_symmetry(self):
        assert t_two_tailed_p(2.3, 7) == t_two_tailed_p(-2.3, 7)

    def test_against_scipy_sf(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            t = float(rng.normal(scale=3.0))
            df = int(rng.integers(1, 60))
            want = 2.0 * float(scipy.stats.t.sf(abs(t), df))
            assert t_two_tailed_p(t, df) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_df_validation(self):
        with pytest.raises(ValueError):
            t_two_tailed_p(1.0, 0)


class TestPairedTTest:
    def test_textbook_case(self):
        result = paired_ttest([2, 4, 6, 8], [1, 2, 3, 4])
        assert result.mean_diff == pytest.approx(2.5)
        assert result.df == 3
        assert result.t == pytest.approx(3.872983346207417, abs=1e-9)
        assert result.p == pytest.approx(0.030466291662170977, abs=1e-9)

    def test_identical_samples(self):
        result = paired_ttest([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert result.t == 0.0
        assert result.p == 1.0
        assert result.zero_variance

    def test_constant_nonzero_difference(self):
        result = paired_ttest([1.1, 2.1, 3.1], [1.0, 2.0, 3.0])
        assert result.zero_variance
        assert result.t == math.inf
        assert result.p == 0.0
        down = paired_ttest([1.0, 2.0, 3.0], [1.1, 2.1, 3.1])
        assert down.t == -math.inf

    def test_equal_differences_whose_mean_rounds_off(self):
        # 0.9 - 0.55 summed seven times and divided by 7 is one ulp off the
        # difference, which once left a variance of 3.6e-33 and t = 1.5e16
        result = paired_ttest([0.9] * 7, [0.55] * 7)
        assert result.zero_variance
        assert result.t == math.inf
        assert result.p == 0.0
        assert result.mean_diff == sum([0.9 - 0.55] * 7) / 7

    def test_equal_differences_whose_mean_is_exact(self):
        result = paired_ttest([0.5] * 10, [0.4] * 10)
        assert result.zero_variance
        assert result.t == math.inf
        assert result.p == 0.0
        assert result.mean_diff == 0.5 - 0.4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_ttest([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])

    def test_antisymmetry(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)
            fwd = paired_ttest(a, b)
            rev = paired_ttest(b, a)
            if fwd.zero_variance:
                continue
            assert fwd.t == pytest.approx(-rev.t)
            assert fwd.p == pytest.approx(rev.p)
            assert fwd.mean_diff == pytest.approx(-rev.mean_diff)

    def test_against_scipy_on_random_pairs(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = 30
            a = rng.normal(size=n)
            b = a + rng.normal(loc=0.3, scale=0.5, size=n)
            mine = paired_ttest(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert mine.t == pytest.approx(float(ref.statistic), rel=1e-10)
            assert mine.p == pytest.approx(float(ref.pvalue), rel=1e-6, abs=1e-12)

    def test_p_always_in_unit_interval(self):
        rng = np.random.default_rng(65)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n) * 10
            b = rng.normal(size=n)
            result = paired_ttest(a, b)
            assert 0.0 <= result.p <= 1.0
