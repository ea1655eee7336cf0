"""Tests for the shared numeric helpers."""

import numpy as np
import pytest
from scipy import stats as sps

from concate.errors import ValidationError
from concate.stats import long_run_variance, norm_ppf


def brute_force_long_run_variance(values):
    """Newey-West with Bartlett weights, written out with plain sums."""
    x = [float(v) for v in values]
    n = len(x)
    mean = sum(x) / n
    d = [v - mean for v in x]
    lag = min(int(np.ceil(n ** (1.0 / 3.0))), n - 1)
    v = sum(t * t for t in d) / n
    for j in range(1, lag + 1):
        gamma = sum(d[i] * d[i - j] for i in range(j, n)) / n
        v += 2.0 * (1.0 - j / (lag + 1.0)) * gamma
    return v


class TestNormPpf:
    def test_matches_scipy_on_a_grid(self):
        for p in np.linspace(0.001, 0.999, 199):
            assert abs(norm_ppf(float(p)) - sps.norm.ppf(p)) < 1e-9

    def test_matches_scipy_in_the_tails(self):
        for p in (1e-8, 1e-6, 1e-4, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8):
            assert abs(norm_ppf(p) - sps.norm.ppf(p)) < 1e-9

    def test_tabulated_quantiles(self):
        assert abs(norm_ppf(0.975) - 1.959964) < 1e-6
        assert abs(norm_ppf(1.0 - 0.05 / 4.0) - 2.241403) < 1e-6
        # two-sided quantile after splitting 0.05 over 19 looks
        assert abs(norm_ppf(1.0 - (0.05 / 19.0) / 2.0) - 3.007787) < 1e-6

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.35, 0.49):
            assert abs(norm_ppf(p) + norm_ppf(1.0 - p)) < 1e-12

    def test_median_is_zero(self):
        assert norm_ppf(0.5) == 0.0

    def test_rejects_levels_outside_open_interval(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                norm_ppf(p)


class TestLongRunVariance:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(71)
        for n in (2, 3, 5, 17, 64, 200):
            x = rng.standard_normal(n)
            expected = max(brute_force_long_run_variance(x), 0.0)
            assert abs(long_run_variance(x) - expected) < 1e-12

    def test_white_noise_recovers_the_variance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(100_000)
        assert abs(long_run_variance(x) - 1.0) < 0.1

    def test_positive_serial_dependence_inflates_it(self):
        rng = np.random.default_rng(11)
        n = 20_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + rng.standard_normal()
        assert long_run_variance(x) > 1.8 * x.var()

    def test_never_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = rng.standard_normal(rng.integers(2, 40))
            assert long_run_variance(x) >= 0.0

    def test_constant_series_is_zero(self):
        assert long_run_variance(np.full(25, 3.5)) == 0.0
