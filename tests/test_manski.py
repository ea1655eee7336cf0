"""Tests for the plug-in identification region and its delta-method band."""

import math

import numpy as np
import pytest

from concate.bands import compute_band
from concate.errors import DegenerateArmError, ValidationError
from concate.estimators import split_arms
from concate.manski import (
    SupportBounds,
    delta_method_band,
    extrema_support,
    known_support,
    manski_region,
    trimmed_support,
)
from delta_oracle import bound_gradients, sampling_covariance


def stats_from(treated_values, control_values):
    y = np.concatenate([treated_values, control_values]).astype(float)
    z = np.concatenate(
        [np.ones(len(treated_values), dtype=bool), np.zeros(len(control_values), dtype=bool)]
    )
    return split_arms(y, z)


def random_stats(rng, n_lo=6, n_hi=120):
    while True:
        n = int(rng.integers(n_lo, n_hi))
        z = rng.random(n) < rng.uniform(0.2, 0.8)
        if 2 <= z.sum() <= n - 2:
            return split_arms(rng.standard_normal(n) * rng.uniform(0.5, 3.0), z)


def region_lower(mean1, mean0, p1, p0, support):
    return (
        mean1 * p1
        - mean0 * p0
        + support.lower_treated * p0
        - support.upper_control * p1
    )


def region_upper(mean1, mean0, p1, p0, support):
    return (
        mean1 * p1
        - mean0 * p0
        + support.upper_treated * p0
        - support.lower_control * p1
    )


class TestSupports:
    def test_extrema(self):
        s = stats_from([1.0, 5.0, 3.0], [-2.0, 0.0])
        sup = extrema_support(s)
        assert sup.lower_treated == 1.0 and sup.upper_treated == 5.0
        assert sup.lower_control == -2.0 and sup.upper_control == 0.0
        assert sup.source == "extrema"

    def test_trimmed_anchors(self):
        s = stats_from(np.arange(1.0, 21.0), np.arange(1.0, 11.0))
        sup = trimmed_support(s, 0.05)
        assert sup.lower_treated == 1.0 and sup.upper_treated == 19.0
        assert sup.source == "trimmed-0.05"
        sup10 = trimmed_support(s, 0.10)
        assert sup10.lower_control == 1.0 and sup10.upper_control == 9.0

    def test_trimmed_region_inside_extrema_region(self):
        rng = np.random.default_rng(81)
        for _ in range(100):
            s = random_stats(rng, n_lo=12)
            wide_lower, wide_upper = manski_region(s, extrema_support(s))
            narrow_lower, narrow_upper = manski_region(s, trimmed_support(s, 0.1))
            assert narrow_lower >= wide_lower - 1e-12
            assert narrow_upper <= wide_upper + 1e-12

    def test_quantile_band_trusts_the_arms_split_arms_sorted(self, monkeypatch):
        # the band reads the order statistics GroupStats sorted, with no sortedness scan
        stats = random_stats(np.random.default_rng(5), n_lo=40)
        want = compute_band(stats, "manski-q05", 0.05)

        def no_diff(*args, **kwargs):
            raise AssertionError("np.diff called")

        monkeypatch.setattr(np, "diff", no_diff)
        assert compute_band(stats, "manski-q05", 0.05) == want

    def test_known_support_applies_to_both_arms(self):
        sup = known_support(-5.0, 5.0)
        assert sup.lower_treated == sup.lower_control == -5.0
        assert sup.upper_treated == sup.upper_control == 5.0
        assert sup.source == "known"

    def test_support_validation(self):
        with pytest.raises(ValidationError):
            known_support(2.0, -2.0)
        with pytest.raises(ValidationError):
            SupportBounds(math.nan, 1.0, 0.0, 1.0, source="known")

    def test_degenerate_stats_rejected(self):
        s = split_arms(np.ones(4), np.ones(4, dtype=bool))
        with pytest.raises(DegenerateArmError):
            extrema_support(s)
        with pytest.raises(DegenerateArmError):
            trimmed_support(s, 0.1)


class TestManskiRegion:
    def test_hand_computed_region(self):
        # mu1 = 4, mu0 = 0, p1 = 0.3, common support [-2, 6]
        s = stats_from([2.0, 4.0, 6.0], [-2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0])
        lower, upper = manski_region(s, known_support(-2.0, 6.0))
        assert abs(lower - (-2.0)) < 1e-12
        assert abs(upper - 6.0) < 1e-12
        assert abs((upper - lower) - 8.0) < 1e-12

    def test_point_support_collapses_to_zero(self):
        s = stats_from([2.0], [2.0, 2.0, 2.0])
        lower, upper = manski_region(s, known_support(2.0, 2.0))
        assert lower == 0.0 and upper == 0.0
        assert lower <= 0.0 <= upper

    def test_contains_difference_in_means_under_extrema_support(self):
        rng = np.random.default_rng(82)
        for _ in range(1000):
            s = random_stats(rng)
            lower, upper = manski_region(s, extrema_support(s))
            delta = s.mean_treated - s.mean_control
            assert lower <= delta + 1e-10
            assert upper >= delta - 1e-10

    def test_width_identity(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            s = random_stats(rng)
            lo1, hi1 = sorted(rng.uniform(-10, 10, size=2))
            lo0, hi0 = sorted(rng.uniform(-10, 10, size=2))
            sup = SupportBounds(lo1, hi1, lo0, hi0, source="known")
            lower, upper = manski_region(s, sup)
            expected = (hi1 - lo1) * s.share_control + (hi0 - lo0) * s.share_treated
            assert abs((upper - lower) - expected) < 1e-10

    def test_width_ignores_mean_shifts_under_fixed_support(self):
        s1 = stats_from([1.0, 2.0, 3.0], [0.0, 1.0])
        s2 = stats_from([4.0, 5.0, 6.0], [2.0, 3.0])
        sup = known_support(-10.0, 10.0)
        lower1, upper1 = manski_region(s1, sup)
        lower2, upper2 = manski_region(s2, sup)
        assert abs((upper1 - lower1) - (upper2 - lower2)) < 1e-12


class TestSamplingCovariance:
    def test_structure(self):
        s = stats_from([0.0, 2.0, 4.0], [1.0, 3.0])
        cov = sampling_covariance(s)
        v_share = s.share_treated * s.share_control / s.n
        assert cov.shape == (4, 4)
        assert abs(cov[0, 0] - s.var_treated / 3) < 1e-15
        assert abs(cov[1, 1] - s.var_control / 2) < 1e-15
        assert abs(cov[2, 2] - v_share) < 1e-15
        assert abs(cov[2, 3] + v_share) < 1e-15
        assert np.allclose(cov, cov.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(84)
        for _ in range(50):
            cov = sampling_covariance(random_stats(rng))
            assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_needs_two_per_arm(self):
        with pytest.raises(DegenerateArmError):
            sampling_covariance(stats_from([1.0], [2.0, 3.0]))


class TestBoundGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(85)
        for _ in range(100):
            s = random_stats(rng)
            sup = extrema_support(s)
            point = np.array(
                [s.mean_treated, s.mean_control, s.share_treated, s.share_control]
            )
            grad_lower, grad_upper = bound_gradients(s, sup)
            for formula, grad in ((region_lower, grad_lower), (region_upper, grad_upper)):
                for i in range(4):
                    h = 1e-5 * max(1.0, abs(point[i]))
                    hi = point.copy()
                    lo = point.copy()
                    hi[i] += h
                    lo[i] -= h
                    fd = (formula(*hi, sup) - formula(*lo, sup)) / (2.0 * h)
                    assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_mean_components_are_shares(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0, 5.0])
        grad_lower, grad_upper = bound_gradients(s, extrema_support(s))
        assert grad_lower[0] == s.share_treated
        assert grad_lower[1] == -s.share_control
        assert grad_upper[0] == s.share_treated
        assert grad_upper[1] == -s.share_control


class TestDeltaMethodBand:
    def test_band_encloses_region(self):
        rng = np.random.default_rng(86)
        for _ in range(100):
            s = random_stats(rng)
            band = delta_method_band(s, extrema_support(s), 0.05)
            assert band.band_lower <= band.region_lower
            assert band.band_upper >= band.region_upper

    def test_multiplier(self):
        s = stats_from([0.0, 2.0, 4.0], [1.0, 3.0])
        band = delta_method_band(s, extrema_support(s), 0.05)
        assert abs(band.multiplier - 1.959964) < 1e-6

    def test_constant_outcomes_give_zero_se(self):
        s = stats_from([2.0, 2.0], [2.0, 2.0, 2.0])
        band = delta_method_band(s, known_support(2.0, 2.0), 0.05)
        assert band.se_lower == 0.0 and band.se_upper == 0.0
        assert band.band_lower == band.region_lower == 0.0
        assert band.band_upper == band.region_upper == 0.0

    def test_se_matches_sampling_distribution(self):
        """Delta-method SE vs the sd of the bound over fresh samples."""
        rng = np.random.default_rng(87)
        n, reps = 800, 2500
        support = known_support(-4.0, 4.0)
        lowers = np.empty(reps)
        reported = np.empty(reps)
        for r in range(reps):
            d = rng.random(n) < 0.5
            y = np.where(d, rng.uniform(0.0, 4.0, n), rng.uniform(-4.0, 0.0, n))
            band = delta_method_band(split_arms(y, d), support, 0.05)
            lowers[r] = band.region_lower
            reported[r] = band.se_lower
        observed = lowers.std(ddof=1)
        assert abs(observed - reported.mean()) < 0.10 * reported.mean()

    def test_order_invariance(self):
        rng = np.random.default_rng(88)
        n = 60
        y = rng.standard_normal(n)
        d = rng.random(n) < 0.4
        if not 2 <= d.sum() <= n - 2:
            d[:3] = True
            d[3:6] = False
        perm = rng.permutation(n)
        band_a = delta_method_band(split_arms(y, d), known_support(-6.0, 6.0), 0.05)
        band_b = delta_method_band(split_arms(y[perm], d[perm]), known_support(-6.0, 6.0), 0.05)
        assert band_a.band_lower == band_b.band_lower
        assert band_a.band_upper == band_b.band_upper
