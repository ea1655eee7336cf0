"""Tests for the hybrid band and the per-replication band pair."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from concate.bands import BandOptions, compute_band
from concate.concentration import Truncation
from concate.errors import ConcateError, DataError, DegenerateArmError, ValidationError
from concate.estimators import split_arms
from concate.montecarlo import MC_DESIGNS
from concate.manski import extrema_support, manski_region, norm_ppf
from delta_oracle import bound_gradients, sampling_covariance


def stats_from(treated_values, control_values):
    y = np.concatenate([treated_values, control_values]).astype(float)
    z = np.concatenate(
        [np.ones(len(treated_values), dtype=bool), np.zeros(len(control_values), dtype=bool)]
    )
    return split_arms(y, z)


def random_stats(rng, n_lo=20, n_hi=200, positive=False):
    while True:
        n = int(rng.integers(n_lo, n_hi))
        z = rng.random(n) < rng.uniform(0.3, 0.7)
        if 2 <= z.sum() <= n - 2:
            y = rng.chisquare(3, n) if positive else rng.standard_normal(n)
            return split_arms(y * rng.uniform(0.5, 3.0), z)


class TestHybridBand:
    def test_multiplier(self):
        rng = np.random.default_rng(120)
        s = random_stats(rng)
        band = compute_band(s, "hybrid", 0.05)
        z = norm_ppf(1.0 - 0.05 / 4.0)
        assert abs(z - 2.241403) < 1e-6
        padded_lower, padded_upper = manski_region(s, band.support)
        assert band.band_lower == padded_lower - z * band.se_lower
        assert band.band_upper == padded_upper + z * band.se_upper

    def test_assembly_identity(self):
        rng = np.random.default_rng(121)
        for _ in range(50):
            s = random_stats(rng)
            band = compute_band(s, "hybrid", 0.05)
            padded_lower, padded_upper = manski_region(s, band.support)
            z = norm_ppf(1.0 - 0.05 / 4.0)
            assert band.band_lower == padded_lower - z * band.se_lower
            assert band.band_upper == padded_upper + z * band.se_upper

    def test_per_endpoint_ses_use_the_padded_support(self):
        rng = np.random.default_rng(122)
        s = random_stats(rng)
        band = compute_band(s, "hybrid", 0.05)
        cov = sampling_covariance(s)
        grad_lower, grad_upper = bound_gradients(s, band.support)
        assert abs(band.se_lower - math.sqrt(grad_lower @ cov @ grad_lower)) < 1e-15
        assert abs(band.se_upper - math.sqrt(grad_upper @ cov @ grad_upper)) < 1e-15

    def test_support_padding_formula(self):
        rng = np.random.default_rng(123)
        s = random_stats(rng)
        band = compute_band(s, "hybrid", 0.05, BandOptions(c_alpha=0.5))
        expected = 3.0 * math.sqrt(2.0 * math.log(8.0 / 0.05) / s.n_treated)
        assert abs(band.paddings.eps_treated - expected) < 1e-15
        assert band.support.upper_treated == s.max_treated + band.paddings.eps_treated
        assert band.support.lower_treated == s.min_treated - band.paddings.eps_treated

    def test_strictly_contains_the_plugin_region(self):
        rng = np.random.default_rng(124)
        for positive in (False, True):
            for _ in range(250):
                s = random_stats(rng, positive=positive)
                band = compute_band(s, "hybrid", 0.05)
                lower, upper = manski_region(s, extrema_support(s))
                assert band.band_lower < lower
                assert band.band_upper > upper

    def test_band_approaches_the_region_as_n_grows(self):
        rng = np.random.default_rng(125)
        gaps = []
        for n in (100, 10_000, 1_000_000):
            y = rng.chisquare(3, n)
            z = rng.random(n) < 0.5
            s = split_arms(y, z)
            band = compute_band(s, "hybrid", 0.05)
            lower, upper = manski_region(s, extrema_support(s))
            gaps.append(band.band_upper - band.band_lower - (upper - lower))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1

    def test_width_monotone_in_c_alpha(self):
        rng = np.random.default_rng(126)
        s = random_stats(rng)
        bands = [compute_band(s, "hybrid", 0.05, BandOptions(c_alpha=c))
                 for c in (0.0, 0.5, 1.0, 2.0)]
        widths = [band.band_upper - band.band_lower for band in bands]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_width_monotone_as_alpha_shrinks(self):
        rng = np.random.default_rng(127)
        s = random_stats(rng)
        bands = [compute_band(s, "hybrid", a) for a in (0.2, 0.1, 0.05, 0.01)]
        widths = [band.band_upper - band.band_lower for band in bands]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_lower_known_halves_the_budget_and_skips_lower_padding(self):
        rng = np.random.default_rng(128)
        s = random_stats(rng, positive=True)
        options = BandOptions(truncation=Truncation(lower=0.0))
        band = compute_band(s, "hybrid", 0.05, options)
        assert band.support.lower_treated == 0.0
        assert band.support.lower_control == 0.0
        assert band.support.source == "padded-lower-known"
        # one-sided support events: budget 8 -> 4, dependence-adjusted form
        expected = math.sqrt(2.0 * math.log(4.0 / 0.05) / s.n_treated)
        assert abs(band.paddings.eps_treated - expected) < 1e-15

    def test_inconsistent_lower_limit_raises(self):
        s = stats_from([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(DataError):
            compute_band(
                s, "hybrid", 0.05, BandOptions(truncation=Truncation(lower=1.5))
            )

    def test_both_known_reduces_to_delta_method(self):
        rng = np.random.default_rng(129)
        s = random_stats(rng)
        lo = float(min(s.min_treated, s.min_control)) - 1.0
        hi = float(max(s.max_treated, s.max_control)) + 1.0
        options = BandOptions(truncation=Truncation(lower=lo, upper=hi))
        band = compute_band(s, "hybrid", 0.05, options)
        assert band.support.source == "known"
        # the reduction inherits the delta-method budget, not alpha_u / 4
        z = norm_ppf(1.0 - 0.05 / 2.0)
        assert band.band_lower == band.region_lower - z * band.se_lower
        assert band.band_upper == band.region_upper + z * band.se_upper
        assert band.support.source == "known"

    def test_validation(self):
        s = stats_from([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(ValidationError):
            compute_band(s, "hybrid", 0.0)
        with pytest.raises(ValidationError):
            compute_band(s, "hybrid", 0.05, BandOptions(c_alpha=-1.0))
        with pytest.raises(DegenerateArmError):
            compute_band(stats_from([1.0], [2.0, 3.0]), "hybrid", 0.05)
        with pytest.raises(DegenerateArmError):
            compute_band(split_arms(np.ones(4), np.ones(4, dtype=bool)), "hybrid", 0.05)


def pinned_outcomes():
    """200 seeded t(3) samples, each at every truncation, c_alpha and alpha_u
    of the pin below: the hybrid band's repr, or the error's class and message."""
    rng = np.random.default_rng(20251)
    for _ in range(200):
        n = int(rng.integers(2, 401))
        z = rng.random(n) < rng.uniform(0.05, 0.95)
        y = rng.standard_t(3, n) * rng.uniform(1e-3, 1e3) + rng.uniform(-50.0, 50.0)
        s = split_arms(y, z)
        lo, hi = math.floor(y.min()), math.ceil(y.max())
        for truncation in (Truncation(), Truncation(lower=lo), Truncation(lower=lo, upper=hi)):
            for c_alpha in (0.0, 0.25, 2.0):
                options = BandOptions(c_alpha=c_alpha, truncation=truncation)
                for alpha_u in (0.05 / 19, 0.01, 0.2):
                    try:
                        yield repr(compute_band(s, "hybrid", alpha_u, options))
                    except ConcateError as exc:
                        yield f"{type(exc).__name__}: {exc}"


def test_hybrid_band_is_pinned_across_truncations_c_alpha_and_levels():
    # re-recorded when the delta-method SE became one closed form: SEs moved
    # by at most 55 ulps and band ends by at most 2; no error changed.  Then
    # again when the arm-size errors came to name the method: 81 outcomes
    # went from "hybrid band needs ..." to "hybrid needs ...", no value moved.
    # Then again when BandResult lost its multiplier: every band's repr lost
    # ", multiplier=...", no other character changed.  Then again when it lost
    # the method, the level and the arm sizes: each of the 5,319 band reprs
    # lost "method='hybrid', alpha_u=..., n_treated=..., n_control=..., " and
    # the 81 errors stayed as they were
    digest = hashlib.sha256()
    for outcome in pinned_outcomes():
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == (
        "fa08729dad93926cf3dfef0839c8fa08fc6c0de439c13528cfd4c07b3c573a66"
    )


class TestReplicationBands:
    def test_design_list(self):
        assert MC_DESIGNS == ("A", "B", "C", "D", "E", "F", "G")

    def test_known_support_design_is_plugin_bit_for_bit(self, one_replication):
        rng = np.random.default_rng(130)
        y0 = rng.uniform(-5.0, 5.0, 50)
        d = rng.random(50) < 0.3
        y = np.where(d, np.clip(y0 + 4.0, -5.0, 5.0), y0)
        bands = one_replication(y0, y, d, 0.05, "G")
        assert bands.hybrid_lower == bands.manski_lower
        assert bands.hybrid_upper == bands.manski_upper
        assert bands.support_lower == -5.0 and bands.support_upper == 5.0
        assert bands.epsilon == 0.0 and bands.se == 0.0

    def test_known_support_design_allows_single_observation_arms(self, one_replication):
        """The undefined n - 1 variance of a one-observation arm is not
        needed for design G and must not reach stderr as a RuntimeWarning."""
        y0 = np.array([-1.0, 0.0, 1.0, 2.0])
        d = np.array([True, False, False, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bands = one_replication(y0, y0, d, 0.05, "G")
            flipped = one_replication(y0, y0, ~d, 0.05, "G")
        assert bands.hybrid_lower == bands.manski_lower
        assert flipped.hybrid_upper == flipped.manski_upper
        assert bands.se == 0.0

    def test_pooled_epsilon_anchor(self, one_replication):
        rng = np.random.default_rng(131)
        y0 = rng.standard_normal(50)
        d = rng.random(50) < 0.3
        while not 2 <= d.sum() <= 48:
            d = rng.random(50) < 0.3
        y = y0 + 4.0 * d
        bands = one_replication(y0, y, d, 0.05, "A")
        assert abs(bands.epsilon - 0.192065) < 1e-6
        assert abs(bands.epsilon - math.sqrt(math.log(40.0) / 100.0)) < 1e-15

    def test_one_sided_design_uses_smaller_log_constant(self, one_replication):
        rng = np.random.default_rng(132)
        y0 = rng.chisquare(3, 60)
        d = rng.random(60) < 0.3
        while not 2 <= d.sum() <= 58:
            d = rng.random(60) < 0.3
        y = y0 + 4.0 * d
        bands = one_replication(y0, y, d, 0.05, "F")
        assert abs(bands.epsilon - math.sqrt(math.log(20.0) / 120.0)) < 1e-15
        assert bands.support_lower == 0.0
        assert bands.support_upper == y0.max()

    def test_supports_come_from_the_baseline_not_the_outcome(self, one_replication):
        rng = np.random.default_rng(133)
        y0 = rng.standard_normal(80)
        d = rng.random(80) < 0.3
        while not 2 <= d.sum() <= 78:
            d = rng.random(80) < 0.3
        y = y0 + 100.0 * d
        bands = one_replication(y0, y, d, 0.05, "A")
        assert bands.support_lower == y0.min()
        assert bands.support_upper == y0.max()

    def test_hybrid_assembly(self, one_replication):
        rng = np.random.default_rng(134)
        y0 = rng.standard_normal(100)
        d = rng.random(100) < 0.3
        while not 2 <= d.sum() <= 98:
            d = rng.random(100) < 0.3
        y = y0 + 4.0 * d
        bands = one_replication(y0, y, d, 0.05, "B")
        z = norm_ppf(1.0 - 0.05 / 4.0)
        scale = math.hypot(bands.se, bands.se)
        assert abs(bands.hybrid_lower - (bands.manski_lower - bands.epsilon - z * scale)) < 1e-12
        assert abs(bands.hybrid_upper - (bands.manski_upper + bands.epsilon + z * scale)) < 1e-12
        assert bands.hybrid_lower < bands.manski_lower
        assert bands.hybrid_upper > bands.manski_upper
