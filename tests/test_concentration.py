"""Tests for the finite-sample padding formulas and band assemblies."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from concate.bands import BandOptions, compute_band
from concate.concentration import (
    BernsteinConstants,
    Paddings,
    Truncation,
    bernstein_mixing_terms,
    bernstein_term3_root,
    bernstein_tmu_iid,
    dkw_epsilon,
    padded_interval,
)
from concate.errors import (
    ConfigurationError,
    DataError,
    DegenerateArmError,
    ValidationError,
)
from concate.estimators import split_arms
from concate.manski import delta_method_band, extrema_support, known_support, manski_region


def stats_from(treated_values, control_values):
    y = np.concatenate([treated_values, control_values]).astype(float)
    z = np.concatenate(
        [np.ones(len(treated_values), dtype=bool), np.zeros(len(control_values), dtype=bool)]
    )
    return split_arms(y, z)


def random_stats(rng, n_lo=20, n_hi=200, positive=False, arm_min=2):
    while True:
        n = int(rng.integers(n_lo, n_hi))
        z = rng.random(n) < rng.uniform(0.3, 0.7)
        if arm_min <= z.sum() <= n - arm_min:
            y = rng.chisquare(3, n) if positive else rng.standard_normal(n)
            return split_arms(y * rng.uniform(0.5, 3.0), z)


def third_term_level(t, n, constants):
    """The third weak-dependence tail term, written out directly."""
    u = n * t
    a = constants.gamma * (1.0 - constants.gamma)
    g = (u * u / (constants.c3 * n)) * math.exp(
        u**a / (constants.c4 * math.log(u) ** constants.gamma)
    )
    return math.exp(-g)


class TestDkwEpsilon:
    def test_frozen_anchor(self):
        assert abs(dkw_epsilon(0.05, 200) - 0.117054) < 1e-6

    def test_formula(self):
        assert dkw_epsilon(0.05, 200) == math.sqrt(math.log(12.0 / 0.05) / 400.0)

    def test_one_sided_halves_the_budget(self):
        eps = dkw_epsilon(0.05, 150, sides="one")
        assert eps == math.sqrt(math.log(6.0 / 0.05) / 300.0)
        assert eps < dkw_epsilon(0.05, 150)

    def test_doubling_n_shrinks_by_root_two(self):
        for alpha in (0.01, 0.05, 0.2):
            assert abs(dkw_epsilon(alpha, 800) - dkw_epsilon(alpha, 400) / math.sqrt(2)) < 1e-15

    def test_budget_inversion(self):
        rng = np.random.default_rng(90)
        for _ in range(50):
            alpha = float(rng.uniform(0.001, 0.2))
            n = int(rng.integers(5, 100_000))
            eps = dkw_epsilon(alpha, n)
            assert abs(12.0 * math.exp(-2.0 * n * eps * eps) - alpha) < 1e-10 * alpha
            eps1 = dkw_epsilon(alpha, n, sides="one")
            assert abs(6.0 * math.exp(-2.0 * n * eps1 * eps1) - alpha) < 1e-10 * alpha

    def test_mixing_form(self):
        eps = dkw_epsilon(0.05, 100, c_alpha=0.5)
        assert eps == 3.0 * math.sqrt(2.0 * math.log(12.0 / 0.05) / 100.0)


class TestHoeffdingShare:
    def test_frozen_anchor(self):
        assert abs(dkw_epsilon(0.05, 1000) - 0.0523481) < 1e-6

    def test_mixing_anchor(self):
        assert abs(dkw_epsilon(0.05, 1000, c_alpha=1.0) - 0.523481) < 1e-6

    def test_mixing_prefactor_at_zero(self):
        t_iid = dkw_epsilon(0.05, 500)
        t_mix = dkw_epsilon(0.05, 500, c_alpha=0.0)
        assert abs(t_mix - 2.0 * t_iid) < 1e-15

    def test_budget_inversion(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            alpha = float(rng.uniform(0.001, 0.2))
            n = int(rng.integers(5, 100_000))
            t = dkw_epsilon(alpha, n)
            assert abs(12.0 * math.exp(-2.0 * n * t * t) - alpha) < 1e-10 * alpha
            c = float(rng.uniform(0.0, 2.0))
            tm = dkw_epsilon(alpha, n, c_alpha=c)
            implied = 12.0 * math.exp(-n * tm * tm / (2.0 * (1.0 + 4.0 * c) ** 2))
            assert abs(implied - alpha) < 1e-10 * alpha


class TestBernsteinIid:
    def test_frozen_anchor_linear_regime(self):
        # at n = 100, m = 1 the linear term log(240) / 100 wins the min
        assert abs(bernstein_tmu_iid(0.05, 100, 1.0) - 0.0548064) < 1e-6

    def test_min_of_the_two_regimes(self):
        rng = np.random.default_rng(92)
        for _ in range(50):
            alpha = float(rng.uniform(0.001, 0.2))
            n = int(rng.integers(5, 10_000))
            m = float(rng.uniform(0.1, 20.0))
            c = float(rng.uniform(0.2, 4.0))
            log_term = math.log(12.0 / alpha)
            quad = m * math.sqrt(log_term / (c * n))
            lin = m * log_term / (c * n)
            assert bernstein_tmu_iid(alpha, n, m, c) == min(quad, lin)

    def test_budget_inversion_through_generating_branch(self):
        rng = np.random.default_rng(93)
        for _ in range(50):
            alpha = float(rng.uniform(0.001, 0.2))
            n = int(rng.integers(5, 10_000))
            m = float(rng.uniform(0.1, 20.0))
            t = bernstein_tmu_iid(alpha, n, m)
            quad = m * math.sqrt(math.log(12.0 / alpha) / n)
            if t < quad:
                implied = 12.0 * math.exp(-n * t / m)
            else:
                implied = 12.0 * math.exp(-n * (t / m) ** 2)
            assert abs(implied - alpha) < 1e-10 * alpha

    def test_scales_linearly_in_m(self):
        assert abs(bernstein_tmu_iid(0.05, 50, 4.0) - 4.0 * bernstein_tmu_iid(0.05, 50, 1.0)) < 1e-15

    def test_zero_spread_needs_no_padding(self):
        assert bernstein_tmu_iid(0.05, 50, 0.0) == 0.0


class TestBernsteinMixing:
    def test_first_term_anchor(self):
        t1, _, _ = bernstein_mixing_terms(0.05, 100, BernsteinConstants(), 0.0)
        assert abs(t1 - math.log(18.0 * 100 / 0.05) ** 2 / 100.0) < 1e-12
        assert abs(t1 - 1.100668) < 1e-6
        assert abs(t1 - 1.1008) < 5e-4

    def test_second_term_with_zero_long_run_variance(self):
        _, t2, _ = bernstein_mixing_terms(0.05, 100, BernsteinConstants(), 0.0)
        assert abs(t2 - math.sqrt(math.log(18.0 / 0.05)) / 100.0) < 1e-15

    def test_term_inversions(self):
        rng = np.random.default_rng(94)
        constants = BernsteinConstants()
        for _ in range(30):
            alpha = float(rng.uniform(0.005, 0.2))
            n = int(rng.integers(20, 20_000))
            v = float(rng.uniform(0.0, 5.0))
            t1, t2, t3 = bernstein_mixing_terms(alpha, n, constants, v)
            implied1 = 18.0 * n * math.exp(-((n * t1) ** constants.gamma) / constants.c1)
            assert abs(implied1 - alpha) < 1e-9 * alpha
            implied2 = 18.0 * math.exp(-((n * t2) ** 2) / (constants.c2 * (1.0 + n * v)))
            assert abs(implied2 - alpha) < 1e-9 * alpha
            implied3 = 18.0 * third_term_level(t3, n, constants)
            assert abs(implied3 - alpha) < 1e-10 * alpha

    def test_third_term_is_conservative_beyond_the_root(self):
        constants = BernsteinConstants()
        t3 = bernstein_term3_root(0.05, 500, constants)
        for factor in (1.5, 3.0, 10.0):
            assert third_term_level(factor * t3, 500, constants) < 0.05 / 18.0

    def test_max_of_three(self):
        rng = np.random.default_rng(92)
        for n, v in ((30, 0.5), (1000, 2.0), (50_000, 0.1)):
            s = split_arms(rng.standard_normal(2 * n), np.arange(2 * n) < n)
            constants = BernsteinConstants(long_run_var=v)
            band = compute_band(s, "mixing", 0.05, BandOptions(bernstein=constants))
            terms = bernstein_mixing_terms(0.05, n, constants, v)
            assert band.paddings.t_mean_treated == band.paddings.t_mean_control == max(terms)

    def test_terms_monotone_in_n(self):
        constants = BernsteinConstants()
        sizes = (50, 500, 5000, 50_000)
        maxima = [max(bernstein_mixing_terms(0.05, n, constants, 1.0)) for n in sizes]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))

    @pytest.mark.parametrize("constants", [BernsteinConstants(gamma=0.999999),
                                           BernsteinConstants(c1=1e300)])
    def test_overflow_is_a_configuration_error(self, constants):
        with pytest.raises(ConfigurationError, match="overflow"):
            bernstein_mixing_terms(0.05, 100, constants, 1.0)

    def test_constants_validation(self):
        with pytest.raises(ValidationError):
            BernsteinConstants(c1=0.0)
        with pytest.raises(ValidationError):
            BernsteinConstants(gamma=1.0)
        with pytest.raises(ValidationError):
            BernsteinConstants(long_run_var=-1.0)


class TestTruncation:
    def test_factories(self):
        assert Truncation().kind == "none"
        assert Truncation(lower=0.0).lower == 0.0
        both = Truncation(lower=-1.0, upper=1.0)
        assert both.kind == "both" and both.upper == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="upper limit needs a lower limit"):
            Truncation(upper=1.0)
        with pytest.raises(ValidationError, match="known support has lower 2.0 > upper -2.0"):
            Truncation(lower=2.0, upper=-2.0)
        with pytest.raises(ValidationError, match="truncation upper limit must be a finite"):
            Truncation(lower=0.0, upper=math.inf)

    def test_kind_is_derived_from_the_limits(self):
        with pytest.raises(TypeError):
            Truncation(kind="lower")
        assert Truncation(lower=0.0).kind == "lower"
        assert Truncation(lower=0.0, upper=0.0).kind == "both"
        assert asdict(Truncation(lower=1.0)) == {"kind": "lower", "lower": 1.0, "upper": None}

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            compute_band(stats_from([1.0, 2.0], [3.0, 4.0]), "iid", 0.0)
        with pytest.raises(ValidationError):
            BandOptions(c_alpha=-1.0)
        with pytest.raises(ValidationError):
            BandOptions(c_abs=0.0)
        with pytest.raises(ValidationError):
            BandOptions(mean_bound_treated=-2.0)

    @pytest.mark.parametrize("build", [
        lambda big: BandOptions(c_alpha=big),
        lambda big: Truncation(lower=big),
        lambda big: BernsteinConstants(c1=big),
    ], ids=["BandOptions", "Truncation", "BernsteinConstants"])
    def test_an_integer_beyond_the_float_range_is_a_validation_error(self, build):
        with pytest.raises(ValidationError, match="must be a finite number, got 1000"):
            build(10**400)


class TestPaddedInterval:
    def test_zero_paddings_recover_the_plugin_region(self):
        rng = np.random.default_rng(95)
        for _ in range(100):
            s = random_stats(rng)
            sup = extrema_support(s)
            region_lower, region_upper = manski_region(s, sup)
            lower, upper = padded_interval(
                s.mean_treated,
                s.mean_control,
                s.share_treated,
                s.share_control,
                sup,
                Paddings.zero(),
            )
            assert abs(lower - region_lower) < 1e-12
            assert abs(upper - region_upper) < 1e-12

    def test_each_padding_moves_the_ends_outward_for_centered_data(self):
        rng = np.random.default_rng(96)
        for _ in range(50):
            s = random_stats(rng)
            sup = extrema_support(s)
            args = (s.mean_treated, s.mean_control, s.share_treated, s.share_control, sup)
            base_lower, base_upper = padded_interval(*args, Paddings.zero())
            padded = Paddings(0.0, 0.0, 0.0, 0.0, 0.3, 0.3)
            lower, upper = padded_interval(*args, padded)
            assert lower < base_lower and upper > base_upper


class TestIidBand:
    def test_contains_the_plugin_region_for_nonnegative_outcomes(self):
        rng = np.random.default_rng(97)
        config = BandOptions()
        for _ in range(300):
            s = random_stats(rng, positive=True)
            band = compute_band(s, "iid", 0.05, config)
            lower, upper = manski_region(s, extrema_support(s))
            assert band.band_lower <= lower + 1e-12
            assert band.band_upper >= upper - 1e-12

    def test_centered_heavy_left_tails_stay_inside_the_band(self):
        """The adversarial share terms multiply the support ends, which only
        widens the band when those are nonnegative; evaluated from the data's
        own origin, the band that escaped its region here contains it."""
        rng = np.random.default_rng(23)
        n = int(rng.integers(12, 60))
        z = rng.random(n) < 0.5
        y = rng.standard_normal(n) * 2.5
        s = split_arms(y, z)
        for method in ("iid", "mixing"):
            band = compute_band(s, method, 0.05)
            lower, upper = manski_region(s, extrema_support(s))
            assert band.band_lower <= lower <= upper <= band.band_upper, method

    def test_padding_bookkeeping(self):
        rng = np.random.default_rng(98)
        s = random_stats(rng)
        band = compute_band(s, "iid", 0.05)
        p = band.paddings
        assert p.eps_treated == dkw_epsilon(0.05, s.n_treated)
        assert p.eps_control == dkw_epsilon(0.05, s.n_control)
        # share padding pools both arms
        assert p.t_share_treated == p.t_share_control == dkw_epsilon(0.05, s.n)
        m1 = float(np.max(np.abs(s.treated_serial - s.mean_treated)))
        assert p.t_mean_treated == bernstein_tmu_iid(0.05, s.n_treated, m1)
        assert band.support.upper_treated == s.max_treated + p.eps_treated

    def test_explicit_mean_bounds_override_the_data(self):
        s = stats_from([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        band = compute_band(s, "iid", 0.05, BandOptions(mean_bound_treated=10.0))
        assert band.paddings.t_mean_treated == bernstein_tmu_iid(0.05, 4, 10.0)

    def test_band_shrinks_as_the_sample_grows(self):
        rng = np.random.default_rng(99)
        config = BandOptions()
        widths = []
        for n in (100, 10_000, 1_000_000):
            y = rng.chisquare(3, n)
            z = rng.random(n) < 0.5
            band = compute_band(split_arms(y, z), "iid", 0.05, config)
            lower, upper = manski_region(split_arms(y, z), extrema_support(split_arms(y, z)))
            widths.append(band.band_upper - band.band_lower - (upper - lower))
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 0.2

    def test_band_widens_as_alpha_shrinks(self):
        rng = np.random.default_rng(100)
        s = random_stats(rng)
        bands = [compute_band(s, "iid", a) for a in (0.2, 0.1, 0.05, 0.01)]
        w = [band.band_upper - band.band_lower for band in bands]
        assert all(a < b for a, b in zip(w, w[1:]))

    def test_lower_known_uses_the_limit_unpadded(self):
        rng = np.random.default_rng(101)
        s = random_stats(rng, positive=True)
        config = BandOptions(truncation=Truncation(lower=0.0))
        band = compute_band(s, "iid", 0.05, config)
        assert band.support.lower_treated == 0.0
        assert band.support.lower_control == 0.0
        assert band.support.source == "padded-lower-known"
        # one-sided support events: budget 12 -> 6
        assert band.paddings.eps_treated == dkw_epsilon(0.05, s.n_treated, sides="one")

    def test_lower_known_shrinks_the_support_padding(self):
        rng = np.random.default_rng(102)
        for _ in range(25):
            s = random_stats(rng, positive=True)
            plain = compute_band(s, "iid", 0.05)
            known = compute_band(
                s, "iid", 0.05, BandOptions(truncation=Truncation(lower=0.0))
            )
            assert known.paddings.eps_treated < plain.paddings.eps_treated
            assert known.paddings.eps_control < plain.paddings.eps_control
            # the share and mean paddings are untouched by the truncation
            assert known.paddings.t_share_treated == plain.paddings.t_share_treated
            assert known.paddings.t_mean_control == plain.paddings.t_mean_control

    def test_inconsistent_lower_limit_raises(self):
        s = stats_from([1.0, 2.0], [3.0, 4.0])
        config = BandOptions(truncation=Truncation(lower=1.5))
        with pytest.raises(DataError):
            compute_band(s, "iid", 0.05, config)

    def test_both_known_reduces_to_delta_method(self):
        rng = np.random.default_rng(103)
        s = random_stats(rng)
        lo = float(min(s.min_treated, s.min_control)) - 1.0
        hi = float(max(s.max_treated, s.max_control)) + 1.0
        config = BandOptions(truncation=Truncation(lower=lo, upper=hi))
        band = compute_band(s, "iid", 0.05, config)
        reference = delta_method_band(s, known_support(lo, hi), 0.05)
        assert band.support.source == "known"
        assert band.band_lower == reference.band_lower
        assert band.band_upper == reference.band_upper
        assert band.paddings == Paddings.zero()

    def test_degenerate_arm_raises(self):
        s = split_arms(np.ones(5), np.ones(5, dtype=bool))
        with pytest.raises(DegenerateArmError):
            compute_band(s, "iid", 0.05)


class TestMixingBand:
    def test_support_padding_equals_share_padding(self):
        rng = np.random.default_rng(104)
        s = random_stats(rng, arm_min=5)
        band = compute_band(s, "mixing", 0.05, BandOptions(c_alpha=0.5))
        p = band.paddings
        assert p.eps_treated == p.t_share_treated
        assert p.eps_control == p.t_share_control
        assert p.t_share_treated == dkw_epsilon(0.05, s.n_treated, c_alpha=0.5)

    def test_contains_the_plugin_region_for_nonnegative_outcomes(self):
        rng = np.random.default_rng(105)
        config = BandOptions(c_alpha=0.5)
        for _ in range(300):
            s = random_stats(rng, positive=True, arm_min=5)
            band = compute_band(s, "mixing", 0.05, config)
            lower, upper = manski_region(s, extrema_support(s))
            assert band.band_lower <= lower + 1e-12
            assert band.band_upper >= upper - 1e-12

    def test_width_increases_with_dependence_constant(self):
        rng = np.random.default_rng(106)
        s = random_stats(rng, arm_min=5)
        bands = [compute_band(s, "mixing", 0.05, BandOptions(c_alpha=c))
                 for c in (0.0, 0.5, 1.0, 2.0)]
        widths = [band.band_upper - band.band_lower for band in bands]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_wider_than_iid_on_the_same_data(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            s = random_stats(rng, arm_min=5)
            mixing, iid = (compute_band(s, method, 0.05) for method in ("mixing", "iid"))
            assert mixing.band_upper - mixing.band_lower > iid.band_upper - iid.band_lower

    def test_long_run_variance_override(self):
        rng = np.random.default_rng(108)
        s = random_stats(rng, arm_min=5)
        constants = BernsteinConstants(long_run_var=2.5)
        band = compute_band(s, "mixing", 0.05, BandOptions(bernstein=constants))
        assert band.paddings.t_mean_treated == max(
            bernstein_mixing_terms(0.05, s.n_treated, constants, 2.5)
        )

    def test_lower_known_one_sided_budget(self):
        rng = np.random.default_rng(109)
        s = random_stats(rng, positive=True, arm_min=5)
        config = BandOptions(c_alpha=0.5, truncation=Truncation(lower=0.0))
        band = compute_band(s, "mixing", 0.05, config)
        assert band.support.lower_treated == 0.0
        assert band.paddings.eps_treated == dkw_epsilon(
            0.05, s.n_treated, sides="one", c_alpha=0.5
        )
        assert band.paddings.eps_treated < band.paddings.t_share_treated

    def test_both_known_reduces_to_delta_method(self):
        rng = np.random.default_rng(110)
        s = random_stats(rng, arm_min=5)
        lo = float(min(s.min_treated, s.min_control)) - 1.0
        hi = float(max(s.max_treated, s.max_control)) + 1.0
        config = BandOptions(truncation=Truncation(lower=lo, upper=hi))
        band = compute_band(s, "mixing", 0.05, config)
        assert band.support.source == "known"

    def test_needs_two_per_arm(self):
        s = stats_from([1.0], [2.0, 3.0])
        with pytest.raises(DegenerateArmError):
            compute_band(s, "mixing", 0.05)

    def test_arm_of_exactly_two_cannot_calibrate_the_third_term(self):
        """At arm size 2 the third weak-dependence tail term stays below
        its alpha_u / 18 budget for every t, so the root does not exist
        and the configuration is rejected."""
        s = stats_from([1.0, 2.0], [0.5, 1.5, 2.5])
        with pytest.raises(ConfigurationError):
            compute_band(s, "mixing", 0.05)
