"""Tests for arm statistics, order-statistic quantiles, and the naive estimate."""

import math

import numpy as np
import pytest

from concate.bands import BandOptions, compute_band
from concate.datasets import make_tipping_demo_panel
from concate.errors import DegenerateArmError, ValidationError
from concate.estimators import (
    VARIANCE_MODES,
    _order_statistic,
    group_stats,
    split_arms,
)
from concate.panel import PanelDataset, assign_treatment
from concate.stats import norm_ppf


def stats_from(treated_values, control_values):
    y = np.concatenate([treated_values, control_values]).astype(float)
    z = np.concatenate(
        [np.ones(len(treated_values), dtype=bool), np.zeros(len(control_values), dtype=bool)]
    )
    return split_arms(y, z)


class TestSplitArms:
    def test_hand_computed_arms(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0])
        assert s.n_treated == 2 and s.n_control == 2
        assert s.mean_treated == 1.0 and s.mean_control == 2.0
        assert s.var_treated == 2.0 and s.var_control == 2.0
        assert s.share_treated == 0.5 and s.share_control == 0.5
        assert s.min_treated == 0.0 and s.max_treated == 2.0
        assert s.min_control == 1.0 and s.max_control == 3.0
        assert s.n == 4
        assert not s.degenerate

    def test_two_point_variance(self):
        s = stats_from([0.0, 10.0], [0.0, 10.0])
        assert s.var_treated == 50.0

    def test_sorted_and_serial_views(self):
        s = stats_from([3.0, 1.0, 2.0], [5.0, 4.0])
        assert list(s.treated_sorted) == [1.0, 2.0, 3.0]
        assert list(s.treated_serial) == [3.0, 1.0, 2.0]
        assert list(s.control_sorted) == [4.0, 5.0]
        assert list(s.control_serial) == [5.0, 4.0]

    def test_single_observation_arm_has_nan_variance(self):
        s = stats_from([5.0], [1.0, 2.0])
        assert math.isnan(s.var_treated)
        assert not s.degenerate

    def test_empty_arm_is_degenerate(self):
        s = split_arms(np.array([1.0, 2.0]), np.array([True, True]))
        assert s.degenerate
        assert s.n_control == 0
        assert math.isnan(s.mean_control)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            split_arms(np.array([1.0, 2.0]), np.array([True]))

    def test_empty_sample(self):
        with pytest.raises(ValidationError):
            split_arms(np.array([]), np.array([], dtype=bool))

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            z = rng.random(n) < 0.4
            if z.all() or not z.any():
                continue
            s = split_arms(rng.standard_normal(n), z)
            assert abs(s.share_treated + s.share_control - 1.0) < 1e-15

    def test_group_stats_matches_manual_split(self):
        rng = np.random.default_rng(30)
        signal = rng.uniform(0, 100, size=80)
        outcome = rng.standard_normal(80)
        panel = PanelDataset(
            unit=np.array([f"u{i}" for i in range(80)], dtype=object),
            time=np.ones(80, dtype=np.int64),
            outcome=outcome,
            signal=signal,
        )
        assignment = assign_treatment(panel, 50.0)
        s = group_stats(panel, assignment)
        manual = split_arms(outcome, signal >= 50.0)
        assert s.mean_treated == manual.mean_treated
        assert s.n_treated == manual.n_treated


class TestLazyOrderStatistics:
    @staticmethod
    def demo_stats():
        panel = make_tipping_demo_panel()
        return group_stats(panel, assign_treatment(panel, 30.0))

    @pytest.mark.parametrize("method", ["naive", "manski-max", "iid", "mixing", "hybrid"])
    def test_methods_without_quantiles_never_sort(self, method):
        stats = self.demo_stats()
        compute_band(stats, method, 0.01)
        assert "_treated_sorted" not in vars(stats)
        assert "_control_sorted" not in vars(stats)

    def test_quantile_methods_sort_each_arm_once(self, monkeypatch):
        stats = self.demo_stats()
        sorts = []
        original = np.sort

        def counting_sort(a, *args, **kwargs):
            sorts.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        compute_band(stats, "manski-q05", 0.01)
        compute_band(stats, "manski-q10", 0.01)
        assert len(sorts) == 2
        assert {id(a) for a in sorts} == {id(stats.treated_serial), id(stats.control_serial)}
        assert stats.treated_sorted is stats.treated_sorted
        assert stats.control_sorted is stats.control_sorted


class TestEmpiricalQuantile:
    def test_ceiling_rule_on_one_to_ten(self):
        x = np.arange(1.0, 11.0)
        assert _order_statistic(x, 0.1) == 1.0
        assert _order_statistic(x, 0.95) == 10.0
        assert _order_statistic(x, 0.25) == 3.0
        assert _order_statistic(x, 0.5) == 5.0
        assert _order_statistic(x, 0.90) == 9.0

    def test_exact_integer_rank_is_not_bumped(self):
        # p * n = 3 exactly despite float representation of p
        x = np.arange(1.0, 11.0)
        assert _order_statistic(x, 0.3) == 3.0

    def test_single_observation(self):
        for p in (0.01, 0.5, 0.99):
            assert _order_statistic(np.array([7.0]), p) == 7.0

    def test_monotone_in_p(self):
        rng = np.random.default_rng(44)
        x = np.sort(rng.standard_normal(37))
        qs = [_order_statistic(x, p) for p in np.linspace(0.01, 0.99, 60)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_bracketed_by_extremes(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            x = np.sort(rng.standard_normal(rng.integers(1, 50)))
            p = float(rng.uniform(0.01, 0.99))
            q = _order_statistic(x, p)
            assert x[0] <= q <= x[-1]

    def test_matches_inverse_cdf_convention(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            x = np.sort(rng.standard_normal(rng.integers(1, 80)))
            p = float(rng.uniform(0.02, 0.98))
            assert _order_statistic(x, p) == np.quantile(x, p, method="inverted_cdf")


class TestNaiveEstimate:
    def test_hand_computed_welch(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0])
        est = compute_band(s, "naive", 0.05)
        assert est.region_lower == -1.0
        assert abs(est.se_lower - math.sqrt(2.0)) < 1e-12
        assert abs(est.multiplier - 1.959964) < 1e-6
        assert abs(est.band_lower - (-1.0 - est.multiplier * est.se_lower)) < 1e-12
        assert abs(est.band_upper - (-1.0 + est.multiplier * est.se_lower)) < 1e-12

    def test_delta_equals_weighted_sum(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            n = int(rng.integers(6, 80))
            z = rng.random(n) < 0.5
            if z.sum() < 2 or (~z).sum() < 2:
                continue
            y = rng.standard_normal(n)
            s = split_arms(y, z)
            w = np.where(z, 1.0 / z.sum(), -1.0 / (~z).sum())
            assert abs(s.mean_treated - s.mean_control - float(y @ w)) < 1e-12

    def test_welch_variance_formula(self):
        rng = np.random.default_rng(61)
        y1 = rng.standard_normal(40)
        y0 = rng.standard_normal(10) * 3.0
        s = stats_from(y1, y0)
        est = compute_band(s, "naive", 0.05)
        expected = math.sqrt(y1.var(ddof=1) / 40 + y0.var(ddof=1) / 10)
        assert abs(est.se_lower - expected) < 1e-12

    def test_contrast_variance_formula(self):
        rng = np.random.default_rng(62)
        y1 = rng.standard_normal(15) + 1.0
        y0 = rng.standard_normal(25)
        s = stats_from(y1, y0)
        est = compute_band(s, "naive", 0.05, BandOptions(variance_mode="contrast"))
        delta = y1.mean() - y0.mean()
        c = np.concatenate([y1 / 15, -y0 / 25])
        expected = math.sqrt(float(np.sum((c - delta) ** 2)) / (40 - 1))
        assert abs(est.se_lower - expected) < 1e-12

    def test_interval_narrows_as_alpha_grows(self):
        s = stats_from([0.0, 2.0, 1.0], [1.0, 3.0, 2.0])
        wide = compute_band(s, "naive", 0.01)
        narrow = compute_band(s, "naive", 0.10)
        assert wide.band_upper - wide.band_lower > narrow.band_upper - narrow.band_lower

    def test_modes_tuple(self):
        assert VARIANCE_MODES == ("welch", "contrast")

    def test_unknown_mode(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0])
        with pytest.raises(ValidationError):
            compute_band(s, "naive", 0.05, BandOptions(variance_mode="pooled"))

    def test_alpha_validation(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0])
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                compute_band(s, "naive", alpha)

    def test_degenerate_and_tiny_arms_raise(self):
        with pytest.raises(DegenerateArmError):
            compute_band(split_arms(np.ones(3), np.ones(3, dtype=bool)), "naive", 0.05)
        with pytest.raises(DegenerateArmError):
            compute_band(stats_from([1.0], [2.0, 3.0]), "naive", 0.05)

    def test_multiplier_is_two_sided_quantile(self):
        s = stats_from([0.0, 2.0], [1.0, 3.0])
        for alpha in (0.01, 0.05, 0.2):
            est = compute_band(s, "naive", alpha)
            assert est.multiplier == norm_ppf(1.0 - alpha / 2.0)
