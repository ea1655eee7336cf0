"""Tests for band dispatch, alpha spending, and the threshold scan."""

import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from concate import concentration, sequential
from concate.bands import BUILDERS, METHODS, BandOptions, BandResult, compute_band
from concate.concentration import Truncation
from concate.datasets import make_null_panel, make_tipping_demo_panel
from concate.errors import (
    ConfigurationError,
    DegenerateArmError,
    EmptyScanError,
    ValidationError,
)
from concate.estimators import split_arms
from concate.manski import delta_method_band, extrema_support, manski_region, trimmed_support
from concate.sequential import DEFAULT_MIN_GROUP, MAX_LOOKS, ThresholdGrid, scan, spend_alpha


def random_stats(rng, n_lo=30, n_hi=200, arm_min=5):
    while True:
        n = int(rng.integers(n_lo, n_hi))
        z = rng.random(n) < rng.uniform(0.3, 0.7)
        if arm_min <= z.sum() <= n - arm_min:
            return split_arms(rng.standard_normal(n) * rng.uniform(0.5, 3.0), z)


def point_result(band_lower, band_upper):
    return BandResult(
        region_lower=band_lower,
        region_upper=band_upper,
        band_lower=band_lower,
        band_upper=band_upper,
    )


class TestSpendAlpha:
    def test_equal_spending_over_nineteen_looks(self):
        out = spend_alpha(0.05, 19)
        assert len(out) == 19
        for a in out[:-1]:
            assert abs(a - 0.05 / 19) < 1e-15
        assert abs(math.fsum(out) - 0.05) < 1e-15

    def test_last_look_absorbs_the_rounding_residue(self):
        out = spend_alpha(0.1, 3)
        assert out[0] == out[1] == 0.1 / 3
        assert out[2] == 0.1 - 2 * (0.1 / 3)
        assert math.fsum(out) == 0.1

    def test_single_look_spends_everything(self):
        assert spend_alpha(0.05, 1) == [0.05]

    def test_explicit_schedule_is_passed_through(self):
        schedule = [0.01, 0.02, 0.02]
        assert spend_alpha(0.05, 3, schedule) == schedule

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            spend_alpha(0.05, 3, [0.025, 0.025])
        with pytest.raises(ValidationError):
            spend_alpha(0.05, 3, [0.05, 0.05, -0.05])
        with pytest.raises(ValidationError):
            spend_alpha(0.05, 3, [0.02, 0.02, 0.02])
        for bad in (math.nan, math.inf, -math.inf, 1e308):
            with pytest.raises(ValidationError):
                spend_alpha(0.05, 3, [0.04, bad, 0.01])
        with pytest.raises(ValidationError):
            spend_alpha(0.05, 2, [1e308, 1e308])

    def test_inexact_equal_spending_raises(self, monkeypatch):
        monkeypatch.setattr(math, "fsum", lambda values: 1.0)
        with pytest.raises(ConfigurationError):
            spend_alpha(0.05, 19)

    def test_alpha_and_look_validation(self):
        with pytest.raises(ValidationError):
            spend_alpha(0.0, 5)
        with pytest.raises(ValidationError):
            spend_alpha(1.0, 5)
        with pytest.raises(ValidationError):
            spend_alpha(0.05, 0)


class TestThresholdGrid:
    def test_default_is_five_to_ninety_five(self):
        grid = ThresholdGrid.default()
        assert grid.taus == tuple(float(t) for t in range(5, 100, 5))
        assert len(grid) == 19

    def test_from_spec_matches_default(self):
        assert ThresholdGrid.from_spec("5:95:5").taus == ThresholdGrid.default().taus

    def test_from_spec_includes_the_stop_when_step_divides(self):
        assert ThresholdGrid.from_spec("10:30:10").taus == (10.0, 20.0, 30.0)

    def test_from_spec_drops_an_unreachable_stop(self):
        assert ThresholdGrid.from_spec("5:12:5").taus == (5.0, 10.0)

    def test_single_point_grid(self):
        assert ThresholdGrid.from_spec("50:50:5").taus == (50.0,)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            ThresholdGrid(taus=())
        with pytest.raises(ValidationError):
            ThresholdGrid(taus=(10.0, 10.0))
        with pytest.raises(ValidationError):
            ThresholdGrid(taus=(30.0, 20.0))
        with pytest.raises(ValidationError):
            ThresholdGrid(taus=(0.0, 50.0))
        with pytest.raises(ValidationError):
            ThresholdGrid(taus=(50.0, 100.0))

    def test_from_spec_validation(self):
        with pytest.raises(ValidationError):
            ThresholdGrid.from_spec("5:95")
        with pytest.raises(ValidationError):
            ThresholdGrid.from_spec("a:95:5")
        with pytest.raises(ValidationError):
            ThresholdGrid.from_spec("5:95:0")
        with pytest.raises(ValidationError):
            ThresholdGrid.from_spec("95:5:5")

    def test_from_spec_rejects_non_finite_parts(self):
        for spec in ("1:99:nan", "nan:99:1", "1:nan:1", "1:inf:1", "-inf:50:1", "1:99:inf"):
            with pytest.raises(ValidationError, match="non-finite"):
                ThresholdGrid.from_spec(spec)

    def test_from_spec_caps_the_number_of_looks(self):
        # A 1e-9 step would expand to about 1e11 thresholds; the count is
        # checked before any is built.
        with pytest.raises(ValidationError, match="more than"):
            ThresholdGrid.from_spec("1:99:1e-9")
        with pytest.raises(ValidationError, match="more than"):
            ThresholdGrid.from_spec("1e-300:99:1e-300")
        step = 2.0**-7  # exact in binary, so the count is exact
        assert len(ThresholdGrid.from_spec(f"{step}:{MAX_LOOKS * step}:{step}")) == MAX_LOOKS
        with pytest.raises(ValidationError, match="more than"):
            ThresholdGrid.from_spec(f"{step}:{(MAX_LOOKS + 1) * step}:{step}")


class TestComputeBand:
    def test_method_roster(self):
        assert METHODS == (
            "naive",
            "manski-max",
            "manski-q05",
            "manski-q10",
            "iid",
            "mixing",
            "hybrid",
        )

    def test_naive_collapses_the_region_to_a_point(self):
        s = random_stats(np.random.default_rng(200))
        res = compute_band(s, "naive", 0.05)
        est = BUILDERS["naive"](s, 0.05, BandOptions())
        assert res.region_lower == res.region_upper == est.region_lower
        assert res.band_lower == est.band_lower
        assert res.band_upper == est.band_upper
        assert res.se_lower == res.se_upper == est.se_lower

    def test_manski_max_matches_the_delta_method_band(self):
        s = random_stats(np.random.default_rng(201))
        res = compute_band(s, "manski-max", 0.05)
        direct = delta_method_band(s, extrema_support(s), 0.05)
        assert res.region_lower == direct.region_lower
        assert res.region_upper == direct.region_upper
        assert res.band_lower == direct.band_lower
        assert res.band_upper == direct.band_upper
        assert res.support == extrema_support(s)

    def test_trimmed_variants_use_their_quantiles(self):
        s = random_stats(np.random.default_rng(202), n_lo=80)
        for method, p in (("manski-q05", 0.05), ("manski-q10", 0.10)):
            res = compute_band(s, method, 0.05)
            assert res.support == trimmed_support(s, p)

    def test_concentration_methods_match_the_builders(self):
        s = random_stats(np.random.default_rng(203), n_lo=60)
        for method, builder in (("iid", BUILDERS["iid"]), ("mixing", BUILDERS["mixing"])):
            res = compute_band(s, method, 0.05, BandOptions(c_alpha=0.25))
            direct = builder(s, 0.05, BandOptions(c_alpha=0.25))
            assert res.band_lower == direct.band_lower
            assert res.band_upper == direct.band_upper
            assert res.paddings == direct.paddings

    def test_concentration_region_uses_the_unpadded_support(self):
        s = random_stats(np.random.default_rng(204))
        res = compute_band(s, "iid", 0.05)
        assert (res.region_lower, res.region_upper) == manski_region(s, extrema_support(s))

    def test_hybrid_matches_the_builder(self):
        s = random_stats(np.random.default_rng(205))
        res = compute_band(s, "hybrid", 0.05, BandOptions(c_alpha=0.5))
        direct = BUILDERS["hybrid"](s, 0.05, BandOptions(c_alpha=0.5))
        assert res.band_lower == direct.band_lower
        assert res.band_upper == direct.band_upper
        assert res.se_lower == direct.se_lower
        assert res.support == direct.support

    def test_truncation_reaches_the_truncation_methods(self):
        s = random_stats(np.random.default_rng(206), n_lo=60)
        trunc = Truncation(lower=-50.0, upper=50.0)
        for method in ("iid", "mixing", "hybrid"):
            res = compute_band(s, method, 0.05, BandOptions(truncation=trunc))
            assert res.support.source == "known"

    def test_truncation_is_rejected_elsewhere(self):
        s = random_stats(np.random.default_rng(207))
        trunc = Truncation(lower=-50.0)
        for method in ("naive", "manski-max", "manski-q05", "manski-q10"):
            with pytest.raises(ValidationError):
                compute_band(s, method, 0.05, BandOptions(truncation=trunc))

    def test_unknown_method(self):
        s = random_stats(np.random.default_rng(208))
        with pytest.raises(ValidationError):
            compute_band(s, "manski", 0.05)

    @pytest.mark.parametrize(
        ("method", "options"),
        [("mixing", BandOptions(c_alpha=1e308)), ("iid", BandOptions(c_abs=1e-320))],
    )
    def test_a_non_finite_band_is_degenerate(self, method, options):
        s = random_stats(np.random.default_rng(209))
        with pytest.raises(DegenerateArmError, match=f"^{method} band has a non-finite end$"):
            compute_band(s, method, 0.05, options)

    @pytest.mark.parametrize(
        "region", [(-1.0, 1.0), (-0.5, 2.5), (0.5, -0.5)], ids=["low", "high", "inverted"]
    )
    def test_a_band_that_does_not_contain_its_region_is_degenerate(self, monkeypatch, region):
        s = random_stats(np.random.default_rng(210))
        band = replace(point_result(-0.8, 2.0), region_lower=region[0], region_upper=region[1])
        monkeypatch.setitem(BUILDERS, "naive", lambda *args: band)
        with pytest.raises(DegenerateArmError, match="^naive band does not contain its region$"):
            compute_band(s, "naive", 0.05)

    def test_excludes_zero(self):
        assert point_result(0.5, 2.0).excludes_zero
        assert point_result(-2.0, -0.5).excludes_zero
        assert not point_result(-1.0, 1.0).excludes_zero
        assert not point_result(0.0, 1.0).excludes_zero


@pytest.mark.parametrize("shift", [0.0, -20.0])
@pytest.mark.parametrize("method", ["iid", "mixing"])
def test_the_padded_bands_keep_the_family_wise_error_on_null_panels(method, shift):
    """Criterion 5's check for the two padded bands, on its first 300 null
    panels with the outcome as drawn and shifted by -20: the share of panels
    with a tipping threshold stays within 0.05 + 3 sqrt(0.05 * 0.95 / 300),
    0.0877.  While the paper's formula was evaluated from the outcome's zero,
    ``mixing`` tipped on 298 panels as drawn, and both on all 300 shifted."""
    grid, n_panels, false_hits = ThresholdGrid.default(), 300, 0
    for i in range(n_panels):
        panel = make_null_panel(120, 1, seed=20240605 + i)
        panel = replace(panel, outcome=panel.outcome + shift)
        try:
            false_hits += scan(panel, grid, method, alpha=0.05).tipping_tau is not None
        except EmptyScanError:
            pass
    assert false_hits / n_panels <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n_panels)


class TestScan:
    def test_rows_cover_every_grid_point_in_order(self):
        panel = make_tipping_demo_panel()
        grid = ThresholdGrid.default()
        res = scan(panel, grid, "hybrid")
        assert tuple(r.tau for r in res.rows) == grid.taus
        assert [r.alpha_u for r in res.rows] == spend_alpha(0.05, len(grid))

    def test_skipped_rows_report_no_exclusion(self):
        panel = make_tipping_demo_panel()
        res = scan(panel, ThresholdGrid.default(), "hybrid")
        for row in res.rows:
            if row.skipped:
                assert row.band is None

    def test_skip_reason_format(self):
        panel = make_tipping_demo_panel()
        res = scan(panel, ThresholdGrid.default(), "hybrid")
        skipped = [r for r in res.rows if r.skipped]
        assert skipped
        for row in skipped:
            assert row.reason == (
                f"treated arm below min_group ({row.n_treated} < {DEFAULT_MIN_GROUP})"
            )

    def test_all_skipped_grid_raises(self):
        panel = make_tipping_demo_panel()
        with pytest.raises(EmptyScanError):
            scan(panel, ThresholdGrid(taus=(60.0, 70.0, 80.0)), "hybrid")

    def test_all_skipped_grid_names_the_most_common_reason(self):
        panel = make_tipping_demo_panel()
        with pytest.raises(EmptyScanError) as err:
            scan(panel, ThresholdGrid(taus=(40.0, 60.0, 70.0, 80.0)), "hybrid", min_group=2000)
        assert str(err.value) == (
            "N/A: every threshold on the grid was skipped; most common reason, "
            "on 3 of 4 looks: treated arm below min_group (0 < 2000)"
        )

    def test_equally_common_reasons_go_to_the_earlier_look(self):
        """Treated arms of 1302, 500 and 200 rows: three distinct reasons."""
        panel = make_tipping_demo_panel()
        with pytest.raises(EmptyScanError) as err:
            scan(panel, ThresholdGrid(taus=(40.0, 50.0, 55.0)), "hybrid", min_group=1500)
        assert str(err.value).endswith(
            "on 1 of 3 looks: treated arm below min_group (1302 < 1500)"
        )

    def test_a_skip_with_both_arms_short_names_the_smaller(self):
        """At 20 the treated arm holds 2,931 of the 4,300 rows: the control
        arm is the smaller of the two below min_group."""
        panel = make_tipping_demo_panel()
        with pytest.raises(EmptyScanError) as err:
            scan(panel, ThresholdGrid(taus=(20.0,)), "hybrid", min_group=4300)
        assert str(err.value).endswith(
            "on 1 of 1 looks: control arm below min_group (1369 < 4300)"
        )

    def test_min_group_zero_retains_empty_arm_thresholds_as_degenerate(self):
        panel = make_tipping_demo_panel()
        res = scan(panel, ThresholdGrid(taus=(40.0, 70.0)), "hybrid", min_group=0)
        assert not res.rows[0].skipped
        assert res.rows[1].skipped
        assert res.rows[1].reason is not None

    def test_threads_match_serial_exactly(self):
        panel = make_tipping_demo_panel()
        grid = ThresholdGrid.default()
        serial = scan(panel, grid, "hybrid")
        threaded = scan(panel, grid, "hybrid", workers=8)
        assert serial.rows == threaded.rows
        assert serial.tipping_tau == threaded.tipping_tau

    @pytest.mark.parametrize("method", ["manski-q05", "mixing"])
    def test_two_threads_match_serial_for_lazy_and_serial_order_methods(self, method):
        panel = make_null_panel(500, 4, seed=11)
        grid = ThresholdGrid.default()
        assert scan(panel, grid, method, workers=2).rows == scan(panel, grid, method).rows

    def test_threads_are_clamped_to_looks_and_cpus(self, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sequential.os, "cpu_count", lambda: 4)
        panel = make_tipping_demo_panel()
        serial = scan(panel, ThresholdGrid.default(), "hybrid")
        assert scan(panel, ThresholdGrid.default(), "hybrid", workers=1000).rows == serial.rows
        assert scan(panel, ThresholdGrid(taus=(30.0, 55.0)), "hybrid", workers=1000).n_skipped == 0
        assert scan(panel, ThresholdGrid.default(), "hybrid", workers=3).rows == serial.rows
        assert pools == [4, 2, 3]
        monkeypatch.setattr(sequential.os, "cpu_count", lambda: None)
        assert scan(panel, ThresholdGrid.default(), "hybrid", workers=1000).rows == serial.rows
        assert pools == [4, 2, 3]

    @pytest.mark.parametrize(
        ("module", "name"),
        [
            (sequential, "assign_treatment"),
            (sequential, "group_stats"),
            (sequential, "compute_band"),
            (concentration, "long_run_variance"),
        ],
    )
    def test_each_look_calls_through_its_module_attribute(self, monkeypatch, module, name):
        """The per-layer trace of the benchmark times a scan by wrapping these
        four attributes; a look that reached the function another way would
        leave its span empty."""
        original, calls = getattr(module, name), []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        scan(make_null_panel(60, 2, seed=3), ThresholdGrid(taus=(40.0, 60.0)), "mixing")
        assert len(calls) >= 2

    def test_null_panel_usually_finds_no_tipping(self):
        panel = make_null_panel(120, 1, seed=7)
        res = scan(panel, ThresholdGrid.default(), "hybrid")
        assert res.tipping_tau is None
        assert res.direction is None

    def test_custom_schedule_changes_the_per_look_levels(self):
        panel = make_tipping_demo_panel()
        grid = ThresholdGrid(taus=(30.0, 55.0))
        schedule = [0.01, 0.04]
        res = scan(panel, grid, "hybrid", schedule=schedule)
        assert [r.alpha_u for r in res.rows] == schedule

    def test_scan_validation(self):
        panel = make_tipping_demo_panel()
        grid = ThresholdGrid.default()
        with pytest.raises(ValidationError):
            scan(panel, grid, "hybrid", min_group=-1)
        with pytest.raises(ValidationError):
            scan(panel, grid, "hybrid", workers=0)
        with pytest.raises(ValidationError):
            scan(panel, grid, "hybrid", alpha=0.0)
        with pytest.raises(ValidationError):
            scan(panel, grid, "not-a-method")


class TestTippingDemo:
    def test_demo_panel_shape(self):
        panel = make_tipping_demo_panel()
        assert panel.n == 4300
        assert float(panel.signal.max()) < 60.0
        assert float(panel.signal.min()) > 0.0

    def test_demo_is_deterministic(self):
        a = make_tipping_demo_panel()
        b = make_tipping_demo_panel()
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.signal, b.signal)

    def test_tipping_at_fifty_five(self):
        res = scan(make_tipping_demo_panel(), ThresholdGrid.default(), "hybrid")
        assert res.tipping_tau == 55.0
        assert res.direction == "positive"

    def test_thresholds_at_sixty_and_above_are_skipped(self):
        res = scan(make_tipping_demo_panel(), ThresholdGrid.default(), "hybrid")
        for row in res.rows:
            assert row.skipped == (row.tau >= 60.0)
        assert res.n_skipped == 8

    def test_no_exclusion_below_the_jump(self):
        res = scan(make_tipping_demo_panel(), ThresholdGrid.default(), "hybrid")
        for row in res.rows:
            if row.band is not None and row.tau < 55.0:
                assert not row.band.excludes_zero

    def test_plain_interval_method_agrees_on_the_tipping_point(self):
        res = scan(make_tipping_demo_panel(), ThresholdGrid.default(), "manski-max")
        assert res.tipping_tau == 55.0
        assert res.direction == "positive"
