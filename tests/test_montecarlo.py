"""Tests for the outcome designs and the coverage experiment."""

import concurrent.futures
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from concate import montecarlo
from concate.errors import ConfigurationError, ValidationError
from concate.estimators import split_arms
from concate.manski import known_support, manski_region, norm_ppf
from concate.montecarlo import (
    AR_RHO,
    BLOCK_ELEMENTS,
    CHI_SQUARE_DF,
    CONTAMINATION_PROB,
    CONTAMINATION_VALUE,
    MANSKI_VARIANTS,
    MAX_REPS,
    MC_DESIGNS,
    SELECTION_NOISE_SD,
    SELECTION_SLOPE,
    STUDENT_T_DF,
    TREATMENT_SHARE,
    UNIFORM_LIMITS,
    CellCoverage,
    DgpSpec,
    SimulatedData,
    _replication_intervals,
    _replication_seeds,
    coverage_table,
    generate,
    replication_seed,
    run_cell,
    write_coverage_csv,
)
from concate.seedseq import FixedState, SpawnKeys
from delta_oracle import bound_gradients, sampling_covariance

BIG = 200_000
#: Kernel vs scalar reference.  An endpoint is compared relative to the
#: larger of its size and the support width: near-zero endpoints come from
#: cancelling O(width) terms, where summation order moves the last ulp.
#: Worst case measured over the 21-cell table at 2,000 replications: 1e-15.
REL_TOL = 1e-12


def _reference_ar1_panel(rng, n, periods):
    # recursion starts from zero: the first draw is pure innovation
    y0 = np.empty((n, periods))
    y0[:, 0] = rng.standard_normal(n)
    for t in range(1, periods):
        y0[:, t] = AR_RHO * y0[:, t - 1] + rng.standard_normal(n)
    return y0


def reference_generate(spec, rng):
    """The one-replication draw as it stood before the block path, frozen:
    the streams every pinned output was recorded from."""
    n, periods = spec.n_units, spec.periods
    shape = (n, periods)
    design = spec.design
    if design == "A":
        y0 = rng.standard_normal(shape)
    elif design == "B":
        y0 = rng.standard_t(STUDENT_T_DF, shape) / math.sqrt(3.0)
    elif design in ("C", "D"):
        y0 = _reference_ar1_panel(rng, n, periods)
    elif design == "E":
        u = rng.random(shape)
        z = rng.standard_normal(shape)
        y0 = np.where(
            u < CONTAMINATION_PROB,
            -CONTAMINATION_VALUE,
            np.where(u >= 1.0 - CONTAMINATION_PROB, CONTAMINATION_VALUE, z),
        )
    elif design == "F":
        y0 = rng.chisquare(CHI_SQUARE_DF, shape)
    else:
        y0 = rng.uniform(*UNIFORM_LIMITS, shape)
    if design in ("C", "D"):
        slope = -SELECTION_SLOPE if design == "C" else SELECTION_SLOPE
        eta = SELECTION_NOISE_SD * rng.standard_normal(shape)
        prob = 1.0 / (1.0 + np.exp(-(slope * y0 + eta)))
        d = rng.random(shape) < prob
    else:
        d = rng.random(shape) < TREATMENT_SHARE
    return SimulatedData(y0=y0, d=d, y=y0 + spec.delta * d)


def attempt_rng(spec, base_seed, rep, attempt):
    return np.random.default_rng(
        replication_seed(base_seed, spec.design, spec.n_units, spec.periods, rep, attempt)
    )


def oracle_draws(spec, n_reps, base_seed):
    """(replication data, redraws before it) from a straight attempt loop
    over the frozen reference draw."""
    for rep in range(n_reps):
        for attempt in range(1000):
            data = reference_generate(spec, attempt_rng(spec, base_seed, rep, attempt))
            if 2 <= int(data.d.sum()) <= data.d.size - 2:
                break
        yield data, attempt


def oracle_bands(data, alpha, design):
    """Scalar reference for one replication: arm split, plug-in region,
    gradient-covariance quadratic forms, then the hybrid and banded
    intervals, one object at a time."""
    y0 = data.y0.ravel()
    stats = split_arms(data.y.ravel(), data.d.ravel())
    if design == "G":
        a, b = -5.0, 5.0
    elif design == "F":
        a, b = 0.0, float(y0.max())
    else:
        a, b = float(y0.min()), float(y0.max())
    support = known_support(a, b)
    lower, upper = manski_region(stats, support)
    cov = sampling_covariance(stats)
    grad_lower, grad_upper = bound_gradients(stats, support)
    se_lower = math.sqrt(float(grad_lower @ cov @ grad_lower))
    se_upper = math.sqrt(float(grad_upper @ cov @ grad_upper))
    z_banded = norm_ppf(1.0 - alpha / 2.0)
    out = {
        "plugin": (lower, upper),
        "banded": (lower - z_banded * se_lower, upper + z_banded * se_upper),
        "support": (a, b),
    }
    if design == "G":
        out.update(hybrid=(lower, upper), epsilon=0.0, se=(0.0, 0.0))
        return out
    log_c = math.log(1.0 / alpha) if design == "F" else math.log(2.0 / alpha)
    epsilon = math.sqrt(log_c / (2.0 * y0.size))
    scale = math.hypot(se_lower, se_upper)
    z = norm_ppf(1.0 - alpha / 4.0)
    out.update(
        hybrid=(lower - epsilon - z * scale, upper + epsilon + z * scale),
        epsilon=epsilon,
        se=(se_lower, se_upper),
    )
    return out


def oracle_cell(spec, n_reps, alpha=0.05, base_seed=0, manski_variant="plugin"):
    """CellCoverage from one oracle_bands call per replication."""
    hits_hybrid = hits_manski = redraws = 0
    for data, attempt in oracle_draws(spec, n_reps, base_seed):
        redraws += attempt
        bands = oracle_bands(data, alpha, spec.design)
        lo, hi = bands[manski_variant]
        hits_manski += lo <= spec.delta <= hi
        lo, hi = bands["hybrid"]
        hits_hybrid += lo <= spec.delta <= hi
    return CellCoverage(
        design=spec.design,
        n_units=spec.n_units,
        periods=spec.periods,
        n_total=spec.n_total,
        coverage_hybrid_pct=100.0 * hits_hybrid / n_reps,
        coverage_manski_pct=100.0 * hits_manski / n_reps,
        n_reps=n_reps,
        alpha=alpha,
        base_seed=base_seed,
        redraws=redraws,
        manski_variant=manski_variant,
    )


def close(got, want, scale=0.0):
    return abs(got - want) <= REL_TOL * max(abs(want), scale)


def big_draw(design, periods=1, seed=9):
    spec = DgpSpec(design=design, n_units=BIG, periods=periods)
    rng = np.random.default_rng(replication_seed(seed, design, BIG, periods, 0, 0))
    return generate(spec, rng)


class TestDgpSpec:
    def test_designs_roster(self):
        assert MC_DESIGNS == ("A", "B", "C", "D", "E", "F", "G")
        assert MANSKI_VARIANTS == ("plugin", "banded")

    def test_n_total(self):
        assert DgpSpec(design="A", n_units=50, periods=5).n_total == 250

    def test_validation(self):
        with pytest.raises(ValidationError):
            DgpSpec(design="H")
        with pytest.raises(ValidationError):
            DgpSpec(design="A", n_units=0)
        with pytest.raises(ValidationError):
            DgpSpec(design="A", periods=0)


class TestReplicationSeed:
    def test_same_coordinates_reproduce_the_stream(self):
        a = np.random.default_rng(replication_seed(7, "A", 50, 2, 3)).random(4)
        b = np.random.default_rng(replication_seed(7, "A", 50, 2, 3)).random(4)
        assert np.array_equal(a, b)

    def test_any_coordinate_change_moves_the_stream(self):
        base = np.random.default_rng(replication_seed(7, "A", 50, 2, 3, 0)).random(4)
        for seed_args in [
            (8, "A", 50, 2, 3, 0),
            (7, "B", 50, 2, 3, 0),
            (7, "A", 51, 2, 3, 0),
            (7, "A", 50, 3, 3, 0),
            (7, "A", 50, 2, 4, 0),
            (7, "A", 50, 2, 3, 1),
        ]:
            other = np.random.default_rng(replication_seed(*seed_args)).random(4)
            assert not np.array_equal(base, other)

    def test_a_block_state_draws_the_seed_sequence_stream(self):
        spec = DgpSpec(design="D", n_units=50, periods=2)
        for base_seed, rep, attempt in ((20240601, 0, 0), (7, 41, 3), (2**130 + 5, 999_999, 999)):
            state = _replication_seeds(base_seed, spec).states(rep, attempt)[0]
            got = np.random.Generator(np.random.PCG64(FixedState(state))).random(100)
            want = np.random.default_rng(
                replication_seed(base_seed, "D", 50, 2, rep, attempt)
            ).random(100)
            assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            FixedState(state).generate_state(4)
        for entropy, prefix in ((-1, (65,)), (7, (65, -1))):
            with pytest.raises(ValueError, match="non-negative"):
                SpawnKeys(entropy, prefix)
        with pytest.raises(ValueError, match="non-negative"):
            SpawnKeys(7, (65,)).states(-1)

    def test_every_block_checks_its_first_state(self, monkeypatch):
        spec = DgpSpec(design="A", n_units=50)
        block = BLOCK_ELEMENTS // spec.n_total
        derive = montecarlo._replication_seeds

        class SecondBlockCorrupted:
            def __init__(self, *args):
                self.seeds = derive(*args)

            def states(self, reps, attempt):
                states = self.seeds.states(reps, attempt)
                if np.ndim(reps) and reps[0] == block:
                    states[0, 0] ^= 1
                return states

        monkeypatch.setattr(montecarlo, "_replication_seeds", SecondBlockCorrupted)
        assert run_cell(spec, n_reps=block, base_seed=3) == oracle_cell(spec, block, base_seed=3)
        with pytest.raises(ConfigurationError, match=f"replication {block}:.*SeedSequence"):
            run_cell(spec, n_reps=block + 1, base_seed=3)

    def test_draw_order_is_frozen(self):
        """Worker-independence rests on a stable draw order per stream."""
        rng = np.random.default_rng(replication_seed(0, "A", 3, 2, 0, 0))
        data = generate(DgpSpec(design="A", n_units=3, periods=2), rng)
        expected = [
            0.077262581272495245,
            -0.80137790867288705,
            1.4902037341281893,
            -0.25655169479280415,
            -0.96375859116051121,
            0.64097232083728428,
        ]
        assert np.array_equal(data.y0.ravel(), np.array(expected))
        assert list(data.d.ravel()) == [False, False, False, True, False, False]


class TestGenerate:
    @pytest.mark.parametrize("n_units, periods", [(2, 2), (4, 1), (7, 5), (50, 1), (50, 5)])
    @pytest.mark.parametrize("design", MC_DESIGNS)
    def test_block_rows_and_generate_match_the_frozen_reference(
        self, monkeypatch, design, n_units, periods
    ):
        """Bit for bit: the rows run_cell scores (drawn per row, computed
        per block, redrawn where rejected) and every attempt of generate."""
        spec = DgpSpec(design=design, n_units=n_units, periods=periods)
        n_reps = BLOCK_ELEMENTS // 250 + 5
        scored = []
        score = montecarlo._replication_intervals

        def recording(y0, y, d, *args):
            scored.append((y0.copy(), d.copy()))
            return score(y0, y, d, *args)

        monkeypatch.setattr(montecarlo, "_replication_intervals", recording)
        cell = run_cell(spec, n_reps, base_seed=5)
        y0 = np.concatenate([rows for rows, _ in scored])
        d = np.concatenate([rows for _, rows in scored])
        want = list(oracle_draws(spec, n_reps, base_seed=5))
        assert cell.redraws == sum(attempt for _, attempt in want)
        assert cell.redraws > 0 or spec.n_total > 4
        for rep, (data, attempt) in enumerate(want):
            assert np.array_equal(y0[rep].view(np.uint64), data.y0.ravel().view(np.uint64))
            assert np.array_equal(d[rep], data.d.ravel())
            for tried in range(attempt + 1):
                got = generate(spec, attempt_rng(spec, 5, rep, tried))
                ref = reference_generate(spec, attempt_rng(spec, 5, rep, tried))
                assert got.y0.shape == got.d.shape == got.y.shape == (n_units, periods)
                assert np.array_equal(got.y0.view(np.uint64), ref.y0.view(np.uint64))
                assert np.array_equal(got.d, ref.d)
                assert np.array_equal(got.y.view(np.uint64), ref.y.view(np.uint64))

    def test_shapes_and_effect(self):
        spec = DgpSpec(design="A", n_units=40, periods=3, delta=4.0)
        rng = np.random.default_rng(1)
        data = generate(spec, rng)
        assert data.y0.shape == data.d.shape == data.y.shape == (40, 3)
        assert data.d.dtype == np.bool_
        assert np.array_equal(data.y, data.y0 + 4.0 * data.d)

    def test_standard_normal_design(self):
        data = big_draw("A")
        assert abs(float(data.y0.mean())) < 0.01
        assert abs(float(data.y0.var()) - 1.0) < 0.02
        assert abs(float(data.d.mean()) - 0.3) < 0.005

    def test_student_t_design_has_unit_variance(self):
        data = big_draw("B")
        assert abs(float(data.y0.mean())) < 0.01
        assert abs(float(data.y0.var()) - 1.0) < 0.05
        q90 = float(np.quantile(data.y0, 0.9))
        assert abs(q90 - sps.t.ppf(0.9, 3) / np.sqrt(3.0)) < 0.02

    def test_autoregressive_designs(self):
        """Zero-start recursion: slope 0.4, second-period variance 1 + rho^2."""
        for design in ("C", "D"):
            data = big_draw(design, periods=2)
            first, second = data.y0[:, 0], data.y0[:, 1]
            slope = float(np.cov(first, second)[0, 1] / first.var())
            assert abs(slope - 0.4) < 0.02
            assert abs(float(first.var()) - 1.0) < 0.02
            assert abs(float(second.var()) - 1.16) < 0.02

    def test_selection_direction_and_marginal_share(self):
        for design, sign in (("C", -1.0), ("D", 1.0)):
            data = big_draw(design, periods=2)
            gap = float(data.y0[data.d].mean() - data.y0[~data.d].mean())
            assert sign * gap > 0.1
            assert abs(float(data.d.mean()) - 0.5) < 0.01

    def test_contaminated_design(self):
        data = big_draw("E")
        n_hi = int((data.y0 == 10.0).sum())
        n_lo = int((data.y0 == -10.0).sum())
        assert 300 <= n_hi <= 500
        assert 300 <= n_lo <= 500
        clean = data.y0[np.abs(data.y0) < 10.0]
        assert abs(float(clean.mean())) < 0.02

    def test_chi_square_design(self):
        data = big_draw("F")
        assert float(data.y0.min()) > 0.0
        assert abs(float(data.y0.mean()) - 3.0) < 0.03
        assert abs(float(data.y0.var()) - 6.0) < 0.15

    def test_uniform_design(self):
        data = big_draw("G")
        assert float(data.y0.min()) > -5.0
        assert float(data.y0.max()) < 5.0
        assert abs(float(data.y0.mean())) < 0.02
        assert abs(float(data.y0.var()) - 25.0 / 3.0) < 0.1


class TestRunCell:
    def test_deterministic_repeat(self):
        spec = DgpSpec(design="G", n_units=50)
        assert run_cell(spec, n_reps=50, base_seed=3) == run_cell(spec, n_reps=50, base_seed=3)

    def test_known_support_design_always_covers(self):
        cell = run_cell(DgpSpec(design="G", n_units=50), n_reps=50, base_seed=3)
        assert cell.coverage_hybrid_pct == 100.0
        assert cell.coverage_manski_pct == 100.0
        assert cell.redraws == 0

    def test_coverage_matches_a_straight_line_recount(self, one_replication):
        """Independent loop over the same streams reproduces both rates."""
        spec = DgpSpec(design="F", n_units=50)
        hits_hybrid = 0
        hits_manski = 0
        for rep in range(60):
            for attempt in range(1000):
                rng = np.random.default_rng(replication_seed(11, "F", 50, 1, rep, attempt))
                data = generate(spec, rng)
                n1 = int(data.d.sum())
                if 2 <= n1 <= data.d.size - 2:
                    break
            bands = one_replication(data.y0, data.y, data.d, 0.05, "F")
            assert bands.hybrid_lower <= bands.manski_lower
            assert bands.manski_upper <= bands.hybrid_upper
            hits_manski += bands.manski_lower <= 4.0 <= bands.manski_upper
            hits_hybrid += bands.hybrid_lower <= 4.0 <= bands.hybrid_upper
        cell = run_cell(spec, n_reps=60, base_seed=11)
        assert cell.coverage_hybrid_pct == 100.0 * hits_hybrid / 60
        assert cell.coverage_manski_pct == 100.0 * hits_manski / 60
        assert cell.coverage_hybrid_pct >= cell.coverage_manski_pct

    def test_tiny_panels_are_redrawn_and_counted(self):
        cell = run_cell(DgpSpec(design="A", n_units=4), n_reps=5, base_seed=1)
        assert cell.redraws > 0
        assert cell.n_reps == 5

    def test_banded_variant_widens_the_plug_in_interval(self):
        spec = DgpSpec(design="A", n_units=50)
        banded = run_cell(spec, n_reps=40, base_seed=2, manski_variant="banded")
        plugin = run_cell(spec, n_reps=40, base_seed=2, manski_variant="plugin")
        assert banded.coverage_manski_pct >= plugin.coverage_manski_pct
        assert banded.coverage_hybrid_pct == plugin.coverage_hybrid_pct
        assert banded.manski_variant == "banded"

    def test_validation(self, monkeypatch):
        spec = DgpSpec(design="A", n_units=50)
        with pytest.raises(ValidationError):
            run_cell(spec, n_reps=0)
        with pytest.raises(ValidationError):
            run_cell(spec, n_reps=10, manski_variant="trimmed")
        for seed in (-1, 1.5, "7"):
            with pytest.raises(ValidationError, match="base_seed"):
                run_cell(spec, n_reps=10, base_seed=seed)
        monkeypatch.setattr(montecarlo, "generate", None)
        monkeypatch.setattr(montecarlo, "_draw", None)
        with pytest.raises(ValidationError, match="1,000,000"):
            run_cell(spec, n_reps=MAX_REPS + 1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_levels_outside_the_unit_interval_are_rejected_before_drawing(
        self, monkeypatch, alpha
    ):
        monkeypatch.setattr(montecarlo, "generate", None)
        monkeypatch.setattr(montecarlo, "_draw", None)
        for design in ("A", "F"):
            with pytest.raises(ValidationError, match="alpha must lie in"):
                run_cell(DgpSpec(design=design), n_reps=10, alpha=alpha)

    @pytest.mark.parametrize("n_units, periods", [(1, 1), (3, 1), (1, 3), (2, 1)])
    def test_cells_too_small_for_two_per_arm_are_rejected_up_front(
        self, monkeypatch, n_units, periods
    ):
        spec = DgpSpec(design="A", n_units=n_units, periods=periods)
        generate(spec, np.random.default_rng(0))
        monkeypatch.setattr(montecarlo, "generate", None)
        monkeypatch.setattr(montecarlo, "_draw", None)
        with pytest.raises(ValidationError, match="at least 4 observations"):
            run_cell(spec, n_reps=5)

    def test_a_replication_that_never_splits_stops_the_cell(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "TREATMENT_SHARE", 0.0)
        with pytest.raises(ConfigurationError,
                           match="^replication 0: 1000 consecutive draws left an arm empty$"):
            run_cell(DgpSpec(design="A", n_units=2, periods=2), n_reps=5)

    def test_four_observations_are_enough(self):
        cell = run_cell(DgpSpec(design="A", n_units=2, periods=2), n_reps=5, base_seed=1)
        assert cell.n_total == 4 and cell.redraws > 0


class TestBatchedStatistics:
    """The block kernel against the per-replication scalar reference."""

    @pytest.mark.parametrize("manski_variant", MANSKI_VARIANTS)
    @pytest.mark.parametrize("periods", [1, 2, 5])
    @pytest.mark.parametrize("design", MC_DESIGNS)
    def test_kernel_matches_the_scalar_reference(self, design, periods, manski_variant,
                                                 one_replication):
        spec = DgpSpec(design=design, n_units=50, periods=periods)
        draws = [data for data, _ in oracle_draws(spec, 30, base_seed=17)]
        y0 = np.stack([data.y0.ravel() for data in draws])
        d = np.stack([data.d.ravel() for data in draws])
        block = _replication_intervals(y0, y0 + spec.delta * d, d, design, 0.05)
        manski = {
            "plugin": (block.manski_lower, block.manski_upper),
            "banded": (block.banded_lower, block.banded_upper),
        }[manski_variant]
        for row, data in enumerate(draws):
            want = oracle_bands(data, 0.05, design)
            one = one_replication(data.y0, data.y, data.d, 0.05, design)
            width = want["support"][1] - want["support"][0]
            assert close(manski[0][row], want[manski_variant][0], width)
            assert close(manski[1][row], want[manski_variant][1], width)
            assert close(block.hybrid_lower[row], want["hybrid"][0], width)
            assert close(block.hybrid_upper[row], want["hybrid"][1], width)
            assert close(block.se[row], want["se"][0]) and close(block.se[row], want["se"][1])
            assert close(block.epsilon, want["epsilon"])
            assert (block.support_lower[row], block.support_upper[row]) == want["support"]
            assert close(one.manski_lower, want["plugin"][0], width)
            assert close(one.manski_upper, want["plugin"][1], width)
            assert close(one.hybrid_lower, want["hybrid"][0], width)
            assert close(one.hybrid_upper, want["hybrid"][1], width)
            assert close(one.se, want["se"][0]) and close(one.se, want["se"][1])
            assert close(one.epsilon, want["epsilon"])
        if design == "G":
            assert np.array_equal(block.hybrid_lower, block.manski_lower)
            assert np.array_equal(block.hybrid_upper, block.manski_upper)
        assert run_cell(spec, 30, base_seed=17, manski_variant=manski_variant) == oracle_cell(
            spec, 30, base_seed=17, manski_variant=manski_variant
        )

    @pytest.mark.parametrize("design", ["A", "F", "G"])
    def test_rows_do_not_depend_on_the_block(self, design):
        spec = DgpSpec(design=design, n_units=7, periods=5)
        draws = [data for data, _ in oracle_draws(spec, 40, base_seed=2)]
        y0 = np.stack([data.y0.ravel() for data in draws])
        d = np.stack([data.d.ravel() for data in draws])
        block = _replication_intervals(y0, y0 + spec.delta * d, d, design, 0.05)
        for row in range(len(draws)):
            one = _replication_intervals(
                y0[row:row + 1], y0[row:row + 1] + spec.delta * d[row:row + 1],
                d[row:row + 1], design, 0.05,
            )
            for name, value in one._asdict().items():
                whole = getattr(block, name)
                assert np.array_equal(whole[row:row + 1] if np.ndim(whole) else whole, value)

    def test_single_replication(self):
        spec = DgpSpec(design="A", n_units=50)
        assert run_cell(spec, 1, base_seed=4) == oracle_cell(spec, 1, base_seed=4)

    def test_replications_spill_past_two_blocks(self):
        spec = DgpSpec(design="E", n_units=50)
        n_reps = 2 * (BLOCK_ELEMENTS // spec.n_total) + 1
        for variant in MANSKI_VARIANTS:
            assert run_cell(spec, n_reps, base_seed=4, manski_variant=variant) == oracle_cell(
                spec, n_reps, base_seed=4, manski_variant=variant
            )

    def test_panel_larger_than_a_block_scores_one_row_at_a_time(self):
        spec = DgpSpec(design="B", n_units=BLOCK_ELEMENTS + 1)
        assert BLOCK_ELEMENTS // spec.n_total == 0
        assert run_cell(spec, 3, base_seed=4) == oracle_cell(spec, 3, base_seed=4)

    def test_redraw_heavy_cell(self):
        spec = DgpSpec(design="A", n_units=4)
        cell = run_cell(spec, 60, base_seed=4, manski_variant="banded")
        assert cell.redraws > 0
        assert cell == oracle_cell(spec, 60, base_seed=4, manski_variant="banded")

    def test_pooled_blocks_match_the_reference(self):
        n_reps = BLOCK_ELEMENTS // 50 + 1
        kwargs = dict(designs=["C", "G"], periods_list=[1], n_reps=n_reps, base_seed=8)
        serial = coverage_table(workers=1, **kwargs)
        assert coverage_table(workers=2, **kwargs) == serial
        assert serial == [
            oracle_cell(DgpSpec(design=design, n_units=50), n_reps, base_seed=8)
            for design in ("C", "G")
        ]

    def test_no_runtime_warnings(self):
        # the second seed has more entropy words than the seed pool holds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for base_seed in (6, 2**130 + 6):
                for design in MC_DESIGNS:
                    for variant in MANSKI_VARIANTS:
                        run_cell(DgpSpec(design=design, n_units=4, periods=2), 20,
                                 base_seed=base_seed, manski_variant=variant)


class TestCoverageTable:
    def test_cells_are_design_major(self):
        cells = coverage_table(designs=["A", "G"], periods_list=[1, 2], n_reps=5, base_seed=5)
        assert [(c.design, c.periods) for c in cells] == [
            ("A", 1),
            ("A", 2),
            ("G", 1),
            ("G", 2),
        ]

    def test_process_pool_matches_serial(self):
        serial = coverage_table(designs=["A", "G"], periods_list=[1], n_reps=30, base_seed=5)
        pooled = coverage_table(
            designs=["A", "G"], periods_list=[1], n_reps=30, base_seed=5, workers=2
        )
        assert serial == pooled

    def test_processes_are_clamped_to_cells_and_cpus(self, monkeypatch):
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        kwargs = dict(designs=["A", "G"], n_reps=5, base_seed=5)
        serial = coverage_table(periods_list=[1, 2, 5], **kwargs)
        assert coverage_table(periods_list=[1, 2, 5], workers=1000, **kwargs) == serial
        coverage_table(periods_list=[1], workers=1000, **kwargs)
        assert pools == [4, 2]
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 1)
        assert coverage_table(periods_list=[1, 2, 5], workers=1000, **kwargs) == serial
        assert pools == [4, 2]

    def test_validation(self):
        with pytest.raises(ValidationError):
            coverage_table(designs=["Z"], n_reps=5)
        with pytest.raises(ValidationError):
            coverage_table(designs=["A"], n_reps=5, workers=0)
        for kwargs, message in (
            ({"designs": ["A", "G", "A"]}, r"each design may appear once, repeated: \['A'\]"),
            ({"designs": ["A"], "periods_list": [1, 2, 1]},
             r"each period count may appear once, repeated: \[1\]"),
        ):
            with pytest.raises(ValidationError, match=message):
                coverage_table(n_reps=5, **kwargs)

    @pytest.mark.parametrize("empty", ["designs", "periods_list"])
    def test_only_none_takes_the_default(self, empty):
        with pytest.raises(ValidationError, match="must not be empty"):
            coverage_table(**{empty: []}, n_reps=5)


class TestCoverageCsv:
    def test_exact_layout(self, tmp_path):
        cells = coverage_table(designs=["G"], periods_list=[1], n_reps=4, base_seed=5)
        path = tmp_path / "coverage.csv"
        write_coverage_csv(cells, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dgp,N,method,coverage_pct,B,seed,redraws"
        assert lines[1] == "G,50,hybrid,100.00,4,5,0"
        assert lines[2] == "G,50,manski,100.00,4,5,0"
        assert len(lines) == 1 + 2 * len(cells)

    def test_banded_label(self, tmp_path):
        cell = run_cell(
            DgpSpec(design="G", n_units=50), n_reps=4, base_seed=5, manski_variant="banded"
        )
        path = tmp_path / "coverage.csv"
        write_coverage_csv([cell], path)
        lines = path.read_text().splitlines()
        assert lines[2].split(",")[2] == "manski-banded"
