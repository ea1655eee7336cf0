"""Tests for the outcome designs and the coverage experiment."""

import numpy as np
import pytest
from scipy import stats as sps

from concate import montecarlo
from concate.errors import ValidationError
from concate.hybrid import MC_DESIGNS, replication_bands
from concate.montecarlo import (
    MANSKI_VARIANTS,
    DgpSpec,
    coverage_table,
    generate,
    replication_seed,
    run_cell,
    write_coverage_csv,
)

BIG = 200_000


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

    def test_coverage_matches_a_straight_line_recount(self):
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
            bands = replication_bands(data.y0, data.y, data.d, 0.05, "F")
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

    def test_validation(self):
        spec = DgpSpec(design="A", n_units=50)
        with pytest.raises(ValidationError):
            run_cell(spec, n_reps=0)
        with pytest.raises(ValidationError):
            run_cell(spec, n_reps=10, manski_variant="trimmed")


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

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
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
