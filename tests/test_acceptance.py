"""End-to-end acceptance checks, one printed verdict line per criterion."""

import math
import time

import numpy as np

from concate.bands import BandOptions, compute_band
from concate.cli import main
from concate.concentration import (
    BernsteinConstants,
    bernstein_mixing_terms,
    bernstein_tmu_iid,
    dkw_epsilon,
)
from concate.datasets import make_null_panel, make_tipping_demo_panel, write_panel_csv
from concate.errors import EmptyScanError
from concate.estimators import split_arms
from concate.manski import delta_method_band, extrema_support
from concate.montecarlo import (
    DgpSpec,
    coverage_table,
    generate,
    replication_seed,
)
from concate.sequential import ThresholdGrid, scan
from delta_oracle import bound_gradients, sampling_covariance

# Reference coverage grid for the default harness (50 units, effect 4.0,
# 2,000 replications, alpha 0.05): (hybrid, plug-in) percent per design
# and period count.  Cells printed as 100 are gated at >= 99.0, cells in
# (5, 95) at +/- 3.0 points; near-ceiling cells in [95, 100) are reported
# but not gated.
REFERENCE_COVERAGE = {
    ("A", 1): (85.95, 9.25),
    ("A", 2): (89.75, 21.40),
    ("A", 5): (96.05, 49.50),
    ("B", 1): (83.05, 36.70),
    ("B", 2): (93.40, 66.65),
    ("B", 5): (99.65, 94.90),
    ("C", 1): (99.40, 51.10),
    ("C", 2): (100.0, 84.05),
    ("C", 5): (100.0, 99.70),
    ("D", 1): (100.0, 84.00),
    ("D", 2): (100.0, 98.35),
    ("D", 5): (100.0, 100.0),
    ("E", 1): (89.10, 27.30),
    ("E", 2): (93.65, 46.45),
    ("E", 5): (98.80, 81.80),
    ("F", 1): (100.0, 99.85),
    ("F", 2): (100.0, 100.0),
    ("F", 5): (100.0, 100.0),
    ("G", 1): (100.0, 100.0),
    ("G", 2): (100.0, 100.0),
    ("G", 5): (100.0, 100.0),
}


def verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def positive_sample(rng):
    while True:
        n = int(rng.integers(40, 300))
        z = rng.random(n) < rng.uniform(0.3, 0.7)
        if 10 <= z.sum() <= n - 10:
            return split_arms(rng.chisquare(3, n) * rng.uniform(0.5, 3.0), z)


def unrestricted_sample(rng, arm_min=2):
    while True:
        n = int(rng.integers(3 * arm_min, 200))
        z = rng.random(n) < rng.uniform(0.3, 0.7)
        if arm_min <= z.sum() <= n - arm_min:
            y = rng.standard_normal(n) * rng.uniform(0.5, 3.0) + rng.uniform(-5.0, 5.0)
            return split_arms(y, z)


def third_term_level(t, n, constants):
    u = n * t
    a = constants.gamma * (1.0 - constants.gamma)
    g = (u * u / (constants.c3 * n)) * math.exp(
        u**a / (constants.c4 * math.log(u) ** constants.gamma)
    )
    return math.exp(-g)


def region_ends(mean1, mean0, p1, p0, support):
    base = mean1 * p1 - mean0 * p0
    return (
        base + support.lower_treated * p0 - support.upper_control * p1,
        base + support.upper_treated * p0 - support.lower_control * p1,
    )


def fd_gradients(stats, support, h_scale=1e-5):
    p1 = stats.n_treated / stats.n
    p0 = stats.n_control / stats.n
    point = [stats.mean_treated, stats.mean_control, p1, p0]
    lower_grad = []
    upper_grad = []
    for j in range(4):
        h = h_scale * max(1.0, abs(point[j]))
        hi = list(point)
        lo = list(point)
        hi[j] += h
        lo[j] -= h
        up_ends = region_ends(*hi, support)
        dn_ends = region_ends(*lo, support)
        lower_grad.append((up_ends[0] - dn_ends[0]) / (2.0 * h))
        upper_grad.append((up_ends[1] - dn_ends[1]) / (2.0 * h))
    return np.array(lower_grad), np.array(upper_grad)


class TestAcceptance:
    def test_criterion_1_coverage_table(self):
        start = time.perf_counter()
        cells = coverage_table(
            designs=list("ABCDEFG"),
            n_units=50,
            periods_list=[1, 2, 5],
            n_reps=2000,
            alpha=0.05,
            base_seed=20240601,
            workers=8,
        )
        elapsed = time.perf_counter() - start
        failures = []
        worst = 0.0
        n_gated = 0
        for cell in cells:
            printed = REFERENCE_COVERAGE[(cell.design, cell.periods)]
            computed = (cell.coverage_hybrid_pct, cell.coverage_manski_pct)
            for label, want, got in zip(("hybrid", "manski"), printed, computed):
                tag = f"{cell.design}/T={cell.periods}/{label}: printed {want}, got {got:.2f}"
                if want == 100.0:
                    n_gated += 1
                    worst = max(worst, 100.0 - got)
                    if got < 99.0:
                        failures.append(tag)
                elif 5.0 < want < 95.0:
                    n_gated += 1
                    worst = max(worst, abs(got - want))
                    if abs(got - want) > 3.0:
                        failures.append(tag)
        ok = not failures and elapsed < 300.0
        line = verdict(
            1,
            ok,
            f"{n_gated - len(failures)}/{n_gated} gated cells within tolerance, "
            f"worst gated deviation {worst:.2f}pp, {elapsed:.1f}s",
        )
        assert ok, line + "; " + "; ".join(failures)

    def test_criterion_2_containment(self, one_replication):
        rng = np.random.default_rng(20240602)
        escapes = {"iid": 0, "mixing": 0, "hybrid": 0}
        n_draws = 10_000
        for _ in range(n_draws):
            concentration_sample = positive_sample(rng)
            options = BandOptions(c_alpha=float(rng.uniform(0.0, 0.5)))
            for method in ("iid", "mixing"):
                res = compute_band(concentration_sample, method, 0.05, options)
                if not (
                    res.band_lower <= res.region_lower
                    and res.region_upper <= res.band_upper
                ):
                    escapes[method] += 1
            hybrid_sample = unrestricted_sample(rng)
            res = compute_band(
                hybrid_sample, "hybrid", 0.05,
                BandOptions(c_alpha=float(rng.uniform(0.0, 1.0))),
            )
            if not (
                res.band_lower <= res.region_lower
                and res.region_upper <= res.band_upper
            ):
                escapes["hybrid"] += 1

        g_spec = DgpSpec(design="G", n_units=50)
        g_mismatch = 0
        n_g = 2000
        for rep in range(n_g):
            for attempt in range(1000):
                gen = np.random.default_rng(replication_seed(20240602, "G", 50, 1, rep, attempt))
                data = generate(g_spec, gen)
                n1 = int(data.d.sum())
                if 2 <= n1 <= data.d.size - 2:
                    break
            bands = one_replication(data.y0, data.y, data.d, 0.05, "G")
            if bands.hybrid_lower != bands.manski_lower or bands.hybrid_upper != bands.manski_upper:
                g_mismatch += 1

        ok = sum(escapes.values()) == 0 and g_mismatch == 0
        line = verdict(
            2,
            ok,
            f"{n_draws} draws per method, escapes iid={escapes['iid']} "
            f"mixing={escapes['mixing']} hybrid={escapes['hybrid']}; "
            f"{n_g} design-G replications, {g_mismatch} bit-exact mismatches",
        )
        assert ok, line

    def test_criterion_3_padding_inversion(self):
        rng = np.random.default_rng(20240603)
        constants = BernsteinConstants()
        worst = 0.0
        n_paddings = 0
        for _ in range(1000):
            alpha = float(10.0 ** rng.uniform(math.log10(0.001), math.log10(0.2)))
            n = int(rng.integers(10, 5001))
            c = float(rng.uniform(0.0, 2.0))
            m = float(rng.uniform(0.1, 10.0))
            v = float(rng.uniform(0.0, 5.0))
            c_abs = float(rng.uniform(0.5, 2.0))
            prefactor = (1.0 + 4.0 * c) ** 2
            checks = []

            eps = dkw_epsilon(alpha, n)
            checks.append((2.0 * math.exp(-2.0 * n * eps * eps), alpha / 6.0))
            eps = dkw_epsilon(alpha, n, sides="one")
            checks.append((math.exp(-2.0 * n * eps * eps), alpha / 6.0))
            eps = dkw_epsilon(alpha, n, c_alpha=c)
            checks.append((2.0 * math.exp(-n * eps * eps / (2.0 * prefactor)), alpha / 6.0))

            t = dkw_epsilon(alpha, n)
            checks.append((2.0 * math.exp(-2.0 * n * t * t), alpha / 6.0))
            t = dkw_epsilon(alpha, n, c_alpha=c)
            checks.append((2.0 * math.exp(-n * t * t / (2.0 * prefactor)), alpha / 6.0))

            t = bernstein_tmu_iid(alpha, n, m, c_abs)
            log_term = math.log(12.0 / alpha)
            linear = m * log_term / (c_abs * n)
            quadratic = m * math.sqrt(log_term / (c_abs * n))
            if linear <= quadratic:
                checks.append((2.0 * math.exp(-c_abs * n * t / m), alpha / 6.0))
            else:
                checks.append((2.0 * math.exp(-c_abs * n * (t / m) ** 2), alpha / 6.0))

            eps = dkw_epsilon(alpha, n, budget=8.0, c_alpha=c)
            checks.append((2.0 * math.exp(-n * eps * eps / (2.0 * prefactor)), alpha / 4.0))
            eps = dkw_epsilon(alpha, n, sides="one", budget=8.0, c_alpha=c)
            checks.append((math.exp(-n * eps * eps / (2.0 * prefactor)), alpha / 4.0))

            t1, t2, t3 = bernstein_mixing_terms(alpha, n, constants, v)
            checks.append(
                (n * math.exp(-((n * t1) ** constants.gamma) / constants.c1), alpha / 18.0)
            )
            checks.append(
                (
                    math.exp(-((n * t2) ** 2) / (constants.c2 * (1.0 + n * v))),
                    alpha / 18.0,
                )
            )
            checks.append((third_term_level(t3, n, constants), alpha / 18.0))

            for got, want in checks:
                worst = max(worst, abs(got - want) / want)
            n_paddings += len(checks)
        ok = worst <= 1e-10
        line = verdict(
            3,
            ok,
            f"1000 tuples, {n_paddings} paddings inverted, "
            f"worst relative budget error {worst:.2e}",
        )
        assert ok, line

    def test_criterion_4_gradient_check(self):
        rng = np.random.default_rng(20240604)
        worst_se = 0.0
        worst_grad = 0.0
        for _ in range(100):
            stats = unrestricted_sample(rng, arm_min=5)
            cov = sampling_covariance(stats)

            support = extrema_support(stats)
            band = delta_method_band(stats, support, 0.05)
            grad_lower, grad_upper = bound_gradients(stats, support)
            fd_lower, fd_upper = fd_gradients(stats, support)
            for analytic, fd in ((grad_lower, fd_lower), (grad_upper, fd_upper)):
                rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
                worst_grad = max(worst_grad, float(rel.max()))
            for se, fd in ((band.se_lower, fd_lower), (band.se_upper, fd_upper)):
                se_fd = math.sqrt(float(fd @ cov @ fd))
                worst_se = max(worst_se, abs(se_fd - se) / se)

            c_alpha = float(rng.uniform(0.0, 0.5))
            hybrid = compute_band(stats, "hybrid", 0.05, BandOptions(c_alpha=c_alpha))
            fd_lower, fd_upper = fd_gradients(stats, hybrid.support)
            for se, fd in ((hybrid.se_lower, fd_lower), (hybrid.se_upper, fd_upper)):
                se_fd = math.sqrt(float(fd @ cov @ fd))
                worst_se = max(worst_se, abs(se_fd - se) / se)
        ok = worst_se <= 1e-6 and worst_grad <= 1e-6
        line = verdict(
            4,
            ok,
            f"100 samples, worst relative SE gap {worst_se:.2e}, "
            f"worst gradient component gap {worst_grad:.2e}",
        )
        assert ok, line

    def test_criterion_5_family_wise_error_under_the_null(self):
        grid = ThresholdGrid.default()
        n_panels = 2000
        false_hits = 0
        for i in range(n_panels):
            panel = make_null_panel(120, 1, seed=20240605 + i)
            try:
                result = scan(panel, grid, "hybrid", alpha=0.05)
            except EmptyScanError:
                continue
            if result.tipping_tau is not None:
                false_hits += 1
        rate = false_hits / n_panels
        bound = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / n_panels)
        ok = rate <= bound
        line = verdict(
            5,
            ok,
            f"false tipping rate {rate:.4f} over {n_panels} null panels, bound {bound:.4f}",
        )
        assert ok, line

    def test_criterion_6_bundled_demo_pipeline(self):
        result = scan(make_tipping_demo_panel(), ThresholdGrid.default(), "hybrid", alpha=0.05)
        skipped_ok = all(row.skipped == (row.tau >= 60.0) for row in result.rows)
        reasons_ok = all(
            "below min_group" in row.reason for row in result.rows if row.skipped
        )
        ok = (
            result.tipping_tau == 55.0
            and result.direction == "positive"
            and skipped_ok
            and reasons_ok
            and result.n_skipped == 8
        )
        line = verdict(
            6,
            ok,
            f"tipping_tau {result.tipping_tau:g}, direction {result.direction}, "
            f"{result.n_skipped} thresholds skipped with a reason",
        )
        assert ok, line

    def test_criterion_7_worker_count_determinism(self, tmp_path):
        demo = tmp_path / "demo.csv"
        write_panel_csv(make_tipping_demo_panel(), demo)
        for workers, tag in (("1", "a"), ("8", "b")):
            rc = main([
                "scan", str(demo), "--workers", workers,
                "--out", str(tmp_path / f"scan_{tag}.csv"),
                "--json", str(tmp_path / f"scan_{tag}.json"),
                "--svg", str(tmp_path / f"scan_{tag}.svg"),
            ])
            assert rc == 0
            rc = main([
                "simulate", "--dgp", "A,F", "--T", "1,2", "--reps", "25",
                "--seed", "11", "--workers", workers,
                "--out", str(tmp_path / f"sim_{tag}.csv"),
                "--json", str(tmp_path / f"sim_{tag}.json"),
            ])
            assert rc == 0
        pairs = [
            ("scan_a.csv", "scan_b.csv"),
            ("scan_a.json", "scan_b.json"),
            ("scan_a.svg", "scan_b.svg"),
            ("sim_a.csv", "sim_b.csv"),
            ("sim_a.json", "sim_b.json"),
        ]
        mismatched = [
            a for a, b in pairs
            if (tmp_path / a).read_bytes() != (tmp_path / b).read_bytes()
        ]
        ok = not mismatched
        line = verdict(
            7,
            ok,
            "scan csv/json/svg and simulate csv/json byte-identical across 1 and 8 workers"
            if ok
            else f"mismatched: {mismatched}",
        )
        assert ok, line
