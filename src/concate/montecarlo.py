"""Coverage experiment for the plug-in and Monte Carlo "hybrid" intervals.

The "hybrid" interval here is the paper's Monte Carlo interval: the
plug-in interval widened by one DKW epsilon pooled over all N
observations and one symmetric delta-method term.  It is not the
``hybrid`` band method of :mod:`concate.hybrid`, which pads each arm's
supports separately and carries an SE per endpoint.

Seven outcome designs, each a firm-by-quarter panel with a constant
additive effect on the treated:

    A  standard normal
    B  Student t(3) scaled to unit variance
    C  AR(1), rho 0.4, with negative selection into treatment
    D  AR(1), rho 0.4, with positive selection
    E  standard normal contaminated by point masses at -10 and +10
       (probability 0.002 each)
    F  chi-squared(3), lower support limit 0 known
    G  uniform on (-5, 5), full support known

Treatment is Bernoulli(0.3) except in C and D, where the assignment
probability is a logistic function of the baseline outcome plus noise.
Every replication draws on its own PCG64 stream, seeded exactly as by
SeedSequence(entropy=base_seed, spawn_key=(design, n, periods,
replication, attempt)).  Those seeds are derived a block of replications
at a time in one vectorised pass (``seedseq.SpawnKeys``), and each
block's first seed is checked against SeedSequence itself.  Only the raw
variates (normals, uniforms, t, chi-squared) are drawn per replication,
into one row of a (B, ·) buffer; each design's arithmetic, the
treatment assignment, the two-per-arm acceptance check and the scoring
then run once per block, as element-wise passes and masked reductions
over (B, N) arrays.  No replication's numbers depend on its neighbours,
so outputs are byte-identical for any block size and any number of
workers.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .manski import delta_method_interval
from .stats import norm_ppf

MC_DESIGNS = ("A", "B", "C", "D", "E", "F", "G")
MANSKI_VARIANTS = ("plugin", "banded")

TREATMENT_SHARE = 0.3
AR_RHO = 0.4
SELECTION_SLOPE = 0.5
SELECTION_NOISE_SD = 0.5
CONTAMINATION_PROB = 0.002
CONTAMINATION_VALUE = 10.0
CHI_SQUARE_DF = 3
STUDENT_T_DF = 3
UNIFORM_LIMITS = (-5.0, 5.0)
#: Elements per block of replications scored together (B = this // N rows).
BLOCK_ELEMENTS = 16_384
#: Most replications one cell may run.
MAX_REPS = 1_000_000
#: Fewest observations a cell needs: run_cell accepts a draw only when
#: each arm holds at least 2.
MIN_OBSERVATIONS = 4


@dataclass(frozen=True)
class DgpSpec:
    """One cell of the experiment: design, panel shape, effect size."""

    design: str
    n_units: int = 50
    periods: int = 1
    delta: float = 4.0

    def __post_init__(self) -> None:
        if self.design not in MC_DESIGNS:
            raise ValidationError(f"design must be one of {MC_DESIGNS}, got {self.design!r}")
        if self.n_units < 1 or self.periods < 1:
            raise ValidationError("panel dimensions must be positive")

    @property
    def n_total(self) -> int:
        return self.n_units * self.periods


@dataclass(frozen=True)
class SimulatedData:
    """Baseline outcomes, treatment indicators, observed outcomes (n x T)."""

    y0: np.ndarray
    d: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class CellCoverage:
    """Coverage of both intervals in one (design, N) cell."""

    design: str
    n_units: int
    periods: int
    n_total: int
    coverage_hybrid_pct: float
    coverage_manski_pct: float
    n_reps: int
    alpha: float
    base_seed: int
    redraws: int
    manski_variant: str


def replication_seed(
    base_seed: int,
    design: str,
    n_units: int,
    periods: int,
    rep: int,
    attempt: int = 0,
) -> np.random.SeedSequence:
    """Named stream derivation: one child stream per replication attempt.

    The spawn key encodes (design, n, T, replication, attempt), so any
    worker can reproduce any replication independently and an arm-empty
    redraw (attempt > 0) perturbs the stream deterministically.
    """
    return np.random.SeedSequence(
        entropy=base_seed,
        spawn_key=(ord(design), n_units, periods, rep, attempt),
    )


def _replication_seeds(base_seed: int, spec: DgpSpec):
    """The cell's seeds: row i of ``.states(reps, attempt)`` is
    ``replication_seed(base_seed, <spec>, reps[i], attempt)
    .generate_state(4, np.uint64)``, for ``reps`` a uint32 array (or one
    int, giving one row)."""
    from .seedseq import SpawnKeys

    return SpawnKeys(base_seed, (ord(spec.design), spec.n_units, spec.periods))


def _raw_buffers(spec: DgpSpec, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw-variate rows for ``rows`` replications: baseline variates ``z``
    (C, D: then selection noise) and uniforms ``u`` (E: contamination first)."""
    n_total = spec.n_total
    z = np.empty((rows, 2 * n_total if spec.design in ("C", "D") else n_total))
    u = np.empty((rows, 2 * n_total if spec.design == "E" else n_total))
    return z, u


def _draw(design: str, rng: np.random.Generator, z: np.ndarray, u: np.ndarray) -> None:
    """Fill one replication's rows of the raw buffers in the frozen draw
    order: baseline variates first (for E the contamination uniforms,
    then the normals; for C and D the innovations period by period), then
    the selection noise (C, D only), then the treatment uniforms."""
    if design == "E":
        rng.random(out=u[:z.size])
        rng.standard_normal(out=z)
        rng.random(out=u[z.size:])
        return
    if design in ("A", "C", "D"):
        rng.standard_normal(out=z)
    elif design == "B":
        z[:] = rng.standard_t(STUDENT_T_DF, z.size)
    elif design == "F":
        z[:] = rng.chisquare(CHI_SQUARE_DF, z.size)
    else:
        z[:] = rng.uniform(*UNIFORM_LIMITS, z.size)
    rng.random(out=u)


def _outcomes(spec: DgpSpec, z: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Baseline outcomes and treatment, both (B, N) in unit-major order,
    from B rows of raw variates.  The AR(1) recursion of C and D starts
    from zero: the first period is pure innovation."""
    n, periods, design = spec.n_units, spec.periods, spec.design
    rows, n_total = u.shape[0], spec.n_total
    if design == "B":
        y0 = z / math.sqrt(3.0)
    elif design in ("C", "D"):
        innovations = z[:, :n_total].reshape(rows, periods, n)
        panel = np.empty((rows, n, periods))
        panel[:, :, 0] = innovations[:, 0]
        for t in range(1, periods):
            panel[:, :, t] = AR_RHO * panel[:, :, t - 1] + innovations[:, t]
        y0 = panel.reshape(rows, n_total)
        slope = -SELECTION_SLOPE if design == "C" else SELECTION_SLOPE
        eta = SELECTION_NOISE_SD * z[:, n_total:]
        # np.exp sees a contiguous array, as in a one-replication draw
        prob = 1.0 / (1.0 + np.exp(-(slope * y0 + eta)))
        return y0, u < prob
    elif design == "E":
        c = u[:, :n_total]
        y0 = np.where(c < CONTAMINATION_PROB, -CONTAMINATION_VALUE,
                      np.where(c >= 1.0 - CONTAMINATION_PROB, CONTAMINATION_VALUE, z))
    else:
        y0 = z
    return y0, u[:, -n_total:] < TREATMENT_SHARE


def generate(spec: DgpSpec, rng: np.random.Generator) -> SimulatedData:
    """Draw one replication: the one-row case of the block path."""
    z, u = _raw_buffers(spec, 1)
    _draw(spec.design, rng, z[0], u[0])
    y0, d = (a.reshape(spec.n_units, spec.periods) for a in _outcomes(spec, z, u))
    return SimulatedData(y0=y0, d=d, y=y0 + spec.delta * d)


class _Intervals(NamedTuple):
    """The intervals of a block of replications, one array entry per row.
    ``hybrid_*`` is the Monte Carlo interval of the module docstring."""

    manski_lower: np.ndarray
    manski_upper: np.ndarray
    hybrid_lower: np.ndarray
    hybrid_upper: np.ndarray
    banded_lower: np.ndarray
    banded_upper: np.ndarray
    support_lower: np.ndarray
    support_upper: np.ndarray
    epsilon: float
    se: np.ndarray


def _replication_intervals(
    y0: np.ndarray, y: np.ndarray, d: np.ndarray, design: str, alpha: float
) -> _Intervals:
    """Coverage-experiment intervals for a (B, N) block, one row per replication.

    Arm statistics are masked reductions along axis 1.  Every row needs
    both arms non-empty and, outside design G, two observations per arm;
    callers check that.  Both arms share the support [a, b] of the
    baseline, not the observed, outcomes: (-5, 5) in design G, [0, max] in
    design F, the extrema otherwise.  The plug-in interval and its endpoint
    SEs are :func:`concate.manski.delta_method_interval`, as in every
    delta-method look band; with one support both ends have g = mean1 +
    mean0 - a - b, and so one SE.  ``banded_*`` widens the plug-in
    interval by it at the normal quantile of 1 - alpha / 2; ``hybrid_*``
    by eps = sqrt(log(C) / (2 N)), C = 2 / alpha (1 / alpha in design F),
    plus the normal quantile of 1 - alpha / 4 times sqrt(se^2 + se^2).
    For design G the hybrid arrays are the plug-in arrays and the reported
    epsilon and SE are zero.
    """
    n = y.shape[1]
    n1 = np.count_nonzero(d, axis=1)
    n0 = n - n1
    in1 = d.astype(float)
    in0 = 1.0 - in1
    mean1 = np.einsum("ij,ij->i", y, in1) / n1
    mean0 = np.einsum("ij,ij->i", y, in0) / n0
    if design == "G":
        a, b = (np.full(n1.shape, limit) for limit in UNIFORM_LIMITS)
    else:
        b = y0.max(axis=1)
        a = np.zeros_like(b) if design == "F" else y0.min(axis=1)
    # two-pass n - 1 variances; NaN, without a warning, for a one-observation arm
    dev = y - np.where(d, mean1[:, None], mean0[:, None])
    sq = dev * dev
    var1 = np.divide(np.einsum("ij,ij->i", sq, in1), n1 - 1,
                     out=np.full(n1.shape, np.nan), where=n1 > 1)
    var0 = np.divide(np.einsum("ij,ij->i", sq, in0), n0 - 1,
                     out=np.full(n0.shape, np.nan), where=n0 > 1)
    lower, upper, se, _ = delta_method_interval(mean1, mean0, n1, n0, var1, var0, a, b, a, b)
    z_banded = norm_ppf(1.0 - alpha / 2.0)
    banded_lower = lower - z_banded * se
    banded_upper = upper + z_banded * se
    if design == "G":
        return _Intervals(lower, upper, lower, upper, banded_lower, banded_upper,
                          a, b, 0.0, np.zeros(n1.shape))
    log_c = math.log(1.0 / alpha) if design == "F" else math.log(2.0 / alpha)
    epsilon = math.sqrt(log_c / (2.0 * n))
    spread = norm_ppf(1.0 - alpha / 4.0) * np.hypot(se, se)
    return _Intervals(lower, upper, lower - epsilon - spread, upper + epsilon + spread,
                      banded_lower, banded_upper, a, b, epsilon, se)


def _hits(lower: np.ndarray, upper: np.ndarray, value: float) -> int:
    return int(np.count_nonzero((lower <= value) & (value <= upper)))


def run_cell(
    spec: DgpSpec,
    n_reps: int = 2000,
    alpha: float = 0.05,
    base_seed: int = 0,
    manski_variant: str = "plugin",
) -> CellCoverage:
    """Coverage of the true effect over n_reps independent replications.

    A replication whose treatment split leaves fewer than 2 observations
    in either arm is redrawn from the next attempt stream; redraws are
    counted and reported, never silently absorbed.  Replications run a
    block of B = max(1, BLOCK_ELEMENTS // N) at a time.  The block's
    generator seeds are derived together, and the first is checked against
    ``replication_seed``: a mismatch raises ConfigurationError rather
    than silently changing the streams.  Each replication's generator then
    fills only its row of raw variates; the outcomes, the treatment, the
    acceptance check and the scoring run once over the block.  A rejected
    row is redrawn through ``generate``, one attempt at a time.
    """
    from .seedseq import FixedState

    if not 1 <= n_reps <= MAX_REPS:
        raise ValidationError(f"n_reps must lie in [1, {MAX_REPS:,}], got {n_reps}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if not isinstance(base_seed, (int, np.integer)) or base_seed < 0:
        raise ValidationError(f"base_seed must be a non-negative integer, got {base_seed!r}")
    if manski_variant not in MANSKI_VARIANTS:
        raise ValidationError(
            f"manski_variant must be one of {MANSKI_VARIANTS}, got {manski_variant!r}"
        )
    n_total = spec.n_total
    if n_total < MIN_OBSERVATIONS:
        raise ValidationError(
            f"a cell needs at least {MIN_OBSERVATIONS} observations (2 per arm), "
            f"got n_units * periods = {n_total}"
        )
    entropy = int(base_seed)
    seeds = _replication_seeds(entropy, spec)
    block = max(1, BLOCK_ELEMENTS // n_total)
    z_buf, u_buf = _raw_buffers(spec, block)
    hits_hybrid = 0
    hits_manski = 0
    redraws = 0
    for first in range(0, n_reps, block):
        rows = min(block, n_reps - first)
        states = seeds.states(np.arange(first, first + rows, dtype=np.uint32), 0)
        oracle = replication_seed(entropy, spec.design, spec.n_units, spec.periods, first)
        if not np.array_equal(states[0], oracle.generate_state(4, np.uint64)):
            raise ConfigurationError(
                f"replication {first}: the vectorised seed differs from numpy's SeedSequence"
            )
        z, u = z_buf[:rows], u_buf[:rows]
        for row in range(rows):
            rng = np.random.Generator(np.random.PCG64(FixedState(states[row])))
            _draw(spec.design, rng, z[row], u[row])
        y0, d = _outcomes(spec, z, u)
        n1 = np.count_nonzero(d, axis=1)
        for row in np.flatnonzero((n1 < 2) | (n1 > n_total - 2)):
            rep = first + int(row)
            for attempt in range(1, 1000):
                redraws += 1
                state = seeds.states(rep, attempt)[0]
                data = generate(spec, np.random.Generator(np.random.PCG64(FixedState(state))))
                if 2 <= np.count_nonzero(data.d) <= n_total - 2:
                    break
            else:
                raise ConfigurationError(
                    f"replication {rep}: 1000 consecutive draws left an arm empty"
                )
            y0[row] = data.y0.ravel()
            d[row] = data.d.ravel()
        bands = _replication_intervals(y0, y0 + spec.delta * d, d, spec.design, alpha)
        if manski_variant == "plugin":
            hits_manski += _hits(bands.manski_lower, bands.manski_upper, spec.delta)
        else:
            hits_manski += _hits(bands.banded_lower, bands.banded_upper, spec.delta)
        hits_hybrid += _hits(bands.hybrid_lower, bands.hybrid_upper, spec.delta)
    return CellCoverage(
        design=spec.design,
        n_units=spec.n_units,
        periods=spec.periods,
        n_total=n_total,
        coverage_hybrid_pct=100.0 * hits_hybrid / n_reps,
        coverage_manski_pct=100.0 * hits_manski / n_reps,
        n_reps=n_reps,
        alpha=alpha,
        base_seed=base_seed,
        redraws=redraws,
        manski_variant=manski_variant,
    )


def _run_cell_task(args: tuple) -> CellCoverage:
    spec, n_reps, alpha, base_seed, manski_variant = args
    return run_cell(spec, n_reps, alpha, base_seed, manski_variant)


def coverage_table(
    designs: list[str] | None = None,
    n_units: int = 50,
    periods_list: list[int] | None = None,
    n_reps: int = 2000,
    alpha: float = 0.05,
    base_seed: int = 0,
    workers: int = 1,
    manski_variant: str = "plugin",
) -> list[CellCoverage]:
    """All (design, periods) cells, serially or across processes.

    At most min(workers, cells, CPUs) processes run.  Results are identical
    for any worker count because every replication derives its own stream
    from the cell coordinates.
    """
    designs = list(designs) if designs else list(MC_DESIGNS)
    periods_list = list(periods_list) if periods_list else [1, 2, 5]
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    tasks = [
        (DgpSpec(design=design, n_units=n_units, periods=periods), n_reps, alpha, base_seed, manski_variant)
        for design in designs
        for periods in periods_list
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        return [_run_cell_task(task) for task in tasks]
    # Imported here: multiprocessing is not needed by a serial run or by the CLI's import.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell_task, tasks))


def write_coverage_csv(cells: list[CellCoverage], path: str | Path) -> None:
    """One row per (cell, method): dgp, N, method, coverage_pct, B, seed, redraws."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dgp", "N", "method", "coverage_pct", "B", "seed", "redraws"])
        for cell in cells:
            manski_label = "manski" if cell.manski_variant == "plugin" else "manski-banded"
            for method, pct in (
                ("hybrid", cell.coverage_hybrid_pct),
                (manski_label, cell.coverage_manski_pct),
            ):
                writer.writerow(
                    [
                        cell.design,
                        cell.n_total,
                        method,
                        f"{pct:.2f}",
                        cell.n_reps,
                        cell.base_seed,
                        cell.redraws,
                    ]
                )
