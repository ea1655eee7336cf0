"""Finite-sample paddings and fully nonasymptotic ATE bands.

Every estimated ingredient of the identification region (per-arm supports,
arm shares, arm means) is padded by a concentration bound calibrated so
that each failure event gets an equal Bonferroni share of alpha_u: six
events for the full construction, with one-sided variants halving the log
budget.  Two dependence regimes are covered: independent sampling, and
alpha-mixing with mixing constant c_alpha, where the weak-dependence
Bernstein mean bound has three competing tail terms (budget alpha_u / 18
each) and the third must be inverted numerically.  :class:`BandOptions`
holds the knobs that every band method reads.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, ValidationError
from .estimators import GroupStats
from .manski import BandResult, Paddings, SupportBounds, manski_region


def _finite(name: str, value: object) -> float:
    """``value`` if it is a finite real number (a bool is not); else ValidationError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class BernsteinConstants:
    """Constants of the weak-dependence Bernstein inequality.

    The defaults (all ones, gamma = 1/2) are conservative engineering
    choices.  ``long_run_var`` overrides the data-driven truncated
    autocovariance estimate when set.
    """

    c1: float = 1.0
    c2: float = 1.0
    c3: float = 1.0
    c4: float = 1.0
    gamma: float = 0.5
    long_run_var: float | None = None

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "c4"):
            if _finite(f"Bernstein constant {name}", getattr(self, name)) <= 0.0:
                raise ValidationError(f"Bernstein constant {name} must be positive")
        if not 0.0 < _finite("gamma", self.gamma) < 1.0:
            raise ValidationError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.long_run_var is not None and _finite("long-run variance", self.long_run_var) < 0.0:
            raise ValidationError("long-run variance override must be nonnegative")


@dataclass(frozen=True)
class Truncation:
    """What is known a priori about the outcome support.

    ``lower`` and ``upper`` are the known limits, ``None`` where unknown; an
    upper limit needs a lower one.  ``kind`` is derived from them: "none",
    "lower" or "both".
    """

    kind: str = field(init=False)
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            if getattr(self, name) is not None:
                _finite(f"truncation {name} limit", getattr(self, name))
        if self.upper is not None:
            if self.lower is None:
                raise ValidationError("a truncation upper limit needs a lower limit")
            if self.lower > self.upper:
                raise ValidationError(
                    f"known support has lower {self.lower} > upper {self.upper}"
                )
        kind = "none" if self.lower is None else "lower" if self.upper is None else "both"
        object.__setattr__(self, "kind", kind)

    @property
    def sides(self) -> str:
        """The sides of the DKW support events: "one" when only the lower limit is known."""
        return "one" if self.kind == "lower" else "two"


@dataclass(frozen=True)
class BandOptions:
    """Method-independent knobs of the band constructions, resolved once per
    run and checked once, here.

    ``c_alpha`` is the mixing constant of the dependence-adjusted paddings.
    ``mean_bound_treated`` / ``mean_bound_control`` cap the centered
    outcomes per arm; left unset they default to the observed max absolute
    deviation from the arm mean.  ``c_abs`` is the absolute constant of
    the independent-case Bernstein inequality.
    """

    c_alpha: float = 0.0
    c_abs: float = 1.0
    mean_bound_treated: float | None = None
    mean_bound_control: float | None = None
    bernstein: BernsteinConstants = field(default_factory=BernsteinConstants)
    truncation: Truncation = field(default_factory=Truncation)

    def __post_init__(self) -> None:
        if _finite("c_alpha", self.c_alpha) < 0.0:
            raise ValidationError(f"c_alpha must be nonnegative, got {self.c_alpha}")
        if _finite("c_abs", self.c_abs) <= 0.0:
            raise ValidationError(f"c_abs must be positive, got {self.c_abs}")
        for name in ("mean_bound_treated", "mean_bound_control"):
            value = getattr(self, name)
            if value is not None and _finite(name, value) < 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {value}")


def dkw_epsilon(
    alpha_u: float,
    n: int,
    sides: str = "two",
    budget: float = 12.0,
    c_alpha: float | None = None,
) -> float:
    """Uniform CDF padding from the DKW inequality.

    Independent case (c_alpha None): sqrt(log(budget / alpha_u) / (2 n)),
    with the one-sided variant halving the budget (12 -> 6, 8 -> 4).
    Mixing case: (1 + 4 c_alpha) * sqrt(2 log(budget / alpha_u) / n).
    At its defaults (two-sided, budget 12) it is the Hoeffding share padding.
    """
    effective = budget / 2.0 if sides == "one" else budget
    log_term = math.log(effective / alpha_u)
    if c_alpha is None:
        return math.sqrt(log_term / (2.0 * n))
    return (1.0 + 4.0 * c_alpha) * math.sqrt(2.0 * log_term / n)


def bernstein_tmu_iid(alpha_u: float, n: int, m: float, c_abs: float = 1.0) -> float:
    """Arm-mean padding under independence.

    The stated min of the quadratic-regime term m * sqrt(log(12 / alpha_u)
    / (c n)) and the linear-regime term (m / (c n)) * log(12 / alpha_u).
    """
    log_term = math.log(12.0 / alpha_u)
    return min(
        m * math.sqrt(log_term / (c_abs * n)),
        m * log_term / (c_abs * n),
    )


def bernstein_term3_root(alpha_u: float, n: int, constants: BernsteinConstants) -> float:
    """Largest t > 0 at which the third weak-dependence tail term equals
    alpha_u / 18.

    The term exp(-g(n t)) with g(u) = (u^2 / (c3 n)) * exp(u^(gamma (1 -
    gamma)) / (c4 (log u)^gamma)) diverges as u -> 1+ and as u -> inf, so
    g is U-shaped on (1, inf) and the target level is crossed twice; the
    larger crossing is the conservative root (the term stays below budget
    for every larger t) and is the one returned.  Bisection on the
    increasing branch to 1e-12 relative.
    """
    target = math.log(18.0 / alpha_u)
    log_target = math.log(target)
    u_safe = math.exp(1.0 / (1.0 - constants.gamma))
    a = constants.gamma * (1.0 - constants.gamma)

    def f(u: float) -> float:
        """log g(u), defined for u > 1; log space dodges the overflow near 1."""
        return 2.0 * math.log(u) - math.log(constants.c3 * n) + u**a / (
            constants.c4 * math.log(u) ** constants.gamma)

    if f(u_safe) < log_target:
        lo, hi = u_safe, 2.0 * u_safe
        for _ in range(1000):
            if f(hi) >= log_target:
                break
            hi *= 2.0
        else:
            raise ConfigurationError(
                "third Bernstein term: bracket expansion failed to reach the budget"
            )
    else:
        # the largest crossing sits below u_safe; locate the interior
        # minimum of the U-shape by ternary search, then bracket right of it
        a_, b_ = 1.0 + 1e-12, u_safe
        for _ in range(200):
            m1 = a_ + (b_ - a_) / 3.0
            m2 = b_ - (b_ - a_) / 3.0
            if f(m1) < f(m2):
                b_ = m2
            else:
                a_ = m1
        u_min = 0.5 * (a_ + b_)
        if f(u_min) >= log_target:
            raise ConfigurationError(
                "third Bernstein term never reaches its budget for this configuration"
            )
        lo, hi = u_min, u_safe
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < log_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / n


def bernstein_mixing_terms(
    alpha_u: float,
    n: int,
    constants: BernsteinConstants,
    long_run_var: float,
) -> tuple[float, float, float]:
    """The three competing mean-padding terms under alpha-mixing.

    Each is calibrated so its tail term equals alpha_u / 18:
    t1 = (c1 * log(18 n / alpha_u))^(1/gamma) / n,
    t2 = sqrt(c2 * (1 + n * V) * log(18 / alpha_u)) / n,
    t3 = the numerically inverted third-term root.
    A term that overflows a float raises ConfigurationError.
    """
    try:
        t1 = (constants.c1 * math.log(18.0 * n / alpha_u)) ** (1.0 / constants.gamma) / n
        t2 = math.sqrt(constants.c2 * (1.0 + n * long_run_var) * math.log(18.0 / alpha_u)) / n
        t3 = bernstein_term3_root(alpha_u, n, constants)
    except OverflowError:
        raise ConfigurationError(
            "weak-dependence Bernstein terms overflow for this configuration"
        ) from None
    return t1, t2, t3


def padded_interval(
    mean_treated: float,
    mean_control: float,
    share_treated: float,
    share_control: float,
    support: SupportBounds,
    paddings: Paddings,
) -> tuple[float, float]:
    """Assemble the band endpoints from padded ingredients.

    The support passed here is already padded; means and shares are
    perturbed adversarially by their paddings, exactly as stated:
    lower uses (mean1 - t_mu)(p1 - t_p) + L1 (p0 - t_p) - U0 (p1 + t_p)
    - (mean0 + t_mu)(p0 + t_p), and symmetrically for the upper end.
    """
    lower = (
        (mean_treated - paddings.t_mean_treated)
        * (share_treated - paddings.t_share_treated)
        + support.lower_treated * (share_control - paddings.t_share_control)
        - support.upper_control * (share_treated + paddings.t_share_treated)
        - (mean_control + paddings.t_mean_control)
        * (share_control + paddings.t_share_control)
    )
    upper = (
        (mean_treated + paddings.t_mean_treated)
        * (share_treated + paddings.t_share_treated)
        + support.upper_treated * (share_control + paddings.t_share_control)
        - support.lower_control * (share_treated - paddings.t_share_treated)
        - (mean_control - paddings.t_mean_control)
        * (share_control - paddings.t_share_control)
    )
    return lower, upper


def check_truncation_consistency(stats: GroupStats, trunc: Truncation) -> None:
    """Raise DataError when a declared support limit cuts off observed outcomes."""
    observed_min = min(stats.min_treated, stats.min_control)
    observed_max = max(stats.max_treated, stats.max_control)
    if trunc.kind in ("lower", "both") and trunc.lower > observed_min:
        raise DataError(
            f"known lower limit {trunc.lower} exceeds the observed minimum {observed_min}"
        )
    if trunc.kind == "both" and trunc.upper < observed_max:
        raise DataError(
            f"known upper limit {trunc.upper} is below the observed maximum {observed_max}"
        )


def _max_deviation(mean: float, lo: float, hi: float) -> float:
    """max |y - mean| over an arm with extrema lo, hi.  fl(y - m) is monotone in y and
    fl(m - y) = -fl(y - m), so this is a pass over the arm bit for bit, NaN included."""
    return math.nan if math.isnan(mean - lo) else max(hi - mean, mean - lo)


def _mean_bounds(stats: GroupStats, options: BandOptions) -> tuple[float, float]:
    m1, m0 = options.mean_bound_treated, options.mean_bound_control
    if m1 is None:
        m1 = _max_deviation(stats.mean_treated, stats.min_treated, stats.max_treated)
    if m0 is None:
        m0 = _max_deviation(stats.mean_control, stats.min_control, stats.max_control)
    return m1, m0


def padded_support(
    stats: GroupStats,
    trunc: Truncation,
    eps_treated: float,
    eps_control: float,
) -> SupportBounds:
    """Observed extrema widened by eps per arm; a known lower limit is used as is."""
    if trunc.kind == "lower":
        lower_treated, lower_control = trunc.lower, trunc.lower
    else:
        lower_treated = stats.min_treated - eps_treated
        lower_control = stats.min_control - eps_control
    return SupportBounds(
        lower_treated=lower_treated,
        upper_treated=stats.max_treated + eps_treated,
        lower_control=lower_control,
        upper_control=stats.max_control + eps_control,
        source="padded" if trunc.kind == "none" else "padded-lower-known",
    )


def _padded_band(stats: GroupStats, trunc: Truncation, paddings: Paddings) -> BandResult:
    """The six-event band: ``padded_interval`` on the supports widened by the
    support paddings, reported with the region on the unpadded supports
    (zero paddings, so a known lower limit still replaces the lower ones).

    The formula's signs are adversarial only when every outcome factor in it
    is nonnegative, so it is evaluated from the origin c*, the least padded
    lower support or padded-down mean; the ATE is a difference, so the band
    needs no mapping back, and the reported support is the unanchored one.
    """
    support = padded_support(stats, trunc, paddings.eps_treated, paddings.eps_control)
    m1, m0 = stats.mean_treated, stats.mean_control
    c = min(support.lower_treated, support.lower_control,
            m1 - paddings.t_mean_treated, m0 - paddings.t_mean_control)
    anchored = SupportBounds(support.lower_treated - c, support.upper_treated - c,
                             support.lower_control - c, support.upper_control - c, support.source)
    lower, upper = padded_interval(
        m1 - c, m0 - c, stats.share_treated, stats.share_control, anchored, paddings
    )
    region_lower, region_upper = manski_region(stats, padded_support(stats, trunc, 0.0, 0.0))
    return BandResult(
        region_lower=region_lower,
        region_upper=region_upper,
        band_lower=lower,
        band_upper=upper,
        support=support,
        paddings=paddings,
    )


def _iid_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Fully finite-sample band under independent sampling.

    Six failure events at alpha_u / 6 each: two DKW support events, two
    Hoeffding share events (pooled sample size), two Bernstein mean
    events.  A known lower limit replaces the lower supports unpadded and
    halves the DKW budget to one-sided.  :func:`concate.bands.compute_band`
    checks the arms first (one observation each is enough here, as the
    mean bounds need no variance) and the truncation, and reduces the
    both-limits case to the delta-method band, which needs two.
    """
    t_share = dkw_epsilon(alpha_u, stats.n)
    m1, m0 = _mean_bounds(stats, options)
    paddings = Paddings(
        eps_treated=dkw_epsilon(alpha_u, stats.n_treated, sides=options.truncation.sides),
        eps_control=dkw_epsilon(alpha_u, stats.n_control, sides=options.truncation.sides),
        t_share_treated=t_share,
        t_share_control=t_share,
        t_mean_treated=bernstein_tmu_iid(alpha_u, stats.n_treated, m1, options.c_abs),
        t_mean_control=bernstein_tmu_iid(alpha_u, stats.n_control, m0, options.c_abs),
    )
    return _padded_band(stats, options.truncation, paddings)


def long_run_variance(values: np.ndarray) -> float:
    """Truncated-autocovariance (Newey-West) long-run variance estimate.

    Bartlett weights with lag window ceil(n ** (1/3)); the input order, of at
    least 2 observations, is taken as the serial order of the observations.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    d = x - x.mean()
    lag = math.ceil(n ** (1.0 / 3.0))
    lag = min(lag, n - 1)
    v = float(d @ d) / n
    for j in range(1, lag + 1):
        gamma_j = float(d[j:] @ d[:-j]) / n
        v += 2.0 * (1.0 - j / (lag + 1.0)) * gamma_j
    return max(v, 0.0)


def _mixing_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Finite-sample band under alpha-mixing dependence.

    Support and share paddings share the dependence-adjusted form (1 + 4
    c_alpha) * sqrt(2 log(12 / alpha_u) / n_k) on arm sizes; the support
    padding equals the share padding exactly as stated, unless a known
    lower limit halves its budget to one-sided, as for ``iid``.  Mean
    paddings come from the three-term weak-dependence Bernstein bound,
    with the long-run variance estimated per arm from the serial outcome
    order unless overridden.
    """
    sides, c_alpha = options.truncation.sides, options.c_alpha
    v1 = v0 = options.bernstein.long_run_var
    if v1 is None:
        v1 = long_run_variance(stats.treated_serial)
        v0 = long_run_variance(stats.control_serial)
    paddings = Paddings(
        eps_treated=dkw_epsilon(alpha_u, stats.n_treated, sides=sides, c_alpha=c_alpha),
        eps_control=dkw_epsilon(alpha_u, stats.n_control, sides=sides, c_alpha=c_alpha),
        t_share_treated=dkw_epsilon(alpha_u, stats.n_treated, c_alpha=c_alpha),
        t_share_control=dkw_epsilon(alpha_u, stats.n_control, c_alpha=c_alpha),
        t_mean_treated=max(bernstein_mixing_terms(alpha_u, stats.n_treated, options.bernstein, v1)),
        t_mean_control=max(bernstein_mixing_terms(alpha_u, stats.n_control, options.bernstein, v0)),
    )
    return _padded_band(stats, options.truncation, paddings)
