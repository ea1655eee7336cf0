"""Nonparametric bounds for the average treatment effect.

The outcome of each arm is only observed for the units assigned to it, so
the ATE is partially identified.  With per-arm support bounds [L_k, U_k]
the identified interval has

    lower = mean1 * p1 + L1 * p0 - U0 * p1 - mean0 * p0
    upper = mean1 * p1 + U1 * p0 - L0 * p1 - mean0 * p0

where p1, p0 are the arm shares.  Its width, (U1 - L1) * p0 + (U0 - L0)
* p1, does not depend on the arm means.  :class:`BandResult` is the one
result type of every band method, and :class:`Paddings` what it pads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateArmError, ValidationError
from .estimators import GroupStats, _order_statistic
from .stats import norm_ppf


@dataclass(frozen=True)
class SupportBounds:
    """Per-arm outcome support [lower, upper], plus where it came from."""

    lower_treated: float
    upper_treated: float
    lower_control: float
    upper_control: float
    source: str

    def __post_init__(self) -> None:
        for lo, hi, arm in (
            (self.lower_treated, self.upper_treated, "treated"),
            (self.lower_control, self.upper_control, "control"),
        ):
            if math.isnan(lo) or math.isnan(hi):
                raise ValidationError(f"{arm} support is undefined (NaN)")
            if lo > hi:
                raise ValidationError(f"{arm} support has lower {lo} > upper {hi}")


@dataclass(frozen=True)
class IdentificationRegion:
    """Plug-in interval of ATE values consistent with the data."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class Paddings:
    """Per-arm padding widths entering one band assembly."""

    eps_treated: float
    eps_control: float
    t_share_treated: float
    t_share_control: float
    t_mean_treated: float
    t_mean_control: float

    @classmethod
    def zero(cls) -> "Paddings":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class BandResult:
    """One band method evaluated at one threshold; every method returns one.

    ``region_lower`` / ``region_upper`` is the plug-in identified interval
    built from the method's own unpadded supports (a point for the naive
    method); ``band_lower`` / ``band_upper`` is the confidence band.
    ``multiplier`` is the normal critical value that scales ``se_lower`` /
    ``se_upper``; the fully finite-sample ``iid`` and ``mixing`` bands use
    none.
    """

    method: str
    alpha_u: float
    n_treated: int
    n_control: int
    region_lower: float
    region_upper: float
    band_lower: float
    band_upper: float
    se_lower: float | None = None
    se_upper: float | None = None
    support: SupportBounds | None = None
    paddings: Paddings | None = None
    multiplier: float | None = None

    @property
    def width(self) -> float:
        return self.band_upper - self.band_lower

    @property
    def excludes_zero(self) -> bool:
        return self.band_lower > 0.0 or self.band_upper < 0.0


def extrema_support(stats: GroupStats) -> SupportBounds:
    """Per-arm empirical min/max as the support estimate."""
    if stats.degenerate:
        raise DegenerateArmError("extrema support needs both arms non-empty")
    return SupportBounds(
        lower_treated=stats.min_treated,
        upper_treated=stats.max_treated,
        lower_control=stats.min_control,
        upper_control=stats.max_control,
        source="extrema",
    )


def trimmed_support(stats: GroupStats, p: float) -> SupportBounds:
    """Quantile-trimmed support: [Q_k(p), Q_k(1 - p)] per arm.

    Quantiles follow the ceiling order-statistic rule of
    :func:`concate.estimators.empirical_quantile`.
    """
    if not 0.0 < p < 0.5:
        raise ValidationError(f"trim proportion must lie in (0, 0.5), got {p}")
    if stats.degenerate:
        raise DegenerateArmError("trimmed support needs both arms non-empty")
    return SupportBounds(
        lower_treated=_order_statistic(stats.treated_sorted, p),
        upper_treated=_order_statistic(stats.treated_sorted, 1.0 - p),
        lower_control=_order_statistic(stats.control_sorted, p),
        upper_control=_order_statistic(stats.control_sorted, 1.0 - p),
        source=f"trimmed-{p:g}",
    )


def known_support(lower: float, upper: float) -> SupportBounds:
    """A support known a priori, identical for both arms."""
    return SupportBounds(
        lower_treated=lower,
        upper_treated=upper,
        lower_control=lower,
        upper_control=upper,
        source="known",
    )


def manski_region(stats: GroupStats, support: SupportBounds) -> IdentificationRegion:
    """Plug-in identified interval for the ATE.

    Raises DegenerateArmError when either arm is empty: with a treated
    share of 0 or 1 the interval is not defined by the data and no bounds
    are fabricated.
    """
    if stats.degenerate:
        raise DegenerateArmError(
            "identification region undefined: treated share is 0 or 1"
        )
    p1, p0 = stats.share_treated, stats.share_control
    base = stats.mean_treated * p1 - stats.mean_control * p0
    lower = base + support.lower_treated * p0 - support.upper_control * p1
    upper = base + support.upper_treated * p0 - support.lower_control * p1
    return IdentificationRegion(lower=lower, upper=upper)


def bound_gradients(
    stats: GroupStats, support: SupportBounds
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the lower/upper bound in (mean1, mean0, p1, p0).

    Support endpoints are held constant (their estimation error is handled
    elsewhere, by padding, not by the delta method).
    """
    p1, p0 = stats.share_treated, stats.share_control
    grad_lower = np.array(
        [
            p1,
            -p0,
            stats.mean_treated - support.upper_control,
            support.lower_treated - stats.mean_control,
        ]
    )
    grad_upper = np.array(
        [
            p1,
            -p0,
            stats.mean_treated - support.lower_control,
            support.upper_treated - stats.mean_control,
        ]
    )
    return grad_lower, grad_upper


def sampling_covariance(stats: GroupStats) -> np.ndarray:
    """Plug-in covariance of (mean1, mean0, p1, p0), already scaled by 1/N.

    Arm means are treated as independent with variance var_k / n_k; the
    shares are multinomial with Var(p1) = Var(p0) = p1 * p0 / N and
    Cov(p1, p0) = -p1 * p0 / N.
    """
    if stats.n_treated < 2 or stats.n_control < 2:
        raise DegenerateArmError("sampling covariance needs 2+ observations per arm")
    v_share = stats.share_treated * stats.share_control / stats.n
    cov = np.zeros((4, 4))
    cov[0, 0] = stats.var_treated / stats.n_treated
    cov[1, 1] = stats.var_control / stats.n_control
    cov[2, 2] = cov[3, 3] = v_share
    cov[2, 3] = cov[3, 2] = -v_share
    return cov


def endpoint_se(cov: np.ndarray, gradient: np.ndarray) -> float:
    """Delta-method SE sqrt(g' cov g) of one interval endpoint.  A constant
    outcome's zero quadratic form can round below zero; that reads as 0."""
    return math.sqrt(max(float(gradient @ cov @ gradient), 0.0))


def delta_method_band(
    stats: GroupStats,
    support: SupportBounds,
    alpha_u: float,
    method: str = "delta-method",
) -> BandResult:
    """Simultaneous band for the identified interval via the delta method.

    Each endpoint receives half of alpha_u (Bonferroni), so the multiplier
    is the normal quantile at 1 - alpha_u / 2.  ``method`` names the result.
    """
    if not 0.0 < alpha_u < 1.0:
        raise ValidationError(f"alpha_u must lie in (0, 1), got {alpha_u}")
    region = manski_region(stats, support)
    cov = sampling_covariance(stats)
    grad_lower, grad_upper = bound_gradients(stats, support)
    se_lower, se_upper = endpoint_se(cov, grad_lower), endpoint_se(cov, grad_upper)
    z = norm_ppf(1.0 - alpha_u / 2.0)
    return BandResult(
        method=method,
        alpha_u=alpha_u,
        n_treated=stats.n_treated,
        n_control=stats.n_control,
        region_lower=region.lower,
        region_upper=region.upper,
        band_lower=region.lower - z * se_lower,
        band_upper=region.upper + z * se_upper,
        se_lower=se_lower,
        se_upper=se_upper,
        support=support,
        multiplier=z,
    )
