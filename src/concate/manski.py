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
    """Quantile-trimmed support: [Q_k(p), Q_k(1 - p)] per arm, 0 < p < 0.5.

    Quantiles follow the ceiling order-statistic rule of
    :func:`concate.estimators._order_statistic`.
    """
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
    return SupportBounds(lower, upper, lower, upper, source="known")


def _region(mean1, mean0, p1, p0, lower1, upper1, lower0, upper0):
    """The plug-in interval (lower, upper), of floats or of arrays."""
    base = mean1 * p1 - mean0 * p0
    return base + lower1 * p0 - upper0 * p1, base + upper1 * p0 - lower0 * p1


def manski_region(stats: GroupStats, support: SupportBounds) -> tuple[float, float]:
    """Plug-in identified interval (lower, upper) for the ATE.  Both arms
    must be non-empty, as the support builders check."""
    return _region(stats.mean_treated, stats.mean_control, stats.share_treated,
                   stats.share_control, support.lower_treated, support.upper_treated,
                   support.lower_control, support.upper_control)


def delta_method_interval(mean1, mean0, n1, n0, var1, var0, lower1, upper1, lower0, upper0):
    """Plug-in interval (lower, upper) and the delta-method SE of each end,
    from floats or (B,) arrays.  An end's SE is sqrt(g' S g): S is the
    plug-in covariance of (mean1, mean0, p1, p0), with var_k / n_k for each
    mean and p1 p0 / N for the shares (negative between them), and g the
    end's gradient with the supports held fixed; padding, not the delta
    method, covers their error.  In closed form

        se^2 = p1^2 var1 / n1 + p0^2 var0 / n0 + (p1 p0 / N) g^2,

    g = mean1 + mean0 - lower1 - upper0 at the lower end and mean1 + mean0
    - lower0 - upper1 at the upper end.  No term is negative.
    """
    n = n1 + n0
    p1, p0 = n1 / n, n0 / n
    mean_terms = p1 * p1 * var1 / n1 + p0 * p0 * var0 / n0
    share_var = p1 * p0 / n
    g_lower = mean1 + mean0 - lower1 - upper0
    g_upper = mean1 + mean0 - lower0 - upper1
    # g * g: a float's ** raises OverflowError where a product gives inf
    return (
        *_region(mean1, mean0, p1, p0, lower1, upper1, lower0, upper0),
        np.sqrt(mean_terms + share_var * (g_lower * g_lower)),
        np.sqrt(mean_terms + share_var * (g_upper * g_upper)),
    )


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
    if stats.n_treated < 2 or stats.n_control < 2:
        raise DegenerateArmError("sampling covariance needs 2+ observations per arm")
    lower, upper, se_lower, se_upper = map(float, delta_method_interval(
        stats.mean_treated, stats.mean_control, stats.n_treated, stats.n_control,
        stats.var_treated, stats.var_control, support.lower_treated, support.upper_treated,
        support.lower_control, support.upper_control))
    z = norm_ppf(1.0 - alpha_u / 2.0)
    return BandResult(
        method=method,
        alpha_u=alpha_u,
        n_treated=stats.n_treated,
        n_control=stats.n_control,
        region_lower=lower,
        region_upper=upper,
        band_lower=lower - z * se_lower,
        band_upper=upper + z * se_upper,
        se_lower=se_lower,
        se_upper=se_upper,
        support=support,
        multiplier=z,
    )
