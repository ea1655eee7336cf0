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

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError
from .estimators import GroupStats, _order_statistic

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class SupportBounds:
    """Per-arm outcome support [lower, upper], plus where it came from."""

    lower_treated: float
    upper_treated: float
    lower_control: float
    upper_control: float
    source: str


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
    method); ``band_lower`` / ``band_upper`` is the confidence band.  The
    method, the level and the arm sizes are not stored: they are
    :func:`concate.bands.compute_band`'s arguments, held by the scan's
    ``ThresholdResult`` and written by the reports.
    """

    region_lower: float
    region_upper: float
    band_lower: float
    band_upper: float
    se_lower: float | None = None
    se_upper: float | None = None
    support: SupportBounds | None = None
    paddings: Paddings | None = None

    @property
    def excludes_zero(self) -> bool:
        return self.band_lower > 0.0 or self.band_upper < 0.0


def extrema_support(stats: GroupStats) -> SupportBounds:
    """Per-arm empirical min/max as the support estimate, of two non-empty
    arms (:func:`concate.bands.compute_band` checks that)."""
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
    :func:`concate.estimators._order_statistic`.  Both arms must be
    non-empty, as :func:`concate.bands.compute_band` checks.
    """
    treated, control = np.sort(stats.treated_serial), np.sort(stats.control_serial)
    return SupportBounds(
        lower_treated=_order_statistic(treated, p),
        upper_treated=_order_statistic(treated, 1.0 - p),
        lower_control=_order_statistic(control, p),
        upper_control=_order_statistic(control, 1.0 - p),
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


def norm_ppf(p: float) -> float:
    """Standard normal quantile function.

    Backed by a rational approximation (Wichura's AS241 via the stdlib)
    accurate well beyond 1e-9 absolute; see tests for the oracle check.
    A level outside (0, 1), such as 1 - alpha / 2 once alpha is below about
    1e-16 and it rounds to 1, raises ConfigurationError.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"normal quantile needs a level p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def wald_interval(lower, upper, se_lower, se_upper, alpha_u):
    """The interval [lower, upper] widened by z * SE at each end, z the
    normal quantile at 1 - alpha_u / 2, so that each end gets half of
    alpha_u (Bonferroni).  Ends and SEs are floats or (B,) arrays; this is
    the one normal-quantile widening of every band and interval."""
    z = norm_ppf(1.0 - alpha_u / 2.0)
    return lower - z * se_lower, upper + z * se_upper


def delta_method_band(stats: GroupStats, support: SupportBounds, alpha_u: float) -> BandResult:
    """Simultaneous band for the identified interval via the delta method:
    :func:`delta_method_interval` on ``support``, widened by
    :func:`wald_interval` at level alpha_u.  The arm variances need two
    observations in each arm, as :func:`concate.bands.compute_band` checks.
    """
    lower, upper, se_lower, se_upper = map(float, delta_method_interval(
        stats.mean_treated, stats.mean_control, stats.n_treated, stats.n_control,
        stats.var_treated, stats.var_control, support.lower_treated, support.upper_treated,
        support.lower_control, support.upper_control))
    return BandResult(lower, upper, *wald_interval(lower, upper, se_lower, se_upper, alpha_u),
                      se_lower, se_upper, support)
