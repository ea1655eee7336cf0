"""Hybrid band: concentration-padded supports, delta-method means and shares.

The headline construction splits alpha_u over four events: two DKW support
events (dependence-adjusted padding at budget alpha_u / 4 each) and the
two band endpoints (normal critical value at 1 - alpha_u / 4).  Support
estimation error is handled nonasymptotically, mean and share error
asymptotically, which keeps the band usable at moderate sample sizes
without the full width of the six-event construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .concentration import (
    Paddings,
    Truncation,
    check_truncation_consistency,
    dkw_epsilon,
    padded_support,
)
from .errors import DegenerateArmError, ValidationError
from .estimators import GroupStats
from .manski import (
    IdentificationRegion,
    SupportBounds,
    bound_gradients,
    delta_method_band,
    endpoint_se,
    known_support,
    manski_region,
    sampling_covariance,
)
from .stats import norm_ppf

MC_DESIGNS = ("A", "B", "C", "D", "E", "F", "G")


@dataclass(frozen=True)
class HybridBand:
    """Result of the hybrid construction at one threshold."""

    lower: float
    upper: float
    alpha_u: float
    region: IdentificationRegion
    support: SupportBounds
    paddings: Paddings
    se_lower: float
    se_upper: float
    multiplier: float
    truncation: Truncation
    reduced_to_delta_method: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class ReplicationBands:
    """Per-replication interval pair of the coverage experiment."""

    manski_lower: float
    manski_upper: float
    hybrid_lower: float
    hybrid_upper: float
    support_lower: float
    support_upper: float
    epsilon: float
    se_lower: float
    se_upper: float


def hybrid_band(
    stats: GroupStats,
    alpha_u: float,
    c_alpha: float = 0.0,
    truncation: Truncation | None = None,
) -> HybridBand:
    """Hybrid finite-sample/asymptotic band at uniform level alpha_u.

    Support padding: eps_k = (1 + 4 c_alpha) * sqrt(2 log(8 / alpha_u) /
    n_k), halved to an 8 -> 4 budget when the lower limit is known (then
    the lower supports are the known limit, unpadded).  The padded
    endpoints enter the delta-method gradients as constants and each band
    endpoint uses the normal quantile at 1 - alpha_u / 4.  With both
    limits known nothing needs padding and the construction reduces to
    the delta-method band on the known support.
    """
    if not 0.0 < alpha_u < 1.0:
        raise ValidationError(f"alpha_u must lie in (0, 1), got {alpha_u}")
    if c_alpha < 0.0:
        raise ValidationError(f"c_alpha must be nonnegative, got {c_alpha}")
    trunc = truncation if truncation is not None else Truncation.none()
    if stats.degenerate:
        raise DegenerateArmError("hybrid band needs both arms non-empty")
    if min(stats.n_treated, stats.n_control) < 2:
        raise DegenerateArmError("hybrid band needs at least 2 observations per arm")
    check_truncation_consistency(stats, trunc)
    if trunc.kind == "both":
        support = known_support(trunc.lower, trunc.upper)
        band = delta_method_band(stats, support, alpha_u)
        return HybridBand(
            lower=band.band_lower,
            upper=band.band_upper,
            alpha_u=alpha_u,
            region=band.region,
            support=support,
            paddings=Paddings.zero(),
            se_lower=band.se_lower,
            se_upper=band.se_upper,
            multiplier=band.multiplier,
            truncation=trunc,
            reduced_to_delta_method=True,
        )
    sides = "one" if trunc.kind == "lower" else "two"
    eps1 = dkw_epsilon(alpha_u, stats.n_treated, sides=sides, budget=8.0, c_alpha=c_alpha)
    eps0 = dkw_epsilon(alpha_u, stats.n_control, sides=sides, budget=8.0, c_alpha=c_alpha)
    support = padded_support(stats, trunc, eps1, eps0)
    region = manski_region(stats, support)
    cov = sampling_covariance(stats)
    grad_lower, grad_upper = bound_gradients(stats, support)
    se_lower, se_upper = endpoint_se(cov, grad_lower), endpoint_se(cov, grad_upper)
    z = norm_ppf(1.0 - alpha_u / 4.0)
    return HybridBand(
        lower=region.lower - z * se_lower,
        upper=region.upper + z * se_upper,
        alpha_u=alpha_u,
        region=region,
        support=support,
        paddings=Paddings(
            eps_treated=eps1,
            eps_control=eps0,
            t_share_treated=0.0,
            t_share_control=0.0,
            t_mean_treated=0.0,
            t_mean_control=0.0,
        ),
        se_lower=se_lower,
        se_upper=se_upper,
        multiplier=z,
        truncation=trunc,
    )


class _Intervals(NamedTuple):
    """Both intervals of a block of replications, one array entry per row."""

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
    callers check that.  The endpoint SE is the closed form of g' S g
    for the gradients and covariance of :mod:`concate.manski`:

        se^2 = p1^2 v1 / n1 + p0^2 v0 / n0 + (p1 p0 / N) (g_p1 - g_p0)^2

    Both arms share the support [a, b], so g_p1 - g_p0 = mean1 + mean0 -
    a - b at both endpoints and one SE serves both.  ``banded_*`` widens
    the plug-in interval by it at the normal quantile of 1 - alpha / 2.
    For design G the hybrid arrays are the plug-in arrays and the reported
    epsilon and SE are zero.
    """
    n = y.shape[1]
    n1 = np.count_nonzero(d, axis=1)
    n0 = n - n1
    p1, p0 = n1 / n, n0 / n
    in1 = d.astype(float)
    in0 = 1.0 - in1
    mean1 = np.einsum("ij,ij->i", y, in1) / n1
    mean0 = np.einsum("ij,ij->i", y, in0) / n0
    if design == "G":
        a = np.full(n1.shape, -5.0)
        b = np.full(n1.shape, 5.0)
    else:
        b = y0.max(axis=1)
        a = np.zeros_like(b) if design == "F" else y0.min(axis=1)
    base = mean1 * p1 - mean0 * p0
    lower = base + a * p0 - b * p1
    upper = base + b * p0 - a * p1
    # two-pass n - 1 variances; NaN, without a warning, for a one-observation arm
    dev = y - np.where(d, mean1[:, None], mean0[:, None])
    sq = dev * dev
    var1 = np.divide(np.einsum("ij,ij->i", sq, in1), n1 - 1,
                     out=np.full(n1.shape, np.nan), where=n1 > 1)
    var0 = np.divide(np.einsum("ij,ij->i", sq, in0), n0 - 1,
                     out=np.full(n0.shape, np.nan), where=n0 > 1)
    mean_terms = p1 * p1 * var1 / n1 + p0 * p0 * var0 / n0
    se = np.sqrt(mean_terms + p1 * p0 / n * (mean1 + mean0 - a - b) ** 2)
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


def replication_bands(
    y0: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    alpha: float,
    design: str,
) -> ReplicationBands:
    """One replication of the coverage experiment: plug-in and hybrid intervals.

    Supports are design-specific and shared by both arms: design G uses
    the known support (-5, 5), design F a known lower limit 0 with the
    empirical maximum of the baseline outcomes, and all other designs the
    empirical extrema of the baseline outcomes (the baseline, not the
    observed outcome, so a positive effect can fall outside the plug-in
    interval by construction).

    For design G the hybrid interval is the plug-in interval, bit for
    bit.  Otherwise the hybrid widens it by a pooled support padding
    eps = sqrt(log(C) / (2 N)), with C = 2 / alpha two-sided and C = 1 /
    alpha for the one-sided design F, plus a symmetric delta-method term
    at the normal quantile of 1 - alpha / 4 applied to the combined
    endpoint scale sqrt(se_lower^2 + se_upper^2).  This is a one-row
    call of the block kernel that scores the coverage experiment.
    """
    if design not in MC_DESIGNS:
        raise ValidationError(f"design must be one of {MC_DESIGNS}, got {design!r}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    y0 = np.asarray(y0, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    d = np.asarray(d, dtype=bool).ravel()
    if not y0.size == y.size == d.size:
        raise ValidationError("baseline, outcome and treatment arrays have different sizes")
    if y.size == 0:
        raise ValidationError("cannot split an empty sample")
    n1 = int(np.count_nonzero(d))
    if min(n1, d.size - n1) == 0:
        raise DegenerateArmError("replication has an empty arm")
    if design != "G" and min(n1, d.size - n1) < 2:
        raise DegenerateArmError("replication needs 2+ observations per arm")
    rows = _replication_intervals(y0[None, :], y[None, :], d[None, :], design, alpha)
    support_lower, support_upper = float(rows.support_lower[0]), float(rows.support_upper[0])
    if math.isnan(support_lower) or math.isnan(support_upper):
        raise ValidationError("support is undefined (NaN)")
    return ReplicationBands(
        manski_lower=float(rows.manski_lower[0]),
        manski_upper=float(rows.manski_upper[0]),
        hybrid_lower=float(rows.hybrid_lower[0]),
        hybrid_upper=float(rows.hybrid_upper[0]),
        support_lower=support_lower,
        support_upper=support_upper,
        epsilon=rows.epsilon,
        se_lower=float(rows.se[0]),
        se_upper=float(rows.se[0]),
    )
