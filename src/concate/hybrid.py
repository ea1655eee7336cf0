"""Hybrid band: concentration-padded supports, delta-method means and shares.

The headline construction splits alpha_u over four events: two DKW support
events (dependence-adjusted padding at budget alpha_u / 4 each) and the
two band endpoints (normal critical value at 1 - alpha_u / 4).  Support
estimation error is handled nonasymptotically, mean and share error
asymptotically, which keeps the band usable at moderate sample sizes
without the full width of the six-event construction.
"""

from __future__ import annotations

from dataclasses import replace

from .concentration import (
    BandOptions,
    _unpadded_region,
    dkw_epsilon,
    padded_support,
)
from .estimators import GroupStats
from .manski import (
    BandResult,
    Paddings,
    bound_gradients,
    endpoint_se,
    manski_region,
    sampling_covariance,
)
from .stats import norm_ppf


def _hybrid_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Hybrid finite-sample/asymptotic band at uniform level alpha_u.

    Support padding: eps_k = (1 + 4 c_alpha) * sqrt(2 log(8 / alpha_u) /
    n_k), halved to an 8 -> 4 budget when the lower limit is known (then
    the lower supports are the known limit, unpadded).  The padded
    endpoints enter the delta-method gradients as constants and each band
    endpoint uses the normal quantile at 1 - alpha_u / 4.
    :func:`concate.bands.compute_band` checks the arms and the truncation
    first, and with both limits known, where nothing needs padding,
    reduces the construction to the delta-method band on the known support.
    """
    trunc = options.truncation
    sides = "one" if trunc.kind == "lower" else "two"
    c_alpha = options.c_alpha
    eps1 = dkw_epsilon(alpha_u, stats.n_treated, sides=sides, budget=8.0, c_alpha=c_alpha)
    eps0 = dkw_epsilon(alpha_u, stats.n_control, sides=sides, budget=8.0, c_alpha=c_alpha)
    support = padded_support(stats, trunc, eps1, eps0)
    padded = manski_region(stats, support)
    cov = sampling_covariance(stats)
    grad_lower, grad_upper = bound_gradients(stats, support)
    se_lower, se_upper = endpoint_se(cov, grad_lower), endpoint_se(cov, grad_upper)
    z = norm_ppf(1.0 - alpha_u / 4.0)
    region = _unpadded_region(stats, trunc)
    return BandResult(
        method="hybrid",
        alpha_u=alpha_u,
        n_treated=stats.n_treated,
        n_control=stats.n_control,
        region_lower=region.lower,
        region_upper=region.upper,
        band_lower=padded.lower - z * se_lower,
        band_upper=padded.upper + z * se_upper,
        se_lower=se_lower,
        se_upper=se_upper,
        support=support,
        paddings=replace(Paddings.zero(), eps_treated=eps1, eps_control=eps0),
        multiplier=z,
    )
