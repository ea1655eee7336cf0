"""Hybrid band: concentration-padded supports, delta-method means and shares.

The headline construction splits alpha_u over four events: two DKW support
events (dependence-adjusted padding at budget alpha_u / 4 each) and the
two band endpoints.  The band is :func:`concate.manski.delta_method_band`
on the padded supports at level alpha_u / 2, whose Bonferroni split puts
each endpoint at 1 - alpha_u / 4.  Support estimation error is handled
nonasymptotically, mean and share error asymptotically, which keeps the
band usable at moderate sample sizes without the full width of the
six-event construction.
"""

from __future__ import annotations

from dataclasses import replace

from .concentration import BandOptions, _unpadded_region, dkw_epsilon, padded_support
from .estimators import GroupStats
from .manski import BandResult, Paddings, delta_method_band


def _hybrid_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Hybrid finite-sample/asymptotic band at uniform level alpha_u.

    Support padding: eps_k = (1 + 4 c_alpha) * sqrt(2 log(8 / alpha_u) /
    n_k), halved to an 8 -> 4 budget when the lower limit is known (then
    the lower supports are the known limit, unpadded).  The band is the
    delta-method band on the padded supports at alpha_u / 2, reported at
    alpha_u with the region on the unpadded supports.
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
    band = delta_method_band(stats, support, alpha_u / 2.0, "hybrid")
    region_lower, region_upper = _unpadded_region(stats, trunc)
    return replace(
        band,
        alpha_u=alpha_u,
        region_lower=region_lower,
        region_upper=region_upper,
        paddings=Paddings(eps1, eps0, 0.0, 0.0, 0.0, 0.0),
    )
