"""The seven band methods behind one registry.

Every method takes the same arm statistics, a per-look level alpha_u and
the run's :class:`BandOptions`, and returns a :class:`BandResult`, so the
threshold scan and the CLI can treat all seven methods interchangeably.
:func:`compute_band` checks what the methods share once and then looks the
method up in :data:`BUILDERS`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .concentration import (
    BandOptions,
    _iid_band,
    _mixing_band,
    check_truncation_consistency,
)
from .errors import DegenerateArmError, ValidationError
from .estimators import GroupStats
from .hybrid import _hybrid_band
from .manski import (
    BandResult,
    Paddings,
    delta_method_band,
    extrema_support,
    known_support,
    trimmed_support,
)
from .stats import norm_ppf

Builder = Callable[[GroupStats, float, BandOptions], BandResult]


def _naive_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Difference in means with a two-sided Wald interval at level alpha_u.

    variance_mode 'welch' uses var1/n1 + var0/n0.  Mode 'contrast' uses the
    sample variance (n - 1 denominator) of the per-observation weighted
    contributions y_i * w_i, where w_i is +1/n1 for treated and -1/n0 for
    control rows, so that the contributions sum to the estimate itself.
    The region is the point estimate.  Both variances assume independent
    rows: on a serially dependent panel, "excludes zero" is no evidence.
    """
    if stats.degenerate:
        raise DegenerateArmError("naive estimate needs both arms non-empty")
    if stats.n_treated < 2 or stats.n_control < 2:
        raise DegenerateArmError("variance needs at least 2 observations per arm")
    delta = stats.mean_treated - stats.mean_control
    if options.variance_mode == "welch":
        se = math.sqrt(
            stats.var_treated / stats.n_treated + stats.var_control / stats.n_control
        )
    else:
        contributions = np.concatenate(
            [
                stats.treated_serial / stats.n_treated,
                -stats.control_serial / stats.n_control,
            ]
        )
        se = math.sqrt(float(np.sum((contributions - delta) ** 2)) / (stats.n - 1))
    z = norm_ppf(1.0 - alpha_u / 2.0)
    return BandResult(
        method="naive",
        alpha_u=alpha_u,
        n_treated=stats.n_treated,
        n_control=stats.n_control,
        region_lower=delta,
        region_upper=delta,
        band_lower=delta - z * se,
        band_upper=delta + z * se,
        se_lower=se,
        se_upper=se,
        multiplier=z,
    )


def _manski_band(method: str, trim: float | None) -> Builder:
    """The delta-method band on the empirical extrema (``trim`` None) or on
    the supports trimmed to the ``trim`` and 1 - ``trim`` quantiles."""

    def build(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
        support = extrema_support(stats) if trim is None else trimmed_support(stats, trim)
        return delta_method_band(stats, support, alpha_u, method=method)

    return build


#: Method name -> builder(stats, alpha_u, options).
BUILDERS: dict[str, Builder] = {
    "naive": _naive_band,
    "manski-max": _manski_band("manski-max", None),
    "manski-q05": _manski_band("manski-q05", 0.05),
    "manski-q10": _manski_band("manski-q10", 0.10),
    "iid": _iid_band,
    "mixing": _mixing_band,
    "hybrid": _hybrid_band,
}
METHODS = tuple(BUILDERS)


#: Each method that reads a truncation -> the fewest observations it needs
#: per arm (2 for all under a known support), the name its DegenerateArmError
#: messages give it, and whether its known-support reduction reports the SEs.
_PADDED = {
    "iid": (1, "band construction", False),
    "mixing": (2, "band construction", False),
    "hybrid": (2, "hybrid band", True),
}
#: Methods that understand prior knowledge of the outcome support.
TRUNCATION_METHODS = tuple(_PADDED)


def compute_band(
    stats: GroupStats,
    method: str,
    alpha_u: float,
    options: BandOptions | None = None,
) -> BandResult:
    """Evaluate one band method at per-look level alpha_u.

    A method that reads a truncation first needs its fewest observations
    per arm, then a truncation that no observed outcome violates.  With
    both support limits known nothing is left to pad: its band is the
    delta-method band on the known support, with zero paddings.  A band
    with a non-finite end is never returned: it raises DegenerateArmError.
    """
    band = _band(stats, method, alpha_u, options or BandOptions())
    if not (math.isfinite(band.band_lower) and math.isfinite(band.band_upper)):
        raise DegenerateArmError(f"{method} band has a non-finite end")
    return band


def _band(stats: GroupStats, method: str, alpha_u: float, options: BandOptions) -> BandResult:
    if method not in BUILDERS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < alpha_u < 1.0:
        raise ValidationError(f"alpha_u must lie in (0, 1), got {alpha_u}")
    truncation = options.truncation
    if method not in _PADDED:
        if truncation.kind != "none":
            raise ValidationError(
                f"truncation is only supported by {TRUNCATION_METHODS}, not {method!r}"
            )
        return BUILDERS[method](stats, alpha_u, options)
    min_per_arm, name, reports_se = _PADDED[method]
    if stats.degenerate:
        raise DegenerateArmError(f"{name} needs both arms non-empty")
    if truncation.kind == "both":
        min_per_arm = 2
    if min(stats.n_treated, stats.n_control) < min_per_arm:
        raise DegenerateArmError(f"{name} needs at least {min_per_arm} observations per arm")
    check_truncation_consistency(stats, truncation)
    if truncation.kind != "both":
        return BUILDERS[method](stats, alpha_u, options)
    support = known_support(truncation.lower, truncation.upper)
    band = delta_method_band(stats, support, alpha_u, method=method)
    unused = {} if reports_se else {"se_lower": None, "se_upper": None, "multiplier": None}
    return replace(band, paddings=Paddings.zero(), **unused)
