"""The seven band methods behind one registry.

Every method takes the same arm statistics, a per-look level alpha_u and
the run's :class:`BandOptions`, and returns a :class:`BandResult`, so the
threshold scan and the CLI can treat all seven methods interchangeably.
:func:`compute_band` checks every input once, the arm sizes against one
table, and then looks the method up in :data:`BUILDERS`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable

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
    wald_interval,
)

Builder = Callable[[GroupStats, float, BandOptions], BandResult]


def _naive_band(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
    """Difference in means, widened by :func:`concate.manski.wald_interval` at
    level alpha_u with the Welch SE sqrt(var1/n1 + var0/n0).

    The region is the point estimate.  The variance assumes independent
    rows: on a serially dependent panel, "excludes zero" is no evidence.
    It needs two observations per arm, as :func:`compute_band` checks.
    """
    delta = stats.mean_treated - stats.mean_control
    se = math.sqrt(stats.var_treated / stats.n_treated + stats.var_control / stats.n_control)
    return BandResult(delta, delta, *wald_interval(delta, delta, se, se, alpha_u), se, se)


def _manski_band(trim: float | None) -> Builder:
    """The delta-method band on the empirical extrema (``trim`` None) or on
    the supports trimmed to the ``trim`` and 1 - ``trim`` quantiles."""

    def build(stats: GroupStats, alpha_u: float, options: BandOptions) -> BandResult:
        support = extrema_support(stats) if trim is None else trimmed_support(stats, trim)
        return delta_method_band(stats, support, alpha_u)

    return build


#: Method name -> builder(stats, alpha_u, options).
BUILDERS: dict[str, Builder] = {
    "naive": _naive_band,
    "manski-max": _manski_band(None),
    "manski-q05": _manski_band(0.05),
    "manski-q10": _manski_band(0.10),
    "iid": _iid_band,
    "mixing": _mixing_band,
    "hybrid": _hybrid_band,
}
METHODS = tuple(BUILDERS)


#: Methods that understand prior knowledge of the outcome support.
TRUNCATION_METHODS = ("iid", "mixing", "hybrid")
#: Method -> the fewest observations it needs per arm; with both support
#: limits known every method needs 2 (the delta-method SEs of the reduction).
_MIN_PER_ARM = dict.fromkeys(METHODS, 2) | {"iid": 1}


def compute_band(
    stats: GroupStats,
    method: str,
    alpha_u: float,
    options: BandOptions | None = None,
) -> BandResult:
    """Evaluate one band method at per-look level alpha_u.

    This is the one place that decides whether a split can carry a band;
    the builders behind it check nothing.  In order: a known method, a
    level in (0, 1), a truncation only for :data:`TRUNCATION_METHODS`,
    both arms non-empty, the method's fewest observations per arm
    (:data:`_MIN_PER_ARM`), and a truncation that no observed outcome
    violates.  With both support limits known nothing is left to pad: the
    band is the delta-method band on the known support, with zero
    paddings, and only hybrid reports its SEs.  A band with a non-finite
    end, one that does not contain its region, or one no wider than 64
    epsilons of the largest absolute outcome (a constant outcome, whose
    band could exclude zero through rounding alone) is never returned: it
    raises DegenerateArmError.
    """
    if method not in BUILDERS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 < alpha_u < 1.0:
        raise ValidationError(f"alpha_u must lie in (0, 1), got {alpha_u}")
    options = options or BandOptions()
    truncation = options.truncation
    if truncation.kind != "none" and method not in TRUNCATION_METHODS:
        raise ValidationError(
            f"truncation is only supported by {TRUNCATION_METHODS}, not {method!r}"
        )
    if stats.degenerate:
        raise DegenerateArmError(f"{method} needs both arms non-empty")
    min_per_arm = 2 if truncation.kind == "both" else _MIN_PER_ARM[method]
    if min(stats.n_treated, stats.n_control) < min_per_arm:
        raise DegenerateArmError(f"{method} needs at least {min_per_arm} observations per arm")
    check_truncation_consistency(stats, truncation)
    if truncation.kind != "both":
        band = BUILDERS[method](stats, alpha_u, options)
    else:
        support = known_support(truncation.lower, truncation.upper)
        band = delta_method_band(stats, support, alpha_u)
        unused = {} if method == "hybrid" else dict.fromkeys(("se_lower", "se_upper"))
        band = replace(band, paddings=Paddings.zero(), **unused)
    if not (math.isfinite(band.band_lower) and math.isfinite(band.band_upper)):
        raise DegenerateArmError(f"{method} band has a non-finite end")
    if not band.band_lower <= band.region_lower <= band.region_upper <= band.band_upper:
        raise DegenerateArmError(f"{method} band does not contain its region")
    extremes = (stats.min_treated, stats.max_treated, stats.min_control, stats.max_control)
    if band.band_upper - band.band_lower <= 64 * sys.float_info.epsilon * max(map(abs, extremes)):
        raise DegenerateArmError(f"{method} band is no wider than the rounding of its outcomes")
    return band
