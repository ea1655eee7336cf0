"""Arm-level statistics of one threshold split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .panel import PanelDataset

@dataclass(frozen=True)
class GroupStats:
    """Sufficient statistics for both treatment arms of one threshold split.

    ``treated_serial`` / ``control_serial`` are the arms themselves, in
    panel order (serial-dependence-aware variances read that order).
    Variances use the n-1 denominator and are NaN below two observations;
    extrema are NaN for an empty arm.
    """

    n_treated: int
    n_control: int
    mean_treated: float
    mean_control: float
    var_treated: float
    var_control: float
    share_treated: float
    share_control: float
    min_treated: float
    max_treated: float
    min_control: float
    max_control: float
    treated_serial: np.ndarray
    control_serial: np.ndarray

    @property
    def n(self) -> int:
        return self.n_treated + self.n_control

    @property
    def degenerate(self) -> bool:
        """True when either arm is empty, i.e. the treated share is 0 or 1."""
        return self.n_treated == 0 or self.n_control == 0


def _arm(values: np.ndarray, name: str) -> tuple[float, float, float, float]:
    if values.size == 0:
        return math.nan, math.nan, math.nan, math.nan
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{name} outcomes must be finite, got range [{lo}, {hi}]")
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if values.size >= 2 else math.nan
    return mean, var, lo, hi


def split_arms(outcome: np.ndarray, treated: np.ndarray) -> GroupStats:
    """Build :class:`GroupStats` from raw outcome and treatment arrays.  The one
    check of the outcome: a NaN or infinite value raises ValidationError."""
    y = np.asarray(outcome, dtype=float)
    z = np.asarray(treated, dtype=bool)
    if y.shape != z.shape:
        raise ValidationError("outcome and treatment arrays have different shapes")
    if y.size == 0:
        raise ValidationError("cannot split an empty sample")
    # One index pass per arm: a boolean copy branches on every element, which
    # costs about twice as much as the gather when the mask flips every row
    # or two, as it does when the signal is drawn per row.
    y1 = y.take(np.flatnonzero(z))
    y0 = y.take(np.flatnonzero(~z))
    n1, n0 = y1.size, y0.size
    n = n1 + n0
    mean1, var1, min1, max1 = _arm(y1, "treated")
    mean0, var0, min0, max0 = _arm(y0, "control")
    return GroupStats(
        n_treated=n1,
        n_control=n0,
        mean_treated=mean1,
        mean_control=mean0,
        var_treated=var1,
        var_control=var0,
        share_treated=n1 / n,
        share_control=n0 / n,
        min_treated=min1,
        max_treated=max1,
        min_control=min0,
        max_control=max0,
        treated_serial=y1,
        control_serial=y0,
    )


def group_stats(panel: PanelDataset, treated: np.ndarray) -> GroupStats:
    """Arm statistics for a panel under a treated mask."""
    return split_arms(panel.outcome, treated)


def _order_statistic(x: np.ndarray, p: float) -> float:
    """Empirical quantile, 0 < p < 1, of a non-empty ascending array: its
    ceil(p * n)-th smallest value (1-indexed)."""
    k = p * x.size
    nearest = round(k)
    # guard against float fuzz when p * n is an exact integer mathematically
    idx = nearest if abs(k - nearest) <= 1e-9 else math.ceil(k)
    idx = min(max(idx, 1), x.size)
    return float(x[idx - 1])

