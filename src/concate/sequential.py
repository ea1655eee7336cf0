"""Threshold scan with family-wise error control across looks.

Evaluating a band at every threshold on a grid multiplies the chances of
a false exclusion of zero, so the family level alpha is split across the
looks before any band is computed.  The default schedule spends alpha
equally (Pocock style); any positive per-look schedule summing to alpha
is accepted.  The tipping threshold is the smallest retained threshold
whose band excludes zero.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .bands import BandOptions, BandResult, compute_band
from .errors import ConfigurationError, DegenerateArmError, EmptyScanError, ValidationError
from .estimators import group_stats
from .panel import PanelDataset, assign_treatment

DEFAULT_MIN_GROUP = 10

#: Largest number of looks a grid spec may expand to.
MAX_LOOKS = 10_000


@dataclass(frozen=True)
class ThresholdGrid:
    """Strictly increasing thresholds, all strictly inside (0, 100)."""

    taus: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.taus:
            raise ValidationError("threshold grid is empty")
        for tau in self.taus:
            if not 0.0 < tau < 100.0:
                raise ValidationError(f"threshold {tau} outside the open interval (0, 100)")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValidationError("thresholds must be strictly increasing")

    def __len__(self) -> int:
        return len(self.taus)

    @classmethod
    def default(cls) -> "ThresholdGrid":
        """5, 10, ..., 95: nineteen looks."""
        return cls(taus=tuple(float(t) for t in range(5, 100, 5)))

    @classmethod
    def from_spec(cls, text: str) -> "ThresholdGrid":
        """Parse 'start:stop:step'; stop is included when step divides evenly.

        The grid may hold at most MAX_LOOKS thresholds; the count is checked
        before any threshold is built.
        """
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid must look like 'start:stop:step', got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"grid has non-numeric parts: {text!r}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValidationError(f"grid has non-finite parts: {text!r}")
        if step <= 0.0:
            raise ValidationError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ValidationError(f"grid stop {stop} is below start {start}")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_LOOKS:  # also true when the quotient overflows to inf
            raise ValidationError(f"grid {text!r} has more than {MAX_LOOKS} thresholds")
        count = int(steps) + 1
        return cls(taus=tuple(start + i * step for i in range(count)))


def spend_alpha(
    alpha: float,
    n_looks: int,
    schedule: list[float] | None = None,
) -> list[float]:
    """Per-look uniform levels summing exactly to alpha.

    Default: equal spending, with the last look absorbing the float
    rounding residue so the sum is exact.  A user schedule's entries
    are per-look levels, so each must lie in (0, 1), and they must sum to
    alpha within 1e-9; both checks are written so that a NaN fails them.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if n_looks < 1:
        raise ValidationError(f"need at least one look, got {n_looks}")
    if schedule is not None:
        if len(schedule) != n_looks:
            raise ValidationError(
                f"schedule has {len(schedule)} entries for {n_looks} looks"
            )
        if any(not 0.0 < a < 1.0 for a in schedule):
            raise ValidationError("schedule entries must lie in (0, 1)")
        total = math.fsum(schedule)
        if not abs(total - alpha) <= 1e-9:
            raise ValidationError(
                f"schedule sums to {total}, expected alpha = {alpha}"
            )
        return [float(a) for a in schedule]
    base = alpha / n_looks
    out = [base] * n_looks
    out[-1] = alpha - base * (n_looks - 1)
    if abs(math.fsum(out) - alpha) >= 1e-15:
        raise ConfigurationError(f"equal spending of alpha = {alpha} over {n_looks} looks is inexact")
    return out


@dataclass(frozen=True)
class ThresholdResult:
    """One grid point: either a band or a skip with its reason."""

    tau: float
    alpha_u: float
    n_treated: int
    n_control: int
    skipped: bool
    reason: str | None
    band: BandResult | None

    @property
    def excludes_zero(self) -> bool | None:
        return None if self.band is None else self.band.excludes_zero


@dataclass(frozen=True)
class ScanResult:
    """Full scan output plus the tipping summary."""

    method: str
    alpha: float
    min_group: int
    rows: tuple[ThresholdResult, ...]
    tipping_tau: float | None
    direction: str | None

    @property
    def n_skipped(self) -> int:
        return sum(1 for r in self.rows if r.skipped)


def scan(
    panel: PanelDataset,
    grid: ThresholdGrid,
    method: str,
    alpha: float = 0.05,
    options: BandOptions | None = None,
    min_group: int = DEFAULT_MIN_GROUP,
    schedule: list[float] | None = None,
    workers: int = 1,
) -> ScanResult:
    """Evaluate the chosen band at every threshold, then find the tipping point.

    A threshold is skipped (never silently dropped) when either arm falls
    below min_group, or the band degenerates or cannot be calibrated at
    its per-look level there.  All grid points are always evaluated; the
    tipping threshold is the smallest retained one whose band excludes
    zero.  Raises EmptyScanError, naming the most common skip reason,
    when nothing is retained.  Looks run on at most min(workers, looks,
    CPUs) threads.
    """
    if min_group < 0:
        raise ValidationError(f"min_group must be nonnegative, got {min_group}")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    options = options or BandOptions()
    alphas = spend_alpha(alpha, len(grid), schedule)

    def evaluate(item: tuple[float, float]) -> ThresholdResult:
        tau, alpha_u = item
        assignment = assign_treatment(panel, tau)
        n1, n0 = assignment.n_treated, assignment.n_control

        def row(band: BandResult | None, reason: str | None = None) -> ThresholdResult:
            return ThresholdResult(
                tau=tau,
                alpha_u=alpha_u,
                n_treated=n1,
                n_control=n0,
                skipped=band is None,
                reason=reason,
                band=band,
            )

        if min(n1, n0) < min_group:
            side = "treated" if n1 < min_group else "control"
            return row(None, f"{side} arm below min_group ({min(n1, n0)} < {min_group})")
        stats = group_stats(panel, assignment)
        try:
            band = compute_band(stats, method, alpha_u, options)
        except (DegenerateArmError, ConfigurationError) as exc:
            return row(None, str(exc))
        return row(band)

    items = list(zip(grid.taus, alphas))
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers == 1:
        rows = tuple(evaluate(item) for item in items)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(evaluate, items))

    if all(r.skipped for r in rows):
        # most_common breaks ties in the order first encountered: the earlier look
        reason, count = Counter(r.reason for r in rows).most_common(1)[0]
        raise EmptyScanError(
            "N/A: every threshold on the grid was skipped; most common reason, "
            f"on {count} of {len(rows)} looks: {reason}"
        )
    tipping_tau = None
    direction = None
    for row in rows:
        if row.band is not None and row.band.excludes_zero:
            tipping_tau = row.tau
            direction = "positive" if row.band.band_lower > 0.0 else "negative"
            break
    return ScanResult(
        method=method,
        alpha=alpha,
        min_group=min_group,
        rows=rows,
        tipping_tau=tipping_tau,
        direction=direction,
    )
