"""Firm-quarter panel ingestion, treatment assignment, and descriptives.

The expected CSV layout is one row per unit and time period with columns
(unit_id, time, outcome, signal[, group]).  Column names are remappable
through :class:`PanelSchema`.  Rows with a missing outcome or signal are
dropped listwise and counted; structurally broken rows (bad unit or time,
unparseable or infinite numbers, out-of-range signals) raise instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, RowError, SchemaError, ValidationError

#: Cell contents treated as a missing value before numeric parsing.
MISSING_MARKERS = frozenset({"", ".", "NA", "N/A", "NaN", "nan", "NAN", "null", "NULL"})

SIGNAL_MIN = 0.0
SIGNAL_MAX = 100.0


@dataclass(frozen=True)
class PanelSchema:
    """Column-name mapping for CSV ingestion."""

    unit: str = "unit_id"
    time: str = "time"
    outcome: str = "outcome"
    signal: str = "signal"
    group: str | None = None


@dataclass
class PanelDataset:
    """Column-oriented panel with non-missing outcome and signal throughout.

    ``n_dropped`` counts rows removed listwise during ingestion because the
    outcome or the signal was missing.
    """

    unit: np.ndarray
    time: np.ndarray
    outcome: np.ndarray
    signal: np.ndarray
    group: np.ndarray | None = None
    n_dropped: int = 0

    def __post_init__(self) -> None:
        n = len(self.outcome)
        if not (len(self.unit) == len(self.time) == len(self.signal) == n):
            raise ValidationError("panel columns have unequal lengths")
        if n == 0:
            raise DataError("panel has no usable rows")
        for name, values in (("outcome", self.outcome), ("signal", self.signal)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise DataError(f"{name} is not finite at row {bad[0]} (value {values[bad[0]]!r})")
        bad = np.flatnonzero((self.signal < SIGNAL_MIN) | (self.signal > SIGNAL_MAX))
        if bad.size:
            raise DataError(
                f"signal outside [{SIGNAL_MIN:g}, {SIGNAL_MAX:g}] "
                f"at row {bad[0]} (value {self.signal[bad[0]]!r})"
            )
        # Sort (unit code, time) pairs and compare neighbours; the loop that
        # names the first duplicate in row order runs only when one exists.
        codes: dict = {}
        unit_code = np.fromiter(map(codes.setdefault, self.unit, range(n)), np.int64, n)
        time = self.time.astype(np.int64, copy=False)
        order = np.lexsort((time, unit_code))
        unit_code, time = unit_code[order], time[order]
        if ((unit_code[1:] == unit_code[:-1]) & (time[1:] == time[:-1])).any():
            keys = set()
            for u, t in zip(self.unit, self.time):
                key = (u, int(t))
                if key in keys:
                    raise DataError(f"duplicate (unit_id, time) pair {key}")
                keys.add(key)

    @property
    def n(self) -> int:
        return len(self.outcome)

    def times(self) -> np.ndarray:
        """Distinct time indices in increasing order."""
        return np.unique(self.time)

    def filter_group(self, name: str) -> "PanelDataset":
        """Sub-panel containing only rows whose group label equals ``name``."""
        if self.group is None:
            raise DataError("panel has no group column to filter on")
        mask = self.group == name
        if not mask.any():
            raise DataError(f"no rows with group {name!r}")
        return PanelDataset(
            unit=self.unit[mask],
            time=self.time[mask],
            outcome=self.outcome[mask],
            signal=self.signal[mask],
            group=self.group[mask],
            n_dropped=self.n_dropped,
        )


@dataclass(frozen=True)
class TreatmentAssignment:
    """Threshold rule Z = 1{signal >= threshold} evaluated on a panel."""

    treated: np.ndarray
    n_treated: int
    n_control: int


@dataclass(frozen=True)
class SummaryStats:
    """Per-variable descriptive statistics.

    ``sd`` needs at least 2 observations; ``skewness`` and ``kurtosis``
    (excess, normal = 0) need at least 3 and positive variance.  Fields
    that cannot be computed are None.
    """

    n: int
    minimum: float
    mean: float
    median: float
    maximum: float
    sd: float | None
    skewness: float | None
    kurtosis: float | None


def _parse_time(raw: str, line_number: int) -> int:
    s = raw.strip()
    try:
        return int(s)
    except ValueError:
        pass
    try:
        x = float(s)
    except ValueError:
        raise RowError(line_number, f"time index {raw!r} is not an integer") from None
    if not x.is_integer():
        raise RowError(line_number, f"time index {raw!r} is not an integer")
    return int(x)


def _parse_numeric(raw: str, column: str, line_number: int) -> float | None:
    """Parse a float cell; None means missing."""
    s = raw.strip() if raw is not None else ""
    if s in MISSING_MARKERS:
        return None
    try:
        x = float(s)
    except ValueError:
        raise RowError(line_number, f"column {column!r} has unparseable value {raw!r}") from None
    if math.isnan(x):
        return None
    if math.isinf(x):
        raise RowError(line_number, f"column {column!r} has non-finite value {raw!r}")
    return x


def load_csv(path: str | Path, schema: PanelSchema | None = None) -> PanelDataset:
    """Read a panel CSV, dropping rows with missing outcome or signal.

    Raises SchemaError when a mapped column is absent, RowError (with the
    1-based physical line number) for unparseable or infinite cells, and
    DataError for out-of-range signals or duplicate (unit_id, time) pairs.
    """
    schema = schema or PanelSchema()
    path = Path(path)
    panel = _load_columns(path, schema)
    return panel if panel is not None else _load_rows(path, schema)


#: Each missing marker mapped to a string that float() reads as NaN.
_MISSING_AS_NAN = dict.fromkeys(MISSING_MARKERS, "nan")


def _float_column(cells: list[str]) -> np.ndarray:
    """Numeric cells as floats, NaN for a missing marker.

    Raises ValueError for any other cell float() rejects, a marker padded
    with spaces included; the row parser then decides.
    """
    return np.fromiter(map(float, map(_MISSING_AS_NAN.get, cells, cells)), np.float64, len(cells))


def _load_columns(path: Path, schema: PanelSchema) -> PanelDataset | None:
    """Fast path of :func:`load_csv`: one pass collecting the mapped cells per
    column, then one conversion per column.

    Returns None for anything the row parser must report or decide: a
    missing column, a row whose width differs from the header's, any cell
    that fails to convert, an empty unit, an infinite value, an
    out-of-range signal on a retained row, or no retained row.  Blank
    lines are skipped, as ``csv.DictReader`` does, and a duplicated header
    name maps to its last column, as in ``DictReader``'s row dicts.
    """
    units: list[str] = []
    times: list[str] = []
    outcomes: list[str] = []
    signals: list[str] = []
    groups: list[str] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return None
        index = {name: i for i, name in enumerate(header)}
        required = [schema.unit, schema.time, schema.outcome, schema.signal]
        if schema.group is not None:
            required.append(schema.group)
        if any(name not in index for name in required):
            return None
        iu, it, iy, i_s = (index[name] for name in required[:4])
        ig = index[schema.group] if schema.group is not None else None
        add_unit, add_time = units.append, times.append
        add_outcome, add_signal, add_group = outcomes.append, signals.append, groups.append
        width = len(header)
        try:
            for row in reader:
                if len(row) != width:
                    if row:
                        return None
                    continue
                add_unit(row[iu])
                add_time(row[it])
                add_outcome(row[iy])
                add_signal(row[i_s])
                if ig is not None:
                    add_group(row[ig])
        except csv.Error:
            return None
    # Convert column by column, releasing each list of raw cells once done.
    try:
        unit = list(map(str.strip, units))
        del units
        if "" in unit:
            return None
        time = np.array(list(map(int, times)), dtype=np.int64)
        del times
        outcome = _float_column(outcomes)
        del outcomes
        signal = _float_column(signals)
        del signals
    except (ValueError, OverflowError):
        return None
    if np.isinf(outcome).any() or np.isinf(signal).any():
        return None
    keep = ~(np.isnan(outcome) | np.isnan(signal))
    n_kept = int(keep.sum())
    if n_kept == 0:
        return None
    signal = signal[keep]
    if ((signal < SIGNAL_MIN) | (signal > SIGNAL_MAX)).any():
        return None
    group = None
    if ig is not None:
        group = np.array([g.strip() or None for g in groups], dtype=object)[keep]
    return PanelDataset(
        unit=np.array(unit, dtype=object)[keep],
        time=time[keep],
        outcome=outcome[keep],
        signal=signal,
        group=group,
        n_dropped=keep.size - n_kept,
    )


def _load_rows(path: Path, schema: PanelSchema) -> PanelDataset:
    """Row-by-row parser of :func:`load_csv`, and its only error reporter."""
    units: list[str] = []
    times: list[int] = []
    outcomes: list[float] = []
    signals: list[float] = []
    groups: list[str | None] = []
    dropped = 0
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, no header row")
        required = [schema.unit, schema.time, schema.outcome, schema.signal]
        if schema.group is not None:
            required.append(schema.group)
        missing_cols = [c for c in required if c not in reader.fieldnames]
        if missing_cols:
            raise SchemaError(f"{path}: missing required column(s) {missing_cols}")
        for row in reader:
            line = reader.line_num
            unit = (row[schema.unit] or "").strip()
            if unit == "":
                raise RowError(line, "empty unit_id")
            time_index = _parse_time(row[schema.time] or "", line)
            outcome = _parse_numeric(row[schema.outcome], schema.outcome, line)
            signal = _parse_numeric(row[schema.signal], schema.signal, line)
            if outcome is None or signal is None:
                dropped += 1
                continue
            if not (SIGNAL_MIN <= signal <= SIGNAL_MAX):
                raise RowError(
                    line,
                    f"signal {signal!r} outside [{SIGNAL_MIN:g}, {SIGNAL_MAX:g}]",
                )
            units.append(unit)
            times.append(time_index)
            outcomes.append(outcome)
            signals.append(signal)
            if schema.group is not None:
                g = (row[schema.group] or "").strip()
                groups.append(g if g else None)
    if not units:
        raise DataError(f"{path}: no rows with both outcome and signal present")
    return PanelDataset(
        unit=np.array(units, dtype=object),
        time=np.array(times, dtype=np.int64),
        outcome=np.array(outcomes, dtype=float),
        signal=np.array(signals, dtype=float),
        group=np.array(groups, dtype=object) if schema.group is not None else None,
        n_dropped=dropped,
    )


def assign_treatment(panel: PanelDataset, threshold: float) -> TreatmentAssignment:
    """Split the panel at a diversity threshold: treated iff signal >= threshold."""
    if not SIGNAL_MIN < threshold < SIGNAL_MAX:
        raise ValidationError(
            f"threshold must lie strictly inside ({SIGNAL_MIN:g}, {SIGNAL_MAX:g}), got {threshold}"
        )
    treated = panel.signal >= threshold
    n1 = int(treated.sum())
    return TreatmentAssignment(
        treated=treated,
        n_treated=n1,
        n_control=panel.n - n1,
    )


def summary_stats(values: np.ndarray) -> SummaryStats:
    """Descriptive statistics for one variable.

    Skewness is the biased moment ratio m3 / m2**1.5 and kurtosis is the
    excess version m4 / m2**2 - 3, so a normal sample gives values near 0.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValidationError("summary statistics need at least one observation")
    n = x.size
    mean = float(x.mean())
    sd = float(x.std(ddof=1)) if n >= 2 else None
    skew = kurt = None
    if n >= 3:
        d = x - mean
        m2 = float((d**2).mean())
        if m2 > 0.0:
            skew = float((d**3).mean()) / m2**1.5
            kurt = float((d**4).mean()) / m2**2 - 3.0
    return SummaryStats(
        n=n,
        minimum=float(x.min()),
        mean=mean,
        median=float(np.median(x)),
        maximum=float(x.max()),
        sd=sd,
        skewness=skew,
        kurtosis=kurt,
    )


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx <= 0.0 or sy <= 0.0:
        return None
    return float(dx @ dy) / math.sqrt(sx * sy)


def _kendall(x: np.ndarray, y: np.ndarray) -> float | None:
    # Imported here: scipy.stats costs about a second to import and only
    # the rolling Kendall correlation needs it.
    from scipy.stats import kendalltau

    tau = kendalltau(x, y).statistic
    if tau is None or math.isnan(tau):
        return None
    return float(tau)


def rolling_correlation(
    panel: PanelDataset,
    window: int,
    kind: str = "pearson",
) -> list[tuple[int, float | None]]:
    """Right-aligned rolling correlation between signal and outcome.

    Each window spans ``window`` consecutive distinct time indices and pools
    every observation (all units) inside it.  Returns (window-end time, value)
    pairs; a window whose signal or outcome is constant yields None.  Kendall
    correlations use the tie-corrected tau-b statistic.
    """
    if kind not in ("pearson", "kendall"):
        raise ValidationError(f"correlation kind must be 'pearson' or 'kendall', got {kind!r}")
    ts = panel.times()
    if window < 2:
        raise ValidationError(f"window must be at least 2, got {window}")
    if window > ts.size:
        raise ValidationError(
            f"window {window} exceeds the {ts.size} distinct time indices in the panel"
        )
    corr = _pearson if kind == "pearson" else _kendall
    out: list[tuple[int, float | None]] = []
    for j in range(window - 1, ts.size):
        lo, hi = ts[j - window + 1], ts[j]
        mask = (panel.time >= lo) & (panel.time <= hi)
        out.append((int(ts[j]), corr(panel.signal[mask], panel.outcome[mask])))
    return out
