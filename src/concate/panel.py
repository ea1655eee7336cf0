"""Firm-quarter panel ingestion, treatment assignment, and descriptives.

The expected CSV layout is one row per unit and time period with columns
(unit_id, time, outcome, signal[, group]).  Column names are remappable
through :class:`PanelSchema`.  Rows with a missing outcome or signal are
dropped listwise and counted; structurally broken rows (bad unit or time,
unparseable or infinite numbers, out-of-range signals) raise instead.

Ingest runs numpy's C tokenizer over the whole file, reading unit and
group cells as Python strings and numbers and times in numpy's own types.
A file it would read differently from the csv module and int()/float(),
or one with a row to reject, goes to a row-by-row parser, which is the
only error reporter.  Either parser drops a byte-order mark before the
header.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError, RowError, SchemaError, ValidationError

#: Cell contents treated as a missing value before numeric parsing.
MISSING_MARKERS = frozenset({"", ".", "NA", "N/A", "NaN", "nan", "NAN", "null", "NULL"})

SIGNAL_MIN = 0.0
SIGNAL_MAX = 100.0

_TIME_RANGE = np.iinfo(np.int64)


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
        # Sort (unit code, time) pairs and compare neighbours.  The sort is
        # stable, so each key's first row leads its run and the first repeat
        # in row order is the smallest row index behind a leader.
        codes: dict = {}
        unit_code = np.fromiter(map(codes.setdefault, self.unit, range(n)), np.int64, n)
        time = self.time.astype(np.int64, copy=False)
        order = np.lexsort((time, unit_code))
        unit_code, time = unit_code[order], time[order]
        repeats = (unit_code[1:] == unit_code[:-1]) & (time[1:] == time[:-1])
        if repeats.any():
            row = order[1:][repeats].min()
            key = (self.unit[row], int(self.time[row]))
            raise DataError(f"duplicate (unit_id, time) pair {key}")

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
        value = int(s)
    except ValueError:
        try:
            x = float(s)
        except ValueError:
            raise RowError(line_number, f"time index {raw!r} is not an integer") from None
        if not x.is_integer():
            raise RowError(line_number, f"time index {raw!r} is not an integer")
        value = int(x)
    if not _TIME_RANGE.min <= value <= _TIME_RANGE.max:
        raise RowError(line_number, f"time index {raw!r} is outside the int64 range")
    return value


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

    :func:`_load_columns` reads the file with numpy's C tokenizer; when it
    declines, :func:`_load_rows` reads it again and reports any error.
    """
    schema = schema or PanelSchema()
    path = Path(path)
    panel = _load_columns(path, schema)
    return panel if panel is not None else _load_rows(path, schema)


#: The byte width of the fast path's numeric cells.  numpy cuts a longer
#: cell short without a word, so a cell that fills its width sends the file
#: to the row parser.
_NUMBER_WIDTH = 32

#: Data rows read first to see which numeric columns hold a missing marker.
_PROBE_ROWS = 1000

#: The missing markers as byte cells, and the longest of them.
_MISSING_BYTES = np.array(sorted(m.encode() for m in MISSING_MARKERS))
_MARKER_LENGTH = _MISSING_BYTES.itemsize

#: Bytes numpy's reader takes differently from the csv module and int(): a
#: trailing NUL vanishes from a numeric byte cell, and numpy's integer
#: parser skips \x1c-\x1f as blanks.  Unit and group cells, Python strings,
#: keep both, so only numbers and times need this guard, though it scans
#: the whole file.
_UNREAD_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _bytes_in(path: Path, needles: tuple[bytes, ...]) -> set[bytes]:
    """The single bytes of ``needles`` that occur anywhere in the file."""
    found: set[bytes] = set()
    with path.open("rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            found.update(b for b in needles if b in block)
    return found


def _read_cells(
    path: Path, formats: list[str], encoding: str, max_rows: int | None = None
) -> np.ndarray:
    """One ``np.loadtxt`` pass over the data rows into fields f0, f1, ...
    of ``formats``, one per header column."""
    with warnings.catch_warnings():
        # a file without data rows warns; the row parser reports it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            path, dtype=",".join(formats), delimiter=",", skiprows=1, comments=None,
            quotechar='"', ndmin=1, encoding=encoding, max_rows=max_rows,
        )


def _number_column(cells: np.ndarray) -> np.ndarray:
    """Numeric cells as a float64 copy.  Byte cells are cast, NaN for a
    missing marker, and their markers are overwritten in place.

    The cast parses each byte cell as float() does, so it raises ValueError
    for any other cell float() rejects, a marker padded with spaces
    included; the row parser then decides.
    """
    if cells.dtype.kind == "S":
        raw = cells.view(np.dtype((np.uint8, cells.itemsize)))
        if raw[:, -1].any():
            raise ValueError("a cell fills its byte width")
        short = np.flatnonzero(raw[:, _MARKER_LENGTH] == 0)
        cells[short[np.isin(cells[short], _MISSING_BYTES)]] = b"nan"
    return cells.astype(np.float64)


def _load_columns(path: Path, schema: PanelSchema) -> PanelDataset | None:
    """Fast path of :func:`load_csv`: numpy's C tokenizer reads the file in
    one ``np.loadtxt`` pass after a probe of its first rows.  Times are
    read as int64, a numeric column with no missing marker in the probe as
    float64, the other numeric columns as fixed-width byte cells, which are
    then converted whole, and unit and group cells as Python strings, which
    are stripped as the row parser strips them.

    Returns None for anything the row parser must report or decide, and
    for anything numpy would read differently from it: a missing column, a
    header spanning lines, two mapped names on one column, a row whose
    width differs from the header's, a time that is not an int64 literal
    (``3.0`` included), a numeric cell that fills its byte width, a NUL or
    \\x1c-\\x1f byte, a line break inside a unit or group of a file with
    carriage returns (numpy translates them), a numeric cell float()
    rejects, an empty unit, an infinite value, an out-of-range signal on a
    retained row, or no retained row.  Blank lines are skipped, as
    ``csv.DictReader`` does, and a duplicated header name maps to its last
    column, as in ``DictReader``'s row dicts.
    """
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            encoding = fh.encoding
    except (csv.Error, UnicodeDecodeError):
        return None
    if header is None or reader.line_num != 1:
        return None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    index = {name: i for i, name in enumerate(header)}
    names = [schema.unit, schema.time, schema.outcome, schema.signal]
    if schema.group is not None:
        names.append(schema.group)
    if any(name not in index for name in names):
        return None
    columns = [index[name] for name in names]
    if len(set(columns)) < len(columns):
        return None
    found = _bytes_in(path, (*_UNREAD_BYTES, b"\r"))
    if found - {b"\r"}:
        return None
    # Fields f0, f1, ... in header order.  An unmapped column is read into
    # S0, nothing, but every row's width is still checked against the header.
    number = f"S{_NUMBER_WIDTH}"
    formats = ["S0"] * len(header)
    for i, fmt in zip(columns, ("O", "i8", number, number, "O")):
        formats[i] = fmt
    iu, it, iy, i_s, *ig = (f"f{i}" for i in columns)
    try:
        # numpy parses a numeric column with no missing marker in the first
        # rows to float64 itself, as float() does but without underscores,
        # which saves the cast; a marker or underscore further down, or
        # any other cell it rejects, has the file read again as bytes.
        probe = _read_cells(path, formats, encoding, _PROBE_ROWS)
        parsed = list(formats)
        for i in columns[2:4]:
            if not np.isin(probe[f"f{i}"], _MISSING_BYTES).any():
                parsed[i] = "f8"
        try:
            data = _read_cells(path, parsed, encoding)
        except ValueError:
            if parsed == formats:
                raise
            data = _read_cells(path, formats, encoding)
        if data.size == 0:
            return None
        outcome = _number_column(data[iy])
        signal = _number_column(data[i_s])
    except (ValueError, OverflowError):
        return None
    texts = [data[f] for f in (iu, *ig)]
    if b"\r" in found and any("\n" in cell for t in texts for cell in t):
        return None
    strip = np.frompyfunc(str.strip, 1, 1)
    unit, group = strip(texts[0]), strip(texts[1]) if ig else None
    if (unit == "").any():
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
    time = data[it][keep]
    # Release the records and their unstripped cells: a lower peak.
    del data, texts
    if group is not None:
        group = group[keep]
        group[group == ""] = None
    return PanelDataset(
        unit=unit[keep],
        time=time,
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
    try:
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise SchemaError(f"{path}: empty file, no header row")
            if reader.fieldnames:
                reader.fieldnames[0] = reader.fieldnames[0].removeprefix("\ufeff")
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
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not readable as {exc.encoding} text") from None
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


def assign_treatment(panel: PanelDataset, threshold: float) -> np.ndarray:
    """The treated mask of a split at a diversity threshold: treated iff
    signal >= threshold.  :class:`concate.sequential.ThresholdGrid` checks
    the threshold."""
    return panel.signal >= threshold


def _centred(x: np.ndarray) -> tuple[float, np.ndarray, int]:
    """The mean of ``x`` and its deviations as ``d · 2**k``, max |d| in [0.5, 1).
    ``x`` is scaled by a power of two before it is centred, and the deviations
    after, both exact in binary floating point: moments of ``d`` neither overflow
    nor underflow, and at unit scale equal the unscaled moments bit for bit."""
    e = math.frexp(float(np.abs(x).max()))[1]
    u = np.ldexp(x, -e)
    mean = float(u.mean())
    d = u - mean
    k = math.frexp(float(np.abs(d).max()))[1]
    return math.ldexp(mean, e), np.ldexp(d, -k), e + k


def summary_stats(values: np.ndarray) -> SummaryStats:
    """Descriptive statistics for one variable.

    Skewness is the biased moment ratio m3 / m2**1.5 and kurtosis is the
    excess version m4 / m2**2 - 3, so a normal sample gives values near 0.
    All are exact under rescaling of the values by a power of two (:func:`_centred`).
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValidationError("summary statistics need at least one observation")
    n = x.size
    mean, d, k = _centred(x)
    sd = skew = kurt = None
    with contextlib.suppress(OverflowError):  # an sd beyond the float range stays None
        sd = math.ldexp(math.sqrt(float((d**2).sum()) / (n - 1)), k) if n >= 2 else None
    if n >= 3:
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
    (_, dx, _), (_, dy, _) = _centred(x), _centred(y)
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx <= 0.0 or sy <= 0.0:
        return None
    return float(dx @ dy) / math.sqrt(sx * sy)


#: The most rows of one period that the rolling Kendall count compares as
#: one anchor; its lookup tables hold about 2·M·√M counts.
_ANCHOR_ROWS = 4096


def _discordant(lx: np.ndarray, ly: np.ndarray, size: int, ends: np.ndarray) -> np.ndarray:
    """Discordant pairs of the anchor, rows ``[0, ends[0])`` of the ranks
    ``lx`` and ``ly`` below ``size``, with itself and the rest of its
    period (element 0) and with each later segment ``[ends[k], ends[k+1])``.
    A row with i (i⁺) anchor rows below (at most) its x, and j (j⁺) in y,
    is discordant with i - F(i, j⁺) + j - F(i⁺, j) of them; F(i, v) counts
    those among the first i in x and the first v in y."""
    m = int(ends[0])
    by_x = np.argsort(lx[:m])
    ypos = np.argsort(np.argsort(ly[:m][by_x]))
    step = math.isqrt(m - 1) + 1
    piece, local = np.divmod(np.arange(m + 1), step)
    # F from every step-th x position on; int32 halves the memory traffic.
    # share[s, v]: rows of slice s among the v lowest in y; coarse[s, v]:
    # those of the slices before s; fine[s, r, u]: the first r rows of
    # slice s among its u lowest in y.
    share = np.zeros((m // step + 1, m + 1), np.int32)
    share[piece[:m], ypos + 1] = 1
    share = share.cumsum(1, dtype=np.int32)
    coarse, share = (share.cumsum(0, dtype=np.int32) - share).ravel(), share.ravel()
    fine = np.zeros((m // step + 1, step + 1, step + 1), np.int32)
    fine[piece[:m], local[:m] + 1, local[np.argsort(np.lexsort((ypos, piece[:m])))] + 1] = 1
    fine = fine.cumsum(1, dtype=np.int32).cumsum(2, dtype=np.int32).ravel()
    row_at, slice_at = piece * (m + 1), (piece * (step + 1) + local) * (step + 1)

    def below(i: np.ndarray, v: np.ndarray) -> np.ndarray:
        at = row_at[i] + v
        return coarse[at] + fine[slice_at[i] + share[at]]

    # cx[r]: the anchor rows of x rank below r, as runs of 0, 1, ..., m.
    cx, cy = (np.repeat(np.arange(m + 1), np.diff(np.concatenate(([-1], r, [size]))))
              for r in (lx[:m][by_x], np.sort(ly[:m])))
    i, i_at, j, j_at = cx[lx], cx[1:][lx], cy[ly], cy[1:][ly]
    starts = np.concatenate(([0], ends[:-1]))
    counts = np.add.reduceat(np.append(i - below(i, j_at) + j - below(i_at, j), 0), starts)
    counts[starts == ends] = 0
    counts[1] += counts[0] // 2  # both rows of a pair inside the anchor counted it
    return counts[1:]


def _rolling_kendall(panel: PanelDataset, window: int,
                     order: np.ndarray, bounds: np.ndarray) -> list[float | None]:
    """scipy's tau-b of each run of ``window`` periods, bit for bit: each window's discordant
    and tied pairs slide from the last's.  Period p is rows ``order[bounds[p]:bounds[p + 1]]``."""
    # Dense ranks: equal values, -0.0 and 0.0 too, share one.
    rx, ry = (np.unique(v, return_inverse=True)[1][order] for v in (panel.signal, panel.outcome))
    rxy = np.unique(rx * (int(ry.max()) + 1) + ry, return_inverse=True)[1]
    period, periods = np.repeat(np.arange(bounds.size - 1), np.diff(bounds)), bounds.size - 1
    # Discordant pairs of each period with itself and the later (first) or
    # the earlier (last) periods less than ``window`` apart.
    first, last = np.zeros(periods, np.int64), np.zeros(periods, np.int64)
    for a0 in range(0, periods, window):
        # Ranks local to the rows that this block's anchors see.
        lo, hi = bounds[a0], bounds[min(a0 + 2 * window - 1, periods)]
        lx, ly = (np.unique(r[lo:hi], return_inverse=True)[1] for r in (rx, ry))
        for a in range(a0, min(a0 + window, periods)):
            stop = min(a + window, periods)
            for start in range(bounds[a], bounds[a + 1], _ANCHOR_ROWS):
                end = min(start + _ANCHOR_ROWS, bounds[a + 1])
                ends = np.concatenate(([end], bounds[a + 1 : stop + 1])) - start
                rows = slice(start - lo, bounds[stop] - lo)
                found = _discordant(lx[rows], ly[rows], hi - lo, ends)
                first[a] += found.sum()
                last[a:stop] += found
    # Each period's distinct ranks and their counts, for x, y and (x, y).
    parts = []
    for r in (rx, ry, rxy):
        size = int(r.max()) + 1
        keys, counts = np.unique(period * size + r, return_counts=True)
        at = np.searchsorted(keys, np.arange(periods + 1) * size)
        parts.append((keys % size, counts, at, np.zeros(size, np.int64)))
    pairs = [0, 0, 0, 0]  # discordant, x-tied, y-tied, tied in both

    def move(a: int, sign: int) -> None:
        pairs[0] += int(last[a]) if sign > 0 else -int(first[a])
        for n, (keys, counts, at, tally) in enumerate(parts, 1):
            ranks, k = keys[at[a] : at[a + 1]], sign * counts[at[a] : at[a + 1]]
            # c rows of one rank hold c(c-1)/2 tied pairs; c becomes c + k.
            pairs[n] += int(k @ (2 * tally[ranks] + k - 1)) // 2
            tally[ranks] += k

    out: list[float | None] = []
    for e in range(periods):
        move(e, 1)
        if e >= window:
            move(e - window, -1)
        if e < window - 1:
            continue
        n = int(bounds[e + 1] - bounds[e + 1 - window])
        tot, (dis, xtie, ytie, ntie) = n * (n - 1) // 2, pairs
        if xtie == tot or ytie == tot:
            out.append(None)  # where scipy gives NaN
            continue
        tau = (tot - xtie - ytie + ntie - 2 * dis) / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
        out.append(min(1.0, max(-1.0, tau)))
    return out


def rolling_correlation(
    panel: PanelDataset,
    window: int,
    kind: str = "pearson",
) -> list[tuple[int, float | None]]:
    """Right-aligned rolling correlation between signal and outcome.

    Each window spans ``window`` consecutive distinct time indices and pools
    every observation (all units) inside it.  Returns (window-end time, value)
    pairs; a window whose signal or outcome is constant yields None.  Each window
    is a slice of one time-sorted copy of the rows.  Pearson sums the slice, O(N·W)
    for N rows and W periods a window, exact under power-of-two rescaling.  Kendall's
    tau-b equals scipy's ``kendalltau`` bit for bit, in one count for all windows in
    O(N·(√M + W·m/M)), m rows a period, M = min(m, 4096); with 10,000 or more rows a
    period and few windows, scipy's per-window merge count is up to about 10x faster.
    """
    if kind not in ("pearson", "kendall"):
        raise ValidationError(f"correlation kind must be 'pearson' or 'kendall', got {kind!r}")
    if window < 2:
        raise ValidationError(f"window must be at least 2, got {window}")
    order = np.argsort(panel.time, kind="stable")
    t = panel.time[order]
    bounds = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1], [True])))
    ts = t[bounds[:-1]]
    if window > ts.size:
        raise ValidationError(
            f"window {window} exceeds the {ts.size} distinct time indices in the panel"
        )
    if kind == "kendall":
        values = _rolling_kendall(panel, window, order, bounds)
    else:
        x, y = panel.signal[order], panel.outcome[order]
        values = [_pearson(x[a:b], y[a:b]) for a, b in zip(bounds[:-window], bounds[window:])]
    return [(int(end), value) for end, value in zip(ts[window - 1 :], values)]
