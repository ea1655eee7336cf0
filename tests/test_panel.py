"""Tests for CSV panel ingestion, treatment assignment, and descriptives."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from concate import panel as panel_module
from concate.errors import ConcateError, DataError, RowError, SchemaError, ValidationError
from concate.panel import (
    MISSING_MARKERS,
    PanelDataset,
    PanelSchema,
    _load_columns,
    _load_rows,
    assign_treatment,
    load_csv,
    rolling_correlation,
    summary_stats,
)

HEADER = "unit_id,time,outcome,signal\n"


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def small_panel(signal, outcome=None, time=None):
    """In-memory panel with one unit per row."""
    signal = np.asarray(signal, dtype=float)
    n = signal.size
    outcome = np.asarray(outcome, dtype=float) if outcome is not None else np.zeros(n)
    time = np.asarray(time, dtype=np.int64) if time is not None else np.ones(n, dtype=np.int64)
    unit = np.array([f"u{i}" for i in range(n)], dtype=object)
    return PanelDataset(unit=unit, time=time, outcome=outcome, signal=signal)


class TestLoadCsv:
    def test_happy_path(self, tmp_path):
        path = write(
            tmp_path,
            HEADER + "f1,1,10.5,40\nf1,2,11.0,45\nf2,1,9.5,60\n",
        )
        panel = load_csv(path)
        assert panel.n == 3
        assert panel.n_dropped == 0
        assert list(panel.unit) == ["f1", "f1", "f2"]
        assert list(panel.time) == [1, 2, 1]
        assert panel.outcome.dtype == np.float64
        assert abs(panel.outcome[1] - 11.0) < 1e-12
        assert list(panel.times()) == [1, 2]

    def test_missing_outcome_dropped_and_counted(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,NA,40\nf1,2,11.0,45\nf2,1,9.5,60\n")
        panel = load_csv(path)
        assert panel.n == 2
        assert panel.n_dropped == 1

    def test_every_missing_marker_drops_the_row(self, tmp_path):
        markers = ["", ".", "NA", "N/A", "NaN", "nan", "NAN", "null", "NULL"]
        rows = "".join(f"f{i},1,{m},50\n" for i, m in enumerate(markers))
        path = write(tmp_path, HEADER + rows + "keep,1,1.0,50\n")
        panel = load_csv(path)
        assert panel.n == 1
        assert panel.n_dropped == len(markers)

    def test_missing_signal_also_drops(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,10.0,.\nf2,1,9.5,60\n")
        panel = load_csv(path)
        assert panel.n == 1
        assert panel.n_dropped == 1

    def test_all_rows_missing_raises(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,NA,40\nf2,1,.,45\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_empty_file_raises_schema_error(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_missing_column_names_in_error(self, tmp_path):
        path = write(tmp_path, "unit_id,time,outcome,score\nf1,1,10.0,40\n")
        with pytest.raises(SchemaError) as err:
            load_csv(path)
        assert "signal" in str(err.value)

    def test_bad_time_reports_physical_line(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,10.0,40\nf1,2023Q2,11.0,45\n")
        with pytest.raises(RowError) as err:
            load_csv(path)
        assert err.value.line_number == 3
        assert str(err.value).startswith("line 3:")

    def test_float_valued_integer_time_accepted(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,2.0,10.0,40\n")
        assert list(load_csv(path).time) == [2]

    def test_empty_unit_raises(self, tmp_path):
        path = write(tmp_path, HEADER + " ,1,10.0,40\n")
        with pytest.raises(RowError):
            load_csv(path)

    def test_unparseable_outcome_raises(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,ten,40\n")
        with pytest.raises(RowError) as err:
            load_csv(path)
        assert "outcome" in str(err.value)

    def test_signal_out_of_range_raises(self, tmp_path):
        for bad in ("105", "-0.5"):
            path = write(tmp_path, HEADER + f"f1,1,10.0,{bad}\n", name=f"s{bad}.csv")
            with pytest.raises(RowError):
                load_csv(path)

    def test_signal_boundaries_are_legal(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,1.0,0\nf2,1,1.0,100\n")
        assert load_csv(path).n == 2

    def test_duplicate_unit_time_raises(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,10.0,40\nf1,1,11.0,45\n")
        with pytest.raises(DataError) as err:
            load_csv(path)
        assert "duplicate" in str(err.value)

    def test_schema_remap(self, tmp_path):
        path = write(tmp_path, "firm,quarter,roa,div\nf1,1,10.0,40\n")
        schema = PanelSchema(unit="firm", time="quarter", outcome="roa", signal="div")
        panel = load_csv(path, schema)
        assert panel.n == 1
        assert abs(panel.signal[0] - 40.0) < 1e-12

    def test_group_column(self, tmp_path):
        path = write(
            tmp_path,
            "unit_id,time,outcome,signal,group\nf1,1,1.0,40,tech\nf2,1,2.0,50,retail\nf3,1,3.0,60,tech\n",
        )
        panel = load_csv(path, PanelSchema(group="group"))
        sub = panel.filter_group("tech")
        assert sub.n == 2
        assert list(sub.unit) == ["f1", "f3"]
        with pytest.raises(DataError):
            panel.filter_group("energy")

    def test_filter_without_group_column_raises(self, tmp_path):
        path = write(tmp_path, HEADER + "f1,1,1.0,40\n")
        with pytest.raises(DataError):
            load_csv(path).filter_group("tech")

    def test_infinite_cells_report_their_line(self, tmp_path):
        for column, row in (
            ("outcome", "f2,1,inf,40\n"),
            ("outcome", "f2,1,-Infinity,40\n"),
            ("signal", "f2,1,1.0,-inf\n"),
            ("outcome", "f2,1,inf,NA\n"),
        ):
            path = write(tmp_path, HEADER + "f1,1,1.0,40\n" + row)
            with pytest.raises(RowError) as err:
                load_csv(path)
            assert err.value.line_number == 3
            assert f"column {column!r} has non-finite value" in str(err.value)


def _outcome(loader, path, schema):
    """The dataset a loader returns, or its error as (class, message, line)."""
    try:
        return loader(path, schema)
    except ConcateError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


def _assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, PanelDataset)
    for name in ("unit", "time", "outcome", "signal", "group"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
    assert got.n_dropped == want.n_dropped


GROUP_HEADER = "unit_id,time,outcome,signal,sector\n"

# (case, file text, group column, whether the column-wise parse decides it)
INGEST_CASES = [
    ("plain", HEADER + "f1,1,1.5,40\nf2,1,2.5,60\n", None, True),
    ("blank lines", HEADER + "\nf1,1,1.5,40\n\n\nf2,1,2.5,60\n\n", None, True),
    ("blank line before a bad row", HEADER + "f1,1,1.5,40\n\nf2,x,2.5,60\n", None, False),
    ("short row", HEADER + "f1,1,1.5,40\nf2,1,2.5\n", None, False),
    ("long row", HEADER + "f1,1,1.5,40\nf2,1,2.5,60,extra\n", None, False),
    ("duplicate header name", "unit_id,time,outcome,signal,outcome\nf1,1,1.5,40,7\nf2,1,2.5,60,\n",
     None, True),
    ("exact missing markers",
     HEADER + "".join(f"f{i},1,{m},50\n" for i, m in enumerate(sorted(MISSING_MARKERS)))
     + "k,1,1.0,NaN\nkeep,1,1.0,50\n", None, True),
    ("padded missing markers", HEADER + "f1,1, NA ,40\nf2,1,2.5, . \nf3,1,3.5,50\n", None, False),
    ("padded numbers and units", HEADER + " f1 , 1 , 1.5 , 40 \nf2,1,2.5,60\n", None, True),
    ("float-valued times", HEADER + "f1,3.0,1.5,40\nf2,2,2.5,60\n", None, False),
    ("fractional time", HEADER + "f1,1,1.5,40\nf2,2.5,2.5,60\n", None, False),
    ("quoted multi-line unit", HEADER + '"f\n1",1,1.5,40\n"f2",1,"2.5",60\n', None, True),
    ("multi-line field before a bad row",
     HEADER + '"f\n1",1,1.5,40\nf2,1,two,60\n', None, False),
    ("empty unit", HEADER + "f1,1,1.5,40\n  ,1,2.5,60\n", None, False),
    ("out-of-range signal", HEADER + "f1,1,1.5,40\nf2,1,2.5,101\n", None, False),
    ("out-of-range signal on a dropped row", HEADER + "f1,1,1.5,40\nf2,1,,101\n", None, True),
    ("infinite outcome", HEADER + "f1,1,1.5,40\nf2,1,inf,60\n", None, False),
    ("unparseable outcome", HEADER + "f1,1,1.5,40\nf2,1,2.5x,60\n", None, False),
    ("duplicate key", HEADER + "f1,1,1.5,40\nf2,1,2.5,60\nf1,1,3.5,70\n", None, True),
    ("group column", GROUP_HEADER + "f1,1,1.5,40,fin\nf2,1,2.5,60, \nf3,1,,60,tech\n", "sector", True),
    ("missing group column", HEADER + "f1,1,1.5,40\n", "sector", False),
    ("all rows dropped", HEADER + "f1,1,NA,40\nf2,1,2.5,\n", None, False),
    ("header only", HEADER, None, False),
    ("empty file", "", None, False),
    ("unit wider than its byte field", HEADER + "f1,1,1.5,40\n" + "u" * 60 + ",1,2.5,60\n", None,
     True),
    ("unit of 48 bytes", HEADER + "f1,1,1.5,40\n" + "u" * 48 + ",1,2.5,60\n", None, True),
    ("unit padded with non-ASCII blanks", HEADER + "\xa0f1\x85,1,1.5,40\n\x85f2\xa0,1,2.5,60\n",
     None, True),
    ("quoted unit and outcome", HEADER + '"a",1,"1.5",40\nb,1,2.5,60\n', None, True),
    ("quote inside an unquoted unit", HEADER + 'a"b,1,1.5,40\nc,1,2.5,60\n', None, True),
    ("Latin-1 unit", HEADER + "é,1,1.5,40\nf2,1,2.5,60\n", None, True),
    ("CJK unit", HEADER + "公司,1,1.5,40\nf2,1,2.5,60\n", None, True),
    ("CJK group label", GROUP_HEADER + "f1,1,1.5,40,金融\nf2,1,2.5,60,tech\n", "sector", True),
    ("group label of 60 bytes", GROUP_HEADER + "f1,1,1.5,40," + "g" * 60 + "\nf2,1,2.5,60,\n",
     "sector", True),
    ("CRLF line endings", HEADER.replace("\n", "\r\n") + "f1,1,1.5,40\r\nf2,1,2.5,60\r\n", None,
     True),
    ("CRLF inside a quoted unit", HEADER + '"f\r\n1",1,1.5,40\r\nf2,1,2.5,60\r\n', None, False),
    ("whitespace-only line", HEADER + "f1,1,1.5,40\n   \nf2,1,2.5,60\n", None, False),
    ("# inside a unit", HEADER + "a#b,1,1.5,40\n#c,1,2.5,60\n", None, True),
    ("signed and padded times", HEADER + "f1,+3,1.5,40\nf2, 3 ,2.5,60\n", None, True),
    ("time beyond int64", HEADER + "f1,1,1.5,40\nf2,99999999999999999999,2.5,60\n", None, False),
    ("time after a separator control byte", HEADER + "f1,\x1c3,1.5,40\n", None, False),
    ("NUL ending a unit", HEADER + "f1\x00,1,1.5,40\nf1,2,2.5,60\n", None, False),
    ("underscored outcome", HEADER + "f1,1,1_000,40\nf2,1,2.5,60\n", None, True),
    ("outcome infinity", HEADER + "f1,1,1.5,40\nf2,1,infinity,60\n", None, False),
    ("outcome overflowing to infinity", HEADER + "f1,1,1.5,40\nf2,1,1e400,60\n", None, False),
    ("trailing comma", HEADER + "f1,1,1.5,40,\nf2,1,2.5,60\n", None, False),
    ("UTF-8 BOM before the header", "\ufeff" + HEADER + "f1,1,1.5,40\n", None, True),
    ("marker after the probed rows",
     HEADER + "".join(f"f{i},1,{'NA' if i == 1500 else 1.5},{'' if i == 1700 else 40}\n"
                      for i in range(2_000)), None, True),
]


def _load_without_the_row_parser(path, monkeypatch, schema=None):
    """``load_csv(path, schema)``, failing if it reaches the row parser,
    and the formats of each ``_read_cells`` call it made."""

    def refuse(*args):
        raise AssertionError("load_csv fell back to the row parser")

    read, reads = panel_module._read_cells, []

    def read_cells(path, formats, *args):
        reads.append(formats)
        return read(path, formats, *args)

    monkeypatch.setattr(panel_module, "_read_cells", read_cells)
    monkeypatch.setattr(panel_module, "_load_rows", refuse)
    return load_csv(path, schema), reads


class TestColumnWiseIngest:
    """The column-wise parse against the row parser it falls back to."""

    @pytest.mark.parametrize(
        "text, group, fast", [c[1:] for c in INGEST_CASES], ids=[c[0] for c in INGEST_CASES]
    )
    def test_matches_the_row_parser(self, tmp_path, text, group, fast):
        path = write(tmp_path, text)
        schema = PanelSchema(group=group)
        want = _outcome(_load_rows, path, schema)
        columns = _outcome(_load_columns, path, schema)
        assert (columns is not None) == fast
        if fast:
            _assert_same(columns, want)
        _assert_same(_outcome(load_csv, path, schema), want)

    def test_random_panel_with_markers(self, tmp_path):
        rng = np.random.default_rng(11)
        markers = sorted(MISSING_MARKERS)
        lines = ["id,extra,signal,time,outcome\n"]
        for i in range(3_000):
            y = markers[rng.integers(len(markers))] if rng.random() < 0.1 else repr(rng.normal())
            s = markers[rng.integers(len(markers))] if rng.random() < 0.05 else f"{rng.uniform(0, 100):.4f}"
            lines.append(f"u{i // 5},{rng.integers(9)},{s},{i % 5},{y}\n")
        path = write(tmp_path, "".join(lines))
        schema = PanelSchema(unit="id", group="extra")
        columns = _load_columns(path, schema)
        assert columns is not None and columns.n_dropped > 0
        _assert_same(columns, _load_rows(path, schema))

    def test_benchmark_layout_never_reaches_the_row_parser(self, tmp_path, monkeypatch):
        # unit-major ids, six decimals, about 1% empty outcomes, every marker
        rng = np.random.default_rng(12)
        markers = sorted(MISSING_MARKERS)
        lines = [HEADER]
        for i in range(4_000):
            y = "" if rng.random() < 0.01 else f"{rng.uniform(-20.0, 20.0):.6f}"
            if i % 400 == 7:
                y = markers[i // 400 % len(markers)]
            lines.append(f"u{i // 4 + 1:07d},{i % 4 + 1},{y},{rng.uniform(0.0, 100.0):.6f}\n")
        path = write(tmp_path, "".join(lines))
        want = _load_rows(path, PanelSchema())
        got, reads = _load_without_the_row_parser(path, monkeypatch)
        assert got.n_dropped >= len(markers)
        _assert_same(got, want)
        # the probe, then one full read that parses the marker-free signal
        assert len(reads) == 2 and reads[1][3] == "f8"

    def test_wide_and_non_latin_ids_never_reach_the_row_parser(self, tmp_path, monkeypatch):
        # ids outside Latin-1 and ids of 60 bytes or more, in units and groups
        wide = "x" * 60
        lines = [GROUP_HEADER]
        for i in range(4_000):
            unit = ("公司", wide, "f")[i % 3] + str(i // 4)
            group = ("金融", wide, "", "tech")[i % 4]
            lines.append(f"{unit},{i % 4 + 1},{i % 7 - 3}.25,{i % 97 + 1.5},{group}\n")
        path = write(tmp_path, "".join(lines))
        schema = PanelSchema(group="sector")
        want = _load_rows(path, schema)
        got, reads = _load_without_the_row_parser(path, monkeypatch, schema)
        _assert_same(got, want)
        assert len(reads) == 2


class TestSyntheticApplicationScale:
    """Format anchors at the scale of the application tables."""

    def test_listwise_deletion_counts(self, tmp_path):
        rng = np.random.default_rng(404)
        total, missing = 25_228, 2_143
        miss_rows = set(rng.choice(total, size=missing, replace=False).tolist())
        lines = [HEADER]
        for i in range(total):
            out = "NA" if i in miss_rows else f"{10 + 0.001 * i:.3f}"
            lines.append(f"f{i // 8},{i % 8},{out},{50.0:.1f}\n")
        panel = load_csv(write(tmp_path, "".join(lines)))
        assert panel.n == 23_085
        assert panel.n_dropped == 2_143

    def test_threshold_split_counts(self):
        total, above = 25_228, 1_126
        signal = np.concatenate([np.full(total - above, 30.0), np.full(above, 70.0)])
        panel = small_panel(
            signal, time=np.arange(total) % 4
        )
        treated = assign_treatment(panel, 50.0)
        assert np.count_nonzero(treated) == 1_126
        assert np.count_nonzero(~treated) == 24_102


class TestAssignTreatment:
    def test_boundary_signal_is_treated(self):
        panel = small_panel([49.9, 50.0, 50.1])
        treated = assign_treatment(panel, 50.0)
        assert list(treated) == [False, True, True]

    def test_counts_partition_the_panel(self):
        rng = np.random.default_rng(8)
        panel = small_panel(rng.uniform(0, 100, size=500))
        for tau in (5.0, 37.5, 80.0):
            treated = assign_treatment(panel, tau)
            assert treated.dtype == bool and treated.shape == (panel.n,)
            assert np.count_nonzero(treated) == int((panel.signal >= tau).sum())


class TestPanelValidation:
    def test_unequal_columns(self):
        with pytest.raises(ValidationError):
            PanelDataset(
                unit=np.array(["a", "b"], dtype=object),
                time=np.array([1, 2]),
                outcome=np.array([1.0]),
                signal=np.array([1.0, 2.0]),
            )

    def test_empty_panel(self):
        with pytest.raises(DataError):
            PanelDataset(
                unit=np.array([], dtype=object),
                time=np.array([], dtype=np.int64),
                outcome=np.array([]),
                signal=np.array([]),
            )

    def test_out_of_range_signal_rejected_at_construction(self):
        with pytest.raises(DataError):
            small_panel([50.0, 101.0])

    def test_non_finite_values_rejected_at_construction(self):
        for outcome, signal, column in (
            ([1.0, np.nan], [10.0, 20.0], "outcome"),
            ([1.0, -np.inf], [10.0, 20.0], "outcome"),
            ([1.0, 2.0], [np.nan, 20.0], "signal"),
            ([1.0, 2.0], [10.0, np.inf], "signal"),
        ):
            with pytest.raises(DataError) as err:
                small_panel(signal, outcome=outcome)
            assert str(err.value).startswith(f"{column} is not finite")

    def test_duplicate_key_names_the_first_repeat_in_row_order(self):
        unit = np.array(["b", "a", "c", "a", "b", "a"], dtype=object)
        time = np.array([2, 1, 1, 2, 2, 1], dtype=np.int64)
        with pytest.raises(DataError) as err:
            PanelDataset(unit=unit, time=time, outcome=np.zeros(6), signal=np.full(6, 50.0))
        assert str(err.value) == "duplicate (unit_id, time) pair ('b', 2)"
        # Sorted by unit alone, unit "a"'s two time-1 rows would not be neighbours.
        with pytest.raises(DataError) as err:
            PanelDataset(unit=unit[1:], time=time[1:], outcome=np.zeros(5), signal=np.full(5, 50.0))
        assert str(err.value) == "duplicate (unit_id, time) pair ('a', 1)"

    def test_same_time_in_different_units_is_not_a_duplicate(self):
        rng = np.random.default_rng(5)
        n_units, periods = 300, 7
        unit = np.repeat([f"u{i}" for i in range(n_units)], periods).astype(object)
        time = np.tile(np.arange(periods, dtype=np.int64), n_units)
        order = rng.permutation(unit.size)
        panel = PanelDataset(
            unit=unit[order], time=time[order], outcome=np.zeros(unit.size), signal=np.ones(unit.size)
        )
        assert panel.n == n_units * periods


class TestSummaryStats:
    def test_hand_computed_triple(self):
        s = summary_stats(np.array([1.0, 2.0, 3.0]))
        assert s.n == 3
        assert s.minimum == 1.0
        assert s.mean == 2.0
        assert s.median == 2.0
        assert s.maximum == 3.0
        assert abs(s.sd - 1.0) < 1e-12
        assert abs(s.skewness) < 1e-12
        assert abs(s.kurtosis - (-1.5)) < 1e-12

    def test_constant_sample(self):
        s = summary_stats(np.full(10, 4.0))
        assert s.sd == 0.0
        assert s.skewness is None
        assert s.kurtosis is None

    def test_small_samples_leave_higher_moments_unset(self):
        s1 = summary_stats(np.array([5.0]))
        assert s1.sd is None and s1.skewness is None
        s2 = summary_stats(np.array([5.0, 7.0]))
        assert s2.sd is not None and s2.skewness is None

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            summary_stats(np.array([]))

    def test_matches_scipy_biased_moments(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            x = rng.gamma(2.0, size=rng.integers(3, 200))
            s = summary_stats(x)
            assert abs(s.skewness - sps.skew(x, bias=True)) < 1e-10
            assert abs(s.kurtosis - sps.kurtosis(x, fisher=True, bias=True)) < 1e-10

    def test_large_normal_sample_moments(self):
        x = np.random.default_rng(2024).standard_normal(1_000_000)
        s = summary_stats(x)
        assert abs(s.skewness) < 0.01
        assert abs(s.kurtosis) < 0.02

    def test_large_uniform_sample_kurtosis(self):
        x = np.random.default_rng(7).uniform(0, 10, size=1_000_000)
        s = summary_stats(x)
        assert abs(s.kurtosis - (-1.2)) < 0.05

    def test_sd_beyond_the_float_range_is_none(self):
        s = summary_stats(np.array([-1.7e308, 1.7e308]))
        assert (s.mean, s.sd, s.skewness, s.kurtosis) == (0.0, None, None, None)


def scipy_rolling_kendall(panel, window):
    """tau-b window by window, as scipy gives it; None for its NaN."""
    ts = panel.times()
    out = []
    for j in range(window - 1, ts.size):
        mask = (panel.time >= ts[j - window + 1]) & (panel.time <= ts[j])
        tau = sps.kendalltau(panel.signal[mask], panel.outcome[mask]).statistic
        out.append((int(ts[j]), None if math.isnan(tau) else tau))
    return out


def mask_rolling_pearson(panel, window):
    """Pearson window by window from a mask over the whole panel, summing
    the rows in panel order and without rescaling, as rolling_correlation
    once computed it; None where either column's sum of squares is 0."""
    ts = panel.times()
    out = []
    for j in range(window - 1, ts.size):
        mask = (panel.time >= ts[j - window + 1]) & (panel.time <= ts[j])
        x, y = panel.signal[mask], panel.outcome[mask]
        dx, dy = x - x.mean(), y - y.mean()
        sx, sy = float(dx @ dx), float(dy @ dy)
        r = None if sx <= 0.0 or sy <= 0.0 else float(dx @ dy) / math.sqrt(sx * sy)
        out.append((int(ts[j]), r))
    return out


def assert_same_kendall(panel, window):
    got = rolling_correlation(panel, window, kind="kendall")
    assert got == scipy_rolling_kendall(panel, window)
    assert all(tau is None or type(tau) is float for _, tau in got)


@st.composite
def tied_panels(draw):
    """Tie-heavy panels with rows out of order, gaps in time, singleton
    periods, constant windows and -0.0 next to 0.0, and a window up to all
    of the periods."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    periods = draw(st.integers(2, 8))
    times = rng.choice(np.arange(-20, 40), periods, replace=False)
    time = np.repeat(times, rng.integers(1, draw(st.sampled_from([2, 6, 40])), periods))
    n = time.size
    signals = [[50.0], [0.0, -0.0, 100.0], [0.0, -0.0, 3.0, 99.5]]
    signal = rng.choice(draw(st.sampled_from(signals)), n)
    if draw(st.booleans()):
        signal = rng.uniform(0.0, 100.0, n).round(draw(st.integers(0, 2)))
    outcomes = [[1.0], [-0.0, 0.0, -1.0], [-0.0, 2.5, -1.0, 7.0]]
    outcome = rng.choice(draw(st.sampled_from(outcomes)), n)
    if draw(st.booleans()):
        outcome = rng.standard_normal(n).round(draw(st.integers(0, 3)))
    mixed = rng.permutation(n)
    panel = small_panel(signal[mixed], outcome=outcome[mixed], time=time[mixed])
    return panel, draw(st.integers(2, periods))


class TestRollingCorrelation:
    @settings(max_examples=150, deadline=None)
    @given(tied_panels(), st.sampled_from([3, 7, panel_module._ANCHOR_ROWS]))
    def test_kendall_equals_scipy_on_tied_panels(self, drawn, anchor_rows):
        """Anchors of 3 and 7 rows split most periods into several."""
        with mock.patch.object(panel_module, "_ANCHOR_ROWS", anchor_rows):
            assert_same_kendall(*drawn)

    def test_kendall_equals_scipy_across_anchors_of_a_large_tied_period(self):
        """A 5,000-row period of a few distinct values is two anchors."""
        rng = np.random.default_rng(23)
        sizes = [5000, 30, 4500, 1]
        time = np.repeat([1, 2, 4, 9], sizes)
        signal = rng.choice([0.0, 10.0, 20.0, 55.5, 90.0], time.size)
        outcome = rng.integers(-3, 4, time.size).astype(float)
        panel = small_panel(signal, outcome=outcome, time=time)
        assert sizes[0] > panel_module._ANCHOR_ROWS
        for window in (2, 3, 4):
            assert_same_kendall(panel, window)

    @settings(max_examples=150, deadline=None)
    @given(tied_panels())
    def test_pearson_equals_the_per_window_mask(self, drawn):
        """Bit for bit on a panel already sorted by time, where both sum each
        window in the same order; within 1e-12 otherwise."""
        panel, window = drawn
        order = np.argsort(panel.time, kind="stable")
        in_time = small_panel(panel.signal[order], outcome=panel.outcome[order],
                              time=panel.time[order])
        assert rolling_correlation(in_time, window) == mask_rolling_pearson(in_time, window)
        got, want = rolling_correlation(panel, window), mask_rolling_pearson(panel, window)
        assert [(t, r is None) for t, r in got] == [(t, r is None) for t, r in want]
        assert all(r is None or abs(r - w) <= 1e-12 for (_, r), (_, w) in zip(got, want))

    @settings(max_examples=100, deadline=None)
    @given(tied_panels(), st.sampled_from([-900, -300, 300, 900]))
    def test_exact_under_power_of_two_rescaling_of_the_outcome(self, drawn, k):
        """At 2**±900 the outcome's sum of squares would overflow or vanish."""
        panel, window = drawn
        scaled = small_panel(panel.signal, outcome=np.ldexp(panel.outcome, k), time=panel.time)
        for kind in ("pearson", "kendall"):
            assert rolling_correlation(scaled, window, kind) == rolling_correlation(panel, window, kind)
        s, s0 = summary_stats(scaled.outcome), summary_stats(panel.outcome)
        assert (s.skewness, s.kurtosis) == (s0.skewness, s0.kurtosis)
        assert s.sd == (None if s0.sd is None else math.ldexp(s0.sd, k))
        location = (s.minimum, s.mean, s.median, s.maximum)
        assert location == tuple(math.ldexp(v, k) for v in (s0.minimum, s0.mean, s0.median, s0.maximum))

    def test_perfect_linear_relation(self):
        time = np.repeat(np.arange(1, 7), 3)
        rng = np.random.default_rng(1)
        signal = rng.uniform(10, 90, size=time.size)
        panel = small_panel(signal, outcome=2.0 * signal + 1.0, time=time)
        out = rolling_correlation(panel, window=3)
        assert [t for t, _ in out] == [3, 4, 5, 6]
        assert all(abs(v - 1.0) < 1e-12 for _, v in out)

    def test_perfect_negative_relation(self):
        time = np.repeat(np.arange(1, 5), 2)
        rng = np.random.default_rng(2)
        signal = rng.uniform(10, 90, size=time.size)
        panel = small_panel(signal, outcome=-signal, time=time)
        out = rolling_correlation(panel, window=2)
        assert all(abs(v + 1.0) < 1e-12 for _, v in out)

    def test_pools_all_units_in_the_window(self):
        time = np.array([1, 1, 1, 2, 2, 2], dtype=np.int64)
        signal = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        outcome = np.array([3.0, 1.0, 2.0, 5.0, 4.0, 6.0])
        panel = small_panel(signal, outcome=outcome, time=time)
        (t, value), = rolling_correlation(panel, window=2)
        assert t == 2
        assert abs(value - np.corrcoef(signal, outcome)[0, 1]) < 1e-12

    def test_kendall_hand_anchor(self):
        time = np.arange(1, 6, dtype=np.int64)
        panel = small_panel(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            outcome=[2.0, 1.0, 4.0, 3.0, 5.0],
            time=time,
        )
        (t, value), = rolling_correlation(panel, window=5, kind="kendall")
        assert t == 5
        # 8 concordant pairs, 2 discordant, 10 pairs total
        assert abs(value - 0.6) < 1e-12

    def test_kendall_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(17)
        time = np.repeat(np.arange(1, 4), 6)
        signal = rng.uniform(0, 100, size=time.size)
        outcome = rng.standard_normal(time.size)
        panel = small_panel(signal, outcome=outcome, time=time)
        for t, value in rolling_correlation(panel, window=3, kind="kendall"):
            x, y = panel.signal, panel.outcome
            concordant = discordant = 0
            for i in range(x.size):
                for j in range(i + 1, x.size):
                    s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
                    concordant += s > 0
                    discordant += s < 0
            pairs = x.size * (x.size - 1) / 2
            assert abs(value - (concordant - discordant) / pairs) < 1e-12

    def test_constant_window_yields_none(self):
        time = np.array([1, 1, 2, 2], dtype=np.int64)
        panel = small_panel([50.0, 50.0, 50.0, 50.0], outcome=[1.0, 2.0, 3.0, 4.0], time=time)
        out = rolling_correlation(panel, window=2)
        assert out == [(2, None)]

    def test_window_count(self):
        time = np.repeat(np.arange(1, 9), 2)
        rng = np.random.default_rng(3)
        panel = small_panel(
            rng.uniform(0, 100, time.size), outcome=rng.standard_normal(time.size), time=time
        )
        for window in (2, 3, 5, 8):
            assert len(rolling_correlation(panel, window)) == 8 - window + 1

    def test_window_validation(self):
        panel = small_panel([10.0, 20.0], time=np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValidationError):
            rolling_correlation(panel, window=1)
        with pytest.raises(ValidationError):
            rolling_correlation(panel, window=3)
        with pytest.raises(ValidationError):
            rolling_correlation(panel, window=2, kind="spearman")
