"""End-to-end tests for the command-line interface."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import concate
from concate import cli
from concate.bands import METHODS, BandOptions, compute_band
from concate.cli import BAND_FLAGS, RNG_DESCRIPTION, main
from concate.concentration import BernsteinConstants, Truncation
from concate.datasets import make_null_panel, make_tipping_demo_panel, write_panel_csv
from concate.errors import (
    ConcateError,
    ConfigurationError,
    DataError,
    DegenerateArmError,
    EmptyScanError,
    RowError,
    SchemaError,
    ValidationError,
)
from concate.estimators import group_stats, split_arms
from concate.panel import assign_treatment, load_csv, rolling_correlation, summary_stats

SMALL = """unit_id,time,outcome,signal
u1,1,2.0,10
u2,1,3.5,20
u3,1,1.0,30
u4,1,4.0,40
u5,1,9.0,90
u6,1,,45
"""

GROUPED = """unit_id,time,outcome,signal,sector
u1,1,2.0,10,fin
u2,1,3.0,20,fin
u3,1,4.0,30,tech
u4,1,5.0,40,tech
u5,1,6.0,50,fin
"""


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    write_panel_csv(make_tipping_demo_panel(), path)
    return str(path)


class TestDescribe:
    def test_stdout_summary_and_counts(self, tmp_path, capsys):
        rc = main(["describe", write(tmp_path, SMALL)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "variable,n,min,mean,median,max,sd,skewness,kurtosis"
        assert out[1].startswith("outcome,5,")
        assert out[2].startswith("signal,5,")
        assert out[3] == "# rows retained: 5, dropped (missing outcome/signal): 1"

    def test_csv_row_matches_the_direct_summary(self, tmp_path):
        path = demo_csv(tmp_path)
        out = tmp_path / "summary.csv"
        rc = main(["describe", path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        fields = lines[1].split(",")
        stats = summary_stats(load_csv(path).outcome)
        assert fields[0] == "outcome"
        assert int(fields[1]) == stats.n
        for text, value in zip(fields[2:], (stats.minimum, stats.mean, stats.median,
                                            stats.maximum, stats.sd, stats.skewness,
                                            stats.kurtosis)):
            assert abs(float(text) - value) < 1e-8 * max(1.0, abs(value))

    def test_json_report(self, tmp_path):
        path = demo_csv(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["describe", path, "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["version"] == concate.__version__
        assert payload["metadata"]["command"] == "describe"
        assert len(payload["metadata"]["config_hash"]) == 64
        assert payload["n"] == 4300
        assert payload["n_dropped"] == 0
        assert set(payload["variables"]) == {"outcome", "signal"}
        assert "window" not in payload

    @pytest.mark.parametrize(("flags", "window"), [((), 2), (("--window", "3"), 3)])
    def test_json_report_records_the_rolling_window(self, tmp_path, flags, window):
        """The demo panel has four periods, so the default window is 2."""
        out = tmp_path / "report.json"
        rc = main(["describe", demo_csv(tmp_path), "--rolling", str(tmp_path / "rolling.csv"),
                   *flags, "--json", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["window"] == window

    def test_default_window_of_a_three_period_panel_is_two(self, tmp_path, capsys):
        """Half of three periods is one, which is not a window."""
        path = tmp_path / "short.csv"
        write_panel_csv(make_null_panel(20, 3, seed=5), path)
        out = tmp_path / "rolling.csv"
        assert main(["describe", str(path), "--rolling", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["time", "2", "3"]
        capsys.readouterr()

    def test_rolling_csv(self, tmp_path):
        path = demo_csv(tmp_path)
        out = tmp_path / "rolling.csv"
        rc = main(["describe", path, "--rolling", str(out), "--window", "3"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,pearson,kendall"
        panel = load_csv(path)
        expected = rolling_correlation(panel, 3, kind="pearson")
        assert len(lines) - 1 == len(expected)
        first_time, first_r = expected[0]
        assert lines[1].split(",")[0] == str(first_time)
        assert abs(float(lines[1].split(",")[1]) - first_r) < 1e-8

    def test_rolling_csv_is_pinned(self, tmp_path, capsys):
        """A seeded null panel of 300 units over 10 periods, window 4; the
        digest was recorded with the per-window scipy tau-b."""
        path = tmp_path / "null.csv"
        write_panel_csv(make_null_panel(300, 10, seed=11), path)
        out = tmp_path / "rolling.csv"
        assert main(["describe", str(path), "--rolling", str(out), "--window", "4"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "371ea0e464b8a6580660ab672c898733d47869a6795523c0fcfd6b46f7159c2f"
        )

    @pytest.mark.parametrize(("flags", "message"), [
        ((), "window 2 (the default, half the periods and at least 2) exceeds the 1 "),
        (("--window", "3"), "window 3 exceeds the 1 "),
    ])
    def test_window_longer_than_the_panel_is_rejected_before_any_output(
        self, tmp_path, capsys, flags, message
    ):
        path = tmp_path / "one_period.csv"
        write_panel_csv(make_null_panel(20, 1, seed=1), path)
        outputs = [tmp_path / name for name in ("summary.csv", "rolling.csv", "report.json")]
        for with_out in (False, True):
            out = ["--out", str(outputs[0])] if with_out else []
            rc = main(["describe", str(path), *out, "--rolling", str(outputs[1]),
                       "--json", str(outputs[2]), *flags])
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert message + "distinct time indices in the panel" in captured.err
            assert not any(output.exists() for output in outputs)

    def test_window_below_two_is_rejected_without_rolling(self, tmp_path, capsys):
        rc = main(["describe", demo_csv(tmp_path), "--window", "1"])
        assert rc == 2
        assert "window must be at least 2, got 1" in capsys.readouterr().err

    def test_window_below_two_is_rejected_before_the_panel_is_read(self, tmp_path, capsys):
        """The panel does not exist: reading it would exit 3."""
        out = tmp_path / "rolling.csv"
        rc = main(["describe", str(tmp_path / "absent.csv"), "--rolling", str(out),
                   "--window", "-5"])
        assert rc == 2
        assert "window must be at least 2, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_group_filter(self, tmp_path, capsys):
        path = write(tmp_path, GROUPED)
        rc = main(["describe", path, "--group-col", "sector", "--group-filter", "fin"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[1].startswith("outcome,3,")

    @pytest.mark.parametrize("command", [["describe"], ["bounds", "--tau", "50"], ["scan"]])
    def test_group_filter_without_group_col_is_rejected_before_the_panel_is_read(
        self, tmp_path, capsys, command
    ):
        """The panel does not exist: reading it would exit 3."""
        argv = [command[0], str(tmp_path / "absent.csv"), *command[1:], "--group-filter", "fin"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --group-filter requires --group-col\n"

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        rc = main(["describe", str(tmp_path / "absent.csv")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_column_is_a_data_error(self, tmp_path, capsys):
        rc = main(["describe", write(tmp_path, "unit_id,time,outcome\nu1,1,2.0\n")])
        assert rc == 3
        assert "signal" in capsys.readouterr().err

    def test_bad_cell_reports_its_line(self, tmp_path, capsys):
        text = "unit_id,time,outcome,signal\nu1,1,2.0,10\nu2,1,oops,20\n"
        rc = main(["describe", write(tmp_path, text)])
        assert rc == 3
        assert "line 3" in capsys.readouterr().err

    def test_byte_order_mark_before_the_header_is_dropped(self, tmp_path, capsys):
        """Spreadsheet tools start a UTF-8 CSV with U+FEFF; both parsers drop it."""
        assert main(["describe", write(tmp_path, SMALL)]) == 0
        plain = capsys.readouterr().out
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + SMALL.encode())
        assert main(["describe", str(path)]) == 0
        assert capsys.readouterr().out == plain
        path.write_bytes(b"\xef\xbb\xbf" + SMALL.replace("u3,1,1.0", "u3,1,oops").encode())
        assert main(["describe", str(path)]) == 3
        assert "line 4: column 'outcome' has unparseable value 'oops'" in capsys.readouterr().err


class TestBounds:
    def test_stdout_at_the_jump(self, tmp_path, capsys):
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "55"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "threshold 55: n_treated=200 n_control=4100" in out
        assert "excludes zero: yes" in out

    def test_stdout_below_the_jump(self, tmp_path, capsys):
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "30"])
        assert rc == 0
        assert "excludes zero: no" in capsys.readouterr().out

    def test_json_matches_the_library_call(self, tmp_path):
        path = demo_csv(tmp_path)
        out = tmp_path / "bounds.json"
        rc = main(["bounds", path, "--tau", "55", "--method", "iid", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        panel = load_csv(path)
        stats = group_stats(panel, assign_treatment(panel, 55.0))
        band = compute_band(stats, "iid", 0.05)
        assert payload["result"]["band"]["lower"] == band.band_lower
        assert payload["result"]["band"]["upper"] == band.band_upper
        assert payload["result"]["region"]["lower"] == band.region_lower
        assert payload["result"]["excludes_zero"] == band.excludes_zero
        assert payload["metadata"]["command"] == "bounds"

    def test_every_method_runs(self, tmp_path):
        path = demo_csv(tmp_path)
        for method in ("naive", "manski-max", "manski-q05", "manski-q10", "iid", "mixing", "hybrid"):
            assert main(["bounds", path, "--tau", "40", "--method", method]) == 0

    def test_known_truncation_reaches_the_band(self, tmp_path):
        out = tmp_path / "bounds.json"
        rc = main([
            "bounds", demo_csv(tmp_path), "--tau", "40",
            "--truncation-lower", "0", "--truncation-upper", "20",
            "--json", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["result"]["support"]["source"] == "known"

    def test_upper_truncation_alone_is_rejected(self, tmp_path, capsys):
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "40", "--truncation-upper", "20"])
        assert rc == 2
        assert "truncation-lower" in capsys.readouterr().err

    def test_upper_truncation_alone_in_the_config_file_names_its_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"truncation": {"upper": 5}}')
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "40", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"config file {cfg}: truncation.upper requires truncation.lower" in err
        assert "--truncation" not in err

    def test_validation_exit_codes(self, tmp_path, capsys):
        path = write(tmp_path, SMALL)
        assert main(["bounds", path, "--tau", "40", "--alpha", "0"]) == 2
        assert main(["bounds", path, "--tau", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("tau", ["nan", "150", "0"])
    def test_bad_tau_is_rejected_before_the_panel_is_read(self, tmp_path, capsys, tau):
        """The panel does not exist: reading it would exit 3."""
        rc = main(["bounds", str(tmp_path / "absent.csv"), "--tau", tau])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: threshold {float(tau)} outside the open interval (0, 100)\n"
        )

    def test_infinite_outcome_is_a_data_error(self, tmp_path, capsys):
        text = SMALL.replace("u3,1,1.0,30", "u3,1,inf,30")
        rc = main(["bounds", write(tmp_path, text), "--tau", "40"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "line 4: column 'outcome' has non-finite value 'inf'" in captured.err
        assert captured.out == ""

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"unit_id,time,outcome,signal\n\xe9,1,1.5,40\n")
        proc = subprocess.run(
            [sys.executable, "-X", "utf8", "-m", "concate.cli", "describe", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(concate.__file__).resolve().parents[1])},
        )
        assert proc.returncode == 3
        assert proc.stderr == f"error: {path}: not readable as utf-8 text\n"

    def test_single_treated_observation_is_degenerate(self, tmp_path, capsys):
        rc = main(["bounds", write(tmp_path, SMALL), "--tau", "80"])
        assert rc == 4
        assert "error:" in capsys.readouterr().err


class TestBandConfig:
    def test_flags_beat_the_file_beat_the_defaults(self, tmp_path):
        path = demo_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c_alpha": 0.5}')

        def band_at(extra, name):
            out = tmp_path / name
            assert main(["bounds", path, "--tau", "40", "--json", str(out)] + extra) == 0
            return json.loads(out.read_text())["result"]["band"]

        file_only = band_at(["--config", str(cfg)], "a.json")
        file_and_flag = band_at(["--config", str(cfg), "--c-alpha", "0.25"], "b.json")
        flag_only = band_at(["--c-alpha", "0.25"], "c.json")
        default = band_at([], "d.json")
        assert file_and_flag == flag_only
        assert file_only != flag_only
        assert default != file_only
        assert default != flag_only

    def test_config_file_errors(self, tmp_path, capsys):
        path = write(tmp_path, SMALL)
        missing = str(tmp_path / "absent.json")
        assert main(["bounds", path, "--tau", "40", "--config", missing]) == 3
        bad_key = tmp_path / "bad.json"
        bad_key.write_text('{"c_omega": 1}')
        assert main(["bounds", path, "--tau", "40", "--config", str(bad_key)]) == 2
        not_dict = tmp_path / "list.json"
        not_dict.write_text("[1, 2]")
        assert main(["bounds", path, "--tau", "40", "--config", str(not_dict)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        ("knob", "message"),
        [
            (["--c-abs", "nan"], "c_abs must be a finite number, got nan"),
            (["--m-treated", "inf"], "mean_bound_treated must be a finite number, got inf"),
            (["--bernstein-c1", "nan"], "Bernstein constant c1 must be a finite number"),
            (["--long-run-var", "nan"], "long-run variance must be a finite number"),
            (["--truncation-lower=-inf"], "truncation lower limit must be a finite number"),
            ({"c_abs": "x"}, "c_abs must be a finite number, got 'x'"),
            ({"c_alpha": None}, "c_alpha must be a finite number, got None"),
            ({"c_alpha": True}, "c_alpha must be a finite number, got True"),
            ({"truncation": {"lower": "a"}}, "truncation lower limit must be a finite number"),
            ({"bernstein": [1]}, "bernstein config must be a JSON object"),
            ({"truncation": {"lowr": 0}}, "truncation config has unknown keys: ['lowr']"),
            ({"truncation": {"kind": "both", "lower": 0}}, "truncation config has unknown keys"),
            ({"bernstein": {"c9": 1}}, "bernstein config has unknown keys: ['c9']"),
            ({"foo": 1}, "has unknown keys: ['foo']"),
            (["--c-abs", "-1"], "c_abs must be positive"),
            ({"mean_bound_treated": -3}, "mean_bound_treated must be nonnegative"),
            ({"variance_mode": "pooled"}, "variance_mode must be one of"),
        ],
    )
    def test_bad_knobs_exit_2_under_every_method_before_the_panel_is_read(
        self, tmp_path, capsys, method, knob, message
    ):
        """The panel file does not exist: reading it would exit 3."""
        args = ["bounds", str(tmp_path / "absent.csv"), "--tau", "50", "--method", method]
        if isinstance(knob, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(knob))
            knob = ["--config", str(cfg)]
        assert main(args + knob) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_every_float_knob_has_exactly_one_flag_and_each_flag_sets_its_field(self):
        not_float = {"bernstein", "truncation", "variance_mode"}
        knobs = [(None, f.name) for f in dataclasses.fields(BandOptions) if f.name not in not_float]
        for section, cls in (("bernstein", BernsteinConstants), ("truncation", Truncation)):
            knobs += [(section, f.name) for f in dataclasses.fields(cls) if f.init]
        declared = [(section, name) for section, name, _, _ in BAND_FLAGS]
        assert sorted(declared, key=str) == sorted(knobs, key=str)
        parser = cli.build_parser()
        for i, (section, name, flag, _) in enumerate(BAND_FLAGS, start=1):
            argv = ["bounds", "p.csv", "--tau", "50", "--truncation-lower", "0", flag, str(i / 20)]
            options, _ = cli._resolve_band_options(parser.parse_args(argv))
            owner = options if section is None else getattr(options, section)
            assert getattr(owner, name) == i / 20


def truncation_split(n1, n0):
    """Arms of n1 treated and n0 control outcomes: treated in [-1, 3], control in [-0.5, 0.5]."""
    y = np.concatenate([1.0 + 2.0 * np.sin(np.arange(n1)), 0.5 * np.cos(np.arange(n0))])
    return split_arms(y, np.arange(n1 + n0) < n1)


TRUNCATIONS = {
    "none": Truncation(),
    "lower -10": Truncation(lower=-10.0),
    "lower 5": Truncation(lower=5.0),
    "both -10 10": Truncation(lower=-10.0, upper=10.0),
    "both -10 2.5": Truncation(lower=-10.0, upper=2.5),
}
ARM_SIZES = (0, 1, 2, 3, 30)


def band_outcome(n1, n0, method, truncation):
    """The 12 result fields the bands reported before the one result type,
    or the exception class and message."""
    try:
        options = BandOptions(truncation=truncation)
        band = compute_band(truncation_split(n1, n0), method, 0.05, options)
    except ConcateError as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = {name: getattr(band, name) for name in (
        "method", "alpha_u", "n_treated", "n_control", "region_lower", "region_upper",
        "band_lower", "band_upper", "se_lower", "se_upper")}
    for name in ("support", "paddings"):
        value = getattr(band, name)
        fields[name] = None if value is None else asdict(value)
    return json.dumps(fields, sort_keys=True)


def band_table():
    return {
        f"{n1},{n0},{method},{label}": band_outcome(n1, n0, method, truncation)
        for n1 in ARM_SIZES for n0 in ARM_SIZES if n1 + n0
        for method in METHODS for label, truncation in TRUNCATIONS.items()
    }

class TestTruncationPins:
    """Recorded before the band result types were merged into one.  The
    ``hybrid --truncation-upper 40`` digest and the 840-case table were
    re-recorded when the delta-method SE became one closed form (last-digit
    moves of SEs and band ends, at most 8 ulps of a band end) and the
    known-support reduction took two per arm for ``iid`` too (14 cases
    changed their error), and again when every arm-size error came to name
    its method (264 cases, error text only; the counts below)."""

    @pytest.mark.parametrize(
        ("method", "upper", "json_sha256"),
        [
            ("iid", [], "1aaa2633b0d4bfff5e2d7def40373687ac9a3eb0922255d1e69a1a75d184b48b"),
            ("iid", ["--truncation-upper", "40"],
             "15da2285b79435fe59fe1c461af81e0819ccf7ebc00440652a3902c08b7f479b"),
            ("mixing", [], "0dbedea8ac31225215d5e13ec86a60e5886fbd52b07d58876ca807cfb76c72db"),
            ("mixing", ["--truncation-upper", "40"],
             "faa590ff7101494b296b4c79c3cb265c3ec154d79fe7ba5a8dbda27dfaabca04"),
            ("hybrid", [], "dc4af890cfabc0804b33012a9a6b88bb80af3eb0e755a966b544ee74be148521"),
            ("hybrid", ["--truncation-upper", "40"],
             "1155934d7e208b32db47c50934209f073aaef3d636a20f842c463763fa57e360"),
        ],
    )
    def test_bounds_json_is_pinned(self, tmp_path, capsys, method, upper, json_sha256):
        report = tmp_path / "bounds.json"
        rc = main([
            "bounds", demo_csv(tmp_path), "--tau", "50", "--method", method,
            "--truncation-lower", "-5", *upper, "--json", str(report),
        ])
        assert rc == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha256
        capsys.readouterr()

    def test_every_split_method_and_truncation_is_pinned(self):
        table = band_table()
        assert len(table) == 840
        errors = Counter(v for v in table.values() if not v.startswith("{"))
        assert errors == {
            "ConfigurationError: third Bernstein term never reaches its budget for this configuration": 10,
            "DataError: known lower limit 5.0 exceeds the observed minimum -0.2080734182735712": 7,
            "DataError: known lower limit 5.0 exceeds the observed minimum -0.49998041319731856": 7,
            "DataError: known lower limit 5.0 exceeds the observed minimum -0.999980413101407": 10,
            "DataError: known lower limit 5.0 exceeds the observed minimum 0.2701511529340699": 7,
            "DataError: known lower limit 5.0 exceeds the observed minimum 0.5": 3,
            "DataError: known upper limit 2.5 is below the observed maximum 2.682941969615793": 9,
            "DataError: known upper limit 2.5 is below the observed maximum 2.8185948536513634": 9,
            "DataError: known upper limit 2.5 is below the observed maximum 2.9812147113897405": 9,
            "DegenerateArmError: hybrid needs at least 2 observations per arm": 35,
            "DegenerateArmError: hybrid needs both arms non-empty": 40,
            "DegenerateArmError: iid needs at least 2 observations per arm": 14,
            "DegenerateArmError: iid needs both arms non-empty": 40,
            "DegenerateArmError: manski-max needs at least 2 observations per arm": 7,
            "DegenerateArmError: manski-max needs both arms non-empty": 8,
            "DegenerateArmError: manski-q05 needs at least 2 observations per arm": 7,
            "DegenerateArmError: manski-q05 needs both arms non-empty": 8,
            "DegenerateArmError: manski-q10 needs at least 2 observations per arm": 7,
            "DegenerateArmError: manski-q10 needs both arms non-empty": 8,
            "DegenerateArmError: mixing needs at least 2 observations per arm": 35,
            "DegenerateArmError: mixing needs both arms non-empty": 40,
            "DegenerateArmError: naive needs at least 2 observations per arm": 7,
            "DegenerateArmError: naive needs both arms non-empty": 8,
            "ValidationError: truncation is only supported by ('iid', 'mixing', 'hybrid'), not 'manski-max'": 96,
            "ValidationError: truncation is only supported by ('iid', 'mixing', 'hybrid'), not 'manski-q05'": 96,
            "ValidationError: truncation is only supported by ('iid', 'mixing', 'hybrid'), not 'manski-q10'": 96,
            "ValidationError: truncation is only supported by ('iid', 'mixing', 'hybrid'), not 'naive'": 96,
        }
        digest = hashlib.sha256(json.dumps(table, sort_keys=True).encode()).hexdigest()
        assert digest == "817b1624078d3492c6e88c47824b40153f1b07720f074c6898628ca7d6b16547"

    def test_too_small_an_arm_is_reported_before_a_truncation_conflict(self):
        conflict = TRUNCATIONS["lower 5"]
        assert band_outcome(0, 30, "iid", conflict) == (
            "DegenerateArmError: iid needs both arms non-empty"
        )
        assert band_outcome(1, 30, "mixing", conflict) == (
            "DegenerateArmError: mixing needs at least 2 observations per arm"
        )
        assert band_outcome(1, 30, "hybrid", conflict) == (
            "DegenerateArmError: hybrid needs at least 2 observations per arm"
        )
        assert band_outcome(30, 0, "hybrid", conflict) == (
            "DegenerateArmError: hybrid needs both arms non-empty"
        )
        assert band_outcome(1, 30, "iid", conflict).startswith("DataError: known lower limit")

    def test_a_known_support_needs_two_per_arm_for_every_method(self):
        """The known-support reduction is the delta-method band, whose SEs
        need two observations per arm; iid's own minimum is one."""
        for label in ("both -10 10", "both -10 2.5"):
            for method in ("iid", "mixing"):
                assert band_outcome(1, 3, method, TRUNCATIONS[label]) == (
                    f"DegenerateArmError: {method} needs at least 2 observations per arm"
                )
            assert band_outcome(3, 1, "hybrid", TRUNCATIONS[label]) == (
                "DegenerateArmError: hybrid needs at least 2 observations per arm"
            )
        for label in ("none", "lower -10"):
            assert json.loads(band_outcome(1, 3, "iid", TRUNCATIONS[label]))["n_treated"] == 1

    @pytest.mark.parametrize("label", ["none", "lower -10", "both -10 10"])
    @pytest.mark.parametrize("method", METHODS)
    def test_each_method_and_truncation_kind_has_one_arm_minimum(self, method, label):
        """An empty arm, an arm one below the minimum and an arm at it, in
        either arm; a truncation the method cannot read is reported first."""
        need = 1 if method == "iid" and label != "both -10 10" else 2
        for short in (0, need - 1, need):
            for n1, n0 in ((short, 30), (30, short)):
                outcome = band_outcome(n1, n0, method, TRUNCATIONS[label])
                if label != "none" and method not in ("iid", "mixing", "hybrid"):
                    assert outcome.startswith("ValidationError: truncation is only supported")
                elif short == 0:
                    assert outcome == f"DegenerateArmError: {method} needs both arms non-empty"
                elif short < need:
                    assert outcome == (
                        f"DegenerateArmError: {method} needs at least {need} observations per arm"
                    )
                else:
                    assert not outcome.startswith(f"DegenerateArmError: {method} needs"), outcome

    def test_known_support_reports_zero_paddings_and_only_hybrid_an_se(self):
        for method in ("iid", "mixing", "hybrid"):
            fields = json.loads(band_outcome(30, 30, method, TRUNCATIONS["both -10 10"]))
            assert fields["support"]["source"] == "known"
            assert set(fields["paddings"].values()) == {0.0}
            assert (fields["se_lower"] is not None) == (method == "hybrid")


class TestScan:
    def test_stdout_reports_the_tipping_threshold(self, tmp_path, capsys):
        rc = main(["scan", demo_csv(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tipping threshold: 55 (positive)" in out
        assert "<-- excludes zero" in out
        assert out.count("skipped (treated arm below min_group") == 8

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", demo_csv(tmp_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,N0,N1,lower,upper,band_lower,band_upper,excludes_zero,skipped"
        assert len(lines) == 20
        assert lines[1] == "5,200,4100,-0.1293949323,1.234796486,-0.4858269203,1.620863879,false,false"
        assert lines[11].split(",")[7] == "true"
        assert lines[12] == "60,4300,0,,,,,,true"

    def test_json_payload(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main(["scan", demo_csv(tmp_path), "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["tipping_tau"] == 55.0
        assert payload["direction"] == "positive"
        assert payload["n_skipped"] == 8
        assert len(payload["rows"]) == 19
        skipped = [r for r in payload["rows"] if r["skipped"]]
        assert all("reason" in r and "band" not in r for r in skipped)

    def test_svg_is_valid_and_marks_skipped_thresholds(self, tmp_path):
        out = tmp_path / "scan.svg"
        rc = main(["scan", demo_csv(tmp_path), "--svg", str(out)])
        assert rc == 0
        text = out.read_text()
        root = ET.fromstring(text)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert text.count("&#215;") == 8

    def test_workers_do_not_change_any_output(self, tmp_path):
        path = demo_csv(tmp_path)
        for workers, tag in (("1", "a"), ("8", "b")):
            rc = main([
                "scan", path, "--workers", workers,
                "--out", str(tmp_path / f"{tag}.csv"),
                "--json", str(tmp_path / f"{tag}.json"),
                "--svg", str(tmp_path / f"{tag}.svg"),
            ])
            assert rc == 0
        for suffix in (".csv", ".json", ".svg"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path):
        path = demo_csv(tmp_path)
        for tag in ("first", "second"):
            assert main(["scan", path, "--out", str(tmp_path / f"{tag}.csv")]) == 0
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    def test_custom_grid_and_schedule(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main([
            "scan", demo_csv(tmp_path), "--grid", "30:55:25",
            "--alpha-schedule", "0.01,0.04", "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert [r["tau"] for r in payload["rows"]] == [30.0, 55.0]
        assert [r["alpha_u"] for r in payload["rows"]] == [0.01, 0.04]

    def test_all_skipped_grid_exits_degenerate(self, tmp_path, capsys):
        rc = main(["scan", demo_csv(tmp_path), "--grid", "60:95:5"])
        assert rc == 4
        assert "N/A" in capsys.readouterr().err

    def test_a_look_that_cannot_be_calibrated_is_skipped_not_fatal(self, tmp_path, capsys):
        """At alpha_u = 0.042 the mixing band's third Bernstein term never
        reaches its budget on an arm of 2; the eight looks before it stand."""
        rows = "".join(f"u{i},1,{(i * 7) % 5 + 0.5},{i + 0.5}\n" for i in range(60))
        path = write(tmp_path, "unit_id,time,outcome,signal\n" + rows)
        schedule = ",".join(["0.001"] * 8 + ["0.042"])
        rc = main(["scan", path, "--method", "mixing", "--min-group", "2", "--grid", "50:58:1",
                   "--alpha-schedule", schedule])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines[:9]] == [f"tau {t:>5}" for t in range(50, 59)]
        assert all(": band [" in line for line in lines[:8])
        assert lines[8] == (
            "tau    58: skipped (third Bernstein term never reaches its budget "
            "for this configuration)"
        )
        assert captured.err == ""

    def test_bad_schedule_text(self, tmp_path, capsys):
        path = demo_csv(tmp_path)
        for text in ("0.01,x", ""):
            rc = main(["scan", path, "--alpha-schedule", text])
            assert rc == 2
            assert "must be comma-separated numbers" in capsys.readouterr().err

    def test_non_finite_schedule_is_a_validation_error(self, tmp_path, capsys):
        path = demo_csv(tmp_path)
        out = tmp_path / "scan.json"
        for schedule in ("0.04,nan,0.5", "0.04,inf,0.01"):
            rc = main(["scan", path, "--grid", "55:65:5", "--alpha-schedule", schedule,
                       "--json", str(out)])
            assert rc == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_or_oversized_grid_is_a_validation_error(self, tmp_path, capsys):
        path = demo_csv(tmp_path)
        for spec in ("1:99:nan", "nan:99:1", "1:inf:1", "1:99:1e-9"):
            assert main(["scan", path, "--grid", spec]) == 2
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("method", "csv_sha256", "json_sha256", "svg_sha256"),
        [
            (
                "naive",
                "b94e0fb4d12f22919a8684034e308bc6d5a689a85d9192613d9239c941391a60",
                "56f9259e6a7eab2d4266cbade7f576a4e07db7b8fcc9e5b983ccb9c7aa374c3c",
                "632e628c837d4cde41f2546deb64d4f10b6e047fbc0d9a1be092c710ff155553",
            ),
            (
                "manski-max",
                "b288bed758d9c718803235f1d5dd077dd2688a579abb71c355ccb6d94f881e36",
                "a7d04f308ce2f55cbaa1f730aa338725b213643e7fa8bb2fe77128944742e9ae",
                "5911d4868aec8a7f90e3a59c429bb5b9727ae7138661c467581839d035d6e389",
            ),
            (
                "manski-q05",
                "fa2905609601db0610ad8cdfde3b2ed372d746277b33879f65e5ad52d2da0756",
                "5881a411be7aa7d127139217a5da0b7881a8827fab07e3764686d3e57f11bdf6",
                "17dfbe3d12e4c1ccf834384c0a08a4fc847675552c816b831c5adbe8ba5563a9",
            ),
            (
                "manski-q10",
                "7507efd0bb7419f340460a0da26d178d09b76d641c80c097c826e85558f47bf6",
                "54a8ed8ca36a776346bd4dd4446767d0e48579a2984a2044b30f502afea3c01c",
                "bad9f2f2a289a2e6dc1153cbd707d2c9d226675c615059f8f095a3fffc87bf37",
            ),
            (
                "iid",
                "ff4bc0862173f40b1270d21ddb32f96988538203ada6e09c3c8c4d939a7bba82",
                "e7bc63ddb47e40cfcd09b05226508ff35e303146b123fdb9d97454b6a400ac00",
                "03feca4391c4935e1bda70d31c70c39f2693ef1615b28b5b16be7d27b9168231",
            ),
            (
                "mixing",
                "1fecdc4022375170dc7be72ef663252d26182031ed49763b9feda904f44b16d7",
                "67c87e5f2f8d66bde5b978ff569cb9a804d7d533b805268e4b9ea9fa4a5fda3b",
                "afa59cba65de5fc5a9c834d161c2a638dcb707543452042331ef16383418ab9f",
            ),
            (
                "hybrid",
                "0693cd2b84a6ade68aaf4300d42f137ba1e8fdcb825a23bba6dd6721f2b339bd",
                "cab223b13e98398e47d442e44092d9379905952834f4ce8be9c7efc6542a7f7b",
                "a1cf495245d15f0084c4ee9e7659955430402aaa0304273e5efef00040e517fe",
            ),
        ],
    )
    def test_outputs_are_pinned(self, tmp_path, capsys, method, csv_sha256, json_sha256,
                                svg_sha256):
        """Digests recorded before the arm split sorted lazily and took the mean
        bound from the extrema; every method must reproduce all three files byte for byte.
        The JSON digests of ``manski-*`` and ``hybrid`` were re-recorded when the
        delta-method SE became one closed form: band ends moved by at most 16 ulps,
        below the CSV's and the SVG's precision."""
        out, report, chart = tmp_path / "scan.csv", tmp_path / "scan.json", tmp_path / "scan.svg"
        rc = main([
            "scan", demo_csv(tmp_path), "--method", method,
            "--out", str(out), "--json", str(report), "--svg", str(chart),
        ])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha256
        assert hashlib.sha256(chart.read_bytes()).hexdigest() == svg_sha256
        capsys.readouterr()

    def test_mixing_scan_with_row_by_row_signals_is_pinned(self, tmp_path, capsys):
        """Each row draws its own signal, so every look splits on a mask of
        short runs; digest recorded with the same pins as above."""
        path = tmp_path / "null.csv"
        write_panel_csv(make_null_panel(500, 4, seed=11), path)
        report = tmp_path / "scan.json"
        assert main(["scan", str(path), "--method", "mixing", "--json", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "c1e4b0e000b4f9514871534864cafa9bb87c49e3c15d95b374618ba436802868"
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("signal_per", "json_sha256"),
        [
            ("row", "46a69d89753f652784dd00eca1433bec0105c2e9672179cfed17f4b2159dc8b5"),
            ("unit", "38d22dbdd3d904de1945cc5b932cdfaa2462140e285c3995b920b9882a1e4698"),
        ],
    )
    def test_many_look_mixing_scan_is_pinned_on_both_mask_shapes(
        self, tmp_path, capsys, signal_per, json_sha256
    ):
        """199 looks of a returns-like panel.  A signal drawn per row flips
        the treatment mask every row or two; a signal held per unit leaves
        runs of 50 rows.  The serial-order arms feed the long-run variance,
        so both digests pin the order of the arms as well as their values.
        Recorded before the arm split gathered by index."""
        rng = np.random.default_rng(20261018)
        n_units, n_periods = 40, 50
        n = n_units * n_periods
        innov = rng.uniform(-0.25, 0.25, (n_units, n_periods))
        noise = np.empty_like(innov)
        noise[:, 0] = innov[:, 0]
        for t in range(1, n_periods):
            noise[:, t] = 0.5 * noise[:, t - 1] + innov[:, t]
        if signal_per == "row":
            signal = rng.uniform(1.0, 99.0, n)
        else:
            signal = np.repeat(rng.uniform(1.0, 99.0, n_units), n_periods)
        panel = concate.PanelDataset(
            unit=np.array([f"u{1 + i // n_periods}" for i in range(n)], dtype=object),
            time=np.array([1 + i % n_periods for i in range(n)], dtype=np.int64),
            outcome=np.where(signal >= 60.0, 1.0, 0.0) + noise.ravel(),
            signal=signal,
        )
        path, report = tmp_path / "returns.csv", tmp_path / "scan.json"
        write_panel_csv(panel, path)
        argv = ["scan", str(path), "--method", "mixing", "--grid", "0.5:99.5:0.5",
                "--json", str(report)]
        assert main(argv) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha256
        capsys.readouterr()

    @pytest.mark.parametrize("level", ["1000000.0", "-0.3", "-7.3"])
    def test_constant_outcome_never_crashes_a_method(self, tmp_path, capsys, level):
        """A constant outcome has a zero endpoint variance that can round
        below zero; the hybrid band used to fail on its square root."""
        rows = [f"u{i},1,{level},{(i * 37) % 100 + 0.5}" for i in range(200)]
        path = write(tmp_path, "unit_id,time,outcome,signal\n" + "\n".join(rows) + "\n")
        for method in METHODS:
            assert main(["scan", path, "--method", method, "--grid", "5:95:1"]) in (0, 4), method
        capsys.readouterr()

    def test_min_group_flag(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main(["scan", demo_csv(tmp_path), "--min-group", "300", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        skipped_taus = [r["tau"] for r in payload["rows"] if r["skipped"]]
        assert 55.0 in skipped_taus


class TestSimulate:
    def test_small_run_with_known_support_design(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        rc = main(["simulate", "--dgp", "g", "--T", "1", "--reps", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines() == [
            "dgp,N,method,coverage_pct,B,seed,redraws",
            "G,50,hybrid,100.00,5,0,0",
            "G,50,manski,100.00,5,0,0",
        ]
        assert "wrote" in capsys.readouterr().out

    def test_json_metadata_names_the_generator(self, tmp_path):
        out = tmp_path / "cov.csv"
        report = tmp_path / "cov.json"
        rc = main([
            "simulate", "--dgp", "A", "--T", "1", "--reps", "5",
            "--seed", "42", "--out", str(out), "--json", str(report),
        ])
        assert rc == 0
        meta = json.loads(report.read_text())["metadata"]
        assert meta["command"] == "simulate"
        assert meta["seed"] == 42
        assert meta["rng"] == RNG_DESCRIPTION
        cells = json.loads(report.read_text())["cells"]
        assert len(cells) == 1 and cells[0]["design"] == "A"

    def test_workers_do_not_change_the_output(self, tmp_path):
        for workers, tag in (("1", "a"), ("8", "b")):
            rc = main([
                "simulate", "--dgp", "A,G", "--T", "1,2", "--reps", "8",
                "--workers", workers,
                "--out", str(tmp_path / f"{tag}.csv"),
                "--json", str(tmp_path / f"{tag}.json"),
            ])
            assert rc == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "variant, csv_sha256, json_sha256",
        [
            (
                "plugin",
                "3095dc8b8cad1e8722e8b1e3aeaf957d2c5bae8c4a8508192f8f001770669141",
                "d3dec66af8b65f1570e896aa33d6907f726c1b56ad62213b046c67d1bcc48066",
            ),
            (
                "banded",
                "4e7ada8cf3b2fe93cefeff84abb2b249d154c45d83aa72b68e2a427ff1aa1259",
                "8390db70e0e78e5c576c8dd90c6a39c063f446d9f6612a5b83152c972b5fc7fa",
            ),
        ],
    )
    def test_outputs_are_pinned(self, tmp_path, capsys, variant, csv_sha256, json_sha256):
        """Digests recorded from the per-replication implementation; the
        batched statistics must reproduce both files byte for byte."""
        out, report = tmp_path / "cov.csv", tmp_path / "cov.json"
        rc = main([
            "simulate", "--dgp", "all", "--T", "1,2", "--reps", "200", "--seed", "7",
            "--manski-variant", variant, "--out", str(out), "--json", str(report),
        ])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_sha256
        capsys.readouterr()

    def test_five_period_autoregressive_outputs_are_pinned(self, tmp_path, capsys):
        """Digests recorded from the one-replication-at-a-time draws: pins
        the period-by-period AR(1) recursion of designs C and D at T = 5."""
        out, report = tmp_path / "cov.csv", tmp_path / "cov.json"
        rc = main([
            "simulate", "--dgp", "C,D", "--T", "5", "--reps", "200", "--seed", "7",
            "--out", str(out), "--json", str(report),
        ])
        assert rc == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "fbbb24601ca2dd10a7b3acbb2919aa79c4d23f8d4386b250b8f62d33869f2717")
        assert (hashlib.sha256(report.read_bytes()).hexdigest()
                == "b32a09a3e0c9111deacba998ea58237e0dac882a4d98478633382384aaa35e6c")
        capsys.readouterr()

    def test_validation_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        assert main(["simulate", "--dgp", "Z", "--reps", "5", "--out", out]) == 2
        assert main(["simulate", "--dgp", "A", "--T", "x", "--reps", "5", "--out", out]) == 2
        assert main(["simulate", "--dgp", "A", "--T", "1", "--reps", "0", "--out", out]) == 2
        assert main(["simulate", "--dgp", "A", "--T", "1", "--reps", "5",
                     "--alpha", "1.5", "--out", out]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, lists", [("--dgp", [",", "1"]), ("--T", ["A", ","])]
    )
    def test_an_empty_list_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, lists):
        out, report = tmp_path / "cov.csv", tmp_path / "cov.json"
        argv = ["simulate", "--dgp", lists[0], "--T", lists[1], "--reps", "1",
                "--out", str(out), "--json", str(report)]
        assert main(argv) == 2
        assert f"{flag} produced an empty list" in capsys.readouterr().err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seed", "-1"], "base_seed must be a non-negative integer"),
            (["--n", "3"], "at least 4 observations"),
            (["--n", "1"], "at least 4 observations"),
            (["--reps", "1000001"], "n_reps must lie in [1, 1,000,000]"),
            (["--dgp", "A,A"], "each design may appear once, repeated: ['A']"),
            (["--dgp", "a,A"], "each design may appear once, repeated: ['A']"),
            (["--T", "1,1"], "each period count may appear once, repeated: [1]"),
        ],
    )
    def test_runs_that_cannot_start_exit_2_before_drawing(self, tmp_path, capsys, argv, message):
        out = tmp_path / "cov.csv"
        args = ["simulate", "--dgp", "A", "--T", "1", "--reps", "5", "--out", str(out)]
        assert main(args + argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "consecutive draws" not in err
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize(
        ("error", "code"),
        [
            (ValidationError("bad knob"), 2),
            (ConfigurationError("bad knob"), 2),
            (DataError("bad knob"), 3),
            (SchemaError("bad knob"), 3),
            (RowError(7, "bad knob"), 3),
            (DegenerateArmError("bad knob"), 4),
            (EmptyScanError("bad knob"), 4),
        ],
    )
    def test_each_error_class_carries_its_exit_code(self, monkeypatch, capsys, error, code):
        def command(args):
            raise error

        monkeypatch.setattr(cli, "cmd_describe", command)
        assert main(["describe", "panel.csv"]) == code
        assert capsys.readouterr().err.startswith("error: ")


class TestFileErrors:
    """A path that cannot be read or written ends in one ``error:`` line."""

    @pytest.mark.parametrize("case", ["panel", "config", "out"])
    def test_a_directory_in_place_of_a_file_exits_3(self, tmp_path, capsys, case):
        argv = {
            "panel": ["bounds", str(tmp_path), "--tau", "40"],
            "config": ["bounds", demo_csv(tmp_path), "--tau", "40", "--config", str(tmp_path)],
            "out": ["scan", demo_csv(tmp_path), "--out", str(tmp_path)],
        }[case]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"c_alpha": "\xff"}')
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "40", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


def strict_json(path):
    """A report parsed as strict JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def scale_panel_csv(tmp_path, scale):
    """60 units over 3 periods whose outcome is ±(signal / 100 + U(0, 1))
    times ``scale``, written with every digit."""
    rng = np.random.default_rng(0)
    signal = rng.uniform(0.0, 100.0, 180).round(2)
    outcome = (signal / 100.0 + rng.uniform(0.0, 1.0, 180)) * rng.choice([-1.0, 1.0], 180)
    path = tmp_path / f"scale_{scale:g}.csv"
    path.write_text("unit_id,time,outcome,signal\n" + "".join(
        f"u{i // 3},{i % 3 + 1},{y * scale!r},{x!r}\n"
        for i, (y, x) in enumerate(zip(outcome.tolist(), signal.tolist()))
    ))
    return str(path)


class TestJsonReports:
    """Every report is strict JSON: what cannot be computed is null."""

    @pytest.mark.parametrize("command", ["describe", "bounds", "scan", "simulate"])
    def test_demo_reports_are_strict_json(self, tmp_path, capsys, command):
        path, out = demo_csv(tmp_path), tmp_path / "report.json"
        argv = {
            "describe": ["describe", path, "--rolling", str(tmp_path / "rolling.csv")],
            "bounds": ["bounds", path, "--tau", "55"],
            "scan": ["scan", path],
            "simulate": ["simulate", "--dgp", "A,F", "--T", "1,2", "--reps", "20",
                         "--out", str(tmp_path / "coverage.csv")],
        }[command]
        assert main(argv + ["--json", str(out)]) == 0
        capsys.readouterr()
        assert strict_json(out)["metadata"]["command"] == command

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_describe_far_from_unit_scale(self, tmp_path, capsys, scale):
        """The outcome's sum of squares would overflow (1e200) or vanish
        (1e-200) unless the statistics rescale it."""
        out, rolling = tmp_path / "report.json", tmp_path / "rolling.csv"
        path = scale_panel_csv(tmp_path, scale)
        assert main(["describe", path, "--json", str(out), "--rolling", str(rolling)]) == 0
        capsys.readouterr()
        got = strict_json(out)["variables"]["outcome"]
        want = summary_stats(load_csv(scale_panel_csv(tmp_path, 1.0)).outcome)
        assert got["sd"] == pytest.approx(want.sd * scale, rel=1e-12)
        for name in ("skewness", "kurtosis"):
            assert got[name] == pytest.approx(getattr(want, name), rel=1e-12)
        unit = rolling_correlation(load_csv(scale_panel_csv(tmp_path, 1.0)), 2)
        rows = [line.split(",") for line in rolling.read_text().splitlines()[1:]]
        assert [int(t) for t, _, _ in rows] == [t for t, _ in unit]
        assert [r for _, r, _ in rows] == [f"{u:.10g}" for _, u in unit]


class TestUnusableBands:
    """A band with a non-finite end, or Bernstein terms that overflow a
    float, is never reported: ``bounds`` fails with one error line and
    ``scan`` skips the look with its reason."""

    def test_bounds_with_a_non_finite_band_exits_4(self, tmp_path, capsys):
        rc = main(["bounds", demo_csv(tmp_path), "--method", "mixing", "--tau", "50",
                   "--c-alpha", "1e308"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "error: mixing band has a non-finite end\n"
        assert "nan" not in captured.out

    @pytest.mark.parametrize("flag", [("--bernstein-gamma", "0.999999"),
                                      ("--bernstein-c1", "1e300")])
    def test_bounds_with_overflowing_bernstein_terms_exits_2(self, tmp_path, capsys, flag):
        rc = main(["bounds", demo_csv(tmp_path), "--method", "mixing", "--tau", "50", *flag])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: weak-dependence Bernstein terms overflow for this configuration\n"
        )

    @pytest.mark.parametrize(
        ("flag", "reason"),
        [
            (("--long-run-var", "1e303"), "mixing band has a non-finite end"),
            (("--bernstein-c1", "3e152"),
             "weak-dependence Bernstein terms overflow for this configuration"),
        ],
    )
    def test_scan_skips_the_unusable_look_and_gives_the_reason(self, tmp_path, capsys, flag,
                                                                reason):
        """The first look spends almost nothing, so only its terms blow up."""
        report = tmp_path / "scan.json"
        rc = main(["scan", demo_csv(tmp_path), "--method", "mixing", "--grid", "30:50:20",
                   "--alpha-schedule", "1e-300,0.05", *flag, "--json", str(report)])
        assert rc == 0
        text = report.read_text()
        assert "NaN" not in text and "Infinity" not in text
        first, second = json.loads(text)["rows"]
        assert first["skipped"] and first["reason"] == reason
        assert not second["skipped"]
        assert f"tau    30: skipped ({reason})" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["hybrid", "manski-max"])
    def test_scan_skips_a_look_whose_normal_quantile_is_infinite(self, tmp_path, capsys, method):
        """At a per-look level of 1e-300, 1 - alpha_u / 2 rounds to 1."""
        report = tmp_path / "scan.json"
        rc = main(["scan", demo_csv(tmp_path), "--method", method, "--grid", "30:50:20",
                   "--alpha-schedule", "1e-300,0.05", "--json", str(report)])
        assert rc == 0
        first, second = json.loads(report.read_text())["rows"]
        reason = "normal quantile needs a level p in (0, 1), got 1.0"
        assert first["skipped"] and first["reason"] == reason
        assert not second["skipped"]
        assert f"tau    30: skipped ({reason})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, reason",
        [
            (("--long-run-var", "1e308"), "mixing band has a non-finite end"),
            (("--bernstein-gamma", "0.999999"),
             "weak-dependence Bernstein terms overflow for this configuration"),
            (("--bernstein-c1", "1e300"),
             "weak-dependence Bernstein terms overflow for this configuration"),
        ],
    )
    def test_scan_with_every_look_unusable_exits_4(self, tmp_path, capsys, flag, reason):
        """The eleven looks below 60 fail on the flag; the eight above it
        have an empty treated arm."""
        report = tmp_path / "scan.json"
        rc = main(["scan", demo_csv(tmp_path), "--method", "mixing", *flag,
                   "--json", str(report)])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: N/A: every threshold on the grid was skipped; most common reason, "
            f"on 11 of 19 looks: {reason}\n"
        )
        assert not report.exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert concate.__version__ in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_simulate_requires_an_output_path(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--dgp", "G", "--reps", "5"])
        assert err.value.code == 2
        capsys.readouterr()


def test_a_rolling_describe_loads_no_scipy(tmp_path):
    """The rolling Kendall tau-b is counted in numpy."""
    path = demo_csv(tmp_path)
    code = (
        "import sys; from concate.cli import main; "
        f"rc = main(['describe', {path!r}, '--rolling', {str(tmp_path / 'r.csv')!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(concate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "r.csv").read_text().count("\n") == 4


def test_importing_the_cli_loads_no_scipy():
    """Nor numpy.random: only the coverage experiment builds generators.  Nor
    xml, urllib.request, multiprocessing, concurrent.futures or logging: the
    chart escapes with html and only a pooled scan or coverage table starts
    threads or processes."""
    code = (
        "import sys, concate.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'xml', 'logging') "
        "or m.startswith(('numpy.random', 'urllib.request', 'multiprocessing', "
        "'concurrent.futures'))))"
    )
    src = str(Path(concate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "[]"
