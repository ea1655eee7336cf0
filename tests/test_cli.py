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
from concate import cli, montecarlo
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
from concate.panel import (
    SummaryStats,
    assign_treatment,
    load_csv,
    rolling_correlation,
    summary_stats,
)

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


def demo_csv(tmp_path, shift=0.0):
    """The demo panel as a CSV, with ``shift`` added to every outcome."""
    demo = make_tipping_demo_panel()
    path = tmp_path / ("demo.csv" if shift == 0.0 else f"demo{shift:+g}.csv")
    write_panel_csv(dataclasses.replace(demo, outcome=demo.outcome + shift), path)
    return str(path)


def constant_csv(tmp_path, scale):
    """200 one-period units with the outcome -7.3 * scale in every row,
    written at full precision."""
    signal = np.random.default_rng(0).uniform(0.0, 100.0, 200).tolist()
    rows = [f"u{i},1,{-7.3 * scale!r},{s!r}" for i, s in enumerate(signal)]
    return write(tmp_path, "unit_id,time,outcome,signal\n" + "\n".join(rows) + "\n")


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

    def test_header_lists_the_summary_fields_in_declaration_order(self, tmp_path, capsys):
        assert main(["describe", write(tmp_path, SMALL)]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        names = [f.name for f in dataclasses.fields(SummaryStats)]
        # each column abbreviates its field ("min" for "minimum"), one for one
        assert header[0] == "variable" and len(header) == 1 + len(names)
        assert all(name.startswith(column) for column, name in zip(header[1:], names))

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

    def describe_json(self, tmp_path, panel, *flags):
        """The bytes of ``describe --json`` on ``panel`` with ``flags``."""
        report = tmp_path / "report.json"
        assert main(["describe", panel, *flags, "--json", str(report)]) == 0
        return report.read_bytes()

    def test_config_hash_does_not_depend_on_the_spelling_of_the_path(
        self, tmp_path, capsys, monkeypatch
    ):
        demo_csv(tmp_path)
        (tmp_path / "a").mkdir()
        monkeypatch.chdir(tmp_path)
        spellings = ["demo.csv", "./a/../demo.csv", str(tmp_path / "demo.csv")]
        reports = {self.describe_json(tmp_path, path) for path in spellings}
        assert len(reports) == 1
        capsys.readouterr()

    def test_the_default_and_an_explicit_window_of_two_report_alike(self, tmp_path, capsys):
        """The demo panel has four periods, so the default window is 2."""
        path, rolling = demo_csv(tmp_path), ["--rolling", str(tmp_path / "rolling.csv")]
        default = self.describe_json(tmp_path, path, *rolling)
        assert self.describe_json(tmp_path, path, *rolling, "--window", "2") == default
        capsys.readouterr()

    def test_a_rolling_run_and_a_plain_run_hash_apart(self, tmp_path, capsys):
        path = demo_csv(tmp_path)

        def config_hash(*flags):
            return json.loads(self.describe_json(tmp_path, path, *flags))["metadata"]["config_hash"]

        rolling = config_hash("--rolling", str(tmp_path / "rolling.csv"))
        assert config_hash() != rolling
        capsys.readouterr()

    def test_a_window_without_rolling_is_not_hashed(self, tmp_path, capsys):
        path = demo_csv(tmp_path)
        plain = self.describe_json(tmp_path, path)
        assert self.describe_json(tmp_path, path, "--window", "3") == plain
        capsys.readouterr()

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

    @pytest.mark.parametrize(("to_file", "sha256"), [
        (False, "6889de68c2eedc043d87137c77ea864160fe88ecf47c9b095cbd63cb62268442"),
        (True, "01046e1e53f9018e47404215961280f2ad2cea47776aa8565a672b9010e236df"),
    ], ids=["stdout", "out"])
    def test_summary_is_pinned(self, tmp_path, capsys, to_file, sha256):
        """The demo's summary table, on stdout (with the counts line) or in
        the ``--out`` CSV; recorded before the two were written by one writer."""
        out = tmp_path / "summary.csv"
        flags = ["--out", str(out)] if to_file else []
        assert main(["describe", demo_csv(tmp_path), *flags]) == 0
        written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert hashlib.sha256(written).hexdigest() == sha256

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

    def test_a_negative_limit_in_exponent_form_is_given_with_equals(self, tmp_path):
        """argparse reads a bare ``-1e3`` as an option; ``=`` attaches it to the flag."""
        path, reports = demo_csv(tmp_path), []
        for limit in (["--truncation-lower=-1e3"], ["--truncation-lower", "-1000"]):
            out = tmp_path / f"bounds{len(reports)}.json"
            rc = main(["bounds", path, "--tau", "50", "--method", "iid", *limit,
                       "--json", str(out)])
            assert rc == 0
            reports.append(json.loads(out.read_text()))
        support = reports[0]["result"]["support"]
        assert support["lower_treated"] == support["lower_control"] == -1000.0
        assert reports[0] == reports[1]

    def test_a_known_lower_limit_below_zero_leaves_the_band_around_its_region(
        self, tmp_path, capsys
    ):
        """The limit -100 enters the paper's formula as a support factor below
        zero.  Evaluated from that zero, the band was [-106.485, -3.69654],
        outside its region at both ends, and excluded zero."""
        out = tmp_path / "bounds.json"
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "55", "--method", "mixing",
                   "--truncation-lower", "-100", "--json", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "identified interval: [-104.527, 13.5934]" in stdout
        assert "mixing band (alpha=0.05): [-163.648, 53.4661]" in stdout
        assert "excludes zero: no" in stdout
        result = json.loads(out.read_text())["result"]
        region, band = result["region"], result["band"]
        assert band["lower"] <= region["lower"] <= region["upper"] <= band["upper"]

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

    @pytest.mark.parametrize("method", ["manski-max", "naive"])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e100])
    def test_a_constant_outcome_has_no_band_narrower_than_its_rounding(
        self, tmp_path, capsys, scale, method
    ):
        rc = main(["bounds", constant_csv(tmp_path, scale), "--tau", "50", "--method", method])
        assert rc == 4
        assert capsys.readouterr().err == (
            f"error: {method} band is no wider than the rounding of its outcomes\n"
        )

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
            ({"variance_mode": "pooled"}, "has unknown keys: ['variance_mode']"),
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

    def test_a_config_integer_is_the_flag_float(self, tmp_path):
        path, cfg = demo_csv(tmp_path), tmp_path / "cfg.json"
        cfg.write_text('{"c_alpha": 3}')
        reports = []
        for name, extra in (("file.json", ["--config", str(cfg)]), ("flag.json", ["--c-alpha", "3"])):
            out = tmp_path / name
            assert main(["bounds", path, "--tau", "40", "--json", str(out)] + extra) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0] == reports[1]

    def test_a_config_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"c_alpha": 1' + "0" * 400 + "}")
        args = ["bounds", str(tmp_path / "absent.csv"), "--tau", "50", "--config", str(cfg)]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: c_alpha must be a finite number, got inf\n"

    @pytest.mark.parametrize("command", [["scan"], ["bounds", "--tau", "55"]])
    def test_the_group_filter_is_hashed(self, tmp_path, capsys, command):
        """The demo's rows labelled ``growth`` and ``cyclical`` in turn: two
        filters run two sub-panels and hash apart, one filter twice writes
        one report, as for ``describe``."""
        demo = make_tipping_demo_panel()
        group = np.array(["growth", "cyclical"] * (demo.n // 2), dtype=object)
        path = tmp_path / "grouped.csv"
        write_panel_csv(dataclasses.replace(demo, group=group), path)
        reports = []
        for i, name in enumerate(("growth", "cyclical", "growth")):
            report = tmp_path / f"report{i}.json"
            assert main([command[0], str(path), *command[1:], "--group-col", "group",
                         "--group-filter", name, "--json", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[2]
        first, second = (json.loads(r)["metadata"]["config_hash"] for r in reports[:2])
        assert first != second
        capsys.readouterr()

    def test_the_variance_mode_flag_is_gone(self, tmp_path, capsys):
        """``naive`` is always the Welch band: no flag selects its variance."""
        with pytest.raises(SystemExit) as err:
            main(["bounds", demo_csv(tmp_path), "--tau", "55", "--method", "naive",
                  "--variance-mode", "welch"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "unrecognized arguments: --variance-mode welch" in stderr
        assert "Traceback" not in stderr

    def test_every_float_knob_has_exactly_one_flag_and_each_flag_sets_its_field(self):
        not_float = {"bernstein", "truncation"}
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
    the method, the level and the arm sizes taken from the call, or the
    exception class and message."""
    try:
        options = BandOptions(truncation=truncation)
        stats = truncation_split(n1, n0)
        band = compute_band(stats, method, 0.05, options)
    except ConcateError as exc:
        return f"{type(exc).__name__}: {exc}"
    fields = {"method": method, "alpha_u": 0.05, "n_treated": stats.n_treated,
              "n_control": stats.n_control}
    fields |= {name: getattr(band, name) for name in (
        "region_lower", "region_upper", "band_lower", "band_upper", "se_lower", "se_upper")}
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
    its method (264 cases, error text only; the counts below).  The JSON
    digests were re-recorded when the resolved configuration lost its
    ``variance_mode`` key: only ``metadata.config_hash`` moved.  The ``iid``
    and ``mixing`` digests without a known upper limit and the table were
    re-recorded when those two bands came to evaluate the paper's formula
    from the data's own origin: both bounds reports still include zero, and
    14 table cases whose band escaped its region (or was inverted) and so
    excluded zero now contain it; no error changed.  The JSON digests were
    re-recorded again when the configuration hash took in the group filter:
    only ``metadata.config_hash`` moved."""

    @pytest.mark.parametrize(
        ("method", "upper", "json_sha256"),
        [
            ("iid", [], "320d3e3afb6ab92a09b329167ecdc768389c331c853faac507a1aa3fd834429f"),
            ("iid", ["--truncation-upper", "40"],
             "4aac9cbeb06b38bacba9ad7f845561440b0cefa7ab47022b7bcabe64155a9b73"),
            ("mixing", [], "9aeed96b9dfb8931f84d4a6a273c5dad2f0a267d170d8d6f2dc522e8368ec2f3"),
            ("mixing", ["--truncation-upper", "40"],
             "af888e5ad8a97f1112ebf72ccbba61c7702dd3baeb1fdf8d7344d5324ee7a196"),
            ("hybrid", [], "e88256ba80dbe0b5d5ffcc7e259240c8d1de8827199174b1946ea22fa090965e"),
            ("hybrid", ["--truncation-upper", "40"],
             "9d7e89561093371481209b5bc7202a8801d11725af30845e86c6218be6b11b88"),
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

    @pytest.mark.parametrize(("method", "json_sha256"), [
        ("naive", "9f5e1f67eb1aa86fb5f50dcc3aebe95729799a6877e98248a843b4a3f0c0426f"),
        ("manski-max", "83f109febe3725dde0c78b09e18f36a32f1006ac6790a3eb5db2825837b9866e"),
        ("manski-q05", "89e3baa14c1d680fd308d582f9536dfc3df4938b85a424f869f944024bf7e36c"),
        ("manski-q10", "220d32c8006ad4977aa7e063ff0bcd7aadc09cef01d37c058abbe7c3824337ed"),
    ])
    def test_wald_band_bounds_json_is_pinned(self, tmp_path, capsys, method, json_sha256):
        """The four methods that take no truncation, at the demo's jump;
        recorded before ``BandResult`` lost its normal multiplier, and
        re-recorded when the configuration hash took in the group filter:
        only ``metadata.config_hash`` moved."""
        report = tmp_path / "bounds.json"
        rc = main(["bounds", demo_csv(tmp_path), "--tau", "55", "--method", method,
                   "--json", str(report)])
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
        assert digest == "7a990f21b78e6fa6769067ce36c02c373a42a62dba18d3de6c6a7b7b4c9b95b2"

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

    def test_the_grid_is_hashed_as_thresholds_not_as_typed(self, tmp_path, capsys):
        """Three spellings of the default grid, and no ``--grid`` at all,
        run the same 19 looks and so write the same report."""
        path, reports = demo_csv(tmp_path), []
        for i, grid in enumerate((None, "5:95:5", "5.0:95:5", "5:95:5.0")):
            report = tmp_path / f"scan{i}.json"
            flags = [] if grid is None else ["--grid", grid]
            assert main(["scan", path, *flags, "--json", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[1:] == reports[:1] * 3
        capsys.readouterr()

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
        for text, message in (("0.01,x", "must be comma-separated numbers"),
                              ("", "--alpha-schedule produced an empty list")):
            rc = main(["scan", path, "--alpha-schedule", text])
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_blank_schedule_entries_are_skipped_like_the_other_lists(self, tmp_path):
        """A trailing comma or an empty entry is read as --dgp and --T read it."""
        path, reports = demo_csv(tmp_path), []
        for text in ("0.01,0.04", "0.01,0.04,", "0.01,,0.04", " 0.01 , 0.04 "):
            out = tmp_path / f"scan{len(reports)}.json"
            rc = main(["scan", path, "--grid", "30:55:25",
                       "--alpha-schedule", text, "--json", str(out)])
            assert rc == 0
            payload = json.loads(out.read_text())
            assert [r["alpha_u"] for r in payload["rows"]] == [0.01, 0.04]
            reports.append(payload)
        assert all(r == reports[0] for r in reports)

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
                "4a98b148db4be12f090ad253a6df09fde623d0b1f3502cbe8217d74f410413a0",
                "632e628c837d4cde41f2546deb64d4f10b6e047fbc0d9a1be092c710ff155553",
            ),
            (
                "manski-max",
                "b288bed758d9c718803235f1d5dd077dd2688a579abb71c355ccb6d94f881e36",
                "bae0e947e45e68255e7c1611162f24841da3b66d71d03b34fd6e5afd210a4be9",
                "5911d4868aec8a7f90e3a59c429bb5b9727ae7138661c467581839d035d6e389",
            ),
            (
                "manski-q05",
                "fa2905609601db0610ad8cdfde3b2ed372d746277b33879f65e5ad52d2da0756",
                "835d34b7c60783c1ae34c0348ba2ec021e54b55b1a4f7ed57db863770868dabf",
                "17dfbe3d12e4c1ccf834384c0a08a4fc847675552c816b831c5adbe8ba5563a9",
            ),
            (
                "manski-q10",
                "7507efd0bb7419f340460a0da26d178d09b76d641c80c097c826e85558f47bf6",
                "5131edf45cf39320c820220bffb75b290f497348b5a1e44e1b5d375adaa65592",
                "bad9f2f2a289a2e6dc1153cbd707d2c9d226675c615059f8f095a3fffc87bf37",
            ),
            (
                "iid",
                "518fe9de8fff8d2b60809c596ae484a7a787ab827c94d33a5c2b3b40d8b6ba0b",
                "5148365a020e1a33a4bdb05cd167ea402d943c4dddf8cf930e52b950688bf613",
                "c97a4ab6b8cdc618a7da48ddff519581728a697cc019a79aa6ed95aeb8a4e993",
            ),
            (
                "mixing",
                "7ff38c7dcff9de1d2a13a0a6e9536ca0e3ddca544a4b096a26502964584339ad",
                "eb8a1b0a7abad05bef7cd5c1becfbc93d114bf2cb4c6c5f0962ff69869ad1075",
                "d0e95e83c97ce5dbc2f4676ebea7bd450391b95b3ae435f5bb682c0da5d6babb",
            ),
            (
                "hybrid",
                "0693cd2b84a6ade68aaf4300d42f137ba1e8fdcb825a23bba6dd6721f2b339bd",
                "3ffe3d60d9ee41d8888797f8ade731a8104949277f5e50b08f0e6e8dcfb5d464",
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
        below the CSV's and the SVG's precision.  Every JSON digest was re-recorded
        when the resolved configuration lost its ``variance_mode`` key: only
        ``metadata.config_hash`` moved.  The ``iid`` and ``mixing`` digests were
        re-recorded when those bands came to be evaluated from the data's own
        origin: ``iid`` keeps tau = 55 as its one look excluding zero, and
        ``mixing`` now excludes zero at tau = 55 too, where it had no tipping
        threshold; no skip changed.  Every JSON digest was re-recorded when
        the configuration hash came to take the thresholds, not the grid as
        typed, and the group filter: only ``metadata.config_hash`` moved."""
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

    @pytest.mark.parametrize(
        ("shape", "svg_sha256"),
        [
            ("one look", "cb815d730d54b82d95f797b535cb271a96eb5560d9004c08d439749d9dcf5f4b"),
            ("shifted", "a1cf495245d15f0084c4ee9e7659955430402aaa0304273e5efef00040e517fe"),
            ("skip between", "3c2b2f7d62ec07ba70b3d36d9b8777f120546a3451360858b8e8adc2d85d8064"),
        ],
    )
    def test_charts_beyond_the_demo_shape_are_pinned(self, tmp_path, capsys, shape, svg_sha256):
        """``hybrid`` charts recorded before the chart writer emitted each element
        through one helper: a one-look grid, whose threshold axis has no width;
        the demo shifted by -40, whose ATE axis is the demo's, so its digest is
        the demo's; and a level of 1e-300 at tau = 50, whose look is skipped
        between two retained ones."""
        argv = {
            "one look": ["scan", demo_csv(tmp_path), "--grid", "50:50:1"],
            "shifted": ["scan", demo_csv(tmp_path, -40.0)],
            "skip between": ["scan", demo_csv(tmp_path), "--alpha-schedule",
                             ",".join("1e-300" if tau == 50 else str(0.05 / 18)
                                      for tau in range(5, 100, 5))],
        }[shape]
        chart = tmp_path / "scan.svg"
        assert main([*argv, "--svg", str(chart)]) == 0
        assert hashlib.sha256(chart.read_bytes()).hexdigest() == svg_sha256
        if shape == "skip between":
            assert "tau    50: skipped (normal quantile" in capsys.readouterr().out
            assert chart.read_text().count("&#215;") == 9
        capsys.readouterr()

    def test_the_demo_shifted_by_minus_40_keeps_every_decision(self, tmp_path, capsys):
        """The ATE is a difference, so no decision may move with the outcome's
        origin.  While ``iid`` and ``mixing`` evaluated the paper's formula
        from the outcome's zero, the shifted demo gave both a tipping
        threshold of 5, with 11 looks excluding zero."""
        paths = demo_csv(tmp_path), demo_csv(tmp_path, -40.0)
        for method in METHODS:
            decisions = []
            for path in paths:
                report = tmp_path / "scan.json"
                assert main(["scan", path, "--method", method, "--json", str(report)]) == 0
                payload = json.loads(report.read_text())
                rows = [r.get("reason") or r["band"]["excludes_zero"] for r in payload["rows"]]
                decisions.append((payload["tipping_tau"], payload["direction"], rows))
            assert decisions[0] == decisions[1], method
            assert decisions[0][0] == (5.0 if method == "naive" else 55.0), method
        capsys.readouterr()

    @pytest.mark.parametrize("scale", [1e-12, 1e-200])
    def test_the_y_ticks_do_not_depend_on_the_outcome_scale(self, tmp_path, capsys, scale):
        """Ticks used to be kept within an absolute 1e-12 of the axis and
        rounded to 10 decimals, so at 1e-12 every label read 0 at one y."""
        demo = make_tipping_demo_panel()
        rows = [f"{u},{t},{float(y) * scale!r},{float(s)!r}\n"
                for u, t, y, s in zip(demo.unit, demo.time, demo.outcome, demo.signal)]
        path, chart = tmp_path / "scaled.csv", tmp_path / "scan.svg"
        path.write_text("unit_id,time,outcome,signal\n" + "".join(rows))
        assert main(["scan", str(path), "--method", "manski-max", "--svg", str(chart)]) == 0
        ticks = [(e.get("y"), e.text) for e in ET.parse(chart).getroot()
                 if e.tag.endswith("text") and e.get("text-anchor") == "end"]
        ys, labels = [y for y, _ in ticks], [float(text) for _, text in ticks]
        assert len(set(ys)) == len(set(labels)) == len(ticks) >= 4
        assert 0.0 in labels and max(labels) < 100.0 * scale
        capsys.readouterr()

    def test_no_y_tick_reads_minus_zero(self, tmp_path, capsys):
        path, chart = tmp_path / "null.csv", tmp_path / "scan.svg"
        write_panel_csv(make_null_panel(300, 4, seed=3), path)
        assert main(["scan", str(path), "--method", "naive", "--grid", "5:95:5",
                     "--svg", str(chart)]) == 0
        text = chart.read_text()
        assert ">0</text>" in text and ">-0</text>" not in text
        capsys.readouterr()

    def test_a_period_by_period_file_scans_as_the_unit_by_unit_one(self, tmp_path, capsys):
        """The demo's rows sorted by (time, unit): rows are put back in serial
        order on load, so every method writes the same CSV, JSON and stdout."""
        unit_major = Path(demo_csv(tmp_path))
        header, *rows = unit_major.read_text().splitlines(keepends=True)
        quarter_major = tmp_path / "quarter.csv"
        by_period = sorted(rows, key=lambda row: (int(row.split(",")[1]), row))
        quarter_major.write_text(header + "".join(by_period))
        assert quarter_major.read_text() != unit_major.read_text()
        for method in METHODS:
            outputs = []
            for path in (unit_major, quarter_major):
                out, report = tmp_path / f"{path.stem}_scan.csv", tmp_path / f"{path.stem}.json"
                assert main(["scan", str(path), "--method", method,
                             "--out", str(out), "--json", str(report)]) == 0
                outputs.append((out.read_bytes(), report.read_bytes(), capsys.readouterr()))
            assert outputs[0] == outputs[1], method

    def test_mixing_scan_with_row_by_row_signals_is_pinned(self, tmp_path, capsys):
        """Each row draws its own signal, so every look splits on a mask of
        short runs; digest recorded and re-recorded with the same pins as above,
        and re-recorded with the ``iid``/``mixing`` pins: no look excludes zero
        before or after, and no skip changed.  Re-recorded with the hashed
        thresholds and group filter too: only ``metadata.config_hash`` moved."""
        path = tmp_path / "null.csv"
        write_panel_csv(make_null_panel(500, 4, seed=11), path)
        report = tmp_path / "scan.json"
        assert main(["scan", str(path), "--method", "mixing", "--json", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "337fc6613170b378a495371e9a4988401836591e01510db8bdf2bbb9940e3d34"
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("signal_per", "json_sha256"),
        [
            ("row", "5b2063989d7b44b224ef24d05ce67132043a098939d6499c50a63256396e212f"),
            ("unit", "33388ed114d4a5bd099ca578ae19ccf1b3a603a4b7f22bcd9519dfce0e4012ec"),
        ],
    )
    def test_many_look_mixing_scan_is_pinned_on_both_mask_shapes(
        self, tmp_path, capsys, signal_per, json_sha256
    ):
        """199 looks of a returns-like panel.  A signal drawn per row flips
        the treatment mask every row or two; a signal held per unit leaves
        runs of 50 rows.  The serial-order arms feed the long-run variance,
        so both digests pin the order of the arms as well as their values.
        Recorded before the arm split gathered by index; re-recorded when only
        ``metadata.config_hash`` moved, as above, and with the ``iid``/``mixing``
        pins: the 11 looks (row) and 2 looks (unit) that excluded zero, with
        tipping thresholds 2 (negative) and 92 (positive), were bands outside
        their own region; now none excludes zero, and no skip changed.
        Re-recorded with the hashed thresholds and group filter too: only
        ``metadata.config_hash`` moved."""
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

    @pytest.mark.parametrize(("method", "body_sha256"), [
        ("naive", "742037001aea226cc204b7867bef0f217001ff94a090c7984e790a9f245d3125"),
        ("manski-max", "a266d34bf40f698bbc1007672d0d1fc7bb4ba137781a0e2e291fc073d15be61d"),
        ("manski-q05", "eb543a7d8fd0820d346096f159e892c2bc1771f569e7b9b601f7a1de51f5c6cf"),
        ("manski-q10", "3368c919df5ec2b6d0a9c12462ec63c9714eda26056e90aa14ec1e6ad33b7c0c"),
        ("iid", "ce5607f5454a69a84d717a4a877ba1f251786c3739dd750b702fb8a5e693e24d"),
        ("mixing", "3ee810259bf184cba33cab41c5c406cad125b914c0b78e9a69a5f0566eff0eec"),
        ("hybrid", "26765e6d479cb1302be6f20afa2b1dc904c9fe887b5eb1a1ef3e7e298af8f15a"),
    ])
    def test_the_report_body_of_a_fifty_look_null_scan_is_pinned(
        self, tmp_path, capsys, method, body_sha256
    ):
        """Every method on a 1,200-row null panel over 50 looks, whose
        smallest arm holds 9 rows: arm sizes and per-look levels the demo's
        19 looks do not reach.  The digest is of the report without its ``metadata``, so
        it pins what each look reports, not how the run was configured."""
        path, report = tmp_path / "null.csv", tmp_path / "scan.json"
        write_panel_csv(make_null_panel(300, 4, seed=3), path)
        assert main(["scan", str(path), "--method", method, "--grid", "1:99:2",
                     "--min-group", "2", "--json", str(report)]) == 0
        body = json.loads(report.read_text())
        del body["metadata"]
        assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == body_sha256
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

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e100])
    def test_a_constant_outcome_names_no_tipping_threshold(self, tmp_path, capsys, scale):
        path = constant_csv(tmp_path, scale)
        for method in METHODS:
            rc = main(["scan", path, "--method", method, "--grid", "5:95:1"])
            out = capsys.readouterr().out
            assert rc == 4 or (rc == 0 and out.endswith("tipping threshold: none detected\n")), method

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

    @pytest.mark.parametrize("shape", [["--n", "1000001", "--T", "1"], ["--n", "2", "--T", "5,1"]])
    def test_every_cell_size_is_checked_before_the_first_draw(
        self, tmp_path, capsys, monkeypatch, shape
    ):
        monkeypatch.setattr(montecarlo, "generate", None)
        monkeypatch.setattr(montecarlo, "_draw", None)
        out = tmp_path / "cov.csv"
        assert main(["simulate", "--dgp", "A", "--reps", "5", "--out", str(out), *shape]) == 2
        err = capsys.readouterr().err
        assert "at least 4 observations (2 per arm) and at most 1,000,000" in err
        assert "Traceback" not in err
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
