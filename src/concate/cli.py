"""Command-line interface.

Four subcommands: ``describe`` (panel descriptives and rolling
correlations), ``bounds`` (one threshold, one band), ``scan`` (grid scan
with family-wise alpha spending and tipping detection), and ``simulate``
(the coverage experiment).  Exit codes: 0 success, 2 validation problem,
3 data problem, 4 degenerate statistics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .bands import BandOptions, METHODS, compute_band
from .charts import render_band_chart
from .concentration import BernsteinConstants, Truncation
from .errors import ConcateError, DataError, ValidationError
from .estimators import VARIANCE_MODES, group_stats
from .montecarlo import (
    MANSKI_VARIANTS,
    MC_DESIGNS,
    coverage_table,
    write_coverage_csv,
)
from .panel import PanelSchema, assign_treatment, load_csv, rolling_correlation, summary_stats
from .sequential import DEFAULT_MIN_GROUP, ScanResult, ThresholdGrid, scan

EXIT_OK = 0

RNG_DESCRIPTION = (
    "numpy PCG64 seeded by SeedSequence(entropy=seed, "
    "spawn_key=(design, n, T, replication, attempt))"
)


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _metadata(command: str, config: dict, seed: int | None = None, rng: str | None = None) -> dict:
    meta = {
        "version": __version__,
        "command": command,
        "config_hash": _config_hash(config),
    }
    if seed is not None:
        meta["seed"] = seed
    if rng is not None:
        meta["rng"] = rng
    return meta


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.10g}"


# ---------------------------------------------------------------------------
# shared argument groups

def _add_panel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("panel", help="panel CSV path")
    parser.add_argument("--unit-col", default="unit_id")
    parser.add_argument("--time-col", default="time")
    parser.add_argument("--outcome-col", default="outcome")
    parser.add_argument("--signal-col", default="signal")
    parser.add_argument("--group-col", default=None)
    parser.add_argument(
        "--group-filter",
        default=None,
        help="restrict to rows whose group column equals this label",
    )


#: The float band flags as (``--config`` section, field, flag, help).  The
#: section None is the top level of the file and of BandOptions.
BAND_FLAGS = (
    (None, "c_alpha", "--c-alpha", "mixing constant"),
    (None, "c_abs", "--c-abs", None),
    (None, "mean_bound_treated", "--m-treated", "treated mean bound"),
    (None, "mean_bound_control", "--m-control", "control mean bound"),
    ("bernstein", "c1", "--bernstein-c1", None),
    ("bernstein", "c2", "--bernstein-c2", None),
    ("bernstein", "c3", "--bernstein-c3", None),
    ("bernstein", "c4", "--bernstein-c4", None),
    ("bernstein", "gamma", "--bernstein-gamma", None),
    ("bernstein", "long_run_var", "--long-run-var", None),
    ("truncation", "lower", "--truncation-lower", None),
    ("truncation", "upper", "--truncation-upper", None),
)


def _add_band_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default="hybrid", choices=METHODS)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--config", default=None, help="JSON file with band options")
    for _, _, flag, help_text in BAND_FLAGS:
        parser.add_argument(flag, type=float, default=None, help=help_text)
    parser.add_argument("--variance-mode", default=None, choices=VARIANCE_MODES)


def _load_panel(args: argparse.Namespace):
    if args.group_filter is not None and args.group_col is None:
        raise ValidationError("--group-filter requires --group-col")
    schema = PanelSchema(
        unit=args.unit_col,
        time=args.time_col,
        outcome=args.outcome_col,
        signal=args.signal_col,
        group=args.group_col,
    )
    panel = load_csv(args.panel, schema)
    if args.group_filter is not None:
        panel = panel.filter_group(args.group_filter)
    return panel


def _config_object(value: object, cls: type, name: str) -> dict:
    """``value`` as keyword arguments of ``cls``: a JSON object whose keys
    are all ``init`` fields of the dataclass."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise ValidationError(f"{name} has unknown keys: {sorted(unknown)}")
    return dict(value)


def _resolve_band_options(args: argparse.Namespace) -> tuple[BandOptions, dict]:
    """Check the level, then merge defaults, an optional JSON config file,
    and explicit flags.

    Precedence: flags beat the file, the file beats the defaults, which
    are BandOptions', BernsteinConstants' and Truncation's own.  Every
    value is checked when the options are built, before any panel is read.
    """
    if not 0.0 < args.alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {args.alpha}")
    file_cfg: object = {}
    if args.config is not None:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise DataError(f"config file not found: {args.config}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"config file {args.config}: {exc}") from None
    knobs = _config_object(file_cfg, BandOptions, f"config file {args.config}")
    sections = {None: knobs}
    for section, cls in (("bernstein", BernsteinConstants), ("truncation", Truncation)):
        sections[section] = _config_object(knobs.pop(section, {}), cls, f"{section} config")
    for section, name, flag, _ in BAND_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            sections[section][name] = value
    if args.variance_mode is not None:
        knobs["variance_mode"] = args.variance_mode
    truncation = sections["truncation"]
    if truncation.get("upper") is not None and truncation.get("lower") is None:
        if args.truncation_upper is not None:
            raise ValidationError("--truncation-upper requires --truncation-lower")
        raise ValidationError(
            f"config file {args.config}: truncation.upper requires truncation.lower"
        )
    options = BandOptions(
        bernstein=BernsteinConstants(**sections["bernstein"]),
        truncation=Truncation(**truncation),
        **knobs,
    )
    return options, {"method": args.method, "alpha": args.alpha, **asdict(options)}


# ---------------------------------------------------------------------------
# describe

def cmd_describe(args: argparse.Namespace) -> int:
    if args.window is not None and args.window < 2:
        raise ValidationError(f"window must be at least 2, got {args.window}")
    panel = _load_panel(args)
    if args.rolling:
        periods = panel.times().size
        if (window := args.window or max(2, periods // 2)) > periods:
            source = "" if args.window else " (the default, half the periods and at least 2)"
            raise ValidationError(f"window {window}{source} exceeds the {periods} distinct "
                                  "time indices in the panel")
    variables = {
        "outcome": summary_stats(panel.outcome),
        "signal": summary_stats(panel.signal),
    }
    header = ["variable", "n", "min", "mean", "median", "max", "sd", "skewness", "kurtosis"]
    rows = [
        [
            name,
            str(s.n),
            _fmt(s.minimum),
            _fmt(s.mean),
            _fmt(s.median),
            _fmt(s.maximum),
            _fmt(s.sd),
            _fmt(s.skewness),
            _fmt(s.kurtosis),
        ]
        for name, s in variables.items()
    ]
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    print(f"# rows retained: {panel.n}, dropped (missing outcome/signal): {panel.n_dropped}")

    if args.rolling:
        pearson = rolling_correlation(panel, window, kind="pearson")
        kendall = rolling_correlation(panel, window, kind="kendall")
        with Path(args.rolling).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "pearson", "kendall"])
            for (t, rp), (_, rk) in zip(pearson, kendall):
                writer.writerow([t, _fmt(rp), _fmt(rk)])

    if args.json:
        config = {
            "panel": str(args.panel),
            "group_filter": args.group_filter,
            "window": args.window,
        }
        payload = {
            "metadata": _metadata("describe", config),
            "n": panel.n,
            "n_dropped": panel.n_dropped,
            "variables": {name: asdict(s) for name, s in variables.items()},
        }
        if args.rolling:
            payload["window"] = window
        _write_json(args.json, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

def _band_payload(band) -> dict:
    payload = {
        "method": band.method,
        "alpha_u": band.alpha_u,
        "n_treated": band.n_treated,
        "n_control": band.n_control,
        "region": {"lower": band.region_lower, "upper": band.region_upper},
        "band": {"lower": band.band_lower, "upper": band.band_upper},
        "excludes_zero": band.excludes_zero,
    }
    if band.se_lower is not None:
        payload["se"] = {"lower": band.se_lower, "upper": band.se_upper}
    if band.support is not None:
        payload["support"] = asdict(band.support)
    if band.paddings is not None:
        payload["paddings"] = asdict(band.paddings)
    return payload


def cmd_bounds(args: argparse.Namespace) -> int:
    options, resolved = _resolve_band_options(args)
    ThresholdGrid((args.tau,))  # checks --tau before the panel is read
    resolved["tau"] = args.tau
    panel = _load_panel(args)
    stats = group_stats(panel, assign_treatment(panel, args.tau))
    band = compute_band(stats, args.method, args.alpha, options)
    print(
        f"threshold {args.tau:g}: n_treated={band.n_treated} n_control={band.n_control}"
    )
    print(f"identified interval: [{band.region_lower:.6g}, {band.region_upper:.6g}]")
    print(
        f"{args.method} band (alpha={args.alpha:g}): "
        f"[{band.band_lower:.6g}, {band.band_upper:.6g}]"
    )
    print(f"excludes zero: {'yes' if band.excludes_zero else 'no'}")
    if args.json:
        payload = {"metadata": _metadata("bounds", resolved), "result": _band_payload(band)}
        _write_json(args.json, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan

def _write_scan_csv(result: ScanResult, path: str) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "tau",
                "N0",
                "N1",
                "lower",
                "upper",
                "band_lower",
                "band_upper",
                "excludes_zero",
                "skipped",
            ]
        )
        for row in result.rows:
            if row.band is None:
                writer.writerow(
                    [f"{row.tau:g}", row.n_control, row.n_treated, "", "", "", "", "", "true"]
                )
            else:
                writer.writerow(
                    [
                        f"{row.tau:g}",
                        row.n_control,
                        row.n_treated,
                        _fmt(row.band.region_lower),
                        _fmt(row.band.region_upper),
                        _fmt(row.band.band_lower),
                        _fmt(row.band.band_upper),
                        "true" if row.band.excludes_zero else "false",
                        "false",
                    ]
                )


def _scan_payload(result: ScanResult) -> dict:
    rows = []
    for row in result.rows:
        entry = {
            "tau": row.tau,
            "alpha_u": row.alpha_u,
            "n_treated": row.n_treated,
            "n_control": row.n_control,
            "skipped": row.skipped,
        }
        if row.skipped:
            entry["reason"] = row.reason
        else:
            entry["band"] = _band_payload(row.band)
        rows.append(entry)
    return {
        "method": result.method,
        "alpha": result.alpha,
        "min_group": result.min_group,
        "tipping_tau": result.tipping_tau,
        "direction": result.direction,
        "n_skipped": result.n_skipped,
        "rows": rows,
    }


def cmd_scan(args: argparse.Namespace) -> int:
    options, resolved = _resolve_band_options(args)
    grid = ThresholdGrid.from_spec(args.grid)
    schedule = None
    if args.alpha_schedule is not None:
        try:
            schedule = [float(x) for x in args.alpha_schedule.split(",")]
        except ValueError:
            raise ValidationError(
                f"--alpha-schedule must be comma-separated numbers, got {args.alpha_schedule!r}"
            ) from None
    resolved.update({"grid": args.grid, "min_group": args.min_group, "schedule": schedule})
    panel = _load_panel(args)
    result = scan(
        panel,
        grid,
        args.method,
        alpha=args.alpha,
        options=options,
        min_group=args.min_group,
        schedule=schedule,
        workers=args.workers,
    )
    for row in result.rows:
        if row.skipped:
            print(f"tau {row.tau:>5g}: skipped ({row.reason})")
        else:
            marker = "  <-- excludes zero" if row.band.excludes_zero else ""
            print(
                f"tau {row.tau:>5g}: band [{row.band.band_lower:.4g}, "
                f"{row.band.band_upper:.4g}] n1={row.n_treated}{marker}"
            )
    if result.tipping_tau is None:
        print("tipping threshold: none detected")
    else:
        print(f"tipping threshold: {result.tipping_tau:g} ({result.direction})")
    if args.out:
        _write_scan_csv(result, args.out)
    if args.json:
        payload = {"metadata": _metadata("scan", resolved)}
        payload.update(_scan_payload(result))
        _write_json(args.json, payload)
    if args.svg:
        render_band_chart(result, args.svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    if args.dgp.strip().lower() == "all":
        designs = list(MC_DESIGNS)
    else:
        designs = [d.strip().upper() for d in args.dgp.split(",") if d.strip()]
    if not designs:
        raise ValidationError("--dgp produced an empty list")
    try:
        periods_list = [int(t) for t in args.T.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"--T must be comma-separated integers, got {args.T!r}") from None
    if not periods_list:
        raise ValidationError("--T produced an empty list")
    cells = coverage_table(
        designs=designs,
        n_units=args.n,
        periods_list=periods_list,
        n_reps=args.reps,
        alpha=args.alpha,
        base_seed=args.seed,
        workers=args.workers,
        manski_variant=args.manski_variant,
    )
    write_coverage_csv(cells, args.out)
    total_redraws = sum(c.redraws for c in cells)
    for cell in cells:
        print(
            f"dgp {cell.design} N={cell.n_total:>4}: hybrid {cell.coverage_hybrid_pct:6.2f}%  "
            f"manski {cell.coverage_manski_pct:6.2f}%  (redraws {cell.redraws})"
        )
    print(f"wrote {args.out} ({len(cells)} cells, {total_redraws} redraws)")
    if args.json:
        config = {
            "dgp": designs,
            "n": args.n,
            "T": periods_list,
            "reps": args.reps,
            "alpha": args.alpha,
            "manski_variant": args.manski_variant,
        }
        payload = {
            "metadata": _metadata(
                "simulate", config, seed=args.seed, rng=RNG_DESCRIPTION
            ),
            "cells": [asdict(c) for c in cells],
        }
        _write_json(args.json, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concate",
        description="Finite-sample confidence bands for partially identified treatment effects",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_describe = sub.add_parser("describe", help="panel descriptive statistics")
    _add_panel_arguments(p_describe)
    p_describe.add_argument("--out", default=None, help="write the summary CSV here")
    p_describe.add_argument("--json", default=None, help="write a JSON report here")
    p_describe.add_argument("--rolling", default=None, help="write rolling correlations CSV here")
    p_describe.add_argument("--window", type=int, default=None, help="rolling window length")
    p_describe.set_defaults(func=cmd_describe)

    p_bounds = sub.add_parser("bounds", help="band at a single threshold")
    _add_panel_arguments(p_bounds)
    p_bounds.add_argument("--tau", type=float, required=True, help="diversity threshold")
    _add_band_arguments(p_bounds)
    p_bounds.add_argument("--json", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_scan = sub.add_parser("scan", help="threshold grid scan with alpha spending")
    _add_panel_arguments(p_scan)
    _add_band_arguments(p_scan)
    p_scan.add_argument("--grid", default="5:95:5", help="start:stop:step")
    p_scan.add_argument("--min-group", type=int, default=DEFAULT_MIN_GROUP)
    p_scan.add_argument(
        "--alpha-schedule",
        default=None,
        help="comma-separated per-look alpha values summing to alpha",
    )
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--out", default=None, help="per-threshold CSV path")
    p_scan.add_argument("--json", default=None)
    p_scan.add_argument("--svg", default=None, help="band chart path")
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="coverage experiment")
    p_sim.add_argument("--dgp", default="all", help="'all' or comma-separated designs A..G")
    p_sim.add_argument("--n", type=int, default=50, help="units per period")
    p_sim.add_argument("--T", default="1,2,5", help="comma-separated period counts")
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--manski-variant", default="plugin", choices=MANSKI_VARIANTS)
    p_sim.add_argument("--out", required=True, help="coverage table CSV path")
    p_sim.add_argument("--json", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConcateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
