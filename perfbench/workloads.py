"""The four benchmark workloads: seeded inputs, command lines and output checks.

Every workload is one ``concate`` command run on files the benchmark
generated from the workload seed.  ``check`` verifies the command's output
files against the generated data and returns the operation counts that
feed ``attempted``/``failed``, plus the decisions and output digests that
are compared with ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

#: The CLI's default ``scan --min-group``.
MIN_GROUP = 10
SIMULATE_SEED = 20240601
DESIGNS = "ABCDEFG"
PERIODS = (1, 2, 5)

SIZES = {
    "full": {
        "ingest_units": 75_000,
        "dense_units": 500,
        "dense_periods": 200,
        "long_units": 400,
        "long_periods": 240,
        "reps": 2000,
    },
    "smoke": {
        "ingest_units": 400,
        "dense_units": 20,
        "dense_periods": 40,
        "long_units": 10,
        "long_periods": 24,
        "reps": 20,
    },
}

# The paper's printed coverage, (hybrid, plug-in) percent per design and
# period count, for 50 units, effect 4.0, 2,000 replications and alpha
# 0.05.  Acceptance criterion 1 gates cells printed as 100 at >= 99.0 and
# cells in (5, 95) at +-3.0 points; it leaves cells in [95, 100) ungated.
PRINTED_COVERAGE = {
    ("A", 1): (85.95, 9.25),
    ("A", 2): (89.75, 21.40),
    ("A", 5): (96.05, 49.50),
    ("B", 1): (83.05, 36.70),
    ("B", 2): (93.40, 66.65),
    ("B", 5): (99.65, 94.90),
    ("C", 1): (99.40, 51.10),
    ("C", 2): (100.0, 84.05),
    ("C", 5): (100.0, 99.70),
    ("D", 1): (100.0, 84.00),
    ("D", 2): (100.0, 98.35),
    ("D", 5): (100.0, 100.0),
    ("E", 1): (89.10, 27.30),
    ("E", 2): (93.65, 46.45),
    ("E", 5): (98.80, 81.80),
    ("F", 1): (100.0, 99.85),
    ("F", 2): (100.0, 100.0),
    ("F", 5): (100.0, 100.0),
    ("G", 1): (100.0, 100.0),
    ("G", 2): (100.0, 100.0),
    ("G", 5): (100.0, 100.0),
}
PRINTED_REPS = 2000


@dataclass
class CheckResult:
    """What the output checks found for one invocation.

    ``problems`` are outputs that are wrong or inconsistent (they make the
    run incorrect); ``failures`` describe failed operations, which are
    counted in ``failed``.
    """

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    decisions: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    prepare: Callable[[int, Path, str], dict]
    argv: Callable[[dict], list[str]]
    work: Callable[[dict], int]
    check: Callable[[Path, dict], CheckResult]


def _close(a: float, b: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + scale)


def _load_json(path: Path, result: CheckResult):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        result.problems.append(f"{path.name}: {exc}")
        return None


def digests(work: Path, names: tuple[str, ...]) -> dict[str, str]:
    return {n: inputs.sha256(work / n) for n in names if (work / n).is_file()}


# ---------------------------------------------------------------------------
# scan

def grid_taus(spec: str) -> list[float]:
    """The thresholds of a 'start:stop:step' grid, as the CLI documents them."""
    start, stop, step = (float(p) for p in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def expected_regions(panel: inputs.Panel, taus: list[float]) -> list[dict]:
    """Arm sizes and the plug-in identified interval on empirical extrema,
    recomputed per threshold from the generated rows."""
    order = np.argsort(panel.signal, kind="stable")
    s = panel.signal[order]
    y = panel.outcome[order]
    n = s.size
    csum = np.concatenate([[0.0], np.cumsum(y)])
    suf_min = np.minimum.accumulate(y[::-1])[::-1]
    suf_max = np.maximum.accumulate(y[::-1])[::-1]
    pre_min = np.minimum.accumulate(y)
    pre_max = np.maximum.accumulate(y)
    out = []
    for tau in taus:
        k = int(np.searchsorted(s, tau, side="left"))
        n1, n0 = n - k, k
        entry = {"n_treated": n1, "n_control": n0}
        if n1 and n0:
            mean1 = (csum[n] - csum[k]) / n1
            mean0 = csum[k] / n0
            p1, p0 = n1 / n, n0 / n
            base = mean1 * p1 - mean0 * p0
            entry["lower"] = base + suf_min[k] * p0 - pre_max[k - 1] * p1
            entry["upper"] = base + suf_max[k] * p0 - pre_min[k - 1] * p1
        out.append(entry)
    return out


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def check_scan(work: Path, ctx: dict) -> CheckResult:
    taus = grid_taus(ctx["grid"])
    result = CheckResult(attempted=len(taus))
    result.digests = digests(work, ctx["outputs"])
    doc = _load_json(work / "scan.json", result)
    if doc is None:
        return result
    rows = doc.get("rows", [])
    if [r.get("tau") for r in rows] != taus:
        result.problems.append("scan.json: thresholds differ from the grid")
        return result
    expected = expected_regions(ctx["panel"], taus)
    scale = float(np.max(np.abs(ctx["panel"].outcome)))
    tipping = direction = None
    looks = []
    retained = contained_fail = 0
    for row, exp in zip(rows, expected):
        tau = row["tau"]
        if (row["n_treated"], row["n_control"]) != (exp["n_treated"], exp["n_control"]):
            result.problems.append(f"tau {tau:g}: arm sizes {row['n_treated']}/{row['n_control']}"
                                   f" != recount {exp['n_treated']}/{exp['n_control']}")
            continue
        small = min(exp["n_treated"], exp["n_control"]) < MIN_GROUP
        if row["skipped"]:
            looks.append("s")
            if not small and not row.get("reason"):
                result.problems.append(f"tau {tau:g}: skipped without a reason")
            continue
        if small:
            result.problems.append(f"tau {tau:g}: an arm is below min_group but the look was kept")
            continue
        retained += 1
        band = row["band"]
        rl, ru = band["region"]["lower"], band["region"]["upper"]
        bl, bu = band["band"]["lower"], band["band"]["upper"]
        if not (_close(rl, exp["lower"], scale) and _close(ru, exp["upper"], scale)):
            result.problems.append(f"tau {tau:g}: region [{rl}, {ru}] != recomputed "
                                   f"[{exp['lower']}, {exp['upper']}]")
        if not all(math.isfinite(v) for v in (rl, ru, bl, bu)):
            result.fail(f"tau {tau:g}: band [{bl}, {bu}] is not finite")
        elif not bl <= rl <= ru <= bu:
            contained_fail += 1
            result.fail(f"tau {tau:g}: band [{bl:.6g}, {bu:.6g}] does not contain "
                        f"region [{rl:.6g}, {ru:.6g}]")
        excludes = bl > 0.0 or bu < 0.0
        if band["excludes_zero"] != excludes:
            result.problems.append(f"tau {tau:g}: excludes_zero flag disagrees with the band")
        looks.append("x" if excludes else ".")
        if excludes and tipping is None:
            tipping, direction = tau, ("positive" if bl > 0.0 else "negative")
    if (doc.get("tipping_tau"), doc.get("direction")) != (tipping, direction):
        result.problems.append(f"tipping {doc.get('tipping_tau')} ({doc.get('direction')}) != "
                               f"first excluding look {tipping} ({direction})")
    if doc.get("n_skipped") != looks.count("s"):
        result.problems.append("n_skipped disagrees with the skipped rows")
    if "scan.csv" in ctx["outputs"]:
        _check_scan_csv(work / "scan.csv", rows, result)
    if "scan.svg" in ctx["outputs"]:
        try:
            root = ET.parse(work / "scan.svg").getroot()
            if not root.tag.endswith("svg") or len(root) == 0:
                result.problems.append("scan.svg: not an SVG drawing")
        except (OSError, ET.ParseError) as exc:
            result.problems.append(f"scan.svg: {exc}")
    if ctx["method"] == "mixing":
        result.notes.append(
            f"mixing containment failures: {contained_fail} of {retained} retained looks "
            "(known defect, ROADMAP Direction 1: padded_interval is not shift-invariant)")
    result.notes.append(f"looks: {len(taus)}, skipped {looks.count('s')}, "
                        f"excluding zero {looks.count('x')}, tipping {tipping} ({direction})")
    result.decisions = [f"tipping={tipping}", f"direction={direction}", *looks]
    return result


def _check_scan_csv(path: Path, rows: list[dict], result: CheckResult) -> None:
    try:
        with path.open(newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        result.problems.append(f"scan.csv: {exc}")
        return
    if len(table) != len(rows) + 1:
        result.problems.append("scan.csv: row count differs from scan.json")
        return
    for line, row in zip(table[1:], rows):
        want = [f"{row['tau']:g}", str(row["n_control"]), str(row["n_treated"])]
        if row["skipped"]:
            want += ["", "", "", "", "", "true"]
        else:
            band = row["band"]
            want += [_fmt(band["region"]["lower"]), _fmt(band["region"]["upper"]),
                     _fmt(band["band"]["lower"]), _fmt(band["band"]["upper"]),
                     "true" if band["excludes_zero"] else "false", "false"]
        if line != want:
            result.problems.append(f"scan.csv: row {line} disagrees with scan.json")
            return


def _prepare_scan(maker: Callable, grid: str, method: str, outputs: tuple[str, ...]):
    def prepare(seed: int, work: Path, scale: str) -> dict:
        panel = maker(np.random.default_rng(seed), SIZES[scale], work / "panel.csv")
        return {"panel": panel, "grid": grid, "method": method, "outputs": outputs,
                "input": work / "panel.csv"}
    return prepare


def _scan_argv(ctx: dict) -> list[str]:
    argv = ["scan", "panel.csv", "--method", ctx["method"], "--grid", ctx["grid"]]
    for flag, name in (("--out", "scan.csv"), ("--json", "scan.json"), ("--svg", "scan.svg")):
        if name in ctx["outputs"]:
            argv += [flag, name]
    return argv


# ---------------------------------------------------------------------------
# describe --rolling

def rolling_pearson(panel: inputs.Panel, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Window-end times and pooled Pearson correlations from per-period sums."""
    times, idx = np.unique(panel.time, return_inverse=True)
    x, y = panel.signal, panel.outcome
    sums = [np.bincount(idx, weights=w, minlength=times.size)
            for w in (np.ones_like(x), x, y, x * x, y * y, x * y)]
    win = [np.concatenate([[0.0], np.cumsum(s)]) for s in sums]
    n, sx, sy, sxx, syy, sxy = (c[window:] - c[:-window] for c in win)
    cov = sxy - sx * sy / n
    r = cov / np.sqrt((sxx - sx * sx / n) * (syy - sy * sy / n))
    return times[window - 1:], r


def check_describe(work: Path, ctx: dict) -> CheckResult:
    panel = ctx["panel"]
    times = np.unique(panel.time)
    window = times.size // 2
    ends, pearson = rolling_pearson(panel, window)
    result = CheckResult(attempted=ends.size)
    result.digests = digests(work, ctx["outputs"])
    try:
        with (work / "rolling.csv").open(newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        result.problems.append(f"rolling.csv: {exc}")
        return result
    if table[:1] != [["time", "pearson", "kendall"]] or len(table) != ends.size + 1:
        result.problems.append("rolling.csv: wrong header or window count")
        return result
    kendall_last = None
    for line, t, r in zip(table[1:], ends.tolist(), pearson.tolist()):
        if line[0] != str(t):
            result.problems.append(f"rolling.csv: window end {line[0]} != {t}")
            break
        values = []
        for text in line[1:]:
            try:
                values.append(float(text))
            except ValueError:
                values.append(math.nan)
        if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values):
            result.fail(f"window ending {t}: correlations {line[1:]}")
            continue
        if abs(values[0] - r) > 1e-8:
            result.problems.append(f"window ending {t}: pearson {values[0]} != recomputed {r}")
        kendall_last = values[1]
    if kendall_last is not None and not result.problems:
        from scipy.stats import kendalltau

        mask = panel.time >= ends[-1] - window + 1
        want = float(kendalltau(panel.signal[mask], panel.outcome[mask]).statistic)
        if abs(kendall_last - want) > 1e-8:
            result.problems.append(f"last window: kendall {kendall_last} != scipy tau-b {want}")
    doc = _load_json(work / "describe.json", result)
    if doc is not None:
        if (doc.get("n"), doc.get("n_dropped")) != (panel.outcome.size, panel.rows_in_file - panel.outcome.size):
            result.problems.append("describe.json: row counts disagree with the input")
        for name, x in (("outcome", panel.outcome), ("signal", panel.signal)):
            got = doc.get("variables", {}).get(name, {})
            want = {"n": x.size, "minimum": x.min(), "maximum": x.max(), "mean": x.mean(),
                    "median": np.median(x), "sd": x.std(ddof=1)}
            scale = float(np.max(np.abs(x)))
            for key, value in want.items():
                if key not in got or not _close(float(got[key]), float(value), scale):
                    result.problems.append(f"describe.json: {name}.{key} = {got.get(key)}, want {value}")
    return result


def _prepare_describe(seed: int, work: Path, scale: str) -> dict:
    size = SIZES[scale]
    panel = inputs.long_panel(np.random.default_rng(seed), size["long_units"],
                              size["long_periods"], work / "panel.csv")
    return {"panel": panel, "outputs": ("rolling.csv", "describe.json"), "input": work / "panel.csv"}


# ---------------------------------------------------------------------------
# simulate

def check_simulate(work: Path, ctx: dict) -> CheckResult:
    reps = ctx["reps"]
    result = CheckResult(attempted=2 * len(PRINTED_COVERAGE))
    result.digests = digests(work, ctx["outputs"])
    doc = _load_json(work / "coverage.json", result)
    try:
        with (work / "coverage.csv").open(newline="") as fh:
            table = list(csv.reader(fh))
    except OSError as exc:
        result.problems.append(f"coverage.csv: {exc}")
        return result
    if doc is None:
        return result
    cells = {(c["design"], c["periods"]): c for c in doc.get("cells", [])}
    if set(cells) != set(PRINTED_COVERAGE) or len(table) != 1 + 2 * len(cells):
        result.problems.append("coverage table does not hold every (design, T) cell once")
        return result
    csv_rows = {(r[0], r[1], r[2]): r[3:] for r in table[1:]}
    gated = reps == PRINTED_REPS
    for (design, periods), cell in sorted(cells.items()):
        pct = (cell["coverage_hybrid_pct"], cell["coverage_manski_pct"])
        if (cell["n_units"], cell["n_reps"], cell["base_seed"]) != (50, reps, SIMULATE_SEED):
            result.problems.append(f"{design}/T={periods}: wrong cell settings")
        for label, got, printed in zip(("hybrid", "manski"), pct, PRINTED_COVERAGE[(design, periods)]):
            hits = got * reps / 100.0
            row = csv_rows.get((design, str(50 * periods), label))
            if abs(hits - round(hits)) > 1e-6 or row != [f"{got:.2f}", str(reps),
                                                          str(SIMULATE_SEED), str(cell["redraws"])]:
                result.problems.append(f"{design}/T={periods}/{label}: CSV and JSON disagree")
            if gated and ((printed == 100.0 and got < 99.0)
                          or (5.0 < printed < 95.0 and abs(got - printed) > 3.0)):
                result.fail(f"{design}/T={periods}/{label}: coverage {got:.2f}, printed {printed}")
        result.decisions.append(f"{design}/T={periods}:{pct[0]:.2f}/{pct[1]:.2f}/r{cell['redraws']}")
    if not gated:
        result.notes.append(f"coverage not gated: criterion 1 applies to {PRINTED_REPS} replications")
    return result


def _prepare_simulate(seed: int, work: Path, scale: str) -> dict:
    # The table's own seed is part of the workload: criterion 1's tolerance
    # was set for it, so the workload seed does not change these inputs.
    return {"reps": SIZES[scale]["reps"], "outputs": ("coverage.csv", "coverage.json"), "input": None}


def _simulate_argv(ctx: dict) -> list[str]:
    return ["simulate", "--dgp", "all", "--T", ",".join(map(str, PERIODS)), "--n", "50",
            "--reps", str(ctx["reps"]), "--seed", str(SIMULATE_SEED), "--workers", "1",
            "--out", "coverage.csv", "--json", "coverage.json"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-ingest",
            work_unit="input rows",
            prepare=_prepare_scan(
                lambda rng, size, path: inputs.ingest_panel(rng, size["ingest_units"], path),
                "5:95:5", "hybrid", ("scan.csv", "scan.json", "scan.svg")),
            argv=_scan_argv,
            work=lambda ctx: ctx["panel"].rows_in_file,
            check=check_scan,
        ),
        Workload(
            name="scan-dense",
            work_unit="looks",
            prepare=_prepare_scan(
                lambda rng, size, path: inputs.returns_panel(
                    rng, size["dense_units"], size["dense_periods"], path),
                "0.5:99.5:0.25", "mixing", ("scan.json",)),
            argv=_scan_argv,
            work=lambda ctx: len(grid_taus(ctx["grid"])),
            check=check_scan,
        ),
        Workload(
            name="simulate-table",
            work_unit="replications",
            prepare=_prepare_simulate,
            argv=_simulate_argv,
            work=lambda ctx: ctx["reps"] * len(PRINTED_COVERAGE),
            check=check_simulate,
        ),
        Workload(
            name="describe-rolling",
            work_unit="input rows",
            prepare=_prepare_describe,
            argv=lambda ctx: ["describe", "panel.csv", "--rolling", "rolling.csv",
                              "--json", "describe.json"],
            work=lambda ctx: ctx["panel"].rows_in_file,
            check=check_describe,
        ),
    )
}
