"""Traced in-process replay of one workload.

    python3 perfbench/tracing.py CONFIG_JSON

``run.py --trace 1`` starts this script with ``src`` on ``PYTHONPATH`` and
the workload's directory as the working directory.  It calls
``concate.cli.main`` with the workload's arguments twice: once untraced,
then with a span recorder wrapped around the package's public functions
(and the CLI's writers) at the module attributes through which the CLI
reaches them.  Spans live in memory and are written to an ``.npz`` file
at the end.  Where one public call contains another module's work that
the CLI cannot show separately, such as the seven band kernels, the inner
function is timed on the same inputs as a separate call.  The per-layer
metrics go to the JSON file named in the config.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter, perf_counter_ns

import numpy as np

from workloads import DESIGNS, PERIODS, SIMULATE_SEED

KERNELS = ("naive", "manski-max", "manski-q05", "manski-q10", "iid", "mixing", "hybrid")
#: Looks sampled from a scan for the separate kernel timings.
KERNEL_LOOKS = 24

#: (module, attribute, span name) for every wrapped call site.  A
#: rolling-correlation span is named after its ``kind`` argument.
SPANS = (
    ("concate.cli", "load_csv", "panel.load_csv"),
    ("concate.cli", "scan", "sequential.scan"),
    ("concate.cli", "summary_stats", "panel.summary_stats"),
    ("concate.cli", "rolling_correlation", "panel.rolling"),
    ("concate.cli", "render_band_chart", "charts.svg"),
    ("concate.cli", "_write_scan_csv", "cli.write"),
    ("concate.cli", "_write_json", "cli.write"),
    ("concate.cli", "coverage_table", "montecarlo.coverage_table"),
    ("concate.cli", "write_coverage_csv", "montecarlo.write_csv"),
    ("concate.panel", "PanelDataset", "panel.validate"),
    ("concate.sequential", "assign_treatment", "panel.assign"),
    ("concate.sequential", "group_stats", "estimators.group_stats"),
    ("concate.sequential", "compute_band", "bands.compute_band"),
    ("concate.concentration", "long_run_variance", "stats.long_run_variance"),
    ("concate.hybrid", "split_arms", "estimators.split_arms"),
    ("concate.hybrid", "sampling_covariance", "manski.sampling_covariance"),
    ("concate.hybrid", "bound_gradients", "manski.bound_gradients"),
    ("concate.montecarlo", "run_cell", "montecarlo.run_cell"),
    ("concate.montecarlo", "replication_seed", "montecarlo.replication_seed"),
    ("numpy.random", "default_rng", "montecarlo.default_rng"),
    ("concate.montecarlo", "generate", "montecarlo.generate"),
    ("concate.montecarlo", "replication_bands", "hybrid.replication_bands"),
)
CAPTURED = ("panel.load_csv", "sequential.scan", "montecarlo.coverage_table")


class Recorder:
    """Spans as parallel arrays: name id, parent index, start and end in ns."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.last: dict[str, object] = {}

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            label = name
            if name == "panel.rolling":
                label = f"panel.rolling_{kwargs.get('kind', args[2] if len(args) > 2 else 'pearson')}"
            index = len(self.start)
            self.name.append(self.ids.setdefault(label, len(self.ids)))
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(index)
            self.start.append(perf_counter_ns())
            try:
                value = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                self.stack.pop()
            if label in CAPTURED:
                self.last[label] = value
            return value

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per name: (count, total s, self s).  Self time is a span's
        duration minus the durations of its child spans."""
        start = np.frombuffer(self.start, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64) - start).astype(float) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=start.size)
        own = duration - child
        out = {}
        for label, i in self.ids.items():
            mask = names == i
            out[label] = (int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum()))
        return out

    def save(self, path: str) -> None:
        labels = sorted(self.ids, key=self.ids.get)
        np.savez(path, names=np.array(labels), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


class Patches:
    """Replace module attributes and put them back."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def install(self, recorder: Recorder, sites) -> None:
        for module_name, attr, label in sites:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(label, original))

    def restore(self) -> None:
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)


def timed_pass(argv: list[str], recorder: Recorder, sites) -> tuple[float, int, list[str]]:
    from concate import cli

    patches = Patches()
    patches.install(recorder, sites)
    try:
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    finally:
        patches.restore()
    return elapsed, code, patches.missing


def kernel_times(panel, scan_result) -> tuple[dict[str, float], int]:
    """Mean microseconds per call of each band kernel on sampled retained looks."""
    from concate.bands import BandOptions, compute_band
    from concate.errors import ConcateError
    from concate.estimators import group_stats
    from concate.panel import assign_treatment

    kept = [r for r in scan_result.rows if not r.skipped]
    sample = kept[:: max(1, len(kept) // KERNEL_LOOKS)][:KERNEL_LOOKS]
    splits = [(group_stats(panel, assign_treatment(panel, r.tau)), r.alpha_u) for r in sample]
    out, errors = {}, 0
    options = BandOptions()
    for method in KERNELS:
        times = []
        for stats, alpha_u in splits:
            t0 = perf_counter()
            try:
                compute_band(stats, method, alpha_u, options)
            except ConcateError:
                errors += 1
                continue
            times.append(perf_counter() - t0)
        out[f"bands.{method}_us"] = 1e6 * statistics.fmean(times) if times else 0.0
    return out, errors


def main() -> int:
    cfg = json.loads(sys.argv[1])
    argv = cfg["argv"]
    problems: list[str] = []
    notes: list[str] = []

    cells = Recorder()
    untraced, code, _ = timed_pass(argv, cells, [s for s in SPANS if s[2] == "montecarlo.run_cell"])
    if code != 0:
        problems.append(f"untraced pass exited with {code}")
    rec = Recorder()
    traced, code, missing = timed_pass(argv, rec, SPANS)
    if code != 0:
        problems.append(f"traced pass exited with {code}")
    for site in missing:
        notes.append(f"no span: {site} not found")
    rec.save(cfg["spans"])

    agg = rec.summary()

    def count(label):
        return agg.get(label, (0, 0.0, 0.0))[0]

    def total(label):
        return agg.get(label, (0, 0.0, 0.0))[1]

    def own(label):
        return agg.get(label, (0, 0.0, 0.0))[2]

    def mean_us(label, value=None):
        n = count(label)
        return 1e6 * (total(label) if value is None else value) / n if n else 0.0

    rows = cfg["rows_in_file"]
    panel = rec.last.get("panel.load_csv")
    scan_result = rec.last.get("sequential.scan")
    table = rec.last.get("montecarlo.coverage_table")
    attempts = count("montecarlo.replication_seed")
    looks = len(scan_result.rows) if scan_result is not None else 0
    layers = {
        "panel.load_csv_s": total("panel.load_csv"),
        "panel.parse_us_per_row": 1e6 * (total("panel.load_csv") - total("panel.validate")) / rows
        if rows else 0.0,
        "panel.validate_s": total("panel.validate"),
        "panel.rows_dropped": panel.n_dropped if panel is not None else 0,
        "panel.assign_us_per_look": mean_us("panel.assign"),
        "panel.summary_stats_s": total("panel.summary_stats"),
        "panel.rolling_pearson_s": total("panel.rolling_pearson"),
        "panel.rolling_kendall_s": total("panel.rolling_kendall"),
        "estimators.split_us_per_look": mean_us("estimators.group_stats"),
        "estimators.split_us_per_rep": mean_us("estimators.split_arms"),
        "stats.long_run_variance_us": mean_us("stats.long_run_variance"),
        "manski.sampling_covariance_us": mean_us("manski.sampling_covariance"),
        "manski.bound_gradients_us": mean_us("manski.bound_gradients"),
        "hybrid.replication_bands_us": mean_us("hybrid.replication_bands",
                                               own("hybrid.replication_bands")),
        "sequential.scan_s": total("sequential.scan"),
        "sequential.self_s": own("sequential.scan"),
        "sequential.looks": looks,
        "sequential.skip_ratio": scan_result.n_skipped / looks if looks else 0.0,
        "montecarlo.seed_us": mean_us("montecarlo.replication_seed",
                                      total("montecarlo.replication_seed")
                                      + total("montecarlo.default_rng")),
        "montecarlo.draw_us": mean_us("montecarlo.generate"),
        "montecarlo.stats_us": mean_us("hybrid.replication_bands"),
        "montecarlo.self_s": own("montecarlo.run_cell"),
        "montecarlo.redraw_ratio": sum(c.redraws for c in table) / attempts if attempts else 0.0,
        "montecarlo.write_csv_ms": 1e3 * total("montecarlo.write_csv"),
        "charts.svg_ms": 1e3 * total("charts.svg"),
        "cli.write_ms": 1e3 * total("cli.write"),
        "trace.overhead_s": traced - untraced,
    }
    for method in KERNELS:
        layers[f"bands.{method}_us"] = 0.0
    if panel is not None and scan_result is not None:
        kernels, errors = kernel_times(panel, scan_result)
        layers.update(kernels)
        if errors:
            notes.append(f"{errors} kernel calls raised and were left out of bands.*_us")

    cell_times = [end - start for start, end in zip(cells.start, cells.end)]
    layers["montecarlo.slowest_cell_s"] = max(cell_times) / 1e9 if cell_times else 0.0
    layers["montecarlo.pool_speedup"] = 0.0
    if table is not None:
        from concate.montecarlo import coverage_table

        t0 = perf_counter()
        pooled = coverage_table(designs=list(DESIGNS), n_units=50, periods_list=list(PERIODS),
                                n_reps=cfg["reps"], alpha=0.05, base_seed=SIMULATE_SEED,
                                workers=2)
        pool_wall = perf_counter() - t0
        layers["montecarlo.pool_speedup"] = sum(cell_times) / 1e9 / pool_wall
        notes.append(f"coverage_table: serial cells {sum(cell_times) / 1e9:.3f} s, "
                     f"2 workers {pool_wall:.3f} s")
        if pooled != table:
            problems.append("coverage_table with 2 workers differs from the serial table")

    notes.append(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s, "
                 f"{len(rec.start)} spans")
    for label, (n, _, self_s) in sorted(agg.items(), key=lambda kv: -kv[1][2])[:6]:
        notes.append(f"self time {label}: {self_s:.4f} s over {n} calls")
    with open(cfg["result"], "w") as fh:
        json.dump({"layers": layers, "problems": problems, "notes": notes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
