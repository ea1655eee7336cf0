"""Smoke test of the benchmark at tiny sizes, with no timing gate.

Every workload is run end to end and traced through ``run.py --scale
smoke``; each must print every metric named in ``BENCHMARK.json`` with its
unit.  The output checks must catch deliberately corrupted outputs, and
the benchmark must refuse to run outside a source checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from workloads import PRINTED_COVERAGE, PRINTED_REPS, SIMULATE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    jobs = [(name, trace) for name in NAMES for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, done))


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(smoke_runs, workload, trace, kind):
    proc = smoke_runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        for name in ("wall_s", "work_per_s", "setup_s", "peak_rss_mb", "error_rate"):
            assert any(line.startswith(f"{name}:") and "n=" in line
                       for line in proc.stdout.splitlines()), name


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("scan-ingest", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def outputs(tmp_path, monkeypatch):
    """Run a workload's command in process at smoke size; return (workload, context, dir)."""
    from concate import cli

    def make(name: str):
        wl = WORKLOADS[name]
        ctx = wl.prepare(3, tmp_path, "smoke")
        monkeypatch.chdir(tmp_path)
        assert cli.main(wl.argv(ctx)) == 0
        assert wl.check(tmp_path, ctx).correct
        return wl, ctx, tmp_path

    return make


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_scan_checks_catch_corruption(outputs):
    wl, ctx, work = outputs("scan-ingest")
    row = next(i for i, r in enumerate(json.loads((work / "scan.json").read_text())["rows"])
               if not r["skipped"])
    _edit_json(work / "scan.json", lambda d: d["rows"][row]["band"]["band"].update(lower=1e9))
    check = wl.check(work, ctx)
    assert check.failed == 1 and not check.correct  # containment fails; CSV now disagrees
    (work / "scan.svg").write_text("<svg")
    assert any("scan.svg" in p for p in wl.check(work, ctx).problems)


def test_scan_checks_catch_a_wrong_region(outputs):
    wl, ctx, work = outputs("scan-dense")
    row = next(i for i, r in enumerate(json.loads((work / "scan.json").read_text())["rows"])
               if not r["skipped"])
    _edit_json(work / "scan.json", lambda d: d["rows"][row]["band"]["region"].update(upper=-50.0))
    assert any("region" in p for p in wl.check(work, ctx).problems)


def test_describe_checks_catch_corruption(outputs):
    wl, ctx, work = outputs("describe-rolling")
    lines = (work / "rolling.csv").read_text().splitlines()
    t, pearson, _ = lines[1].split(",")
    lines[1] = f"{t},{pearson},1.5"
    lines[2] = ",".join([lines[2].split(",")[0], "0.123", lines[2].split(",")[2]])
    (work / "rolling.csv").write_text("\n".join(lines) + "\n")
    check = wl.check(work, ctx)
    assert check.failed == 1
    assert any("pearson" in p for p in check.problems)


def test_simulate_checks_gate_coverage_at_the_printed_setting(tmp_path):
    wl = WORKLOADS["simulate-table"]
    ctx = {"reps": PRINTED_REPS, "outputs": ("coverage.csv", "coverage.json")}

    def write(shift: float) -> None:
        cells, rows = [], [["dgp", "N", "method", "coverage_pct", "B", "seed", "redraws"]]
        for (design, periods), (hybrid, manski) in PRINTED_COVERAGE.items():
            hybrid = hybrid + shift if (design, periods) == ("A", 1) else hybrid
            cells.append({"design": design, "periods": periods, "n_units": 50,
                          "n_reps": PRINTED_REPS, "base_seed": SIMULATE_SEED, "redraws": 0,
                          "coverage_hybrid_pct": hybrid, "coverage_manski_pct": manski})
            for label, pct in (("hybrid", hybrid), ("manski", manski)):
                rows.append([design, 50 * periods, label, f"{pct:.2f}", PRINTED_REPS,
                             SIMULATE_SEED, 0])
        (tmp_path / "coverage.json").write_text(json.dumps({"cells": cells}))
        (tmp_path / "coverage.csv").write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")

    write(0.0)
    check = wl.check(tmp_path, ctx)
    assert check.correct and check.failed == 0 and check.attempted == 42
    write(-5.0)
    assert wl.check(tmp_path, ctx).failed == 1
    (tmp_path / "coverage.csv").write_text("dgp,N,method,coverage_pct,B,seed,redraws\n")
    assert not wl.check(tmp_path, ctx).correct
