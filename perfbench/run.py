"""concATE benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/concate``).  It
generates the workload's inputs from the seed, then, with
``--trace 0``, runs a closed loop for S seconds: one client, one
``python -m concate.cli`` command at a time, with a reference job and a
set-up probe (a fresh interpreter that only imports ``concate.cli``)
timed in the same loop.  Timings are scaled to the reference job's speed.
Every output is checked.  With ``--trace 1`` it instead replays the
workload once in process with spans around the package's public functions
(see ``tracing.py``) and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
whose names and units are those listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from workloads import WORKLOADS, digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"
#: Every child is killed once a run has lasted this long, so the run
#: still exits well inside three minutes.
RUN_LIMIT_S = 150.0
#: The set-up every command pays: a fresh interpreter importing the CLI.
SETUP_PROBE = "import concate.cli"
#: A fixed job that does not depend on this repository's code.  The
#: machine's speed drifts by 20% or more over minutes; timings are scaled
#: by how long this job took in the same run, to a machine on which it
#: takes REFERENCE_S seconds.
REFERENCE_JOB = "import scipy.stats"
REFERENCE_S = 1.0
#: Reference jobs and set-up probes interleaved with the first commands.
PROBES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, timeout: float, stderr=subprocess.DEVNULL) -> tuple[float, int, int]:
    """Run a child to completion: (wall seconds, peak RSS in KiB, exit code).

    The child is reaped with ``os.wait4`` so its peak RSS comes from its
    own rusage, not from this process.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=stderr)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def environment() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package}={importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package}=missing")
    return (f"nproc={os.cpu_count()} machine={platform.machine()} "
            f"cpu={platform.processor() or 'unknown'} python={platform.python_version()} "
            f"{' '.join(versions)} src_sha256={source_digest()[:16]}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "concate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def median_and_tail(values: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(values):.6g}"
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100)[pct - 1]
        text += f", p{pct} {cut:.6g}"
    return text + f" (n={n})"


# ---------------------------------------------------------------------------

def load_reference(workload: str, seed: int, scale: str) -> dict | None:
    if scale != "full":
        return None
    table = json.loads((HERE / "reference.json").read_text())
    return table.get(f"{workload}/any", table.get(f"{workload}/{seed}"))


def compare_reference(check, reference: dict | None) -> tuple[int, int]:
    """(decisions changed, output files whose bytes changed) against the
    reference recorded at the commit that introduced the benchmark."""
    if reference is None:
        return 0, 0
    ref = reference["decisions"]
    changed = sum(a != b for a, b in zip(check.decisions, ref)) + abs(len(check.decisions) - len(ref))
    files = sum(check.digests.get(name) != digest for name, digest in reference["digests"].items())
    return changed, files


def measure(wl, ctx: dict, work: Path, seconds: float, started: float) -> dict:
    """The closed loop: workload commands back to back for ``seconds``.

    The first ``PROBES`` commands are each preceded by a reference job and
    a set-up probe; time left at the end that is too short for another
    command is filled with more of those pairs.
    """
    python = sys.executable
    cli = [python, "-m", "concate.cli", *wl.argv(ctx)]
    setups, refs, walls, rss = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first = None
    probe_cost = loop_cost = 0.0
    deadline = time.perf_counter() + seconds

    def limit() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def probe() -> float:
        t0 = time.perf_counter()
        for argv, times in ((REFERENCE_JOB, refs), (SETUP_PROBE, setups)):
            wall, _, code = spawn([python, "-c", argv], work, limit())
            if code != 0:
                problems.append(f"'python -c {argv}' exited with {code}")
            times.append(wall)
        return time.perf_counter() - t0

    while True:
        remaining = deadline - time.perf_counter()
        probing = len(walls) < PROBES
        if walls and remaining < loop_cost + (probe_cost if probing else 0.0):
            if remaining < probe_cost:
                break
            probe()
            continue
        if probing:
            probe_cost = max(probe_cost, probe())
        for name in ctx["outputs"]:
            (work / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        with (work / "stderr.txt").open("wb") as err:
            wall, maxrss, code = spawn(cli, work, limit(), stderr=err)
        walls.append(wall)
        rss.append(maxrss / 1024.0)
        if code != 0:
            message = (work / "stderr.txt").read_text(errors="replace").strip()[-400:]
            problems.append(f"exit code {code}: {message}")
            check = wl.check(work, ctx)
            attempted += check.attempted
            failed += check.attempted
            break
        if first is None or digests(work, ctx["outputs"]) != first.digests:
            check = wl.check(work, ctx)
            if first is None:
                first = check
            else:
                problems.append("outputs differ between identical invocations")
            problems.extend(check.problems)
        else:
            check = first
        attempted += check.attempted
        failed += check.failed
        loop_cost = max(loop_cost, time.perf_counter() - t0)
    return {"setups": setups, "refs": refs, "walls": walls, "rss": rss, "attempted": attempted,
            "failed": failed, "problems": problems, "check": first}


def run_end_to_end(wl, ctx, work, seconds, started, units) -> dict:
    m = measure(wl, ctx, work, seconds, started)
    walls, setups, refs = m["walls"], m["setups"], m["refs"]
    speed = REFERENCE_S / statistics.median(refs)
    wall = statistics.median(walls) * speed
    values = {
        "wall_s": wall,
        "work_per_s": wl.work(ctx) / wall,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": statistics.median(m["rss"]),
    }
    print(f"reference job: {median_and_tail(refs)} s; timings below are scaled by "
          f"{speed:.4f} to a machine on which it takes {REFERENCE_S:g} s")
    print(f"wall_s: {values['wall_s']:.6g} s (raw {median_and_tail(walls)} s)")
    print(f"work_per_s: {values['work_per_s']:.6g} {wl.work_unit}/s "
          f"({wl.work(ctx)} {wl.work_unit} / wall_s; raw {wl.work(ctx) / statistics.median(walls):.6g},"
          f" n={len(walls)})")
    print(f"setup_s: {values['setup_s']:.6g} s (raw {median_and_tail(setups)} s)")
    print(f"peak_rss_mb: {median_and_tail(m['rss'])} MB")
    print(f"error_rate: {m['failed'] / m['attempted']:.6g} ({m['failed']} failed of "
          f"{m['attempted']} operations, n={len(walls)} invocations)")
    report_check(m["check"], m["problems"])
    return {
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report_check(check, problems: list[str]) -> None:
    if check is not None:
        for note in check.notes:
            print(f"note: {note}")
        for failure in check.failures:
            print(f"failed operation: {failure}")
    for problem in problems[:10]:
        print(f"check: {problem}")
    print(f"output checks: {'passed' if not problems else f'{len(problems)} problem(s)'}")


def import_times(work: Path) -> dict:
    """Cumulative import time of ``concate.cli`` and of scipy inside it,
    from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import concate.cli"],
                          cwd=work, env=child_env(), capture_output=True, text=True, timeout=60)
    concate_us = scipy_us = 0
    stack: list[tuple[int, bool]] = []
    for line in reversed(proc.stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        name = field.lstrip()
        depth = (len(field) - len(name) - 1) // 2
        cumulative = int(parts[1])
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy:
            scipy_us += cumulative
        if depth == 0 and (name == "concate" or name.startswith("concate.")):
            concate_us += cumulative
        stack.append((depth, in_scipy or is_scipy))
    return {"import.concate_s": concate_us / 1e6, "import.scipy_s": scipy_us / 1e6}


def run_traced(wl, ctx, work, seed, scale, started, units) -> dict:
    layers = import_times(work)
    spans = WORK_ROOT / "traces" / f"{wl.name}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    config = {
        "argv": wl.argv(ctx),
        "rows_in_file": ctx["panel"].rows_in_file if "panel" in ctx else 0,
        "reps": ctx.get("reps", 0),
        "spans": str(spans),
        "result": str(work / "trace.json"),
    }
    with (work / "stderr.txt").open("wb") as err:
        _, _, code = spawn([sys.executable, str(HERE / "tracing.py"), json.dumps(config)], work,
                           RUN_LIMIT_S - (time.perf_counter() - started), stderr=err)
    problems = []
    if code != 0:
        message = (work / "stderr.txt").read_text(errors="replace").strip()[-400:]
        problems.append(f"traced replay exited with {code}: {message}")
        check = None
    else:
        trace = json.loads((work / "trace.json").read_text())
        layers.update(trace["layers"])
        problems.extend(trace["problems"])
        for note in trace["notes"]:
            print(f"trace: {note}")
        check = wl.check(work, ctx)
        problems.extend(check.problems)
        reference = load_reference(wl.name, seed, scale)
        changed, files = compare_reference(check, reference)
        layers["check.decisions_changed"] = changed
        layers["check.bytes_changed"] = files
        print(f"reference for seed {seed}: {'compared' if reference else 'none recorded'}")
        print(f"spans written to {spans.relative_to(ROOT)}")
    for name, unit in units.items():
        if name in layers:
            print(f"{name}: {layers[name]:.6g} {unit}")
    report_check(check, problems)
    attempted = check.attempted if check else 1
    return {
        "correct": not problems and check is not None,
        "attempted": attempted,
        "failed": check.failed if check else attempted,
        "metrics": {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "concate" / "cli.py").is_file():
        print(f"error: {SRC / 'concate' / 'cli.py'} not found; run from a concATE checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(f"workload {wl.name}, seed {args.seed}, scale {args.scale}, "
              f"{'traced' if args.trace else f'{args.seconds:g} s closed loop, 1 client'}")
        print(f"env: {environment()}")
        t0 = time.perf_counter()
        ctx = wl.prepare(args.seed, work, args.scale)
        if ctx["input"] is not None:
            panel = ctx["panel"]
            print(f"input: {ctx['input'].name} rows={panel.rows_in_file} "
                  f"retained={panel.outcome.size} sha256={inputs.sha256(ctx['input'])} "
                  f"(generated in {time.perf_counter() - t0:.2f} s, not timed)")
        else:
            print(f"input: none (command: {' '.join(wl.argv(ctx))})")
        if args.trace:
            result = run_traced(wl, ctx, work, args.seed, args.scale, started, units)
        else:
            result = run_end_to_end(wl, ctx, work, args.seconds, started, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
