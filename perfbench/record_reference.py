"""Record the reference decisions and output digests in ``reference.json``.

    python3 perfbench/record_reference.py

Runs every workload once per seed in SEEDS at full size through
the CLI, checks the outputs, and stores what ``check.decisions_changed``
and ``check.bytes_changed`` are later counted against: per scan look the
skip and exclusion flags plus the tipping threshold and direction, per
coverage cell the coverage and redraws, and the sha256 of every output.
The simulate workload does not depend on the seed and is stored once.
Run it only at a commit whose decisions should become the reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import HERE, RUN_LIMIT_S, WORK_ROOT, spawn
from workloads import WORKLOADS

SEEDS = range(32)


def record(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    work = WORK_ROOT / f"reference-{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = wl.prepare(seed, work, "full")
        cli = [sys.executable, "-m", "concate.cli", *wl.argv(ctx)]
        _, _, code = spawn(cli, work, RUN_LIMIT_S)
        check = wl.check(work, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or check.problems:
        raise SystemExit(f"{name} seed {seed}: exit {code}, problems {check.problems[:3]}")
    return {"decisions": check.decisions, "digests": check.digests}


def main() -> int:
    lines = []
    for name in WORKLOADS:
        for seed in ["any"] if name == "simulate-table" else SEEDS:
            t0 = time.perf_counter()
            entry = record(name, 0 if seed == "any" else seed)
            lines.append(f'"{name}/{seed}": {json.dumps(entry, separators=(",", ":"), sort_keys=True)}')
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
