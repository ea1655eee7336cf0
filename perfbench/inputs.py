"""Seeded panel CSVs for the benchmark workloads.

Each generator takes a ``numpy.random.Generator`` and a size, writes a
panel CSV in the package's standard layout (unit_id, time, outcome,
signal) and returns the retained rows as arrays, so the output checks can
recompute results without parsing the file again.  Values are multiples
of 1e-6 and written with six decimals, so the arrays hold exactly the
floats the program parses.  The same seed and size give the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = "unit_id,time,outcome,signal\n"


@dataclass(frozen=True)
class Panel:
    """The rows the program should retain, in file order."""

    rows_in_file: int
    time: np.ndarray
    outcome: np.ndarray
    signal: np.ndarray


def _micro(values: np.ndarray) -> np.ndarray:
    return np.round(values * 1e6) / 1e6


def _write(path: Path, n_units: int, n_periods: int, outcome: np.ndarray,
           signal: np.ndarray, missing: np.ndarray) -> Panel:
    """Rows are unit-major: all periods of unit 1, then unit 2, and so on."""
    units = np.repeat(np.arange(1, n_units + 1), n_periods)
    times = np.tile(np.arange(1, n_periods + 1), n_units)
    y = [f"{v:.6f}" for v in outcome.tolist()]
    for i in np.flatnonzero(missing).tolist():
        y[i] = ""
    s = [f"{v:.6f}" for v in signal.tolist()]
    with path.open("w", newline="") as fh:
        fh.write(HEADER)
        fh.writelines(
            f"u{u:07d},{t},{yy},{ss}\n"
            for u, t, yy, ss in zip(units.tolist(), times.tolist(), y, s)
        )
    keep = ~missing
    return Panel(units.size, times[keep], outcome[keep], signal[keep])


def ingest_panel(rng: np.random.Generator, n_units: int, path: Path) -> Panel:
    """The bundled demo's design at scale, 4 periods per unit.

    Positive outcome levels near 10 below the jump and near 18 above it,
    with +-0.5 uniform noise.  Signals above 55 sit in [56, 59], so every
    threshold from 60 up leaves the treated arm empty and is skipped, and
    the hybrid band first excludes zero at 55.  About 1% of outcome cells
    are left empty to exercise listwise deletion.
    """
    n_periods = 4
    n = n_units * n_periods
    segments = ((0.05, 0.0, 5.0), (0.84, 5.0, 50.0), (0.07, 50.0, 54.0), (0.04, 56.0, 59.0))
    which = rng.choice(len(segments), size=n, p=[s[0] for s in segments])
    lo = np.array([s[1] for s in segments])[which]
    hi = np.array([s[2] for s in segments])[which]
    signal = _micro(lo + (hi - lo) * rng.random(n))
    outcome = _micro(np.where(signal > 55.0, 18.0, 10.0) + rng.uniform(-0.5, 0.5, n))
    missing = rng.random(n) < 0.01
    return _write(path, n_units, n_periods, outcome, signal, missing)


def returns_panel(rng: np.random.Generator, n_units: int, n_periods: int, path: Path) -> Panel:
    """Returns-like outcomes with mixed signs and serially dependent noise.

    Outcome = 0 below signal 60 and 1 from 60 up, plus AR(1) noise (rho
    0.5, uniform innovations in +-0.25, so |noise| < 0.5) running along
    each unit's rows in file order.  Signals lie in [1, 99], so the
    outermost looks of a 0.5:99.5 grid leave an arm empty and are skipped.
    About 1% of outcome cells are empty.
    """
    n = n_units * n_periods
    innov = rng.uniform(-0.25, 0.25, (n_units, n_periods))
    noise = np.empty_like(innov)
    noise[:, 0] = innov[:, 0]
    for t in range(1, n_periods):
        noise[:, t] = 0.5 * noise[:, t - 1] + innov[:, t]
    signal = _micro(rng.uniform(1.0, 99.0, n))
    outcome = _micro(np.where(signal >= 60.0, 1.0, 0.0) + noise.ravel())
    missing = rng.random(n) < 0.01
    return _write(path, n_units, n_periods, outcome, signal, missing)


def long_panel(rng: np.random.Generator, n_units: int, n_periods: int, path: Path) -> Panel:
    """A long, narrow panel whose outcome rises with the signal.

    Outcome = 0.02 * signal + unit effect + standard normal noise, with
    signals uniform on [0, 100]; no cell is missing.
    """
    n = n_units * n_periods
    signal = _micro(rng.uniform(0.0, 100.0, n))
    unit_effect = np.repeat(rng.normal(0.0, 0.5, n_units), n_periods)
    outcome = _micro(0.02 * signal + unit_effect + rng.standard_normal(n))
    return _write(path, n_units, n_periods, outcome, signal, np.zeros(n, dtype=bool))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
