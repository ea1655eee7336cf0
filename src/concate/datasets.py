"""Bundled synthetic panels for demos and end-to-end checks.

Everything here is generated deterministically from fixed seeds, so the
panels are part of the package even though no CSV ships with it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .panel import PanelDataset

TIPPING_DEMO_SEED = 20240517


def write_panel_csv(panel: PanelDataset, path: str | Path) -> None:
    """Write a panel in the standard CSV layout.

    Outcome and signal are written to six decimals, so a panel on a scale
    below about 1e-6 loses its values.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["unit_id", "time", "outcome", "signal"]
        columns = [panel.unit, panel.time.tolist(),
                   [f"{v:.6f}" for v in panel.outcome], [f"{v:.6f}" for v in panel.signal]]
        if panel.group is not None:
            header.append("group")
            columns.append([g or "" for g in panel.group])
        writer.writerow(header)
        writer.writerows(zip(*columns))


def make_tipping_demo_panel(seed: int = TIPPING_DEMO_SEED) -> PanelDataset:
    """A panel whose outcome jumps for signals above 55.

    Outcomes sit near 10 below the jump and near 18 above it, with a
    narrow +-0.5 noise band, so the identified interval at threshold 55
    is far from zero while every lower threshold still straddles it.  No
    signal exceeds 59: thresholds of 60 and above leave the treated arm
    empty and must be reported as skipped, mirroring a sector with too
    few diverse boards to analyze.
    """
    rng = np.random.default_rng(seed)
    segments = [
        (200, 0.0, 5.0, False),    # guarantees a control arm at threshold 5
        (3600, 5.0, 50.0, False),
        (300, 50.0, 54.0, False),  # keeps threshold 50 diluted below tipping
        (200, 56.0, 59.0, True),
    ]
    signals = []
    outcomes = []
    for count, lo, hi, high_outcome in segments:
        signals.append(rng.uniform(lo, hi, count))
        level = 18.0 if high_outcome else 10.0
        outcomes.append(level + rng.uniform(-0.5, 0.5, count))
    signal = np.concatenate(signals)
    outcome = np.concatenate(outcomes)
    order = rng.permutation(signal.size)
    signal = signal[order]
    outcome = outcome[order]
    n_periods = 4
    unit = np.array(
        [f"firm{1 + i // n_periods:04d}" for i in range(signal.size)], dtype=object
    )
    time = np.array([1 + i % n_periods for i in range(signal.size)], dtype=np.int64)
    return PanelDataset(unit=unit, time=time, outcome=outcome, signal=signal)


def make_null_panel(
    n_units: int, n_periods: int, seed: int
) -> PanelDataset:
    """Signal independent of outcome: any detected tipping is a false alarm."""
    rng = np.random.default_rng(seed)
    n = n_units * n_periods
    return PanelDataset(
        unit=np.array([f"u{1 + i // n_periods}" for i in range(n)], dtype=object),
        time=np.array([1 + i % n_periods for i in range(n)], dtype=np.int64),
        outcome=rng.standard_normal(n),
        signal=rng.uniform(0.0, 100.0, n),
    )
