"""concATE: concentration-driven confidence bands for partially identified
average treatment effects.

The ATE of a threshold treatment rule is only set-identified when arm
supports must be estimated.  This package builds the plug-in identified
interval, asymptotic delta-method bands, fully finite-sample bands from
DKW / Hoeffding / Bernstein concentration inequalities (independent and
alpha-mixing sampling), and the hybrid band that pads only the supports.
On top sit a family-wise threshold scan with alpha spending and a
reproducible coverage experiment.
"""

from .bands import BandOptions, BandResult, METHODS, compute_band
from .concentration import BernsteinConstants, Truncation
from .errors import (
    ConcateError,
    ConfigurationError,
    DataError,
    DegenerateArmError,
    EmptyScanError,
    RowError,
    SchemaError,
    ValidationError,
)
from .estimators import GroupStats, split_arms
from .montecarlo import CellCoverage, coverage_table, write_coverage_csv
from .panel import PanelDataset, PanelSchema, load_csv
from .sequential import ScanResult, ThresholdGrid, ThresholdResult, scan

__version__ = "0.1.0"

__all__ = [
    "BandOptions",
    "BandResult",
    "BernsteinConstants",
    "CellCoverage",
    "ConcateError",
    "ConfigurationError",
    "DataError",
    "DegenerateArmError",
    "EmptyScanError",
    "GroupStats",
    "METHODS",
    "PanelDataset",
    "PanelSchema",
    "RowError",
    "ScanResult",
    "SchemaError",
    "ThresholdGrid",
    "ThresholdResult",
    "Truncation",
    "ValidationError",
    "compute_band",
    "coverage_table",
    "load_csv",
    "scan",
    "split_arms",
    "write_coverage_csv",
]
