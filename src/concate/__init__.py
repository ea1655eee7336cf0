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
from .concentration import (
    BernsteinConstants,
    ConcentrationBand,
    PaddingConfig,
    Paddings,
    Truncation,
    bernstein_mixing_terms,
    bernstein_term3_root,
    bernstein_tmu_iid,
    bernstein_tmu_mixing,
    dkw_epsilon,
    hoeffding_tp,
    iid_band,
    mixing_band,
    padded_interval,
)
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
from .estimators import (
    GroupStats,
    NaiveEstimate,
    empirical_quantile,
    group_stats,
    naive_estimate,
    split_arms,
)
from .hybrid import HybridBand, ReplicationBands, hybrid_band, replication_bands
from .manski import (
    DeltaMethodBand,
    IdentificationRegion,
    SupportBounds,
    delta_method_band,
    extrema_support,
    known_support,
    manski_region,
    trimmed_support,
)
from .montecarlo import (
    CellCoverage,
    DgpSpec,
    SimulatedData,
    coverage_table,
    generate,
    replication_seed,
    run_cell,
    write_coverage_csv,
)
from .panel import (
    PanelDataset,
    PanelSchema,
    SummaryStats,
    TreatmentAssignment,
    assign_treatment,
    load_csv,
    rolling_correlation,
    summary_stats,
)
from .sequential import ScanResult, ThresholdGrid, ThresholdResult, scan, spend_alpha
from .stats import long_run_variance, norm_ppf

__version__ = "0.1.0"

__all__ = [
    "BandOptions",
    "BandResult",
    "BernsteinConstants",
    "CellCoverage",
    "ConcateError",
    "ConcentrationBand",
    "ConfigurationError",
    "DataError",
    "DegenerateArmError",
    "DeltaMethodBand",
    "DgpSpec",
    "EmptyScanError",
    "GroupStats",
    "HybridBand",
    "IdentificationRegion",
    "METHODS",
    "NaiveEstimate",
    "PaddingConfig",
    "Paddings",
    "PanelDataset",
    "PanelSchema",
    "ReplicationBands",
    "RowError",
    "ScanResult",
    "SchemaError",
    "SimulatedData",
    "SummaryStats",
    "SupportBounds",
    "ThresholdGrid",
    "ThresholdResult",
    "TreatmentAssignment",
    "Truncation",
    "ValidationError",
    "assign_treatment",
    "bernstein_mixing_terms",
    "bernstein_term3_root",
    "bernstein_tmu_iid",
    "bernstein_tmu_mixing",
    "compute_band",
    "coverage_table",
    "delta_method_band",
    "dkw_epsilon",
    "empirical_quantile",
    "extrema_support",
    "generate",
    "group_stats",
    "hoeffding_tp",
    "hybrid_band",
    "iid_band",
    "known_support",
    "load_csv",
    "long_run_variance",
    "manski_region",
    "mixing_band",
    "naive_estimate",
    "norm_ppf",
    "padded_interval",
    "replication_bands",
    "replication_seed",
    "rolling_correlation",
    "run_cell",
    "scan",
    "spend_alpha",
    "split_arms",
    "summary_stats",
    "trimmed_support",
    "write_coverage_csv",
]
