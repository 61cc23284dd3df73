"""Time-lagged technology-to-product specialization networks.

Pipeline: load yearly country-activity panels, sum them over windows,
binarize specialization by comparative advantage, contract the two layers
over common countries into a directed technology-product matrix, validate
each link against a degree-constrained maximum-entropy null ensemble, keep
links significant in every configured period pair, and rank activities by
the fitness-complexity iteration.
"""

from .assist import AssistMatrix, compute_assist
from .config import LagSpec, RunConfig, parse_config, serialize_config
from .efc import (
    ActivityRanking,
    FitnessComplexity,
    LinkDifferenceCurve,
    cumulative_link_difference,
    rank_activities,
    run_efc,
)
from .errors import (
    AllZeroError,
    AxisMismatchError,
    ConfigError,
    FitError,
    PanelError,
    StageError,
    TpnetError,
    WindowError,
)
from .nullmodel import BiCMModel, fit_bicm
from .panels import (
    ActivityPanel,
    WindowedMatrix,
    aggregate_activities,
    aggregate_window,
    align_countries,
    read_panel_csv,
)
from .pipeline import (
    PipelineResult,
    RobustnessReport,
    run_pipeline,
    run_robustness,
)
from .rca import BinaryMatrix, RcaMatrix, binarize, compute_rca
from .validate import (
    PairValidation,
    ValidatedNetwork,
    degree_report,
    intersect_pairs,
    load_hs_sections,
    significance_profile,
    tier_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityPanel",
    "ActivityRanking",
    "AllZeroError",
    "AssistMatrix",
    "AxisMismatchError",
    "BiCMModel",
    "BinaryMatrix",
    "ConfigError",
    "FitError",
    "FitnessComplexity",
    "LagSpec",
    "LinkDifferenceCurve",
    "PairValidation",
    "PanelError",
    "PipelineResult",
    "RcaMatrix",
    "RobustnessReport",
    "RunConfig",
    "StageError",
    "TpnetError",
    "ValidatedNetwork",
    "WindowError",
    "WindowedMatrix",
    "aggregate_activities",
    "aggregate_window",
    "align_countries",
    "binarize",
    "compute_assist",
    "compute_rca",
    "cumulative_link_difference",
    "degree_report",
    "fit_bicm",
    "intersect_pairs",
    "load_hs_sections",
    "parse_config",
    "rank_activities",
    "read_panel_csv",
    "run_efc",
    "run_pipeline",
    "run_robustness",
    "serialize_config",
    "significance_profile",
    "tier_threshold",
]
