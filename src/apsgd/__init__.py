"""Streaming estimation and inference under linear-equality constraints.

Projected stochastic gradient descent with iterate averaging, online
covariance estimation, confidence intervals, and a specification test for
the constraints, from one pass over a stream fed in blocks of observations.
"""

from .distributions import (
    chi2_quantile,
    noncentral_chi2_cdf,
    normal_quantile,
)
from .estimator import EstimatorState, LearningRate
from .exceptions import (
    ApsgdError,
    ConfigError,
    DataError,
    DegenerateTestError,
    DimensionError,
    DomainError,
    IdentificationError,
    InfeasibleConstraintError,
    NumericalError,
    RankDeficiencyError,
)
from .inference import (
    InferenceReport,
    TestResult,
    asymptotic_covariance,
    confidence_interval,
    coordinate_report,
    efficiency_gap,
    local_power,
    specification_test,
    test_from_states,
)
from .linalg import (
    Constraint,
    EigenDecomposition,
    build_projection,
    pinv_truncated,
    symmetric_eigen,
)
from .models import (
    MODEL_FAMILIES,
    CustomModel,
    LinearModel,
    LogisticModel,
    LossModel,
    MeanModel,
)
from .simulate import (
    PRESETS,
    DgpPreset,
    DgpSpec,
    ExperimentConfig,
    ExperimentResult,
    draw_block,
    full_scale,
    load_config,
    parse_config_text,
    replicate_streams,
    replication_rng,
    resolve_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ApsgdError",
    "ConfigError",
    "Constraint",
    "CustomModel",
    "DataError",
    "DegenerateTestError",
    "DgpPreset",
    "DgpSpec",
    "DimensionError",
    "DomainError",
    "EigenDecomposition",
    "EstimatorState",
    "ExperimentConfig",
    "ExperimentResult",
    "IdentificationError",
    "InferenceReport",
    "InfeasibleConstraintError",
    "LearningRate",
    "LinearModel",
    "LogisticModel",
    "LossModel",
    "MeanModel",
    "MODEL_FAMILIES",
    "NumericalError",
    "PRESETS",
    "RankDeficiencyError",
    "TestResult",
    "asymptotic_covariance",
    "build_projection",
    "chi2_quantile",
    "confidence_interval",
    "coordinate_report",
    "draw_block",
    "efficiency_gap",
    "full_scale",
    "load_config",
    "local_power",
    "noncentral_chi2_cdf",
    "normal_quantile",
    "parse_config_text",
    "pinv_truncated",
    "replicate_streams",
    "replication_rng",
    "resolve_config",
    "run_experiment",
    "specification_test",
    "symmetric_eigen",
    "test_from_states",
]
