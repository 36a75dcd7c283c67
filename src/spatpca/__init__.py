"""Regularized principal component analysis for spatial data.

Fits smooth, optionally sparse eigenfunctions of a spatial process by
penalized low-rank approximation, then recovers the process covariance
by shrinkage of the projected sample covariance.  Tuning weights are
chosen by fold-based cross-validation.
"""

from .covariance import (
    CovarianceModel,
    SampleCovariance,
    covariance_at,
    estimate_parameters,
    predict,
    rotated_eigenfunctions,
)
from .solver import (
    EigenBasis,
    RhoTooSmallError,
    SolverConfig,
    fit,
)
from .tps import (
    ConditioningError,
    PenaltyOperator,
    SpatialDomain,
    SplineCoefficients,
    build_penalty,
    evaluate,
    solve_coefficients,
)
from .tuning import (
    CvReport,
    FoldAssignment,
    TunedFit,
    TuningGrid,
    cv_gamma,
    cv_tau,
    default_log_grid,
    partition_folds,
    restrict_grid,
    select_and_fit,
)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError",
    "CovarianceModel",
    "CvReport",
    "EigenBasis",
    "FoldAssignment",
    "PenaltyOperator",
    "RhoTooSmallError",
    "SampleCovariance",
    "SolverConfig",
    "SpatialDomain",
    "SplineCoefficients",
    "TunedFit",
    "TuningGrid",
    "build_penalty",
    "covariance_at",
    "cv_gamma",
    "cv_tau",
    "default_log_grid",
    "estimate_parameters",
    "evaluate",
    "fit",
    "partition_folds",
    "predict",
    "restrict_grid",
    "rotated_eigenfunctions",
    "select_and_fit",
    "solve_coefficients",
    "__version__",
]
