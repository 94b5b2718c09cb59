"""Fusion and selection for categorical predictors.

Least-squares fitting with L1 penalties on coefficient differences:
within-factor category fusion and whole-factor selection for nominal and
ordinal predictors, solved along the full regularization path through a
quadratic restriction penalty, with adaptive, frequency and spatial
weights, OLS refitting, cross-validated tuning and a simulation harness.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .datamodel import Dataset, FactorSchema, ingest_csv, load_schema
from .coding import (
    AugmentedProblem,
    DEFAULT_SQRT_GAMMA,
    ThetaLayout,
    build_augmented,
    theta_layout,
    u_back_transform,
    u_transform,
)
from .weights import (
    WeightSet,
    adaptive_weights,
    ols_coefficients,
    spatial_factors,
    standard_weights,
    with_spatial,
)
from .solver import (
    PathResult,
    PathSolution,
    PrecisionReport,
    back_transform,
    ista_oracle,
    lambda_max,
    path,
    solve_lasso,
)
from .structure import (
    ClusterPartition,
    FactorPartition,
    RefitResult,
    degrees_of_freedom,
    extract_clusters,
    extract_clusters_path,
    refit,
)
from .selection import (
    CvConfig,
    CvCurve,
    build_weights,
    fit_at,
    fold_assignment,
    information_criterion,
    kfold_cv,
)
from .simlab import (
    EvalMetrics,
    Scenario,
    SimReport,
    evaluate,
    generate,
    make_scenario,
    parse_variant,
    run_study,
)
from . import errors

__all__ = [
    "__version__",
    "Dataset",
    "FactorSchema",
    "ingest_csv",
    "load_schema",
    "AugmentedProblem",
    "DEFAULT_SQRT_GAMMA",
    "ThetaLayout",
    "build_augmented",
    "theta_layout",
    "u_back_transform",
    "u_transform",
    "WeightSet",
    "adaptive_weights",
    "ols_coefficients",
    "spatial_factors",
    "standard_weights",
    "with_spatial",
    "PathResult",
    "PathSolution",
    "PrecisionReport",
    "back_transform",
    "ista_oracle",
    "lambda_max",
    "path",
    "solve_lasso",
    "ClusterPartition",
    "FactorPartition",
    "RefitResult",
    "degrees_of_freedom",
    "extract_clusters",
    "extract_clusters_path",
    "refit",
    "CvConfig",
    "CvCurve",
    "build_weights",
    "fit_at",
    "fold_assignment",
    "information_criterion",
    "kfold_cv",
    "EvalMetrics",
    "Scenario",
    "SimReport",
    "evaluate",
    "generate",
    "make_scenario",
    "parse_variant",
    "run_study",
    "errors",
]
