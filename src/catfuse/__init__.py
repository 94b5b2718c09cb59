"""Fusion and selection for categorical predictors.

Least-squares fitting with L1 penalties on coefficient differences:
within-factor category fusion and whole-factor selection for nominal and
ordinal predictors, solved along the full regularization path through a
quadratic restriction penalty, with adaptive, frequency and spatial
weights, OLS refitting, cross-validated tuning and a simulation harness.

Each exported name's home module is imported the first time the name is
read (PEP 562), so `import catfuse` loads no submodule.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# exported name -> home module; a module name maps to the module
_HOME = {
    **dict.fromkeys(("Dataset", "FactorSchema", "ingest_csv", "load_schema"), "datamodel"),
    **dict.fromkeys(("AugmentedProblem", "DEFAULT_SQRT_GAMMA", "ThetaLayout", "build_augmented",
                     "theta_layout", "u_transform"), "coding"),
    **dict.fromkeys(("WeightSet", "adaptive_weights", "ols_coefficients", "spatial_factors",
                     "standard_weights", "with_spatial"), "weights"),
    **dict.fromkeys(("PathResult", "PathSolution", "PrecisionReport", "back_transform", "path"),
                    "solver"),
    **dict.fromkeys(("ClusterPartition", "FactorPartition", "RefitResult", "degrees_of_freedom",
                     "extract_clusters", "extract_clusters_path", "refit"), "structure"),
    **dict.fromkeys(("CvConfig", "CvCurve", "build_weights", "fit_at", "fold_assignment",
                     "information_criterion", "kfold_cv", "weighted_path"), "selection"),
    **dict.fromkeys(("EvalMetrics", "Scenario", "SimReport", "evaluate", "generate",
                     "make_scenario", "parse_variant", "run_study"), "simlab"),
    "errors": "errors",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)
