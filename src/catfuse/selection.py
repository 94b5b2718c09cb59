"""Tuning-parameter selection: K-fold cross-validation and AIC/BIC.

The tuned fit is three steps, each stated once: fold scores on a common
s/s_max grid (`score_folds`), s at their first minimum mean
(`CvCurve.from_scores`), and the fit at that s (`fit_at`). Fold λ scales
differ, so each fold contributes its path's point nearest each grid value
(`PathResult.nearest`). Adaptive weights are recomputed on every training
part so no test information leaks into the weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .coding import build_augmented
from .datamodel import Dataset, level_values
from .errors import (
    FoldRankDeficient,
    NotConverged,
    OlsUnavailable,
    RankDeficient,
    UnobservedLevel,
)
from .solver import DEFAULT_GRID_SIZE, PathResult, PathSolution, path
from .structure import (
    ClusterPartition,
    cluster_labels_path,
    degrees_of_freedom,
    extract_clusters,
    extract_clusters_path,
    partition_from_labels,
    refit,
)
from .weights import (
    adaptive_weights,
    ols_coefficients,
    standard_weights,
    with_spatial,
)


DEFAULT_K_FOLDS = 5


@dataclass(frozen=True)
class CvConfig:
    k_folds: int = DEFAULT_K_FOLDS
    grid_size: int = DEFAULT_GRID_SIZE
    seed: int = 0
    adaptive: bool = False
    use_frequency: bool = False
    refit_inside: bool = False
    spatial_h: Optional[float] = None


@dataclass(frozen=True)
class CvCurve:
    s_grid: np.ndarray                # common s_ratio grid, ascending
    mean_score: np.ndarray
    fold_scores: np.ndarray           # (grid_size, K)
    chosen_s_ratio: float

    @classmethod
    def from_scores(cls, s_grid: np.ndarray, fold_scores: np.ndarray) -> "CvCurve":
        """The curve of score_folds' output; the one CV choice: s at the
        first minimum of the mean fold score."""
        mean_score = fold_scores.mean(axis=1)
        return cls(s_grid, mean_score, fold_scores, float(s_grid[int(np.argmin(mean_score))]))


class PointFit(NamedTuple):
    """The fit at one point of a path (fit_at)."""
    solution: PathSolution            # the path point nearest the requested s
    beta: Dict[str, np.ndarray]       # full per-level vectors
    partition: ClusterPartition
    intercept: float


def fold_assignment(n: int, k_folds: int, seed: int) -> List[np.ndarray]:
    """Deterministic unstratified folds; sizes differ by at most one."""
    if k_folds < 2:
        raise ValueError("K must be >= 2")
    if n < 2 * k_folds:
        raise ValueError(f"need n >= 2K observations, got n={n}, K={k_folds}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k_folds)]


def _effects(betas: Sequence[Dict[str, np.ndarray]], ds: Dataset) -> np.ndarray:
    """(len(betas) × n) sums of per-level effects, one row per β dict."""
    out = np.zeros((len(betas), ds.n))
    for l, sch in enumerate(ds.schemas):
        out += level_values(betas, sch)[:, ds.codes[:, l]]
    return out


def _residuals(
    betas: Sequence[Dict[str, np.ndarray]], train: Dataset, test: Dataset
) -> np.ndarray:
    """test.y minus each β's prediction, its intercept fitted on train
    (intercept_for): a (len(betas) × test.n) array."""
    alpha = train.y.mean() - _effects(betas, train).mean(axis=1)
    return test.y - (alpha[:, None] + _effects(betas, test))


def predicted_effects(beta: Dict[str, np.ndarray], ds: Dataset) -> np.ndarray:
    """Sum of per-level effects for each observation of ds; raises
    ShapeMismatch unless each factor has one value per level."""
    return _effects([beta], ds)[0]


def intercept_for(beta: Dict[str, np.ndarray], train: Dataset) -> float:
    """Least-squares intercept given fixed effects: centers the fit on train."""
    return float(train.y.mean() - predicted_effects(beta, train).mean())


def fit_at(pr: PathResult, ds: Dataset, s_ratio: float, refit_after: bool = False) -> PointFit:
    """The fit at the point of pr (a path on ds) nearest s_ratio: its β,
    extract_clusters partition and intercept_for intercept, or with
    `refit_after` the β, partition and own intercept of their OLS refit."""
    sol = pr.solution_at(s_ratio)
    part = extract_clusters(sol.beta, ds.schemas)
    if refit_after:
        rf = refit(ds, part)
        return PointFit(sol, rf.beta, rf.partition, rf.intercept)
    return PointFit(sol, sol.beta, part, intercept_for(sol.beta, ds))


def build_weights(
    ds: Dataset,
    adaptive: bool,
    use_frequency: bool,
    spatial_h: Optional[float] = None,
):
    ws = standard_weights(ds, use_frequency=use_frequency)
    if adaptive:
        ws = adaptive_weights(ws, ols_coefficients(ds))
    if spatial_h is not None:
        ws = with_spatial(ws, ds.schemas, spatial_h)
    return ws


@dataclass
class _FoldFit:
    train: Dataset
    test: Dataset
    path: PathResult


def compute_fold_paths(ds: Dataset, config: CvConfig) -> List[_FoldFit]:
    """Per-fold training paths of config's folds, weights and grid; shared
    by CV scorers with and without refit (config.refit_inside is not read).

    A failure names its fold: a singular training part raises
    FoldRankDeficient, and a NotConverged from the fold's path keeps its
    class with "(fold f)" added to its message.
    """
    folds = fold_assignment(ds.n, config.k_folds, config.seed)
    all_rows = np.arange(ds.n)
    fits = []
    for f, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, test_rows)
        train = ds.subset(train_rows)
        test = ds.subset(test_rows)
        try:
            ws = build_weights(train, config.adaptive, config.use_frequency, config.spatial_h)
            pr = path(build_augmented(train, ws), config.grid_size)
        except (RankDeficient, OlsUnavailable, UnobservedLevel) as e:
            raise FoldRankDeficient(f, detail=str(e))
        except NotConverged as e:
            raise type(e)(f"{e} (fold {f})") from e
        fits.append(_FoldFit(train=train, test=test, path=pr))
    return fits


def _refit_betas(
    train: Dataset, betas: Sequence[Dict[str, np.ndarray]], fold: int
) -> Tuple[List[Dict[str, np.ndarray]], np.ndarray]:
    """refit(train, ·).beta at each distinct partition of the β, and the
    index of each β's partition in that list: the cluster labels of all β
    are read in one pass, and each distinct labelling is refitted once."""
    labels = cluster_labels_path(betas, train.schemas)
    distinct, which = np.unique(labels, axis=0, return_inverse=True)
    fitted = []
    for row in distinct:
        try:
            fitted.append(refit(train, partition_from_labels(row, train.schemas)).beta)
        except RankDeficient as e:
            raise FoldRankDeficient(fold, detail=str(e))
    # the shape of the inverse differs across numpy versions
    return fitted, which.ravel()


def score_folds(
    fits: Sequence[_FoldFit],
    grid_size: int,
    refit_inside: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map each fold's curve onto the common s grid; returns (s_grid, scores).

    scores[g, f] is fold f's test MSEP at the point of its path nearest
    s_grid[g] (PathResult.nearest), s_grid = linspace(0, 1, grid_size).
    With `refit_inside`, the fold path's cluster labels are read in one
    cluster_labels_path pass, and each distinct labelling is refitted on
    the training part and scored once (refit reads only the labels).
    """
    s_grid = np.linspace(0.0, 1.0, grid_size)
    scores = np.empty((grid_size, len(fits)))
    for f, fit in enumerate(fits):
        betas = [sol.beta for sol in fit.path.solutions]
        which = np.arange(len(betas))
        if refit_inside:
            betas, which = _refit_betas(fit.train, betas, f)
        msep = (_residuals(betas, fit.train, fit.test) ** 2).mean(axis=1)
        scores[:, f] = msep[which[fit.path.nearest(s_grid)]]
    return s_grid, scores


def kfold_cv(ds: Dataset, config: CvConfig) -> CvCurve:
    """Cross-validated prediction error over the s/s_max grid: score_folds
    on compute_fold_paths, with s chosen by CvCurve.from_scores.

    Weights (including adaptive OLS references) are recomputed on each
    training part. A singular training part raises FoldRankDeficient with
    the fold index; a fold path's NotConverged names the fold too.
    """
    fits = compute_fold_paths(ds, config)
    return CvCurve.from_scores(*score_folds(fits, config.grid_size, config.refit_inside))


def information_criterion(ds: Dataset, path_result: PathResult, kind: str) -> np.ndarray:
    """n·log(RSS/n) + penalty·df̂ per grid point; penalty 2 (AIC) or log n (BIC).

    RSS comes from the penalized fit itself; df̂ from the partition the
    structure module extracts at each point.
    """
    if kind not in ("AIC", "BIC"):
        raise ValueError(f"kind must be AIC or BIC, got {kind!r}")
    pen = 2.0 if kind == "AIC" else float(np.log(ds.n))
    betas = [sol.beta for sol in path_result.solutions]
    rss = (_residuals(betas, ds, ds) ** 2).sum(axis=1)
    df = np.array([degrees_of_freedom(p) for p in extract_clusters_path(betas, ds.schemas)])
    return ds.n * np.log(np.maximum(rss, 1e-300) / ds.n) + pen * df
