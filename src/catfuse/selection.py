"""Tuning-parameter selection: K-fold cross-validation and AIC/BIC.

The tuned fit is one chain, each step stated once: the row split
(`fold_parts`), a path per training part (`compute_fold_paths`), the fold
scores on a common s/s_max grid read off the paths, their curve and s at
its first minimum mean (`score_folds`), and the fit at that s (`fit_at`).
Fold λ scales differ, so each fold contributes its path's point nearest
each grid value (`PathResult.nearest`). Every path, of a fold or of the
full data, is `weighted_path` of one CvConfig. Adaptive weights are
recomputed on every training part so no test information leaks into them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .coding import build_augmented
from .datamodel import Dataset, row_effects
from .errors import (
    FoldRankDeficient,
    NotConverged,
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
    refit,
    refit_labels,
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


def predicted_effects(beta: Dict[str, np.ndarray], ds: Dataset) -> np.ndarray:
    """Sum of per-level effects for each observation of ds; raises
    ShapeMismatch unless each factor has one value per level."""
    return row_effects([beta], ds)[0]


def intercept_for(beta: Dict[str, np.ndarray], train: Dataset) -> float:
    """Least-squares intercept given fixed effects: centers the fit on train."""
    return float(train.y.mean() - row_effects([beta], train)[0].mean())


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


def weighted_path(ds: Dataset, config: CvConfig) -> PathResult:
    """path(build_augmented(ds, build_weights(…))) under config's weights and
    grid, the one place the three meet; config's fold fields are not read."""
    ws = build_weights(ds, config.adaptive, config.use_frequency, config.spatial_h)
    return path(build_augmented(ds, ws), config.grid_size)


def fold_parts(ds: Dataset, k_folds: int, seed: int) -> List[Tuple[Dataset, Dataset]]:
    """Each fold's (training part, test part) of ds under
    fold_assignment(ds.n, k_folds, seed): the one place CV splits rows."""
    folds = fold_assignment(ds.n, k_folds, seed)
    return [(ds.subset(np.sort(np.concatenate(folds[:f] + folds[f + 1:]))), ds.subset(test_rows))
            for f, test_rows in enumerate(folds)]


def compute_fold_paths(
    parts: Sequence[Tuple[Dataset, Dataset]], config: CvConfig
) -> List[PathResult]:
    """weighted_path of config's weights and grid on each fold's training
    part (fold_parts); its fold fields and refit_inside are not read, so
    one split serves every weighting and both CV scorers.

    A failure names its fold: a singular training part raises
    FoldRankDeficient, and a NotConverged from the fold's path keeps its
    class with "(fold f)" added to its message.
    """
    paths = []
    for f, (train, _) in enumerate(parts):
        try:
            paths.append(weighted_path(train, config))
        except (RankDeficient, UnobservedLevel) as e:
            raise FoldRankDeficient(f, detail=str(e))
        except NotConverged as e:
            raise type(e)(f"{e} (fold {f})") from e
    return paths


def _refit_levels(
    train: Dataset, betas: Sequence[Dict[str, np.ndarray]], fold: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The (distinct × L) stack of refit_labels(train, ·).levels at each
    distinct partition of the β, and the index of each β's partition in it:
    the cluster labels of all β are read in one pass, and each distinct
    labelling is refitted once."""
    labels = cluster_labels_path(betas, train.schemas)
    distinct, which = np.unique(labels, axis=0, return_inverse=True)
    levels = np.empty(distinct.shape)
    for i, row in enumerate(distinct):
        try:
            levels[i] = refit_labels(train, row).levels
        except RankDeficient as e:
            raise FoldRankDeficient(fold, detail=str(e))
    # the shape of the inverse differs across numpy versions
    return levels, which.ravel()


def score_folds(
    parts: Sequence[Tuple[Dataset, Dataset]],
    paths: Sequence[PathResult],
    refit_inside: bool,
) -> CvCurve:
    """The CV curve of the fold paths (compute_fold_paths) on their
    (training, test) parts (fold_parts), on s_grid = linspace(0, 1, G) for
    the G points of each path, and the CV choice: s at the first minimum of
    the mean fold score. fold_scores[g, f] is fold f's test MSEP at the
    point of its path nearest s_grid[g] (PathResult.nearest); only those
    points are scored. With `refit_inside`, their cluster labels are read
    in one cluster_labels_path pass and each distinct labelling is refitted
    on the training part once (refit_labels). Parts and paths of different
    lengths raise ValueError.
    """
    s_grid = np.linspace(0.0, 1.0, len(paths[0].solutions))
    scores = np.empty((len(s_grid), len(paths)))
    for f, ((train, test), pr) in enumerate(zip(parts, paths, strict=True)):
        # the points the grid values read, and the fit each value reads
        points, at = np.unique(pr.nearest(s_grid), return_inverse=True)
        betas = [pr.solutions[i].beta for i in points]
        if refit_inside:
            betas, which = _refit_levels(train, betas, f)
            at = which[at]
        # each β's intercept is fitted on the training part (intercept_for)
        alpha = train.y.mean() - row_effects(betas, train).mean(axis=1)
        msep = ((test.y - (alpha[:, None] + row_effects(betas, test))) ** 2).mean(axis=1)
        scores[:, f] = msep[at]
    mean = scores.mean(axis=1)
    return CvCurve(s_grid, mean, scores, float(s_grid[int(np.argmin(mean))]))


def kfold_cv(ds: Dataset, config: CvConfig) -> CvCurve:
    """Cross-validated prediction error over the s/s_max grid: score_folds
    of fold_parts and their compute_fold_paths.

    Weights (including adaptive OLS references) are recomputed on each
    training part. A singular training part raises FoldRankDeficient with
    the fold index; a fold path's NotConverged names the fold too.
    """
    parts = fold_parts(ds, config.k_folds, config.seed)
    return score_folds(parts, compute_fold_paths(parts, config), config.refit_inside)


def information_criterion(ds: Dataset, path_result: PathResult, kind: str) -> np.ndarray:
    """n·log(RSS/n) + penalty·df̂ per grid point; penalty 2 (AIC) or log n (BIC).

    RSS comes from the penalized fit itself, each point's residuals read as
    y − intercept_for − predicted_effects, in that order; df̂ from the
    partition the structure module extracts at each point.
    """
    if kind not in ("AIC", "BIC"):
        raise ValueError(f"kind must be AIC or BIC, got {kind!r}")
    pen = 2.0 if kind == "AIC" else float(np.log(ds.n))
    betas = [sol.beta for sol in path_result.solutions]
    effects = row_effects(betas, ds)
    alpha = ds.y.mean() - effects.mean(axis=1)
    rss = (((ds.y - alpha[:, None]) - effects) ** 2).sum(axis=1)
    df = np.array([degrees_of_freedom(p) for p in extract_clusters_path(betas, ds.schemas)])
    return ds.n * np.log(np.maximum(rss, 1e-300) / ds.n) + pen * df
