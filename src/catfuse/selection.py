"""Tuning-parameter selection: K-fold cross-validation and AIC/BIC.

Fold λ scales differ, so fold curves are merged on a common s/s_max grid;
each fold contributes the grid point whose own s_ratio lies nearest (ties
toward the sparser, larger-λ point). Adaptive weights are recomputed on
every training part so no test information leaks into the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coding import build_augmented, DEFAULT_SQRT_GAMMA
from .datamodel import Dataset
from .errors import (
    FoldRankDeficient,
    OlsUnavailable,
    RankDeficient,
    UnobservedLevel,
)
from .solver import PathResult, path
from .structure import (
    extract_clusters,
    refit,
    degrees_of_freedom,
)
from .weights import (
    adaptive_weights,
    ols_coefficients,
    standard_weights,
    with_spatial,
)


@dataclass(frozen=True)
class CvConfig:
    k_folds: int = 5
    grid_size: int = 100
    seed: int = 0
    adaptive: bool = False
    use_frequency: bool = False
    refit_inside: bool = False
    gamma: float = DEFAULT_SQRT_GAMMA ** 2
    spatial_h: Optional[float] = None


@dataclass(frozen=True)
class CvCurve:
    s_grid: np.ndarray                # common s_ratio grid, ascending
    mean_score: np.ndarray
    fold_scores: np.ndarray           # (grid_size, K)
    chosen_s_ratio: float
    seed: int
    refit_inside: bool
    k_folds: int


def fold_assignment(n: int, k_folds: int, seed: int) -> List[np.ndarray]:
    """Deterministic unstratified folds; sizes differ by at most one."""
    if k_folds < 2:
        raise ValueError("K must be >= 2")
    if n < 2 * k_folds:
        raise ValueError(f"need n >= 2K observations, got n={n}, K={k_folds}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k_folds)]


def predicted_effects(beta: Dict[str, np.ndarray], ds: Dataset) -> np.ndarray:
    """Sum of per-level effects for each observation of ds."""
    out = np.zeros(ds.n)
    for l, sch in enumerate(ds.schemas):
        out += np.asarray(beta[sch.name])[ds.codes[:, l]]
    return out


def intercept_for(beta: Dict[str, np.ndarray], train: Dataset) -> float:
    """Least-squares intercept given fixed effects: centers the fit on train."""
    return float(train.y.mean() - predicted_effects(beta, train).mean())


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


def compute_fold_paths(
    ds: Dataset,
    k_folds: int,
    seed: int,
    adaptive: bool,
    use_frequency: bool,
    gamma: float,
    grid_size: int,
    spatial_h: Optional[float] = None,
) -> List[_FoldFit]:
    """Per-fold training paths; shared by CV scorers with and without refit."""
    folds = fold_assignment(ds.n, k_folds, seed)
    all_rows = np.arange(ds.n)
    fits = []
    for f, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, test_rows)
        train = ds.subset(train_rows)
        test = ds.subset(test_rows)
        try:
            ws = build_weights(train, adaptive, use_frequency, spatial_h)
            pr = path(build_augmented(train, ws, gamma), grid_size)
        except (RankDeficient, OlsUnavailable, UnobservedLevel) as e:
            raise FoldRankDeficient(f, detail=str(e))
        fits.append(_FoldFit(train=train, test=test, path=pr))
    return fits


def score_folds(
    fits: Sequence[_FoldFit],
    grid_size: int,
    refit_inside: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map each fold's curve onto the common s grid; returns (s_grid, scores)."""
    s_grid = np.linspace(0.0, 1.0, grid_size)
    scores = np.empty((grid_size, len(fits)))
    for f, fit in enumerate(fits):
        fold_s = np.array([s for _, s in fit.path.grid])
        msep = np.empty(len(fit.path.solutions))
        for g, sol in enumerate(fit.path.solutions):
            beta = sol.beta
            if refit_inside:
                part = extract_clusters(beta, fit.train.schemas)
                try:
                    beta = refit(fit.train, part).beta
                except RankDeficient as e:
                    raise FoldRankDeficient(f, detail=str(e))
            alpha = intercept_for(beta, fit.train)
            pred = alpha + predicted_effects(beta, fit.test)
            msep[g] = float(np.mean((fit.test.y - pred) ** 2))
        # nearest fold point per common-grid point; argmin takes the first
        # (larger-λ, sparser) index on ties
        idx = np.array([int(np.argmin(np.abs(fold_s - s))) for s in s_grid])
        scores[:, f] = msep[idx]
    return s_grid, scores


def kfold_cv(ds: Dataset, config: CvConfig) -> CvCurve:
    """Cross-validated prediction error over the s/s_max grid.

    Weights (including adaptive OLS references) are recomputed on each
    training part. A singular training part raises FoldRankDeficient with
    the fold index.
    """
    fits = compute_fold_paths(
        ds,
        config.k_folds,
        config.seed,
        config.adaptive,
        config.use_frequency,
        config.gamma,
        config.grid_size,
        config.spatial_h,
    )
    s_grid, scores = score_folds(fits, config.grid_size, config.refit_inside)
    mean_score = scores.mean(axis=1)
    chosen = float(s_grid[int(np.argmin(mean_score))])
    return CvCurve(
        s_grid=s_grid,
        mean_score=mean_score,
        fold_scores=scores,
        chosen_s_ratio=chosen,
        seed=config.seed,
        refit_inside=config.refit_inside,
        k_folds=config.k_folds,
    )


def information_criterion(ds: Dataset, path_result: PathResult, kind: str) -> np.ndarray:
    """n·log(RSS/n) + penalty·df̂ per grid point; penalty 2 (AIC) or log n (BIC).

    RSS comes from the penalized fit itself; df̂ from the partition the
    structure module extracts at each point.
    """
    if kind not in ("AIC", "BIC"):
        raise ValueError(f"kind must be AIC or BIC, got {kind!r}")
    pen = 2.0 if kind == "AIC" else float(np.log(ds.n))
    scores = np.empty(len(path_result.solutions))
    for g, sol in enumerate(path_result.solutions):
        alpha = intercept_for(sol.beta, ds)
        pred = alpha + predicted_effects(sol.beta, ds)
        rss = float(np.sum((ds.y - pred) ** 2))
        part = extract_clusters(sol.beta, ds.schemas)
        df = degrees_of_freedom(part)
        scores[g] = ds.n * np.log(max(rss, 1e-300) / ds.n) + pen * df
    return scores
