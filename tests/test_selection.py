from __future__ import annotations

import numpy as np
import pytest

from catfuse.coding import build_augmented
from catfuse.datamodel import Dataset, FactorSchema
from catfuse import selection
from catfuse.errors import FoldRankDeficient, NotConverged
from catfuse.selection import (
    CvConfig,
    build_weights,
    compute_fold_paths,
    fold_assignment,
    information_criterion,
    intercept_for,
    kfold_cv,
    predicted_effects,
    score_folds,
)
from catfuse.simlab import generate, make_scenario
from catfuse.solver import path
from catfuse.structure import DEFAULT_CLUSTER_TOL, degrees_of_freedom, extract_clusters, refit

from conftest import toy_mixed_ds


def test_fold_assignment_partitions():
    folds = fold_assignment(23, 5, seed=3)
    assert len(folds) == 5
    sizes = sorted(len(f) for f in folds)
    assert max(sizes) - min(sizes) <= 1
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.arange(23))
    for f in folds:
        assert np.all(np.diff(f) > 0)


def test_fold_assignment_deterministic():
    a = fold_assignment(40, 4, seed=9)
    b = fold_assignment(40, 4, seed=9)
    c = fold_assignment(40, 4, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_fold_assignment_validation():
    with pytest.raises(ValueError):
        fold_assignment(10, 1, seed=0)
    with pytest.raises(ValueError):
        fold_assignment(5, 3, seed=0)


def test_predicted_effects_and_intercept():
    ds = toy_mixed_ds(seed=20)
    beta = {"a": np.array([0.0, 1.0, 1.0, -2.0]),
            "b": np.array([0.0, 2.0, 2.0]),
            "c": np.array([0.0, 0.5])}
    eff = predicted_effects(beta, ds)
    i = 5
    expect = beta["a"][ds.codes[i, 0]] + beta["b"][ds.codes[i, 1]] + beta["c"][ds.codes[i, 2]]
    assert eff[i] == pytest.approx(expect)
    alpha = intercept_for(beta, ds)
    assert alpha == pytest.approx(float(ds.y.mean() - eff.mean()))


@pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 99.0, 99.0], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0]])
def test_predicted_effects_and_intercept_check_the_level_count(values):
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c")),)
    ds = Dataset(np.arange(6.0), np.array([0, 1, 2, 0, 1, 2])[:, None], schemas)
    beta = {"g": np.array(values)}
    for consumer in (predicted_effects, intercept_for):
        with pytest.raises(ValueError, match="factor 'g': expected 3 per-level values"):
            consumer(beta, ds)


def test_kfold_cv_shapes_and_chosen_rule():
    ds = toy_mixed_ds(seed=21, n=150)
    cfg = CvConfig(k_folds=5, grid_size=40, seed=2, adaptive=True,
                   use_frequency=True, refit_inside=False)
    curve = kfold_cv(ds, cfg)
    assert curve.s_grid.shape == (40,)
    assert curve.fold_scores.shape == (40, 5)
    assert np.allclose(curve.mean_score, curve.fold_scores.mean(axis=1))
    first_min = int(np.argmin(curve.mean_score))
    assert curve.chosen_s_ratio == curve.s_grid[first_min]
    assert curve.s_grid[0] == 0.0 and curve.s_grid[-1] == 1.0


def test_cv_flat_scores_choose_smallest_s():
    # constant response: every fit predicts the fold-train mean, so the
    # curve is flat and the tie resolves to the first (smallest) s
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c")),)
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 3, 60)[:, None]
    ds = Dataset(np.full(60, 5.0), codes, schemas)
    curve = kfold_cv(ds, CvConfig(k_folds=4, grid_size=20, seed=1))
    assert curve.chosen_s_ratio == 0.0


def test_cv_refit_scoring_differs():
    ds = toy_mixed_ds(seed=22, n=180)
    fits = compute_fold_paths(ds, CvConfig(
        k_folds=4, grid_size=30, seed=5, adaptive=True, use_frequency=True))
    s_grid, plain = score_folds(fits, 30, refit_inside=False)
    _, refitted = score_folds(fits, 30, refit_inside=True)
    assert plain.shape == refitted.shape == (30, 4)
    assert not np.allclose(plain, refitted)
    # at the unpenalized end both scorers see the saturated model
    assert np.allclose(plain[-1], refitted[-1], atol=1e-6)


def test_fold_rank_deficiency_reports_fold():
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c")),)
    codes = np.array([2] + [0, 1] * 10)[:, None]   # level c observed once
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=21), codes, schemas)
    # the fold holding the single level-c row trains without it; frequency
    # weights are undefined there
    with pytest.raises(FoldRankDeficient) as ei:
        compute_fold_paths(ds, CvConfig(k_folds=3, grid_size=10, use_frequency=True))
    assert 0 <= ei.value.fold < 3
    # adaptive weights fail the same way through the training OLS
    with pytest.raises(FoldRankDeficient):
        compute_fold_paths(ds, CvConfig(k_folds=3, grid_size=10, adaptive=True))


def test_information_criterion_recomputation():
    ds = toy_mixed_ds(seed=23)
    ws = build_weights(ds, adaptive=False, use_frequency=True)
    pr = path(build_augmented(ds, ws), 25)
    aic = information_criterion(ds, pr, "AIC")
    bic = information_criterion(ds, pr, "BIC")
    assert aic.shape == bic.shape == (25,)
    # recompute one point by hand
    g = 12
    sol = pr.solutions[g]
    alpha = intercept_for(sol.beta, ds)
    rss = float(np.sum((ds.y - alpha - predicted_effects(sol.beta, ds)) ** 2))
    df = degrees_of_freedom(extract_clusters(sol.beta, ds.schemas, DEFAULT_CLUSTER_TOL))
    assert aic[g] == pytest.approx(ds.n * np.log(rss / ds.n) + 2 * df)
    assert bic[g] == pytest.approx(ds.n * np.log(rss / ds.n) + np.log(ds.n) * df)
    with pytest.raises(ValueError):
        information_criterion(ds, pr, "DIC")


def test_bic_penalizes_harder_than_aic():
    ds = toy_mixed_ds(seed=24)
    ws = build_weights(ds, adaptive=False, use_frequency=False)
    pr = path(build_augmented(ds, ws), 20)
    aic = information_criterion(ds, pr, "AIC")
    bic = information_criterion(ds, pr, "BIC")
    dfs = np.array([
        degrees_of_freedom(extract_clusters(s.beta, ds.schemas)) for s in pr.solutions
    ])
    assert np.allclose(bic - aic, (np.log(ds.n) - 2.0) * dfs)


def _score_folds_per_point(fits, grid_size, refit_inside):
    """score_folds one grid point at a time: extract_clusters, refit and
    predicted_effects at every point."""
    s_grid = np.linspace(0.0, 1.0, grid_size)
    scores = np.empty((grid_size, len(fits)))
    for f, fit in enumerate(fits):
        fold_s = np.array([s for _, s in fit.path.grid])
        msep = np.empty(len(fit.path.solutions))
        for g, sol in enumerate(fit.path.solutions):
            beta = sol.beta
            if refit_inside:
                beta = refit(fit.train, extract_clusters(beta, fit.train.schemas)).beta
            alpha = float(fit.train.y.mean() - predicted_effects(beta, fit.train).mean())
            pred = alpha + predicted_effects(beta, fit.test)
            msep[g] = float(np.mean((fit.test.y - pred) ** 2))
        idx = [int(np.argmin(np.abs(fold_s - s))) for s in s_grid]
        scores[:, f] = msep[idx]
    return s_grid, scores


@pytest.fixture(scope="module")
def scenario_fold_paths():
    out = {}
    for name, adaptive in (("S1", False), ("S2", True)):
        train = generate(make_scenario(name, seed=2)).train
        out[name] = compute_fold_paths(train, CvConfig(
            k_folds=5, grid_size=40, seed=2, adaptive=adaptive, use_frequency=True))
    return out


@pytest.mark.parametrize("name", ["S1", "S2"])
@pytest.mark.parametrize("refit_inside", [False, True])
def test_score_folds_equals_per_point_reference(scenario_fold_paths, name, refit_inside):
    fits = scenario_fold_paths[name]
    s_grid, scores = score_folds(fits, 40, refit_inside)
    ref_grid, ref = _score_folds_per_point(fits, 40, refit_inside)
    assert s_grid.tobytes() == ref_grid.tobytes()
    assert scores.tobytes() == ref.tobytes()


def test_score_folds_refits_each_distinct_partition_once(scenario_fold_paths, monkeypatch):
    fits = scenario_fold_paths["S2"]
    calls = {}

    def counting_refit(ds, partition):
        key = tuple(fp.clusters for fp in partition.factors)
        calls.setdefault(id(ds), []).append(key)
        return refit(ds, partition)

    monkeypatch.setattr(selection, "refit", counting_refit)
    score_folds(fits, 40, refit_inside=True)
    for fit in fits:
        keys = [tuple(fp.clusters for fp in extract_clusters(s.beta, fit.train.schemas).factors)
                for s in fit.path.solutions]
        made = calls[id(fit.train)]
        assert sorted(made) == sorted(set(keys))
        assert len(made) < len(keys)


def test_information_criterion_equals_per_point_reference():
    for name in ("S1", "S2"):
        ds = generate(make_scenario(name, seed=5)).train
        pr = path(build_augmented(ds, build_weights(ds, True, True)), 40)
        dfs = np.array([degrees_of_freedom(extract_clusters(s.beta, ds.schemas))
                        for s in pr.solutions])
        rss = np.array([
            float(np.sum((ds.y - intercept_for(s.beta, ds) - predicted_effects(s.beta, ds)) ** 2))
            for s in pr.solutions
        ])
        aic = information_criterion(ds, pr, "AIC")
        bic = information_criterion(ds, pr, "BIC")
        for scores, pen in ((aic, 2.0), (bic, np.log(ds.n))):
            ref = ds.n * np.log(rss / ds.n) + pen * dfs
            assert np.allclose(scores, ref, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.rint((bic - aic) / (np.log(ds.n) - 2.0)), dfs)


def test_fold_path_failure_names_the_fold(monkeypatch):
    ds = toy_mixed_ds(seed=25, n=100)
    calls = []

    def failing_path(problem, grid_size):
        calls.append(grid_size)
        if len(calls) == 3:
            raise NotConverged("KKT conditions not met (grid point 4, augmented solve)")
        return path(problem, grid_size)

    monkeypatch.setattr(selection, "path", failing_path)
    with pytest.raises(NotConverged) as ei:
        compute_fold_paths(ds, CvConfig(k_folds=4, grid_size=10))
    assert type(ei.value) is NotConverged
    assert str(ei.value) == "KKT conditions not met (grid point 4, augmented solve) (fold 2)"
