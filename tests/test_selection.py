from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from catfuse.coding import build_augmented
from catfuse.datamodel import Dataset, FactorSchema
from catfuse import selection, weights
from catfuse.errors import FoldRankDeficient, NotConverged, ShapeMismatch
from catfuse.selection import (
    CvConfig,
    CvCurve,
    build_weights,
    fit_at,
    fold_assignment,
    information_criterion,
    intercept_for,
    kfold_cv,
    predicted_effects,
    score_folds,
    weighted_path,
)
from catfuse.simlab import evaluate, generate, make_scenario
from catfuse.solver import PathResult, PathSolution, PrecisionReport, path
from catfuse.structure import (
    DEFAULT_CLUSTER_TOL,
    degrees_of_freedom,
    extract_clusters,
    refit,
    refit_labels,
)

from catfuse.weights import adaptive_weights, ols_coefficients, standard_weights

from conftest import aliased_nominal_ds, fold_paths, toy_mixed_ds
from reference import grid


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


def test_each_fold_splits_the_rows_into_its_training_and_test_parts():
    ds = toy_mixed_ds(seed=2, n=60)
    numbered = Dataset(np.arange(60.0), ds.codes, ds.schemas)     # y names each row
    folds = fold_assignment(60, 4, seed=3)
    parts, paths = fold_paths(numbered, CvConfig(k_folds=4, grid_size=10, seed=3))
    assert len(paths) == len(parts) == len(folds)
    for (train, test), test_rows in zip(parts, folds, strict=True):
        train_rows = train.y.astype(np.int64)
        assert np.array_equal(test.y, test_rows)
        assert np.all(np.diff(train_rows) > 0)
        assert np.array_equal(np.sort(np.concatenate([train_rows, test_rows])), np.arange(60))
        assert np.array_equal(train.codes, ds.codes[train_rows])


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


def test_a_beta_without_a_factor_raises_shape_mismatch_naming_it():
    sc = make_scenario("S2", seed=0)
    ds = generate(sc).train
    beta = ols_coefficients(ds)
    del beta["ord4n"]
    consumers = {
        "extract_clusters": lambda: extract_clusters(beta, ds.schemas),
        "predicted_effects": lambda: predicted_effects(beta, ds),
        "intercept_for": lambda: intercept_for(beta, ds),
        "adaptive_weights": lambda: adaptive_weights(standard_weights(ds), beta),
        "evaluate": lambda: evaluate(beta, sc.beta_star, sc.schemas),
    }
    for name, consumer in consumers.items():
        with pytest.raises(ShapeMismatch, match="^factor 'ord4n': no per-level values$"):
            consumer()


def test_no_level_table_array_has_a_row_per_observation():
    ds = toy_mixed_ds(seed=5, n=2000)
    assert ds.n > 100 * int(ds.level_table.offsets[-1])
    prob = build_augmented(ds, build_weights(ds, adaptive=True, use_frequency=True))
    fit_at(path(prob, grid_size=20), ds, 0.5, refit_after=True)
    config = CvConfig(k_folds=5, grid_size=20, seed=1, adaptive=True, use_frequency=True,
                      refit_inside=True)
    kfold_cv(ds, config)
    parts, paths = fold_paths(ds, config)
    score_folds(parts, paths, refit_inside=True)
    for held in [ds] + [train for train, _ in parts]:
        for name, value in vars(held.level_table).items():
            if isinstance(value, np.ndarray):
                assert held.n not in value.shape, name


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
    parts, paths = fold_paths(ds, CvConfig(
        k_folds=4, grid_size=30, seed=5, adaptive=True, use_frequency=True))
    plain = score_folds(parts, paths, refit_inside=False).fold_scores
    refitted = score_folds(parts, paths, refit_inside=True).fold_scores
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
        fold_paths(ds, CvConfig(k_folds=3, grid_size=10, use_frequency=True))
    assert 0 <= ei.value.fold < 3
    # adaptive weights fail the same way through the training OLS
    with pytest.raises(FoldRankDeficient):
        fold_paths(ds, CvConfig(k_folds=3, grid_size=10, adaptive=True))


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


def _score_folds_per_point(parts, paths, refit_inside):
    """score_folds' (s_grid, fold_scores) one grid point at a time:
    extract_clusters, refit and predicted_effects at every point."""
    s_grid = np.linspace(0.0, 1.0, len(paths[0].solutions))
    scores = np.empty((len(s_grid), len(paths)))
    for f, ((train, test), pr) in enumerate(zip(parts, paths, strict=True)):
        fold_s = np.array([s for _, s in grid(pr)])
        msep = np.empty(len(pr.solutions))
        for g, sol in enumerate(pr.solutions):
            beta = sol.beta
            if refit_inside:
                beta = refit(train, extract_clusters(beta, train.schemas)).beta
            alpha = float(train.y.mean() - predicted_effects(beta, train).mean())
            pred = alpha + predicted_effects(beta, test)
            msep[g] = float(np.mean((test.y - pred) ** 2))
        idx = [int(np.argmin(np.abs(fold_s - s))) for s in s_grid]
        scores[:, f] = msep[idx]
    return s_grid, scores


def _scenario_config(name):
    return CvConfig(k_folds=5, grid_size=40, seed=2, adaptive=name == "S2", use_frequency=True)


@pytest.fixture(scope="module")
def scenario_fold_paths():
    return {name: fold_paths(generate(make_scenario(name, seed=2)).train, _scenario_config(name))
            for name in ("S1", "S2")}


def test_score_folds_makes_the_curve_kfold_cv_returns(scenario_fold_paths):
    # the grid is read off the paths, and the curve and its CV choice are
    # kfold_cv's, field for field
    parts, paths = scenario_fold_paths["S2"]
    train = generate(make_scenario("S2", seed=2)).train
    for refit_inside in (False, True):
        curve = score_folds(parts, paths, refit_inside)
        assert isinstance(curve, CvCurve)
        assert curve.s_grid.shape == (40,) and curve.fold_scores.shape == (40, 5)
        want = kfold_cv(train, dataclasses.replace(_scenario_config("S2"),
                                                   refit_inside=refit_inside))
        for field in dataclasses.fields(CvCurve):
            got, expected = getattr(curve, field.name), getattr(want, field.name)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), field.name
    # a part without its path, or a path without its part, is not scored
    for short_parts, short_paths in ((parts[:-1], paths), (parts, paths[:-1])):
        with pytest.raises(ValueError):
            score_folds(short_parts, short_paths, refit_inside=False)


@pytest.mark.parametrize("name", ["S1", "S2"])
@pytest.mark.parametrize("refit_inside", [False, True])
def test_score_folds_equals_per_point_reference(scenario_fold_paths, name, refit_inside):
    parts, paths = scenario_fold_paths[name]
    curve = score_folds(parts, paths, refit_inside)
    ref_grid, ref = _score_folds_per_point(parts, paths, refit_inside)
    assert curve.s_grid.tobytes() == ref_grid.tobytes()
    assert curve.fold_scores.tobytes() == ref.tobytes()


def test_score_folds_refits_each_distinct_partition_once(scenario_fold_paths, monkeypatch):
    parts, paths = scenario_fold_paths["S2"]
    calls = {}

    def counting_refit_labels(ds, labels):
        calls.setdefault(id(ds), []).append(tuple(labels.tolist()))
        return refit_labels(ds, labels)

    monkeypatch.setattr(selection, "refit_labels", counting_refit_labels)
    score_folds(parts, paths, refit_inside=True)
    unread = 0
    for (train, _), pr in zip(parts, paths, strict=True):
        def key(sol):
            return tuple(lab for fp in extract_clusters(sol.beta, train.schemas).factors
                         for lab in fp.labels)
        read = np.unique(pr.nearest(np.linspace(0.0, 1.0, 40)))
        keys = [key(pr.solutions[g]) for g in read]
        made = calls[id(train)]
        # only the labellings of the points some grid value reads, each once
        assert sorted(made) == sorted(set(keys))
        assert len(made) < len(keys)
        unread += len({key(sol) for sol in pr.solutions} - set(keys))
    assert unread > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_folds_equals_per_point_reference_at_tiny_noise(seed):
    # at noise sd 1e-9 the fits leave test errors near rounding: the scores
    # stay byte-equal to the per-point reference and none is negative (a
    # level-sized quadratic form of the test RSS cancels catastrophically here)
    sc = dataclasses.replace(make_scenario("S2", seed), noise_sd=1e-9)
    parts, paths = fold_paths(generate(sc).train, CvConfig(
        k_folds=5, grid_size=40, seed=seed, adaptive=True, use_frequency=True))
    for refit_inside in (False, True):
        scores = score_folds(parts, paths, refit_inside).fold_scores
        _, ref = _score_folds_per_point(parts, paths, refit_inside)
        assert scores.tobytes() == ref.tobytes()
        assert np.all(scores >= 0.0)


def test_a_fold_refit_on_collinear_factors_names_them():
    # a hand-built fold whose one path point puts each level of the aliased
    # a and b in a cluster of its own: the CV refit names both factors
    ds = aliased_nominal_ds()
    beta = {"a": np.array([0.0, 1.0, 2.0]), "b": np.array([0.0, 1.0, 2.0]), "c": np.zeros(3)}
    point = PathSolution(lam=0.0, s_ratio=1.0, theta_scaled=np.zeros(0), theta=np.zeros(0),
                         beta=beta, precision=PrecisionReport(0.0, 0.0), solves=0, sweeps=0)
    parts = [(ds.subset(np.arange(40)), ds.subset(np.arange(40, 60)))]
    paths = [PathResult((point,))]
    score_folds(parts, paths, refit_inside=False)
    with pytest.raises(FoldRankDeficient) as err:
        score_folds(parts, paths, refit_inside=True)
    assert str(err.value) == ("training part of fold 0 is rank deficient: collapsed design is "
                              "rank deficient (rank 2 < 4); factors 'a' and 'b' are collinear")


def test_an_adaptive_path_fits_its_ols_once_per_dataset(monkeypatch):
    # build_weights and path read one unpenalized fit per dataset, kept on
    # it; each ols_coefficients call still hands out its own dict and arrays
    calls = []

    def counting_refit_labels(ds, labels):
        calls.append(id(ds))
        return refit_labels(ds, labels)

    monkeypatch.setattr(weights, "refit_labels", counting_refit_labels)
    ds = generate(make_scenario("S2", seed=3)).train
    weighted_path(ds, CvConfig(grid_size=10, adaptive=True, use_frequency=True))
    assert calls == [id(ds)]
    weighted_path(ds, CvConfig(grid_size=10))
    assert calls == [id(ds)]
    copy = ds.subset(np.arange(ds.n))
    weighted_path(copy, CvConfig(grid_size=10, adaptive=True))
    assert calls == [id(ds), id(copy)]
    first, second = ols_coefficients(ds), ols_coefficients(ds)
    assert first is not second
    first["nom8"][1] += 1.0
    del first["ord4n"]
    third = ols_coefficients(ds)
    assert sorted(third) == sorted(second)
    assert all(third[name].tobytes() == second[name].tobytes() for name in third)
    assert calls == [id(ds), id(copy)]


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
        fold_paths(ds, CvConfig(k_folds=4, grid_size=10))
    assert type(ei.value) is NotConverged
    assert str(ei.value) == "KKT conditions not met (grid point 4, augmented solve) (fold 2)"
