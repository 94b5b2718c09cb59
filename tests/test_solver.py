"""Solver behavior: generic L1 solves against the proximal-gradient
reference, limit cases, and full paths on augmented problems."""
from __future__ import annotations

import numpy as np
import pytest

from catfuse import solver
from catfuse.coding import build_augmented, induced_theta, theta_layout
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.errors import LayoutMismatch, NotConverged
from catfuse.selection import build_weights
from catfuse.simlab import generate, make_scenario
from catfuse.solver import (
    PRECISION_SLACK,
    _Core,
    back_transform,
    ista_oracle,
    lambda_max,
    path,
    solve_lasso,
)
from catfuse.structure import degrees_of_freedom, extract_clusters
from catfuse.weights import adaptive_weights, ols_coefficients, standard_weights

from conftest import toy_mixed_ds


def make_s1(seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(9), 20)[:, None]
    mu = 1.0 + np.repeat([0.0, 3.0, 6.0], 3)
    y = mu[codes[:, 0]] + rng.normal(0, 2, 180)
    schemas = (FactorSchema("g", "nominal", tuple(str(i) for i in range(9))),)
    return Dataset(y, codes, schemas)


def random_instance(rng):
    n = int(rng.integers(60, 150))
    p = int(rng.integers(5, 30))
    X = rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) * 0.5 + rng.normal(size=n)
    return X, y


def test_lasso_matches_ista_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(5):
        X, y = random_instance(rng)
        lam_max = 2.0 * np.max(np.abs(X.T @ y))
        for frac in (0.5, 0.1, 0.02):
            lam = frac * lam_max
            ours = solve_lasso(X, y, lam)
            ref = ista_oracle(X, y, lam)
            assert np.max(np.abs(ours - ref)) < 1e-6


def test_lasso_zero_penalty_is_ols():
    rng = np.random.default_rng(7)
    X, y = random_instance(rng)
    theta = solve_lasso(X, y, 0.0)
    expect = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.max(np.abs(theta - expect)) < 1e-8


def test_lasso_threshold_kills_everything():
    rng = np.random.default_rng(8)
    X, y = random_instance(rng)
    lam_max = 2.0 * np.max(np.abs(X.T @ y))
    assert np.all(solve_lasso(X, y, lam_max * (1 + 1e-12)) == 0.0)
    assert np.any(solve_lasso(X, y, lam_max * 0.99) != 0.0)


def test_warm_start_is_consistent():
    rng = np.random.default_rng(9)
    X, y = random_instance(rng)
    lam = 0.1 * 2.0 * np.max(np.abs(X.T @ y))
    cold = solve_lasso(X, y, lam)
    warm = solve_lasso(X, y, lam, warm_start=cold.copy())
    assert np.max(np.abs(cold - warm)) < 1e-9


def test_lambda_max_formula():
    ds = make_s1()
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    expect = 2.0 * np.max(np.abs(prob.Z_data.T @ prob.y_centered))
    assert lambda_max(prob) == pytest.approx(expect, rel=1e-12)


def test_path_endpoints_and_monotone_s():
    ds = make_s1(seed=3)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    pr = path(prob, grid_size=60)
    assert len(pr.solutions) == 60
    s = np.array([sol.s_ratio for sol in pr.solutions])
    assert s[0] == 0.0          # at lambda_max nothing is active
    assert s[-1] == 1.0         # lambda = 0 recovers the least-squares fit
    assert np.all(np.diff(s) >= -1e-12)
    assert np.all(pr.solutions[0].theta == 0.0)
    lams = np.array([sol.lam for sol in pr.solutions])
    assert lams[0] == pr.lambda_max and lams[-1] == 0.0


def test_path_zero_lambda_matches_ols():
    ds = make_s1(seed=4)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    pr = path(prob, grid_size=40)
    beta_hat = pr.solutions[-1].beta["g"]
    expect = ols_coefficients(ds)["g"]
    assert np.max(np.abs(beta_hat - expect)) < 1e-8


def test_path_zero_lambda_is_induced_ols():
    # nominal, ordinal and binary factors under adaptive + frequency weights:
    # the λ = 0 point is the OLS fit expanded to every pair, with Aθ = 0
    ds = toy_mixed_ds(seed=12)
    ws = adaptive_weights(standard_weights(ds, use_frequency=True), ols_coefficients(ds))
    prob = build_augmented(ds, ws)
    sol = path(prob, grid_size=20).solutions[-1]
    assert sol.lam == 0.0
    expect = induced_theta(prob.layout, ols_coefficients(ds))
    assert np.max(np.abs(sol.theta - expect)) <= 1e-12
    assert np.max(np.abs(prob.A_raw @ sol.theta)) <= 1e-12


def test_path_precision_reports():
    ds = make_s1(seed=5)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    pr = path(prob, grid_size=60)
    for sol in pr.solutions:
        assert sol.precision.delta <= sol.precision.bound + PRECISION_SLACK
        assert sol.precision.satisfied


def test_path_adaptive_weights_force_tied_fusion():
    # exact OLS ties get capped weights; those differences never activate
    ds = make_s1(seed=6)
    base = standard_weights(ds, use_frequency=True)
    adapt = adaptive_weights(base, ols_coefficients(ds))
    pr = path(build_augmented(ds, adapt), grid_size=40)
    for sol in pr.solutions:
        assert sol.precision.satisfied


def test_solution_at_picks_nearest():
    ds = make_s1(seed=10)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    pr = path(prob, grid_size=30)
    s = np.array([sol.s_ratio for sol in pr.solutions])
    for target in (0.0, 0.31, 0.74, 1.0):
        sol = pr.solution_at(target)
        assert abs(sol.s_ratio - target) == np.min(np.abs(s - target))


def test_back_transform_layout_mismatch():
    ds = make_s1()
    layout = theta_layout(ds.schemas)
    ws = standard_weights(ds)
    with pytest.raises(LayoutMismatch):
        back_transform(np.zeros(layout.q + 1), layout, np.asarray(ws.values))


def test_back_transform_hand_case():
    schemas = (
        FactorSchema("a", "nominal", ("x", "y", "z")),
        FactorSchema("b", "ordinal", ("0", "1", "2")),
    )
    layout = theta_layout(schemas)
    w = np.array([2.0, 2.0, 2.0, 0.5, 0.5])
    # scaled theta: nominal (1,0)=2, (2,0)=4, (2,1)=2; ordinal steps 0.5, 1.0
    theta_scaled = np.array([2.0, 4.0, 2.0, 0.5, 1.0])
    beta = back_transform(theta_scaled, layout, w)
    assert beta["a"].tolist() == [0.0, 1.0, 2.0]
    assert beta["b"].tolist() == [0.0, 1.0, 3.0]


def test_mixed_problem_path_runs():
    ds = toy_mixed_ds(seed=11)
    ws = standard_weights(ds, use_frequency=True)
    pr = path(build_augmented(ds, ws), grid_size=30)
    assert all(sol.precision.satisfied for sol in pr.solutions)
    assert pr.solutions[-1].s_ratio == 1.0


def test_path_zero_lambda_leaves_unidentified_columns_at_zero():
    # the top ordinal level and one binary level never occur: their columns
    # carry neither data nor a restriction, so the fit exists and keeps them 0
    rng = np.random.default_rng(3)
    schemas = (
        FactorSchema("o", "ordinal", ("1", "2", "3", "4")),
        FactorSchema("b", "binary", ("n", "y")),
    )
    codes = np.column_stack([rng.integers(0, 3, 40), np.zeros(40, dtype=int)])
    ds = Dataset(rng.normal(0, 1, 40), codes, schemas)
    pr = path(build_augmented(ds, standard_weights(ds)), grid_size=10)
    assert pr.ols_beta["o"][3] == pr.ols_beta["o"][2]
    assert pr.ols_beta["b"].tolist() == [0.0, 0.0]


def test_path_on_duplicated_rows_at_double_gamma_is_the_same_path():
    # Every row twice and γ' = 2γ doubles the whole objective, so the path
    # has λ doubled at every point and the same minimisers.
    ds = toy_mixed_ds(seed=13)
    twice = Dataset(np.concatenate([ds.y, ds.y]), np.vstack([ds.codes, ds.codes]), ds.schemas)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    prob2 = build_augmented(twice, standard_weights(twice, use_frequency=True), 2.0 * prob.gamma)
    one, two = path(prob, grid_size=40), path(prob2, grid_size=40)
    for a, b in zip(one.solutions, two.solutions):
        assert b.lam == pytest.approx(2.0 * a.lam, rel=1e-12, abs=0.0)
        for name in a.beta:
            assert np.max(np.abs(a.beta[name] - b.beta[name])) <= 1e-8
        assert degrees_of_freedom(extract_clusters(a.beta, ds.schemas)) == \
            degrees_of_freedom(extract_clusters(b.beta, ds.schemas))


def test_core_keeps_no_row_sized_array():
    ds = toy_mixed_ds(seed=2, n=2000)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    n, r = prob.Z_data.shape[0], prob.r
    assert n > 100 * (prob.q + r)
    core = _Core.from_design(prob.Z_data, prob.A_scaled, prob.y_centered, prob.gamma)
    for cache in (core, core.unrestricted()):
        for name, value in vars(cache).items():
            if isinstance(value, np.ndarray):
                assert n not in value.shape and n + r not in value.shape, name


def test_scaled_response_with_adaptive_weights_fits_the_path():
    # λ_max and the gradient read one Xᵀy, so the top of the path is exactly
    # all-zero on the response scale of the data; the solver's tolerances act
    # on the response scaled to λ_max, so every interior point fits too.
    for factor, adaptive in ((1000.0, True), (1e6, False)):
        for seed in range(4):
            train = generate(make_scenario("S2", seed)).train
            ds = Dataset(train.y * factor, train.codes, train.schemas)
            for use_frequency in (False, True):
                prob = build_augmented(ds, build_weights(ds, adaptive, use_frequency))
                pr = path(prob, grid_size=100)
                assert np.all(pr.solutions[0].theta == 0.0)
                assert len(pr.solutions) == 100
                assert all(sol.precision.satisfied for sol in pr.solutions)


def test_path_is_scale_equivariant():
    train = generate(make_scenario("S2")).train

    def fit(c, adaptive):
        ds = Dataset(train.y * c, train.codes, train.schemas)
        pr = path(build_augmented(ds, build_weights(ds, adaptive, True)), grid_size=30)
        # the partition is read on the data's scale: extract_clusters' threshold
        # has an absolute floor, tol·max(1, max|β̂|)
        dfs = [degrees_of_freedom(extract_clusters({k: v / c for k, v in s.beta.items()},
                                                   ds.schemas))
               for s in pr.solutions]
        return np.array([s.theta for s in pr.solutions]), dfs

    # under standard weights a power of two scales every floating-point step
    # exactly (capped adaptive weights do not scale with y)
    theta, dfs = fit(1.0, False)
    for c in (2.0 ** k for k in (-20, -3, 7, 20)):
        theta_c, dfs_c = fit(c, False)
        assert np.array_equal(theta_c, c * theta), c
        assert dfs_c == dfs, c
    for adaptive in (False, True):
        theta, dfs = fit(1.0, adaptive)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(theta))))
        for c in (10.0 ** k for k in (-6, -3, 1, 3, 6)):
            theta_c, dfs_c = fit(c, adaptive)
            assert np.max(np.abs(theta_c / c - theta)) <= tol, (c, adaptive)
            assert dfs_c == dfs, (c, adaptive)


def test_path_error_names_the_grid_point(monkeypatch):
    # a failing solve is named in the data's units, not the solver's
    ds = make_s1(seed=1)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    for name, value in (("_MAX_ROUNDS", 0), ("KKT_TOL", -1.0)):
        with monkeypatch.context() as m:
            m.setattr(solver, name, value)
            with pytest.raises(NotConverged) as err:
                path(prob, grid_size=10)
        msg = str(err.value)
        assert "grid point 0," in msg, name
        assert f"lambda = {lambda_max(prob)!r}" in msg, name
        assert "augmented solve" in msg, name
