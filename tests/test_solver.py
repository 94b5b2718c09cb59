"""Solver behavior: generic L1 solves against the proximal-gradient
reference, limit cases, and full paths on augmented problems."""
from __future__ import annotations

import copy
import dataclasses
import math

import numpy as np
import pytest

from catfuse import coding, solver
from catfuse.coding import build_augmented, induced_theta, theta_layout
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.errors import FoldRankDeficient, LayoutMismatch, NotConverged, RankDeficient
from catfuse.selection import CvConfig, build_weights, fit_at, weighted_path
from catfuse.simlab import generate, make_scenario
from catfuse.solver import PRECISION_SLACK, _Core, back_transform, path
from catfuse.structure import cluster_labels_path, degrees_of_freedom, extract_clusters
from catfuse.weights import ADAPTIVE_CAP, adaptive_weights, ols_coefficients, standard_weights

from conftest import ALIASED_MESSAGE, aliased_nominal_ds, fold_paths, rent_schema, toy_mixed_ds
from reference import (
    core_from_design,
    grad,
    grid,
    ista_oracle,
    kkt_floor,
    balanced_nominal_fit,
    lambda_max,
    scan_pair_rows,
    solve_lasso,
)


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


def test_certified_warm_start_takes_no_solve():
    # a solve ends on the KKT certificate, so a solve started from its own
    # certified result (and handed its system, whose step to the same λ
    # leaves θ as it is) re-reads that certificate and returns θ untouched
    rng = np.random.default_rng(9)
    X, y = random_instance(rng)
    generic = core_from_design(X, np.zeros((0, X.shape[1])), y)
    ds = make_s1(seed=2)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    s1 = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    for core in (generic, s1):
        for frac in (0.5, 0.1, 0.01):
            lam = frac * core.lambda_max
            theta, solves, system = solver._solve_core(core, lam)
            assert solves > 0 and np.any(theta != 0.0)
            for handed in (None, system):
                again, solves, _ = solver._solve_core(core, lam, warm_start=theta, system=handed)
                assert solves == 0
                assert again.tobytes() == theta.tobytes()


def test_a_warm_start_of_the_wrong_length_is_a_layout_mismatch():
    ds = make_s1()
    prob = build_augmented(ds, standard_weights(ds))
    core = _Core.from_gram(prob.XtX, prob.Xty, prob.absXtX, prob.absXty, prob.A_scaled,
                           prob.layout.pair_row)
    with pytest.raises(LayoutMismatch, match=r"^warm start has shape \(37,\), expected \(36,\)$"):
        solver._solve_core(core, 0.5 * core.lambda_max, warm_start=np.zeros(prob.q + 1))


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
    # θ̃ is the induced OLS θ times the weights, with no solve in between
    expect = induced_theta(prob.layout, ols_coefficients(ds))
    assert np.array_equal(sol.theta_scaled, expect * prob.weight_values)
    assert np.array_equal(sol.theta, sol.theta_scaled / prob.weight_values)
    assert np.max(np.abs(prob.A_raw @ sol.theta)) <= 1e-12


def _data_columns(layout):
    return np.array([b.offset + i for b in layout.blocks for i in range(b.k)])


@pytest.mark.parametrize("make", [lambda: toy_mixed_ds(seed=12),
                                  lambda: generate(make_scenario("S2", 3)).train])
def test_path_zero_lambda_matches_lstsq_on_the_unit_weight_data_block(make):
    ds = make()
    base = standard_weights(ds, use_frequency=True)
    ols = ols_coefficients(ds)
    b = theta_layout(ds.schemas).blocks[0]
    # level 1 tied with the reference caps a data column's weight, levels 3
    # and 2 tied cap a pair column's
    ols[b.name][1] = ols[b.name][0]
    ols[b.name][3] = ols[b.name][2]
    adapt = adaptive_weights(base, ols)
    assert adapt.values[b.offset] == base.values[b.offset] * ADAPTIVE_CAP
    for ws in (base, adapt):
        prob = build_augmented(ds, ws)
        d = _data_columns(prob.layout)
        unit = prob.Z_data[:, d] * prob.weight_values[d]
        expect = np.linalg.lstsq(unit, prob.y_centered, rcond=None)[0]
        sol = path(prob, grid_size=10).solutions[-1]
        assert sol.lam == 0.0
        assert np.all(np.abs(sol.theta[d] - expect) <= 1e-10 * np.maximum(1.0, np.abs(expect)))


def test_path_rejects_a_schema_without_factors():
    ds = Dataset(np.arange(4.0), np.zeros((4, 0), dtype=int), ())
    with pytest.raises(ValueError, match="the schema has no factors"):
        path(build_augmented(ds, standard_weights(ds)), grid_size=10)


def test_path_rejects_a_grid_of_one_point():
    ds = toy_mixed_ds(seed=0)
    with pytest.raises(ValueError, match="^grid_size must be >= 2$"):
        path(build_augmented(ds, standard_weights(ds)), grid_size=1)


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


def test_nearest_equals_the_per_point_argmin():
    ds = make_s1(seed=10)
    pr = path(build_augmented(ds, standard_weights(ds, use_frequency=True)), grid_size=30)
    s = np.array([sol.s_ratio for sol in pr.solutions])
    # a sweep past both ends, every point itself and the exact midpoints
    # between neighbours, where the tie goes to the first (sparser) point
    mids = (s[:-1] + s[1:]) / 2.0
    sweep = np.concatenate([np.linspace(-0.1, 1.1, 241), s, mids])
    expect = [int(np.argmin(np.abs(s - v))) for v in sweep]
    assert pr.nearest(sweep).tolist() == expect
    assert [pr.solutions.index(pr.solution_at(v)) for v in mids] == expect[-mids.size:]
    assert pr.nearest(mids[3]) == expect[-mids.size + 3]


def test_nearest_rejects_a_nan_s():
    ds = make_s1(seed=10)
    pr = path(build_augmented(ds, standard_weights(ds)), grid_size=10)
    for read in (pr.solution_at, pr.nearest, lambda s: pr.nearest([0.5, s]),
                 lambda s: fit_at(pr, ds, s)):
        with pytest.raises(ValueError, match="nan"):
            read(float("nan"))


def test_path_result_reads_grid_and_lambda_max_off_its_points():
    ds = make_s1(seed=10)
    pr = path(build_augmented(ds, standard_weights(ds, use_frequency=True)), grid_size=12)
    assert [f.name for f in dataclasses.fields(pr)] == ["solutions"]
    assert grid(pr) == tuple((sol.lam, sol.s_ratio) for sol in pr.solutions)
    assert pr.lambda_max == pr.solutions[0].lam
    tail = dataclasses.replace(pr, solutions=pr.solutions[4:])
    assert grid(tail) == grid(pr)[4:]
    assert tail.lambda_max == pr.solutions[4].lam < pr.lambda_max
    assert tail.solution_at(1.0) is pr.solutions[-1]


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
    ols_beta = pr.solutions[-1].beta
    assert ols_beta["o"][3] == ols_beta["o"][2]
    assert ols_beta["b"].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("o_levels, b_level", [((0, 1, 2), 0), ((1, 2, 3), 1)],
                         ids=["top-ordinal-and-binary-y", "ordinal-reference-and-binary-n"])
def test_ols_fuses_an_unidentified_level_with_its_tree_parent(o_levels, b_level):
    # an ordinal step or a binary column with rows on one side only is not
    # identified: the level shares its tree parent's β, as at path's λ = 0
    rng = np.random.default_rng(4)
    schemas = (FactorSchema("o", "ordinal", ("1", "2", "3", "4")),
               FactorSchema("b", "binary", ("n", "y")),
               FactorSchema("a", "nominal", ("x", "y", "z")))
    codes = np.column_stack([rng.choice(o_levels, 60), np.full(60, b_level), rng.integers(0, 3, 60)])
    ds = Dataset(rng.normal(0, 1, 60), codes, schemas)
    ols = ols_coefficients(ds)
    unused = ({0, 1, 2, 3} - set(o_levels)).pop()
    assert ols["o"][unused] == ols["o"][2 if unused == 3 else 1]
    assert ols["b"].tolist() == [0.0, 0.0]
    assert len(set(ols["o"].tolist())) == 3 and len(set(ols["a"].tolist())) == 3
    zero = path(build_augmented(ds, standard_weights(ds)), grid_size=10).solutions[-1]
    for name, b in ols.items():
        assert np.max(np.abs(zero.beta[name] - b)) <= 1e-14


def test_path_on_duplicated_rows_at_double_gamma_is_the_same_path(monkeypatch):
    # Every row twice and γ' = 2γ doubles the whole objective, so the path
    # has λ doubled at every point and the same minimisers.
    ds = toy_mixed_ds(seed=13)
    twice = Dataset(np.concatenate([ds.y, ds.y]), np.vstack([ds.codes, ds.codes]), ds.schemas)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    prob2 = build_augmented(twice, standard_weights(twice, use_frequency=True))
    gamma = prob.gamma
    one = path(prob, grid_size=40)
    monkeypatch.setattr(coding, "DEFAULT_SQRT_GAMMA", math.sqrt(2.0 * gamma))
    assert prob2.gamma == pytest.approx(2.0 * gamma, rel=1e-15)
    two = path(prob2, grid_size=40)
    for a, b in zip(one.solutions, two.solutions):
        assert b.lam == pytest.approx(2.0 * a.lam, rel=1e-12, abs=0.0)
        for name in a.beta:
            assert np.max(np.abs(a.beta[name] - b.beta[name])) <= 1e-8
        assert degrees_of_freedom(extract_clusters(a.beta, ds.schemas)) == \
            degrees_of_freedom(extract_clusters(b.beta, ds.schemas))


def _gamma_zero_core(core):
    # the γ = 0 problem on the same data Gram: the core without restriction rows
    return _Core(core.XtX, core.Xty, core._absXtX, core._absXty,
                 np.zeros((0, core.q)), np.full(core.q, -1), core.y_scale)


def test_core_keeps_no_row_sized_array():
    ds = toy_mixed_ds(seed=2, n=2000)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    n, r = prob.Z_data.shape[0], prob.r
    assert n > 100 * (prob.q + r)
    core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    for cache in (core, _gamma_zero_core(core)):
        for name, value in vars(cache).items():
            if isinstance(value, np.ndarray):
                assert n not in value.shape and n + r not in value.shape, name


def test_path_and_fit_leave_no_row_sized_array_on_the_problem():
    ds = toy_mixed_ds(seed=2, n=2000)
    prob = build_augmented(ds, build_weights(ds, adaptive=True, use_frequency=True))
    fit_at(path(prob, grid_size=20), ds, 0.5, refit_after=True)
    assert "Z_data" not in vars(prob)
    # the core path builds from the problem's Gram pieces
    core = _Core.from_gram(prob.XtX, prob.Xty, prob.absXtX, prob.absXty, prob.A_scaled,
                           prob.layout.pair_row)
    for held in (prob, core):
        for name, value in vars(held).items():
            if isinstance(value, np.ndarray):
                assert ds.n not in value.shape, name


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


def test_path_makes_no_gamma_zero_solve(monkeypatch):
    # the precision bound is read off the augmented fit: one solve per
    # positive grid point, none on a γ = 0 core
    train = generate(make_scenario("S2")).train
    prob = build_augmented(train, build_weights(train, True, True))
    solve_core, calls = solver._solve_core, []

    def counted(core, lam, warm_start=None, system=None):
        theta, solves, system = solve_core(core, lam, warm_start, system)
        calls.append((core.r, solves))
        return theta, solves, system

    monkeypatch.setattr(solver, "_solve_core", counted)
    pr = path(prob, grid_size=100)
    assert len(calls) == 99
    assert all(r > 0 for r, _ in calls)
    assert sum(sol.solves for sol in pr.solutions if sol.lam > 0) == sum(n for _, n in calls)


def test_precision_bound_is_read_off_the_fit():
    # γΔ ≤ λ(‖θ̃_LS‖₁ − ‖θ̃‖₁) on the fit itself; the γ = 0 certificate,
    # λ(‖θ̃_LS‖₁ − ‖θ̃₀‖₁)/γ with θ̃₀ the unrestricted lasso, holds as well
    for name in ("S1", "S2", "S3"):
        train = generate(make_scenario(name)).train
        for adaptive in (False, True):
            prob = build_augmented(train, build_weights(train, adaptive, True))
            pr = path(prob, grid_size=50)
            ols_l1 = np.abs(pr.solutions[-1].theta_scaled).sum()
            plain = np.zeros(prob.q)
            for sol in pr.solutions:
                delta, bound = sol.precision.delta, sol.precision.bound
                assert bound == sol.lam * (ols_l1 - np.abs(sol.theta_scaled).sum()) / prob.gamma
                assert bound >= 0.0, (name, adaptive, sol.lam)
                assert delta <= bound + PRECISION_SLACK, (name, adaptive, sol.lam)
                if sol.lam > 0:
                    plain = solve_lasso(prob.Z_data, prob.y_centered, sol.lam, warm_start=plain)
                gamma_zero = sol.lam * (ols_l1 - np.abs(plain).sum()) / prob.gamma
                assert delta <= gamma_zero + PRECISION_SLACK, (name, adaptive, sol.lam)


def _full_saddle_solve(core, S, rhs_head):
    # the saddle-point system on every active column, pair columns included,
    # and every restriction row those columns touch, with one refinement step
    As = core.A[:, S]
    As = As[np.any(As != 0.0, axis=1)]
    ra = As.shape[0]
    M = np.block([[2.0 * core.XtX[np.ix_(S, S)], As.T],
                  [As, -np.eye(ra) / (2.0 * core.gamma)]])
    rhs = np.concatenate([rhs_head, np.zeros(ra)])
    sol = np.linalg.solve(M, rhs)
    sol += np.linalg.solve(M, rhs - M @ sol)
    return sol[:len(S)]


def _rent_shaped_ds(seed: int, n: int = 600) -> Dataset:
    # every level observed at least once, so frequency weights exist
    rng = np.random.default_rng(seed)
    schemas = rent_schema()
    codes = np.column_stack([
        rng.permutation(np.concatenate([np.arange(s.k + 1), rng.integers(0, s.k + 1, n - s.k - 1)]))
        for s in schemas])
    y = sum(rng.normal(0, 1, s.k + 1)[codes[:, l]] for l, s in enumerate(schemas))
    return Dataset(y + rng.normal(0, 1, n), codes, schemas)


def _pair_columns(layout):
    return [b.offset + c for b in layout.blocks if b.kind == "nominal"
            for c, (_, j) in enumerate(b.pairs) if j >= 1]


def test_subspace_solve_matches_full_saddle_system():
    rng = np.random.default_rng(17)
    datasets = (make_s1(seed=1), generate(make_scenario("S2", 0)).train, _rent_shaped_ds(4))
    for ds in datasets:
        base = standard_weights(ds, use_frequency=True)
        ols = ols_coefficients(ds)
        b = theta_layout(ds.schemas).blocks[0]
        # ties in the OLS fit give capped (1e12) adaptive multipliers
        ols[b.name][2] = ols[b.name][1]
        ols[b.name][3] = ols[b.name][1]
        adapt = adaptive_weights(base, ols)
        assert np.sum(adapt.values == base.values * ADAPTIVE_CAP) == 3
        for ws in (base, adapt):
            prob = build_augmented(ds, ws)
            core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
            pairs = _pair_columns(prob.layout)
            assert np.flatnonzero(core.pair_row >= 0).tolist() == pairs
            assert np.all(core.A[core.pair_row[pairs], pairs] != 0.0)
            data = np.setdiff1d(np.arange(prob.q), pairs)
            lam = 0.1 * core.lambda_max * core.y_scale
            for S in (data, np.array(pairs), np.sort(rng.choice(prob.q, prob.q // 2, replace=False))):
                for _ in range(3):
                    rhs = 2.0 * core.Xty[S] - lam * rng.choice([-1.0, 1.0], S.size)
                    ours = core.subspace_solve(S, rhs)
                    full = _full_saddle_solve(core, S, rhs)
                    scale = max(1.0, float(np.max(np.abs(full))))
                    assert np.max(np.abs(ours - full)) <= 1e-9 * scale
    # no pair column: no restriction rows, or a row whose two lone columns share it
    assert np.all(_gamma_zero_core(core).pair_row == -1)
    X, y = random_instance(rng)
    assert np.all(core_from_design(X, np.zeros((0, X.shape[1])), y).pair_row == -1)
    schemas = (FactorSchema("a", "nominal", ("x", "y", "z")),
               FactorSchema("b", "nominal", ("p", "q", "r", "s")))
    codes = np.column_stack([rng.choice([0, 2], 80), rng.integers(0, 4, 80)])
    ds = Dataset(rng.normal(0, 1, 80), codes, schemas)
    prob = build_augmented(ds, standard_weights(ds))
    core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    assert np.all(core.pair_row[prob.layout.blocks[0].slice] == -1)
    assert np.flatnonzero(core.pair_row >= 0).tolist() == _pair_columns(prob.layout)[1:]


def _bank_problems():
    # S1/S2/S3 seeds 0–2 under the four weightings, and rent-shaped
    # instances 0–2 with adaptive frequency weights
    problems = []
    for name in ("S1", "S2", "S3"):
        for seed in range(3):
            train = generate(make_scenario(name, seed)).train
            problems += [build_augmented(train, build_weights(train, adaptive, use_frequency))
                         for adaptive in (False, True) for use_frequency in (False, True)]
    return problems + [build_augmented(ds, build_weights(ds, True, True))
                       for ds in map(_rent_shaped_ds, range(3))]


def test_layout_pair_rows_equal_the_scan_of_the_gram_and_restriction_rows():
    # the core reads its pair rows off the layout; where every level has rows
    # they are the lone no-data columns that a scan of XᵀX and A finds
    problems = _bank_problems()
    assert len(problems) == 39
    for prob in problems:
        pair_row = prob.layout.pair_row
        assert not pair_row.flags.writeable
        assert pair_row.tobytes() == scan_pair_rows(prob.XtX, prob.A_scaled).tobytes()
        assert np.array_equal(pair_row[_pair_columns(prob.layout)], np.arange(prob.r))


def test_certificate_equals_the_separate_gradient_and_floor():
    # the certificate states the gradient and its rounding floor together:
    # at every grid point of each path it repeats the two separate
    # expressions bit for bit, and λ_max read off it at θ = 0 is 2·max|Xᵀy|
    for prob in _bank_problems():
        core = _fresh_core(prob)
        assert core.lambda_max == lambda_max(prob)
        for sol in path(prob, grid_size=100).solutions:
            theta = sol.theta_scaled * core.y_scale
            g, floor = core.certificate(theta)
            assert g.tobytes() == grad(core, theta).tobytes(), sol.lam
            assert floor.tobytes() == kkt_floor(core, theta).tobytes(), sol.lam


def test_many_level_nominal_path():
    rng = np.random.default_rng(20)
    codes = rng.permutation(np.repeat(np.arange(20), 20))[:, None]
    y = np.repeat([0.0, 1.5, 3.0, 4.5], 5)[codes[:, 0]] + rng.normal(0, 1, 400)
    schemas = (FactorSchema("g", "nominal", tuple(f"l{i}" for i in range(20))),)
    ds = Dataset(y, codes, schemas)
    prob = build_augmented(ds, build_weights(ds, adaptive=True, use_frequency=True))
    assert (prob.q, prob.r) == (190, 171)
    pr = path(prob, grid_size=30)
    assert all(sol.precision.satisfied for sol in pr.solutions)
    assert np.max(np.abs(pr.solutions[-1].beta["g"] - ols_coefficients(ds)["g"])) < 1e-8


@pytest.mark.parametrize("use_frequency", [False, True])
def test_a_balanced_nominal_path_is_the_exact_sorted_fit(use_frequency):
    # S1 has one nominal factor with 20 rows per level, so its standard
    # weights are one w and the exact fit at every λ is
    # reference.balanced_nominal_fit. The augmented fit leaves each fused
    # pair apart by a restriction residual of at most λw/(2γ), and a cluster
    # spans fewer than K pairs, so β may differ by up to Kλw/γ beyond rounding
    gamma = coding.DEFAULT_SQRT_GAMMA ** 2
    for seed in range(5):
        ds = generate(make_scenario("S1", seed)).train
        (sch,) = ds.schemas
        K = sch.k + 1
        count = ds.n // K
        assert np.all(ds.n_counts[0] == count)
        w = build_weights(ds, adaptive=False, use_frequency=use_frequency).values
        assert np.all(w == w[0])
        means = np.bincount(ds.codes[:, 0], weights=ds.y) / count
        pr = weighted_path(ds, CvConfig(grid_size=100, use_frequency=use_frequency))
        labels = cluster_labels_path([sol.beta for sol in pr.solutions], ds.schemas)
        for sol, lab in zip(pr.solutions, labels):
            mu = balanced_nominal_fit(means, count, float(w[0]), sol.lam)
            # levels of equal μ share a cluster, numbered by smallest member
            _, first, exact = np.unique(mu, return_index=True, return_inverse=True)
            number = np.argsort(np.argsort(first))
            assert lab.tolist() == number[exact.ravel()].tolist()
            scale = max(1.0, float(np.abs(sol.beta["g"]).max()))
            tol = K * sol.lam * w[0] / gamma + 1e-12 * scale
            assert np.abs(sol.beta["g"] - (mu - mu[0])).max() <= tol


def test_rank_deficient_fit_names_the_unobserved_level():
    rng = np.random.default_rng(5)
    schemas = (FactorSchema("a", "nominal", ("x", "y", "z", "w")),
               FactorSchema("o", "ordinal", ("0", "1", "2")))
    codes = np.column_stack([rng.choice([0, 1, 3], 60), rng.integers(0, 3, 60)])
    ds = Dataset(rng.normal(0, 1, 60), codes, schemas)
    with pytest.raises(RankDeficient) as err:
        path(build_augmented(ds, standard_weights(ds)), grid_size=10)
    assert str(err.value) == ("unpenalized fit: collapsed design is rank deficient (rank 4 < 5); "
                              "factor 'a' level index 2 has no rows")
    # the fold mapping keeps its class and carries the named level
    with pytest.raises(FoldRankDeficient, match="factor 'a' level index 2 has no rows"):
        fold_paths(ds, CvConfig(k_folds=3, grid_size=5))


def test_rank_deficient_fit_without_an_empty_level_keeps_its_message():
    rng = np.random.default_rng(6)
    schemas = (FactorSchema("b1", "binary", ("n", "y")), FactorSchema("b2", "binary", ("n", "y")))
    col = rng.integers(0, 2, 50)
    ds = Dataset(rng.normal(0, 1, 50), np.column_stack([col, col]), schemas)
    with pytest.raises(RankDeficient) as err:
        path(build_augmented(ds, standard_weights(ds)), grid_size=10)
    assert str(err.value) == ("unpenalized fit: collapsed design is rank deficient (rank 1 < 2); "
                              "factors 'b1' and 'b2' are collinear")


@pytest.mark.parametrize("adaptive", [False, True])
def test_rank_deficient_fit_names_the_aliased_factors(adaptive):
    ds = aliased_nominal_ds()
    with pytest.raises(RankDeficient) as err:
        weighted_path(ds, CvConfig(grid_size=10, adaptive=adaptive))
    assert str(err.value) == ALIASED_MESSAGE


def test_fold_rank_deficiency_names_the_aliased_factors():
    with pytest.raises(FoldRankDeficient) as err:
        fold_paths(aliased_nominal_ds(), CvConfig(k_folds=3, grid_size=5))
    assert str(err.value) == f"training part of fold 0 is rank deficient: {ALIASED_MESSAGE}"


def test_subspace_solve_on_two_identical_data_columns(monkeypatch):
    # Two binary factors with the same codes give two identical data
    # columns, so the subspace system on them is singular.
    rng = np.random.default_rng(7)
    schemas = (FactorSchema("a", "nominal", ("w", "x", "y", "z")),
               FactorSchema("b1", "binary", ("n", "y")), FactorSchema("b2", "binary", ("n", "y")))
    col = rng.integers(0, 2, 80)
    codes = np.column_stack([rng.integers(0, 4, 80), col, col])
    ds = Dataset(rng.normal(0, 1, 80), codes, schemas)
    prob = build_augmented(ds, standard_weights(ds))
    b1, b2 = prob.layout.block("b1").offset, prob.layout.block("b2").offset
    S = np.array([0, b1, b2])     # θ_10 touches restriction rows; b1, b2 touch none
    core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    assert core.r > 0 and np.array_equal(core.XtX[:, b1], core.XtX[:, b2])
    # one sign for both copies keeps the right-hand side in the range
    sigma = np.array([1.0, -1.0, -1.0])
    with pytest.raises(RankDeficient, match="augmented subspace system is singular"):
        core.subspace_solve(S, 2.0 * core.Xty[S] - 0.1 * sigma)

    # r = 0 keeps the one failure rule: solve_lasso's generic core and a
    # γ = 0 core raise the same error, with no least-squares fallback
    X, y = random_instance(rng)
    X[:, 3] = X[:, 1]
    generic = core_from_design(X, np.zeros((0, X.shape[1])), y)
    lstsq, lstsq_calls = np.linalg.lstsq, []

    def counted_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    for plain, S in ((generic, np.array([0, 1, 3])), (_gamma_zero_core(core), S)):
        assert plain.r == 0
        with pytest.raises(RankDeficient, match="augmented subspace system is singular"):
            plain.subspace_solve(S, 2.0 * plain.Xty[S] - 0.1 * sigma)
    assert lstsq_calls == []


def test_two_column_subspace_solve_matches_two_one_column_solves():
    rng = np.random.default_rng(18)
    for ds in (make_s1(seed=1), generate(make_scenario("S2", 0)).train, _rent_shaped_ds(4)):
        prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
        core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
        pairs = _pair_columns(prob.layout)
        data = np.setdiff1d(np.arange(prob.q), pairs)
        lam = 0.1 * core.lambda_max * core.y_scale
        for S in (data, np.array(pairs), np.sort(rng.choice(prob.q, prob.q // 2, replace=False))):
            sigma = rng.choice([-1.0, 1.0], S.size)
            rhs = np.column_stack([2.0 * core.Xty[S] - lam * sigma, -sigma])
            both = core.subspace_solve(S, rhs)
            assert both.shape == (S.size, 2)
            for j in range(2):
                one = core.subspace_solve(S, rhs[:, j])
                assert np.max(np.abs(both[:, j] - one)) <= 1e-12 * np.max(np.abs(one))


def _s2_problems():
    train = generate(make_scenario("S2")).train
    return train, [build_augmented(train, build_weights(train, adaptive, True))
                   for adaptive in (False, True)]


def test_path_solves_each_active_set_and_sign_pattern_once(monkeypatch):
    # each point steps the previous point's system along its λ-direction:
    # no (S, σ_S) recurs on these two paths, so every subspace solve is of a
    # new key (a recurring system would be factorised again), and it solves
    # the right-hand sides at λ₀ and of dθ/dλ = −M⁻¹σ_S together
    _, problems = _s2_problems()
    subspace_solve, keys = _Core.subspace_solve, []

    def counted(core, S, rhs):
        assert rhs.shape == (S.size, 2)
        keys.append((S.tobytes(), (-rhs[:, 1]).tobytes()))
        return subspace_solve(core, S, rhs)

    monkeypatch.setattr(_Core, "subspace_solve", counted)
    for prob in problems:
        keys.clear()
        pr = path(prob, grid_size=100)
        assert len(keys) == len(set(keys))
        assert len(keys) < sum(sol.solves for sol in pr.solutions if sol.lam > 0)


def test_stepped_path_matches_fresh_solves_point_by_point():
    # each point agrees with a solve on a new core (no stored steps), warm
    # started from the path's previous point
    train, problems = _s2_problems()
    for prob in problems:
        pr = path(prob, grid_size=100)
        w = prob.weight_values
        for prev, sol in zip(pr.solutions, pr.solutions[1:-1]):
            fresh = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
            theta, _, _ = solver._solve_core(fresh, sol.lam, warm_start=prev.theta_scaled)
            scale = max(1.0, float(np.max(np.abs(theta))))
            assert np.max(np.abs(sol.theta_scaled - theta)) <= 1e-9 * scale, sol.lam
            assert degrees_of_freedom(extract_clusters(sol.beta, train.schemas)) == \
                degrees_of_freedom(extract_clusters(back_transform(theta, prob.layout, w),
                                                    train.schemas)), sol.lam


def test_a_stepped_solution_that_fails_the_certificate_is_solved_afresh(monkeypatch):
    # reverse the λ-direction of the handed system: its step to a nearby λ
    # then moves away from the solution, which the certificate rejects, so
    # that active set is factorised again at the new λ and the result is the
    # fresh-core one (a zero slope would leave θ as it is: no step is taken)
    ds = make_s1(seed=2)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    core = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    lam, near = 0.1 * core.lambda_max, 0.1 * (1.0 - 1e-4) * core.lambda_max
    theta, _, system = solver._solve_core(core, lam)
    S = np.flatnonzero(theta)
    assert np.array_equal(system.S, S)
    wrong = system._replace(slope=-system.slope)
    subspace_solve, calls = _Core.subspace_solve, []

    def counted(self, S, rhs):
        calls.append(S.tobytes())
        return subspace_solve(self, S, rhs)

    monkeypatch.setattr(_Core, "subspace_solve", counted)
    again, solves, solved = solver._solve_core(core, near, warm_start=theta, system=wrong)
    assert calls == [S.tobytes()] and solves == 2
    assert solved.lam0 == near * core.y_scale
    fresh = core_from_design(prob.Z_data, prob.A_scaled, prob.y_centered)
    expect, _, _ = solver._solve_core(fresh, near, warm_start=theta)
    assert np.max(np.abs(again - expect)) <= 1e-12 * max(1.0, float(np.max(np.abs(expect))))


def test_a_nan_lambda_is_rejected_and_an_infinite_one_gives_zeros():
    rng = np.random.default_rng(10)
    X, y = random_instance(rng)
    for solve in (solve_lasso, ista_oracle):
        with pytest.raises(ValueError, match="nan"):
            solve(X, y, float("nan"))
        with pytest.raises(ValueError, match="-1.0"):
            solve(X, y, -1.0)
        assert np.all(solve(X, y, np.inf) == 0.0)


def test_a_non_finite_design_response_or_warm_start_is_named():
    rng = np.random.default_rng(10)
    X, y = rng.normal(size=(40, 5)), rng.normal(size=40)
    bad_X, bad_y, bad_warm = X.copy(), y.copy(), np.zeros(5)
    bad_X[0, 0], bad_y[3], bad_warm[2] = np.nan, np.inf, np.nan
    for args, kwargs, what in (((bad_X, y), {}, "design"), ((X, bad_y), {}, "response"),
                               ((X, y), {"warm_start": bad_warm}, "warm start")):
        with pytest.raises(ValueError, match=f"^{what} holds non-finite values$"):
            solve_lasso(*args, 1.0, **kwargs)


def _warm_started_lasso():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(60, 10)), rng.normal(size=60)
    theta = solve_lasso(X, y, 0.1 * 2.0 * np.max(np.abs(X.T @ y)))
    assert np.any(theta != 0.0)
    return X, y, theta


@pytest.mark.parametrize("lam", [np.inf, 1e308])
def test_a_warm_start_at_or_over_lambda_max_gives_zeros(lam):
    X, y, theta = _warm_started_lasso()
    got = solve_lasso(X, y, lam, warm_start=theta)
    assert got.tobytes() == np.zeros(X.shape[1]).tobytes()


def test_a_warm_start_at_infinite_lambda_on_a_core_with_stored_steps_gives_zeros():
    X, y, _ = _warm_started_lasso()
    core = core_from_design(X, np.zeros((0, X.shape[1])), y)
    theta, _, system = solver._solve_core(core, 0.1 * core.lambda_max)
    assert system is not None and np.any(theta != 0.0)
    for lam in (np.inf, core.lambda_max):
        got, solves, _ = solver._solve_core(core, lam, warm_start=theta, system=system)
        assert solves == 0
        assert got.tobytes() == np.zeros(X.shape[1]).tobytes()


def _fresh_core(prob):
    return _Core.from_gram(prob.XtX, prob.Xty, prob.absXtX, prob.absXty, prob.A_scaled,
                           prob.layout.pair_row)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("make", [lambda: make_s1(seed=1),
                                  lambda: generate(make_scenario("S3")).train,
                                  lambda: _rent_shaped_ds(5)], ids=["S1", "S3", "rent"])
def test_predicted_path_matches_fresh_solves_point_by_point(make, adaptive):
    # each point, reached by stepping the previous point's system to λ and
    # then certifying, agrees with a solve on a new core (no stored steps)
    # warm started from the path's previous point
    ds = make()
    prob = build_augmented(ds, build_weights(ds, adaptive, True))
    pr = path(prob, grid_size=100)
    w = prob.weight_values
    for prev, sol in zip(pr.solutions, pr.solutions[1:-1]):
        theta, _, _ = solver._solve_core(_fresh_core(prob), sol.lam, warm_start=prev.theta_scaled)
        scale = max(1.0, float(np.max(np.abs(theta))))
        assert np.max(np.abs(sol.theta_scaled - theta)) <= 1e-9 * scale, sol.lam
        assert degrees_of_freedom(extract_clusters(sol.beta, ds.schemas)) == \
            degrees_of_freedom(extract_clusters(back_transform(theta, prob.layout, w),
                                                ds.schemas)), sol.lam


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("make", [lambda: make_s1(seed=1),
                                  lambda: generate(make_scenario("S3")).train,
                                  lambda: _rent_shaped_ds(5)], ids=["S1", "S3", "rent"])
def test_predicted_path_matches_fresh_solves_bit_for_bit(monkeypatch, make, adaptive):
    # a point depends only on its λ, its warm start and the system handed to
    # it, not on what ran on the core before: a solve on a new core, warm
    # started from the path's previous point and handed that point's system,
    # repeats the path's θ̃ and step count exactly
    ds = make()
    prob = build_augmented(ds, build_weights(ds, adaptive, True))
    solve_core, systems = solver._solve_core, [None]

    def recorded(core, lam, warm_start=None, system=None):
        out = solve_core(core, lam, warm_start, system)
        systems.append(out[2])
        return out

    monkeypatch.setattr(solver, "_solve_core", recorded)
    pr = path(prob, grid_size=100)
    monkeypatch.undo()
    assert len(systems) == len(pr.solutions)
    warm = np.zeros(prob.q)
    for sol, handed in zip(pr.solutions[:-1], systems):
        theta, solves, _ = solver._solve_core(_fresh_core(prob), sol.lam, warm_start=warm,
                                              system=handed)
        assert theta.tobytes() == sol.theta_scaled.tobytes(), sol.lam
        assert solves == sol.solves, sol.lam
        warm = sol.theta_scaled


def test_path_leaves_its_core_unchanged(monkeypatch):
    # a solve writes nothing to the core: after a path every attribute holds
    # the bytes it held when the core was built
    _, problems = _s2_problems()
    from_gram, built = _Core.from_gram, []

    def snapshot(core):
        return {name: value.tobytes() if isinstance(value, np.ndarray) else copy.deepcopy(value)
                for name, value in vars(core).items()}

    def kept(*args):
        core = from_gram(*args)
        built.append((core, snapshot(core)))
        return core

    monkeypatch.setattr(_Core, "from_gram", kept)
    for prob in problems:
        path(prob, grid_size=100)
    assert len(built) == len(problems)
    for core, before in built:
        assert snapshot(core) == before


def test_core_holds_no_array_beyond_the_grams_and_restriction_rows(monkeypatch):
    # besides XᵀX, |X|ᵀ|X|, A and |A| the core's arrays are O(q + r), before
    # and after a path is solved on it
    _, problems = _s2_problems()
    problems += [build_augmented(ds, build_weights(ds, adaptive, True))
                 for ds in (_rent_shaped_ds(5),) for adaptive in (False, True)]
    from_gram, built = _Core.from_gram, []

    def array_bytes(core):
        return sum(v.nbytes for v in vars(core).values() if isinstance(v, np.ndarray))

    def kept(*args):
        core = from_gram(*args)
        built.append((core, array_bytes(core)))
        return core

    monkeypatch.setattr(_Core, "from_gram", kept)
    for prob in problems:
        path(prob, grid_size=100)
    assert len(built) == len(problems)
    for core, before in built:
        grams = core.XtX.nbytes + core._absXtX.nbytes + core.A.nbytes + core._absA.nbytes
        assert before <= grams + 4 * 8 * (core.q + core.r)
        assert array_bytes(core) == before


def test_predicted_path_takes_few_kkt_rounds_and_factorisations(monkeypatch):
    # a grid point starts from its predicted θ, not by certifying the
    # previous point's θ at the new λ, so most points take one KKT round
    _, problems = _s2_problems()
    counts = {"certificate": 0, "factorisations": 0}
    certificate, subspace_solve = _Core.certificate, _Core.subspace_solve

    def counted_certificate(core, theta):
        counts["certificate"] += 1
        return certificate(core, theta)

    def counted_solve(core, S, rhs):
        counts["factorisations"] += 1
        return subspace_solve(core, S, rhs)

    monkeypatch.setattr(_Core, "certificate", counted_certificate)
    monkeypatch.setattr(_Core, "subspace_solve", counted_solve)
    points, factorisations = 0, []
    for prob in problems:
        before = counts["factorisations"]
        pr = path(prob, grid_size=100)
        points += sum(sol.lam > 0 for sol in pr.solutions)
        factorisations.append(counts["factorisations"] - before)
    assert counts["certificate"] <= 1.6 * points
    assert counts["certificate"] == 313
    assert factorisations == [67, 53]


def test_a_column_over_its_floor_after_a_predicted_step_enters_the_next_solve(monkeypatch):
    # S2 seed 0, standard weights without frequency terms: the step from
    # grid point 63 to 64 leaves column 54 violating the KKT conditions by
    # more than its rounding floor but less than ¼·tol, so it joins the
    # first solve after the step
    train = generate(make_scenario("S2", 0)).train
    prob = build_augmented(train, build_weights(train, False, False))
    core = _fresh_core(prob)
    lams = solver._grid_lambdas(core.lambda_max, 100)
    theta, system = np.zeros(prob.q), None
    for lam in lams[:64]:
        theta, _, system = solver._solve_core(core, lam, warm_start=theta, system=system)
    S = np.flatnonzero(theta)
    sigma_S = np.sign(theta[S])
    assert np.array_equal(system.S, S) and np.array_equal(system.sigma_S, sigma_S)
    lam0, theta0, slope = system.lam0, system.theta0, system.slope
    lam_s = lams[64] * core.y_scale
    predicted = np.zeros(prob.q)
    predicted[S] = theta0 + (lam_s - lam0) * slope
    assert np.all(np.sign(predicted[S]) == sigma_S)      # no sign crossing
    g, floor = core.certificate(predicted)
    viol = np.abs(g) - lam_s
    between = (predicted == 0.0) & (viol > floor) & (viol <= 0.25 * (solver.KKT_TOL + floor))
    assert np.flatnonzero(between).tolist() == [54]
    subspace_solve, calls = _Core.subspace_solve, []

    def counted(self, S, rhs):
        calls.append(S.tolist())
        return subspace_solve(self, S, rhs)

    monkeypatch.setattr(_Core, "subspace_solve", counted)
    solver._solve_core(core, lams[64], warm_start=theta, system=system)
    assert calls and 54 in calls[0] and set(calls[0]) - {54} == set(S.tolist())
