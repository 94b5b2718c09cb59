"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL/SKIPPED line (run with -s to see them live).

Tolerances and runtime budgets are pinned here on purpose; loosening them
is a release decision, not a test fix.
"""
from __future__ import annotations

import csv
import json
import time

import numpy as np
import pytest

from catfuse.coding import (
    build_augmented,
    induced_theta,
    restriction_rows,
    theta_layout,
    u_transform,
)
from catfuse.datamodel import Dataset, FactorSchema, ingest_csv, schema_to_json
from catfuse.selection import CvConfig, build_weights, intercept_for, kfold_cv, predicted_effects
from catfuse.simlab import generate, make_scenario, run_study
from catfuse.solver import path
from catfuse.structure import degrees_of_freedom, extract_clusters, refit
from catfuse.weights import ols_coefficients, standard_weights
from catfuse.cli import main as cli_main

from conftest import rent_csv_path, rent_schema
from reference import ista_oracle, solve_lasso, u_back_transform, y_tilde, z_tilde


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def _s1_dataset(seed: int) -> Dataset:
    return generate(make_scenario("S1", seed=seed)).train


def test_criterion_01_oracle_equivalence():
    """Generic solver vs proximal-gradient reference on random instances."""
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(80, 201))
        p = int(rng.integers(10, 41))
        X = rng.normal(size=(n, p))
        y = X @ (rng.normal(size=p) * 0.5) + rng.normal(size=n)
        lam_max = 2.0 * np.max(np.abs(X.T @ y))
        for frac in (0.5, 0.2, 0.1, 0.05, 0.02):
            lam = frac * lam_max
            diff = np.max(np.abs(solve_lasso(X, y, lam) - ista_oracle(X, y, lam)))
            worst = max(worst, float(diff))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    print(f"\n  max coordinate difference {worst:.3e} in {elapsed:.1f}s")
    _report(1, "oracle-equivalence", ok)


def test_criterion_02_precision_bound():
    """Restriction-penalty approximation error against its analytic bound."""
    t0 = time.monotonic()
    ds = _s1_dataset(seed=0)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=False))
    assert prob.sqrt_gamma == 1e5
    pr = path(prob, grid_size=100)
    within_bound = all(
        sol.precision.delta <= sol.precision.bound + 1e-12 for sol in pr.solutions
    )
    tail = [s.precision.delta for s in pr.solutions if s.s_ratio >= 1e-3]
    small_tail = bool(tail) and max(tail) <= 1e-10
    elapsed = time.monotonic() - t0
    worst = max(s.precision.delta for s in pr.solutions)
    print(f"\n  worst delta {worst:.3e}, {len(tail)} points with s>=1e-3, {elapsed:.1f}s")
    _report(2, "precision-bound", within_bound and small_tail and elapsed < 30.0)


def test_criterion_03_limit_behavior():
    """lambda=0 recovers OLS; lambda >= lambda_max leaves only the mean."""
    ds = _s1_dataset(seed=1)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    pr = path(prob, grid_size=50)
    ols_ok = np.max(np.abs(pr.solutions[-1].beta["g"] - ols_coefficients(ds)["g"])) <= 1e-8

    top = pr.solutions[0]            # grid starts exactly at lambda_max
    assert top.lam == pr.lambda_max
    zero_ok = np.all(top.beta["g"] == 0.0)
    fitted = intercept_for(top.beta, ds) + predicted_effects(top.beta, ds)
    mean_ok = np.max(np.abs(fitted - ds.y.mean())) <= 1e-10
    # strictly above the threshold the solution must stay at zero too
    theta_above = solve_lasso(z_tilde(prob), y_tilde(prob), 2.0 * pr.lambda_max)
    above_ok = np.all(theta_above == 0.0)
    _report(3, "limit-behavior", bool(ols_ok and zero_ok and mean_ok and above_ok))


def test_criterion_04_ordinal_reduction():
    """Ordinal-only problems equal a direct threshold-coded L1 fit."""
    rng = np.random.default_rng(5)
    schemas = (
        FactorSchema("u", "ordinal", tuple(str(i) for i in range(6))),
        FactorSchema("v", "ordinal", tuple(str(i) for i in range(4))),
    )
    codes = np.column_stack([rng.integers(0, 6, 250), rng.integers(0, 4, 250)])
    effects = np.array([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])[codes[:, 0]]
    y = effects + rng.normal(0, 1, 250)
    ds = Dataset(y, codes, schemas)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    assert prob.layout.r == 0
    pr = path(prob, grid_size=50)
    worst = 0.0
    warm = None
    for sol in pr.solutions:
        direct = solve_lasso(prob.Z_data, prob.y_centered, sol.lam, warm_start=warm)
        warm = direct
        worst = max(worst, float(np.max(np.abs(direct - sol.theta_scaled))))
    print(f"\n  max coordinate difference across 50 matched lambdas {worst:.3e}")
    _report(4, "ordinal-reduction", worst <= 1e-8)


def test_criterion_05_transform_round_trips():
    """Difference transform round-trip and induced restriction residual."""
    rng = np.random.default_rng(6)
    round_ok = True
    for _ in range(1000):
        beta = rng.normal(0, 10, int(rng.integers(1, 40)))
        err = np.max(np.abs(u_back_transform(u_transform(beta)) - beta))
        round_ok = round_ok and err <= 1e-12
    schemas = (
        FactorSchema("g", "nominal", tuple(str(i) for i in range(8))),
        FactorSchema("h", "nominal", tuple(str(i) for i in range(5))),
    )
    layout = theta_layout(schemas)
    A = restriction_rows(layout)
    exact_ok = True
    for _ in range(200):
        # eighth-integer grid keeps every difference exactly representable
        beta = {
            "g": np.concatenate(([0.0], rng.integers(-64, 64, 7) / 8.0)),
            "h": np.concatenate(([0.0], rng.integers(-64, 64, 4) / 8.0)),
        }
        exact_ok = exact_ok and bool(np.all(A @ induced_theta(layout, beta) == 0.0))
    _report(5, "transform-round-trips", round_ok and exact_ok)


def test_criterion_06_df_formula():
    """Hand-counted degrees of freedom, including the 58-parameter schema."""
    schemas = (
        FactorSchema("g", "nominal", ("a", "b", "c", "d")),
        FactorSchema("h", "ordinal", ("0", "1", "2", "3", "4")),
    )
    beta = {
        "g": np.array([0.0, 0.0, 2.0, 5.0]),
        "h": np.array([0.0, 2.0, 2.0, 0.0, 0.0]),
    }
    hand_ok = degrees_of_freedom(extract_clusters(beta, schemas)) == 4

    rent = rent_schema()
    singleton = {}
    v = 1.0
    for sch in rent:
        vals = [0.0]
        for _ in range(sch.k):
            vals.append(v)
            v += 1.0
        singleton[sch.name] = np.array(vals)
    rent_ok = degrees_of_freedom(extract_clusters(singleton, rent)) == 58
    _report(6, "df-formula", hand_ok and rent_ok)


def test_criterion_07_s1_grouping():
    """Adaptive path recovers the exact true partition in most replicates."""
    t0 = time.monotonic()
    truth = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    hits = 0
    for seed in range(100):
        ds = _s1_dataset(seed=seed)
        ws = build_weights(ds, adaptive=True, use_frequency=True)
        pr = path(build_augmented(ds, ws), grid_size=100)
        if any(
            extract_clusters(s.beta, ds.schemas).factor("g").clusters == truth
            for s in pr.solutions
        ):
            hits += 1
    elapsed = time.monotonic() - t0
    print(f"\n  exact-partition hits {hits}/100 in {elapsed:.1f}s")
    _report(7, "s1-grouping", hits >= 80 and elapsed < 300.0)


def test_criterion_08_s2_study_direction():
    """Estimator ordering over 100 replicates of the eight-factor study."""
    t0 = time.monotonic()
    rep = run_study(
        "S2",
        ["ols", "stdrd", "stdrd+rf", "adapt", "adapt+rf"],
        replicates=100,
        seed=0,
        k_folds=5,
        grid_size=100,
    )
    elapsed = time.monotonic() - t0
    s = rep.summary()
    med = lambda v, m: s[v][m]["median"]
    mse_ok = (
        med("adapt+rf", "coef_mse") < med("ols", "coef_mse")
        and med("stdrd+rf", "coef_mse") < med("stdrd", "coef_mse")
    )
    fpr_ok = (
        med("stdrd+rf", "clustering_fpr") < med("stdrd", "clustering_fpr")
        and med("adapt+rf", "clustering_fpr") < med("adapt", "clustering_fpr")
    )
    print(
        "\n  median coef MSE: "
        + ", ".join(f"{v}={med(v, 'coef_mse'):.4f}" for v in
                    ("ols", "stdrd", "stdrd+rf", "adapt", "adapt+rf"))
        + f"\n  median clustering FPR: stdrd={med('stdrd', 'clustering_fpr'):.3f} "
        + f"stdrd+rf={med('stdrd+rf', 'clustering_fpr'):.3f} "
        + f"adapt={med('adapt', 'clustering_fpr'):.3f} "
        + f"adapt+rf={med('adapt+rf', 'clustering_fpr'):.3f}"
        + f"\n  {elapsed / 60:.1f} min"
    )
    _report(8, "s2-study-direction", mse_ok and fpr_ok and elapsed < 1800.0)


def test_criterion_09_rent_reproduction():
    """Chosen penalty, model size and fusion pattern on the rent data."""
    data = rent_csv_path()
    if data is None:
        print("\nACCEPTANCE 09 rent-reproduction: SKIPPED (no rent CSV supplied)",
              flush=True)
        pytest.skip("rent CSV not supplied")
    ds = ingest_csv(data, rent_schema(), response_column="rent")
    curve = kfold_cv(ds, CvConfig(
        k_folds=10, grid_size=100, seed=0, adaptive=True,
        use_frequency=True, refit_inside=True,
    ))
    chosen = curve.chosen_s_ratio
    ws = build_weights(ds, adaptive=True, use_frequency=True)
    pr = path(build_augmented(ds, ws), grid_size=100)
    sol = pr.solution_at(chosen)
    part = extract_clusters(sol.beta, ds.schemas)
    rr = refit(ds, part)
    df = degrees_of_freedom(rr.partition)

    dist = rr.partition.factor("district")
    fused_districts = len({dist.cluster_of(i) for i in (13, 15, 21, 23)}) == 1
    year = rr.partition.factor("year")
    fused_decades = year.cluster_of(2) == year.cluster_of(3)
    print(f"\n  chosen s={chosen:.3f} df={df} "
          f"districts-fused={fused_districts} decades-fused={fused_decades}")
    _report(9, "rent-reproduction",
            0.5 <= chosen <= 0.7 and 28 <= df <= 36
            and fused_districts and fused_decades)


def test_criterion_10_cli_determinism(tmp_path):
    """Every command, run twice with the same config, emits identical bytes."""
    d = generate(make_scenario("S1", seed=42)).train
    data = tmp_path / "d.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "g"])
        for i in range(d.n):
            w.writerow([repr(float(d.y[i])), d.schemas[0].levels[d.codes[i, 0]]])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_to_json(d.schemas)), encoding="utf-8")

    base = ["--data", str(data), "--schema", str(schema), "--adaptive", "--frequency"]
    ok = True
    produced = []
    for out in (tmp_path / "a", tmp_path / "b"):
        o = str(out)
        assert cli_main(["fit", *base, "--out", o, "--s-ratio", "0.6", "--refit",
                         "--grid", "40"]) == 0
        assert cli_main(["path", *base, "--out", o, "--grid", "40"]) == 0
        assert cli_main(["cv", *base, "--out", o, "--grid", "20", "--k-folds", "3",
                         "--seed", "7"]) == 0
        assert cli_main(["simulate", "--scenario", "S1", "--replicates", "2",
                         "--variants", "stdrd", "--out", o, "--seed", "1",
                         "--grid", "20"]) == 0
        produced.append(out)
    names = ["coefficients.json", "partition.json", "fit.log", "path.csv",
             "cv.csv", "chosen.json", "simreport.csv", "summary.json"]
    for name in names:
        if (produced[0] / name).read_bytes() != (produced[1] / name).read_bytes():
            ok = False
            print(f"\n  mismatch in {name}")
    _report(10, "cli-determinism", ok)
