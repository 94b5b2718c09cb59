from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from catfuse import datamodel, simlab, structure, weights
from catfuse.datamodel import Dataset
from catfuse.errors import NotConverged, UnobservedLevel
from catfuse.selection import CvConfig, fit_at, kfold_cv, predicted_effects, weighted_path
from catfuse.simlab import (
    PROBS_4,
    PROBS_8,
    EvalMetrics,
    evaluate,
    generate,
    make_scenario,
    parse_variant,
    run_study,
)
from catfuse.structure import (
    ClusterPartition,
    FactorPartition,
    degrees_of_freedom,
    extract_clusters,
)


DEFAULT_VARIANTS = ["ols", "stdrd", "stdrd+rf", "adapt", "adapt+rf"]
linux_only = pytest.mark.skipif(sys.platform != "linux", reason="units fork only on Linux")


def pin_workers(monkeypatch, w):
    """Run a study's units on w processes (or as many as there are units)."""
    monkeypatch.setattr(simlab, "_worker_count", lambda units: min(units, w))


def test_balanced_design_rejects_n_not_divisible_by_the_level_count():
    with pytest.raises(ValueError, match=r"^balanced design needs n divisible by level count$"):
        generate(replace(make_scenario("S1"), n_train=181))


def test_s1_layout():
    sc = make_scenario("S1", seed=0)
    assert len(sc.schemas) == 1
    assert sc.schemas[0].scale == "nominal" and sc.schemas[0].k == 8
    assert sc.noise_sd == 2.0
    d = generate(sc)
    assert d.train.n == 180
    assert np.all(d.train.n_counts[0] == 20)
    truth = extract_clusters(d.beta_star, sc.schemas)
    assert truth.factor("g").clusters == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_s1_zero_noise_hits_class_means():
    from dataclasses import replace
    sc = replace(make_scenario("S1", seed=1), noise_sd=0.0)
    d = generate(sc)
    mu = sc.alpha + sc.beta_star["g"]
    for lvl in range(9):
        rows = d.train.codes[:, 0] == lvl
        assert np.all(d.train.y[rows] == mu[lvl])


def test_s2_truth_and_sizes():
    sc = make_scenario("S2", seed=0)
    assert sc.n_train == 500 and sc.n_test == 1000
    assert sc.alpha == 1.0 and sc.noise_sd == 1.0
    assert [s.name for s in sc.schemas] == [
        "nom8", "nom8n", "nom4", "nom4n", "ord8", "ord8n", "ord4", "ord4n"
    ]
    assert sc.beta_star["nom8"].tolist() == [0, 0, 1, 1, 1, 1, -2, -2]
    assert sc.beta_star["nom4"].tolist() == [0, 0, 2, 2]
    assert sc.beta_star["ord8"].tolist() == [0, 0, 1, 1, 2, 2, 4, 4]
    assert sc.beta_star["ord4"].tolist() == [0, 0, -2, -2]
    for noise in ("nom8n", "nom4n", "ord8n", "ord4n"):
        assert np.all(sc.beta_star[noise] == 0.0)
    # 40 dummy coefficients across the eight factors
    assert sum(s.k for s in sc.schemas) == 40
    d = generate(sc)
    truth = extract_clusters(d.beta_star, sc.schemas)
    assert truth.factor("nom8").clusters == ((0, 1), (2, 3, 4, 5), (6, 7))
    assert truth.factor("ord4").clusters == ((0, 1), (2, 3))


def test_s2_probabilities():
    sc = make_scenario("S2", seed=0)
    assert PROBS_8 == (0.1, 0.1, 0.2, 0.05, 0.2, 0.1, 0.2, 0.05)
    assert PROBS_4 == (0.1, 0.4, 0.2, 0.3)
    for p in sc.probs:
        assert sum(p) == pytest.approx(1.0)


def test_s3_adds_six_level_noise():
    sc = make_scenario("S3", seed=0)
    assert len(sc.schemas) == 16
    extra = sc.schemas[8:]
    assert all(s.k + 1 == 6 for s in extra)
    assert sum(1 for s in extra if s.scale == "nominal") == 4
    assert sum(1 for s in extra if s.scale == "ordinal") == 4
    for s in extra:
        assert np.all(sc.beta_star[s.name] == 0.0)


def test_generate_deterministic_and_seed_sensitive():
    a = generate(make_scenario("S2", seed=5))
    b = generate(make_scenario("S2", seed=5))
    c = generate(make_scenario("S2", seed=6))
    assert np.array_equal(a.train.y, b.train.y)
    assert np.array_equal(a.test.codes, b.test.codes)
    assert not np.array_equal(a.train.y, c.train.y)


def test_unknown_scenario():
    with pytest.raises(ValueError):
        make_scenario("S9")


def test_run_study_needs_a_replicate():
    with pytest.raises(ValueError, match="^replicates must be >= 1$"):
        run_study("S1", ["stdrd"], replicates=0, seed=0, k_folds=3, grid_size=10)


def test_run_study_needs_a_variant():
    with pytest.raises(ValueError, match="^variants must name at least one variant$"):
        run_study("S1", [], replicates=1)


def test_evaluate_perfect_estimate():
    d = generate(make_scenario("S2", seed=2))
    schemas = d.train.schemas
    m = evaluate(d.beta_star, extract_clusters(d.beta_star, schemas), d.beta_star, schemas)
    assert m == EvalMetrics(0.0, 0.0, 0.0, 0.0, 0.0)


def test_evaluate_hand_counts():
    sc = make_scenario("S2", seed=3)
    est = {k: v.copy() for k, v in sc.beta_star.items()}
    # one noise factor picked up: selection FP 1 of 4
    est["nom4n"] = np.array([0.0, 0.7, 0.0, 0.0])
    # one relevant factor fully zeroed: selection FN 1 of 4
    est["ord4"] = np.zeros(4)
    m = evaluate(est, extract_clusters(est, sc.schemas), sc.beta_star, sc.schemas)
    assert m.selection_fpr == pytest.approx(0.25)
    assert m.selection_fnr == pytest.approx(0.25)
    # zeroing ord4 fuses its truly-distinct adjacent pair (2,1): 1 FN among
    # the nonzero differences of the relevant factors, which number
    # 20 (nom8, all pairs) + 4 (nom4) + 3 (ord8, adjacent) + 1 (ord4)
    assert m.clustering_fnr == pytest.approx(1.0 / 28.0)
    # nom4n is pure noise, so its split contributes nothing to clustering
    assert m.clustering_fpr == 0.0


def test_evaluate_clustering_fp_hand_count():
    sc = make_scenario("S2", seed=4)
    est = {k: v.copy() for k, v in sc.beta_star.items()}
    est["nom8"] = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.3, -2.0, -2.0])
    # splitting level 5 off its cluster breaks pairs (5,2),(5,3),(5,4) and
    # (5,0),(5,1) stay unequal-true so: truly-zero pairs broken = 3
    m = evaluate(est, extract_clusters(est, sc.schemas), sc.beta_star, sc.schemas)
    # relevant factors hold 4+1+? truly-zero pairs; count for nom8: pairs
    # within {0,1}: 1, within {2,3,4,5}: 6, within {6,7}: 1 -> 8; nom4: 2;
    # ord8 adjacent zeros: 4; ord4: 2 -> total 16
    assert m.clustering_fpr == pytest.approx(3.0 / 16.0)
    assert m.clustering_fnr == 0.0


def test_evaluate_shape_mismatch():
    from catfuse.errors import ShapeMismatch
    sc = make_scenario("S1", seed=0)
    part = extract_clusters(sc.beta_star, sc.schemas)
    with pytest.raises(ShapeMismatch, match="^factor 'g': expected 9 per-level values$"):
        evaluate({"g": np.zeros(5)}, part, {"g": np.zeros(9)}, sc.schemas)
    # the partition is checked as β̂ and the truth are: a factor it lacks, or
    # one it gives 5 labels for 9 levels, is named
    short = ClusterPartition((FactorPartition("g", (0,) * 5, (0.0,)),), part.threshold)
    lacking = ClusterPartition((FactorPartition("h", (0,) * 9, (0.0,)),), part.threshold)
    for bad, message in ((lacking, "no per-level values"), (short, "expected 9 per-level values")):
        with pytest.raises(ShapeMismatch, match=f"^factor 'g': {message}$"):
            evaluate(sc.beta_star, bad, sc.beta_star, sc.schemas)


def test_variant_labels():
    assert parse_variant("ols") is None
    v = parse_variant("adapt+rf")
    assert isinstance(v, CvConfig)
    assert v.adaptive and v.refit_inside and v.use_frequency
    v = parse_variant("stdrd-nf")
    assert not v.adaptive and not v.use_frequency and not v.refit_inside
    v = parse_variant("adapt+rf-nf")
    assert v.adaptive and v.refit_inside and not v.use_frequency
    v = parse_variant("stdrd-nf+rf")
    assert not v.adaptive and v.refit_inside and not v.use_frequency
    for label in ("magic", "st-nfdrd", "+rfadapt", "stdrd+rf+rf", "adapt-nf-nf",
                  "stdrd+rf-nf+rf", "adapt+", "ols+rf", "Stdrd", " stdrd"):
        with pytest.raises(ValueError, match="unknown variant label"):
            parse_variant(label)


def test_run_study_single_replicate_shape():
    rep = run_study("S1", ["ols", "stdrd"], replicates=1, seed=0,
                    k_folds=5, grid_size=25)
    assert len(rep.records) == 2
    assert {r.variant for r in rep.records} == {"ols", "stdrd"}
    r = rep.records[0]
    assert r.replicate == 0
    for rate in (r.selection_fpr, r.selection_fnr, r.clustering_fpr, r.clustering_fnr):
        assert 0.0 <= rate <= 1.0
    assert r.coef_mse >= 0 and r.msep >= 0
    summ = rep.summary()
    assert set(summ) == {"ols", "stdrd"}
    assert summ["ols"]["df"]["median"] == 9.0


def test_run_study_fits_each_weighting_once_under_one_config(monkeypatch):
    # a weighting's fold paths and full-data path come from one CvConfig;
    # "+rf" shares its weighting's paths, and each replicate has its own seed
    calls = []

    def recording(name):
        real = getattr(simlab, name)

        def wrapper(ds, config):
            calls.append((name, config))
            return real(ds, config)
        return wrapper

    for name in ("compute_fold_paths", "weighted_path"):
        monkeypatch.setattr(simlab, name, recording(name))
    pin_workers(monkeypatch, 1)      # a child's calls are not seen here
    run_study("S1", ["stdrd", "stdrd+rf", "adapt+rf", "adapt"], replicates=2, seed=3,
              k_folds=3, grid_size=10)
    configs = [CvConfig(k_folds=3, grid_size=10, seed=seed, adaptive=adaptive, use_frequency=True)
               for seed in (3, 4) for adaptive in (False, True)]
    assert calls == [(name, c) for c in configs for name in ("compute_fold_paths", "weighted_path")]


@pytest.mark.parametrize("scenario", ["S1", "S2"])
def test_a_study_variant_is_kfold_cv_then_fit_at_on_the_weighted_path(scenario):
    # the tuned fit `catfuse cv` and `catfuse fit` make, bit for bit
    variants = ["stdrd", "stdrd+rf", "adapt", "adapt+rf", "stdrd-nf+rf"]
    rep = run_study(scenario, variants, replicates=1, seed=4, k_folds=4, grid_size=20)
    data = generate(make_scenario(scenario, seed=4))
    for label, record in zip(variants, rep.records, strict=True):
        assert record.variant == label
        config = replace(parse_variant(label), k_folds=4, grid_size=20, seed=4)
        chosen = kfold_cv(data.train, config).chosen_s_ratio
        fit = fit_at(weighted_path(data.train, config), data.train, chosen, config.refit_inside)
        pred = fit.intercept + predicted_effects(fit.beta, data.test)
        assert record.chosen_s_ratio == chosen
        assert record.df == degrees_of_freedom(fit.partition)
        assert record.msep == float(np.mean((data.test.y - pred) ** 2))
        # the rates score the partition df counts, the one fit_at returns
        m = evaluate(fit.beta, fit.partition, data.beta_star, data.train.schemas)
        assert asdict(m) == {name: getattr(record, name) for name in asdict(m)}


def test_each_fit_is_read_once(monkeypatch):
    # each variant's tuned fit is read once, by fit_at (or extract_clusters
    # for "ols"): five one-row read-outs, and no second read of a fit with
    # the truth (two rows). The multi-row read-outs are CV's, one per "+rf"
    # fold path
    rows = []
    real = structure._read_out

    def counting(betas, schemas):
        rows.append(len(betas))
        return real(betas, schemas)

    monkeypatch.setattr(structure, "_read_out", counting)
    pin_workers(monkeypatch, 1)      # a child's calls are not seen here
    run_study("S2", DEFAULT_VARIANTS, replicates=1, seed=0, grid_size=20)
    assert 2 not in rows
    assert rows.count(1) == 5
    assert len([n for n in rows if n > 2]) == 2 * 5


def test_a_replicate_splits_its_training_set_once(monkeypatch):
    # five folds give ten parts, shared by both weightings; each of the five
    # training parts and the full training set builds one level table and
    # makes one unpenalized fit
    counts = {"subset": 0, "level table": 0, "unpenalized fit": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Dataset, "subset", counting("subset", Dataset.subset))
    monkeypatch.setattr(datamodel, "LevelTable", counting("level table", datamodel.LevelTable))
    monkeypatch.setattr(weights, "refit_labels", counting("unpenalized fit", weights.refit_labels))
    pin_workers(monkeypatch, 1)      # a child's calls are not seen here
    run_study("S2", DEFAULT_VARIANTS, replicates=1, seed=0, k_folds=5, grid_size=20)
    assert counts == {"subset": 10, "level table": 6, "unpenalized fit": 6}
    if sys.platform == "linux":     # units fork only on Linux
        # the caller splits, whatever process runs the units
        counts["subset"] = 0
        pin_workers(monkeypatch, 2)
        run_study("S2", DEFAULT_VARIANTS, replicates=1, seed=0, k_folds=5, grid_size=20)
        assert counts["subset"] == 10


def test_an_ols_only_study_makes_no_fold():
    # S1 trains on 180 rows, too few for 100 folds; the "ols" variant is not
    # cross-validated, so the study never splits its rows
    rep = run_study("S1", ["ols"], replicates=1, k_folds=100, grid_size=10)
    assert [r.variant for r in rep.records] == ["ols"]
    with pytest.raises(ValueError, match="need n >= 2K"):
        run_study("S1", ["ols", "stdrd"], replicates=1, k_folds=100, grid_size=10)


@linux_only
@pytest.mark.parametrize("variants", [
    DEFAULT_VARIANTS,
    # four weightings whose variants interleave: each unit's records come
    # back in its label order, the report's in variant order
    ["adapt", "ols", "stdrd+rf", "adapt+rf-nf", "stdrd", "adapt+rf"],
], ids=["default", "interleaved"])
def test_units_on_several_processes_give_the_records_of_one(monkeypatch, variants):
    def records(w):
        pin_workers(monkeypatch, w)
        return run_study("S2", variants, replicates=3, grid_size=20).records

    serial = records(1)
    assert [(r.replicate, r.variant) for r in serial] == [
        (rep, v) for rep in range(3) for v in variants]
    for w in (2, 3):
        assert records(w) == serial
        assert multiprocessing.active_children() == []


@linux_only
def test_a_free_process_takes_the_next_unit(monkeypatch, tmp_path):
    # replicate 0's unit waits until replicate 2's has run, so the study ends
    # only if the other process takes both units 1 and 2 while the first waits
    signal = tmp_path / "replicate-2-ran"
    real = simlab._run_unit

    def ordered(unit):
        if unit.replicate == 0:
            deadline = time.monotonic() + 10.0
            while not signal.exists():
                if time.monotonic() > deadline:
                    raise TimeoutError("replicate 2's unit did not run while replicate 0's waited")
                time.sleep(0.01)
        elif unit.replicate == 2:
            signal.touch()
        return real(unit)

    monkeypatch.setattr(simlab, "_run_unit", ordered)
    pin_workers(monkeypatch, 2)
    rep = run_study("S1", ["stdrd"], replicates=3, k_folds=3, grid_size=10)
    assert [r.replicate for r in rep.records] == [0, 1, 2]
    assert multiprocessing.active_children() == []


@linux_only
@pytest.mark.parametrize("planted", [
    # unit 5 of six (adapt, replicate 1) runs in a child at w = 2 and 3
    lambda config: NotConverged("planted") if config.adaptive and config.seed == 1 else None,
    # so does UnobservedLevel, whose pickled form once broke the pool
    lambda config: (UnobservedLevel("nom8", "3") if config.adaptive and config.seed == 1
                    else None),
    # units 1 and 4 (stdrd): unit 1's error is the one a single process raises
    lambda config: None if config.adaptive else NotConverged(f"planted at seed {config.seed}"),
], ids=["in-a-child", "unobserved-level", "lowest-unit-wins"])
def test_an_error_in_a_child_is_the_one_a_single_process_raises(monkeypatch, planted):
    real = simlab.weighted_path

    def failing(ds, config):
        error = planted(config)
        if error is not None:
            raise error
        return real(ds, config)

    monkeypatch.setattr(simlab, "weighted_path", failing)
    raised = {}
    for w in (1, 2, 3):
        pin_workers(monkeypatch, w)
        with pytest.raises(Exception) as info:
            run_study("S2", DEFAULT_VARIANTS, replicates=2, grid_size=20)
        raised[w] = (type(info.value), str(info.value))
        assert multiprocessing.active_children() == []
    assert raised[1][0] in (NotConverged, UnobservedLevel)
    assert raised[2] == raised[3] == raised[1]


@linux_only
def test_one_usable_cpu_starts_no_process(monkeypatch):
    expected = run_study("S1", ["ols", "stdrd", "adapt+rf"], replicates=2, k_folds=3,
                         grid_size=10).records

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert simlab._worker_count(6) == 1
    assert run_study("S1", ["ols", "stdrd", "adapt+rf"], replicates=2, k_folds=3,
                     grid_size=10).records == expected


def test_a_daemonic_process_or_another_platform_runs_units_itself(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    assert simlab._worker_count(6) == 4
    assert simlab._worker_count(3) == 3
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    assert simlab._worker_count(6) == 1
    monkeypatch.undo()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert simlab._worker_count(6) == 1
