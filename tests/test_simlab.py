from __future__ import annotations

import numpy as np
import pytest

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
from catfuse.structure import extract_clusters


def test_s1_layout():
    sc = make_scenario("S1", seed=0)
    assert len(sc.schemas) == 1
    assert sc.schemas[0].scale == "nominal" and sc.schemas[0].k == 8
    assert sc.noise_sd == 2.0
    d = generate(sc)
    assert d.train.n == 180
    assert np.all(d.train.n_counts[0] == 20)
    truth = extract_clusters(d.beta_star, sc.schemas, tol=0.0)
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
    truth = extract_clusters(d.beta_star, sc.schemas, tol=0.0)
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


def test_evaluate_perfect_estimate():
    d = generate(make_scenario("S2", seed=2))
    m = evaluate(d.beta_star, d.beta_star, d.train.schemas)
    assert m == EvalMetrics(0.0, 0.0, 0.0, 0.0, 0.0)


def test_evaluate_hand_counts():
    sc = make_scenario("S2", seed=3)
    est = {k: v.copy() for k, v in sc.beta_star.items()}
    # one noise factor picked up: selection FP 1 of 4
    est["nom4n"] = np.array([0.0, 0.7, 0.0, 0.0])
    # one relevant factor fully zeroed: selection FN 1 of 4
    est["ord4"] = np.zeros(4)
    m = evaluate(est, sc.beta_star, sc.schemas)
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
    m = evaluate(est, sc.beta_star, sc.schemas)
    # relevant factors hold 4+1+? truly-zero pairs; count for nom8: pairs
    # within {0,1}: 1, within {2,3,4,5}: 6, within {6,7}: 1 -> 8; nom4: 2;
    # ord8 adjacent zeros: 4; ord4: 2 -> total 16
    assert m.clustering_fpr == pytest.approx(3.0 / 16.0)
    assert m.clustering_fnr == 0.0


def test_evaluate_shape_mismatch():
    from catfuse.errors import ShapeMismatch
    sc = make_scenario("S1", seed=0)
    with pytest.raises(ShapeMismatch):
        evaluate({"g": np.zeros(5)}, {"g": np.zeros(9)}, sc.schemas)


def test_variant_labels():
    assert parse_variant("ols").ols_only
    v = parse_variant("adapt+rf")
    assert v.adaptive and v.refit_after and v.use_frequency
    v = parse_variant("stdrd-nf")
    assert not v.adaptive and not v.use_frequency and not v.refit_after
    v = parse_variant("adapt+rf-nf")
    assert v.adaptive and v.refit_after and not v.use_frequency
    with pytest.raises(ValueError):
        parse_variant("magic")


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
