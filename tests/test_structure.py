from __future__ import annotations

import numpy as np
import pytest

from catfuse.coding import build_augmented, u_transform
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.errors import OlsUnavailable, RankDeficient, ShapeMismatch
from catfuse.selection import CvConfig, build_weights
from catfuse.simlab import generate, make_scenario
from catfuse.solver import path
from catfuse.structure import (
    ClusterPartition,
    FactorPartition,
    cluster_labels_path,
    degrees_of_freedom,
    extract_clusters,
    extract_clusters_path,
    refit,
    refit_labels,
)
from catfuse.weights import ols_coefficients

from conftest import aliased_nominal_ds, fold_paths, rent_schema


NOM3 = (FactorSchema("g", "nominal", ("a", "b", "c")),)


def level_coefficients(fp: FactorPartition) -> np.ndarray:
    """Each level's cluster coefficient."""
    out = np.zeros(sum(len(c) for c in fp.clusters))
    for members, value in zip(fp.clusters, fp.coefficients):
        out[list(members)] = value
    return out


def test_nominal_clusters_transitive():
    # pairwise merges chain: 0~1 and 1~2 pull all three together even though
    # |b[0]-b[2]| alone exceeds the threshold
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c", "d")),)
    beta = {"g": np.array([0.0, 6e-9, 1.2e-8, 1.0])}
    part = extract_clusters(beta, schemas, tol=1e-8)
    fp = part.factor("g")
    assert fp.clusters == ((0, 1, 2), (3,))
    assert fp.zero_cluster == 0


def test_partition_of_an_unknown_factor_raises_key_error():
    part = extract_clusters({"g": np.array([0.0, 1.0, 1.0])}, NOM3)
    with pytest.raises(KeyError, match="^'nope'$"):
        part.factor("nope")


def test_threshold_scales_with_magnitude():
    schemas = NOM3
    beta = {"g": np.array([0.0, 3e-8, 100.0])}
    # max|beta| = 100 inflates the absolute threshold to 1e-6
    part = extract_clusters(beta, schemas, tol=1e-8)
    assert part.factor("g").clusters == ((0, 1), (2,))
    assert part.threshold == pytest.approx(1e-6)
    # with everything order 1 the same gap stays separate
    beta2 = {"g": np.array([0.0, 3e-8, 1.0])}
    part2 = extract_clusters(beta2, schemas, tol=1e-8)
    assert part2.factor("g").clusters == ((0,), (1,), (2,))


def test_ordinal_merges_adjacent_only():
    schemas = (FactorSchema("g", "ordinal", ("0", "1", "2", "3", "4")),)
    # levels 0 and 4 share the value 0 but the run through 2.0 separates them
    beta = {"g": np.array([0.0, 0.0, 2.0, 2.0, 0.0])}
    part = extract_clusters(beta, schemas, tol=1e-8)
    fp = part.factor("g")
    assert fp.clusters == ((0, 1), (2, 3), (4,))
    assert fp.zero_cluster == 0
    assert fp.coefficients == (0.0, 2.0, 0.0)


def test_cluster_coefficient_is_member_mean():
    schemas = NOM3
    beta = {"g": np.array([0.0, 1.0, 1.0 + 5e-9])}
    fp = extract_clusters(beta, schemas, tol=1e-8).factor("g")
    assert fp.clusters == ((0,), (1, 2))
    assert fp.coefficients[1] == pytest.approx(1.0 + 2.5e-9, abs=1e-15)


def test_level_coefficients_and_cluster_of():
    schemas = (FactorSchema("g", "ordinal", ("0", "1", "2")),)
    fp = extract_clusters({"g": np.array([0.0, 2.0, 2.0])}, schemas).factor("g")
    assert level_coefficients(fp).tolist() == [0.0, 2.0, 2.0]
    assert fp.cluster_of(0) == 0
    assert fp.cluster_of(2) == 1


@pytest.mark.parametrize("level", [-1, 3])
def test_cluster_of_rejects_a_level_outside_the_partition(level):
    # labels[-1] would wrap round to the last level
    fp = FactorPartition("g", (0, 1, 1), (0.0, 2.0))
    with pytest.raises(ValueError, match=f"level {level} not in partition of 'g'"):
        fp.cluster_of(level)


@pytest.mark.parametrize("labels", [(1, 0, 1), (0, 2, 1), (0, 0, 2), (0, -1, 1)])
def test_partition_rejects_labels_not_numbered_by_first_occurrence(labels):
    # (1, 0, 1) would put the reference level outside cluster 0, and refit
    # would fit it a nonzero coefficient
    with pytest.raises(ValueError, match="factor 'g': cluster labels .* first occurrence"):
        FactorPartition("g", labels, (0.0, 1.0))


@pytest.mark.parametrize("coefficients", [(0.0,), (0.0, 1.0, 2.0)])
def test_partition_rejects_a_coefficient_count_other_than_the_cluster_count(coefficients):
    with pytest.raises(ValueError, match=f"factor 'g': {len(coefficients)} coefficients for 2"):
        FactorPartition("g", (0, 1, 1), coefficients)


def test_zero_tolerance_keeps_exact_groups():
    schemas = (FactorSchema("g", "nominal", tuple(str(i) for i in range(5))),)
    beta = {"g": np.array([0.0, 0.0, 2.0, 2.0, 3.0])}
    fp = extract_clusters(beta, schemas, tol=0.0).factor("g")
    assert fp.clusters == ((0, 1), (2, 3), (4,))


def test_degrees_of_freedom_hand_counts():
    schemas = (
        FactorSchema("g", "nominal", ("a", "b", "c", "d")),
        FactorSchema("h", "ordinal", ("0", "1", "2", "3", "4")),
    )
    beta = {
        "g": np.array([0.0, 0.0, 2.0, 5.0]),          # clusters {0,1},{2},{3}
        "h": np.array([0.0, 2.0, 2.0, 0.0, 0.0]),     # {0},{1,2},{3,4} back at 0
    }
    part = extract_clusters(beta, schemas, tol=1e-8)
    # g adds 2; h adds only the 2.0 run, its trailing zero run has
    # coefficient 0 and must not count
    assert degrees_of_freedom(part) == 1 + 2 + 1


def test_degrees_of_freedom_collapsed_is_one():
    schemas = NOM3
    part = extract_clusters({"g": np.zeros(3)}, schemas)
    assert degrees_of_freedom(part) == 1


def test_degrees_of_freedom_rent_all_singleton():
    schemas = rent_schema()
    beta = {}
    v = 1.0
    for sch in schemas:
        vals = [0.0]
        for _ in range(sch.k):
            vals.append(v)
            v += 1.0
        beta[sch.name] = np.array(vals)
    part = extract_clusters(beta, schemas, tol=1e-8)
    assert degrees_of_freedom(part) == 58


def test_refit_exact_hand_case():
    schemas = NOM3
    codes = np.array([0, 0, 1, 1, 2, 2])[:, None]
    y = np.array([0.0, 0.0, 3.0, 3.0, 3.0, 3.0])
    ds = Dataset(y, codes, schemas)
    part = ClusterPartition(
        (FactorPartition("g", (0, 1, 1), (0.0, 1.0)),), threshold=1e-8
    )
    rr = refit(ds, part)
    assert rr.beta["g"] == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)
    assert rr.intercept == pytest.approx(0.0, abs=1e-12)
    assert rr.rss == pytest.approx(0.0, abs=1e-20)
    assert rr.partition.factor("g").coefficients == pytest.approx((0.0, 3.0))


def test_refit_fully_fused_gives_intercept_only():
    schemas = NOM3
    codes = np.array([0, 1, 2, 0, 1, 2])[:, None]
    y = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    ds = Dataset(y, codes, schemas)
    part = ClusterPartition(
        (FactorPartition("g", (0, 0, 0), (0.0,)),), threshold=1e-8
    )
    rr = refit(ds, part)
    assert rr.intercept == pytest.approx(2.0)
    assert np.all(rr.beta["g"] == 0.0)
    assert rr.rss == pytest.approx(float(np.sum((y - 2.0) ** 2)))


def test_refit_rank_deficient():
    # two factors with identical cluster indicators collide
    schemas = (
        FactorSchema("g", "nominal", ("a", "b")),
        FactorSchema("h", "nominal", ("x", "y")),
    )
    codes = np.column_stack([np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])])
    ds = Dataset(np.arange(4.0), codes, schemas)
    part = ClusterPartition(
        (
            FactorPartition("g", (0, 1), (0.0, 1.0)),
            FactorPartition("h", (0, 1), (0.0, 1.0)),
        ),
        threshold=1e-8,
    )
    with pytest.raises(RankDeficient, match=r"^collapsed design is rank deficient \(rank 1 < 2\); "
                                            r"factors 'g' and 'h' are collinear$"):
        refit(ds, part)
    with pytest.raises(OlsUnavailable, match="rank 1 < 2"):
        ols_coefficients(ds)


def test_refit_names_the_collinear_factors():
    # a and b share their codes; with each level in a cluster of its own the
    # refit's error names both, in the unpenalized fit's wording
    ds = aliased_nominal_ds()
    part = extract_clusters({name: np.array([0.0, 1.0, 2.0]) for name in "abc"}, ds.schemas)
    with pytest.raises(RankDeficient) as err:
        refit(ds, part)
    assert str(err.value) == ("collapsed design is rank deficient (rank 4 < 6); "
                              "factors 'a' and 'b' are collinear")
    assert err.value.factors == ("a", "b")


def _refit_by_rows(ds: Dataset, labels: np.ndarray):
    """Reference refit: SVD least squares on the n × m centered 0/1 design
    of the clusters outside each zero cluster, for stacked cluster labels,
    as (β dict, intercept, rss)."""
    blocks, of_levels, at = [], [], 0
    for l, sch in enumerate(ds.schemas):
        lab = labels[at:at + sch.k + 1]
        at += sch.k + 1
        first = sum(b.shape[1] for b in blocks)
        of_levels.append(np.where(lab > 0, first + lab - 1, -1))
        blocks.append(np.column_stack(
            [lab[ds.codes[:, l]] == c for c in range(1, lab.max() + 1)] or [np.zeros((ds.n, 0))]
        ).astype(float))
    X = np.hstack([np.zeros((ds.n, 0))] + blocks)
    yc = ds.y - ds.y.mean()
    Xc = X - X.mean(axis=0)
    coef, _, rank, _ = np.linalg.lstsq(Xc, yc, rcond=None)
    assert rank == X.shape[1]
    coef0 = np.append(coef, 0.0)
    beta = {sch.name: coef0[of] for sch, of in zip(ds.schemas, of_levels)}
    intercept = ds.y.mean() - X.mean(axis=0) @ coef
    return beta, intercept, float(np.sum((yc - Xc @ coef) ** 2))


def _assert_refit_matches_rows(ds, labels, partition):
    """refit_labels on `labels` against the row-level reference; refit on
    `partition` (with those labels) gives its β and intercept bit for bit,
    and an rss that matches the reference's."""
    got = refit_labels(ds, labels)
    beta, intercept, rss = _refit_by_rows(ds, labels)
    for name, ref in beta.items():
        assert np.all(np.abs(got.beta[name] - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
    assert abs(got.intercept - intercept) <= 1e-10 * max(1.0, abs(intercept))
    rf = refit(ds, partition)
    assert all(rf.beta[n].tobytes() == got.beta[n].tobytes() for n in got.beta)
    assert rf.intercept == got.intercept
    assert abs(rf.rss - rss) <= 1e-9 * rss
    return got, rf


@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
def test_refit_matches_the_row_level_reference_on_every_path_partition(name):
    train = generate(make_scenario(name, seed=6)).train
    config = CvConfig(k_folds=5, grid_size=30, seed=6, adaptive=True, use_frequency=True)
    fits = [(train, path(build_augmented(train, build_weights(train, True, True)), 30))]
    parts, paths = fold_paths(train, config)
    fits += [(tr, pr) for (tr, _), pr in zip(parts, paths, strict=True)]
    for ds, pr in fits:
        betas = [sol.beta for sol in pr.solutions]
        labels = cluster_labels_path(betas, ds.schemas)
        parts = extract_clusters_path(betas, ds.schemas)
        for row, part in zip(labels, parts):
            assert row.tolist() == [lab for fp in part.factors for lab in fp.labels]
        distinct, first = np.unique(labels, axis=0, return_index=True)
        assert 1 < len(distinct) < len(betas)
        for row, g in zip(distinct, first):
            # refit is refit_labels on the partition's labels, bit for bit,
            # and reads each cluster's coefficient off its smallest member
            got, rf = _assert_refit_matches_rows(ds, row, parts[g])
            for fp in rf.partition.factors:
                assert fp.coefficients == tuple(got.beta[fp.name][c[0]] for c in fp.clusters)


def test_refit_with_a_single_row_reference_level_at_large_n():
    rng = np.random.default_rng(8)
    n = 50_000
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c", "d")),
               FactorSchema("h", "ordinal", ("0", "1", "2")))
    codes = np.column_stack([rng.integers(1, 4, n), rng.integers(0, 3, n)])
    codes[17, 0] = 0                  # the reference level of g has one row
    y = np.array([0.0, 1.0, 1.0, 3.0])[codes[:, 0]] + codes[:, 1] + rng.normal(0, 1, n)
    ds = Dataset(y, codes, schemas)
    for g, h in (((0, 1, 2, 3), (0, 1, 2)), ((0, 1, 1, 2), (0, 0, 1))):
        part = ClusterPartition((FactorPartition("g", g, (0.0,) * (max(g) + 1)),
                                 FactorPartition("h", h, (0.0,) * (max(h) + 1))), threshold=1e-8)
        _assert_refit_matches_rows(ds, np.array(g + h), part)


def test_refit_labels_rejects_a_label_vector_of_another_length():
    ds = generate(make_scenario("S1", 0)).train
    L = sum(sch.k + 1 for sch in ds.schemas)
    with pytest.raises(ShapeMismatch, match=fr"^cluster labels of shape \({L - 1},\) for {L} levels$"):
        refit_labels(ds, np.zeros(L - 1, dtype=int))
    with pytest.raises(ShapeMismatch, match=fr"^cluster labels of shape \(1, {L}\) for {L} levels$"):
        refit_labels(ds, np.zeros((1, L), dtype=int))


@pytest.mark.parametrize("labels", [
    [1, 1, 1, 0, 0, 0, 2, 2, 2],          # the reference level outside cluster 0
    [0, 0, 0, -1, -1, -1, 1, 1, 1],       # a negative label
    [0, 0, 0, 2, 2, 2, 3, 3, 3],          # cluster 1 empty
    [0, 0, 0, 1, 1, 1, 2, 2, 2.5],        # not an integer
])
def test_refit_labels_rejects_labels_not_numbered_by_first_occurrence(labels):
    ds = generate(make_scenario("S1", 0)).train
    with pytest.raises(ValueError, match=r"^factor 'g': cluster labels \[.*\] are not integers "
                                         "numbered by first occurrence from 0$"):
        refit_labels(ds, np.array(labels))


@pytest.mark.parametrize("labels", [
    np.array(list("000111222")),
    np.array([0, 0, 0, 1, 1, 1, 2, 2, None], dtype=object),
], ids=["strings", "objects"])
def test_refit_labels_rejects_labels_that_are_not_numbers(labels):
    ds = generate(make_scenario("S1", 0)).train
    with pytest.raises(ValueError, match=r"^factor 'g': cluster labels \[.*\] are not integers "
                                         "numbered by first occurrence from 0$"):
        refit_labels(ds, labels)


def test_refit_labels_names_only_the_factor_whose_labels_are_misnumbered():
    ds = generate(make_scenario("S2", 0)).train
    labels = cluster_labels_path([ols_coefficients(ds)], ds.schemas)[0]
    refit_labels(ds, labels)
    at = ds.level_table.offsets[[sch.name for sch in ds.schemas].index("nom8n")]
    labels[at + 1] = labels[at + 2] + 1
    with pytest.raises(ValueError, match=r"^factor 'nom8n': cluster labels \[0, 3, 2, [^;]*\] "
                                         "are not integers numbered by first occurrence from 0$"):
        refit_labels(ds, labels)


def test_partition_json_shape():
    schemas = NOM3
    part = extract_clusters({"g": np.array([0.0, 0.0, 4.0])}, schemas)
    doc = part.to_json()
    assert doc["factors"]["g"]["clusters"] == [[0, 1], [2]]
    assert doc["factors"]["g"]["zero_cluster"] == 0
    assert doc["threshold"] == part.threshold


def _all_pairs_clusters(b, nominal, threshold):
    """Reference rule: union-find over every pair within threshold (nominal),
    runs of adjacent u_transform steps within threshold (ordinal)."""
    k1 = b.size
    if not nominal:
        delta = u_transform(b[1:])
        clusters, current = [], [0]
        for i in range(1, k1):
            if abs(delta[i - 1]) <= threshold:
                current.append(i)
            else:
                clusters.append(current)
                current = [i]
        return [tuple(c) for c in clusters + [current]]
    parent = list(range(k1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(k1):
        for j in range(i):
            if abs(b[i] - b[j]) <= threshold:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for lev in range(k1):
        groups.setdefault(find(lev), []).append(lev)
    return [tuple(groups[r]) for r in sorted(groups)]


def _draw_factor_values(rng, k1, scale, threshold):
    # steps: exact ties, at and next to the threshold, clear gaps
    menu = np.array([0.0, threshold * (1 - 1e-12), threshold, threshold * (1 + 1e-12),
                     0.5 * threshold, 3.0 * threshold])
    steps = np.where(rng.random(k1 - 1) < 0.8, rng.choice(menu, k1 - 1),
                     rng.uniform(0.0, 0.1 * scale, k1 - 1))
    b = rng.uniform(-0.1, 0.1) * scale + np.concatenate([[0.0], np.cumsum(steps)])
    b = rng.permutation(b)
    if rng.random() < 0.5:
        b[0] = 0.0
    if rng.random() < 0.2:
        b[rng.integers(k1, size=rng.integers(1, 3))] = np.nan
    return b


def test_extract_clusters_matches_all_pairs_closure():
    rng = np.random.default_rng(20240611)
    for _ in range(2000):
        tol = float(rng.choice([0.0, 1e-8, 1e-3, 0.02]))
        scale = float(rng.choice([1.0, 64.0]))
        threshold = tol * scale
        # a binary factor at ±scale pins max|β| and so the threshold
        schemas = [FactorSchema("pin", "binary", ("0", "1"))]
        beta = {"pin": np.array([0.0, rng.choice([-1.0, 1.0]) * scale])}
        for f in range(rng.integers(1, 4)):
            k1 = int(rng.integers(2, 10))
            scale_kind = "nominal" if rng.random() < 0.5 else "ordinal"
            schemas.append(FactorSchema(f"f{f}", scale_kind, tuple(map(str, range(k1)))))
            beta[f"f{f}"] = _draw_factor_values(rng, k1, scale, threshold)
        part = extract_clusters(beta, schemas, tol=tol)
        assert part.threshold == threshold
        for sch, fp in zip(schemas, part.factors):
            b = beta[sch.name]
            expect = _all_pairs_clusters(b, sch.penalty_scale == "nominal", threshold)
            assert fp.clusters == tuple(expect), (sch, b.tolist(), tol)
            assert fp.zero_cluster == 0
            means = [np.mean(b[list(c)]) for c in expect]
            assert np.array_equal(fp.coefficients, means, equal_nan=True)


def _same_partition(a: ClusterPartition, b: ClusterPartition) -> bool:
    """Equal clusters and bit-identical threshold and coefficients (NaN too)."""
    return (
        np.float64(a.threshold).tobytes() == np.float64(b.threshold).tobytes()
        and [(fp.name, fp.clusters, fp.zero_cluster) for fp in a.factors]
        == [(fp.name, fp.clusters, fp.zero_cluster) for fp in b.factors]
        and all(np.array(fa.coefficients).tobytes() == np.array(fb.coefficients).tobytes()
                for fa, fb in zip(a.factors, b.factors))
    )


def test_extract_clusters_path_matches_per_row():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        tol = float(rng.choice([0.0, 1e-8, 1e-3]))
        schemas = [FactorSchema("pin", "binary", ("0", "1"))]
        kinds = [("nominal" if rng.random() < 0.5 else "ordinal", int(rng.integers(2, 10)))
                 for _ in range(rng.integers(1, 4))]
        for f, (kind, k1) in enumerate(kinds):
            schemas.append(FactorSchema(f"f{f}", kind, tuple(map(str, range(k1)))))
        betas = []
        for _ in range(rng.integers(1, 12)):
            # each row its own scale, so rows have different thresholds
            scale = float(rng.choice([0.25, 1.0, 64.0]))
            beta = {"pin": np.array([0.0, rng.choice([-1.0, 1.0]) * scale])}
            for f, (_, k1) in enumerate(kinds):
                beta[f"f{f}"] = _draw_factor_values(rng, k1, scale, tol * max(1.0, scale))
            betas.append(beta)
        parts = extract_clusters_path(betas, schemas, tol=tol)
        assert len(parts) == len(betas)
        for beta, part in zip(betas, parts):
            assert _same_partition(part, extract_clusters(beta, schemas, tol=tol)), (beta, tol)


def test_nan_factor_does_not_set_any_threshold():
    # a factor holding a NaN is left out of max|β̂|, whichever its position,
    # and only in its own row
    schemas = (FactorSchema("a", "nominal", ("0", "1", "2")),
               FactorSchema("b", "ordinal", ("0", "1")))
    nan_row = {"a": np.array([0.0, np.nan, 100.0]), "b": np.array([0.0, 5.0])}
    big_row = {"a": np.array([0.0, 1.0, 100.0]), "b": np.array([0.0, 5.0])}
    nan_first = extract_clusters_path([nan_row, big_row], schemas, tol=1e-3)
    assert [p.threshold for p in nan_first] == [1e-3 * 5.0, 1e-3 * 100.0]
    flipped = (schemas[1], schemas[0])
    nan_last = extract_clusters_path([big_row, nan_row], flipped, tol=1e-3)
    assert [p.threshold for p in nan_last] == [1e-3 * 100.0, 1e-3 * 5.0]
    assert extract_clusters_path([], schemas) == []


@pytest.mark.parametrize("g_labels, h_labels", [((0, 1), (0, 1)), ((0, 1), (0, 1, 1))])
def test_refit_rejects_a_wrong_label_count_by_factor(g_labels, h_labels):
    # g has 3 levels and h 2; a g short of a label, alone or with h taking
    # the spare one, is named instead of failing inside the normal equations
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c")),
               FactorSchema("h", "nominal", ("x", "y")))
    rng = np.random.default_rng(4)
    codes = np.column_stack([rng.integers(0, 3, 30), rng.integers(0, 2, 30)])
    ds = Dataset(rng.normal(0.0, 1.0, 30), codes, schemas)
    part = ClusterPartition((FactorPartition("g", g_labels, (0.0,) * (max(g_labels) + 1)),
                             FactorPartition("h", h_labels, (0.0,) * (max(h_labels) + 1))),
                            threshold=1e-8)
    with pytest.raises(ShapeMismatch, match="^factor 'g': 2 cluster labels for 3 levels"):
        refit(ds, part)


def test_a_nan_cluster_tolerance_is_rejected():
    # a NaN threshold would cut every step, yet df compares against it too
    ds = generate(make_scenario("S1", 0)).train
    beta = ols_coefficients(ds)
    for read in (extract_clusters, lambda b, s, tol: extract_clusters_path([b], s, tol),
                 lambda b, s, tol: cluster_labels_path([b], s, tol)):
        with pytest.raises(ValueError, match="got nan"):
            read(beta, ds.schemas, tol=float("nan"))


def test_refit_names_each_factor_the_partition_lacks():
    ds = generate(make_scenario("S2", 0)).train
    part = extract_clusters(ols_coefficients(ds), ds.schemas)
    for dropped in (("ord4n",), ("nom8", "ord4n")):
        kept = ClusterPartition(tuple(fp for fp in part.factors if fp.name not in dropped),
                                part.threshold)
        with pytest.raises(ShapeMismatch) as err:
            refit(ds, kept)
        assert str(err.value) == "; ".join(f"factor {name!r}: not in the partition"
                                           for name in dropped)


def test_refit_names_each_partition_factor_the_dataset_lacks():
    ds = generate(make_scenario("S2", 0)).train
    part = extract_clusters(ols_coefficients(ds), ds.schemas)
    ghost = FactorPartition("ghost", (0, 1), (0.0, 0.0))
    with pytest.raises(ShapeMismatch, match="^factor 'ghost': not in the dataset$"):
        refit(ds, ClusterPartition(part.factors + (ghost,), part.threshold))
    # named after the factors the partition lacks
    kept = ClusterPartition((ghost,) + part.factors[1:], part.threshold)
    with pytest.raises(ShapeMismatch) as err:
        refit(ds, kept)
    assert str(err.value) == (f"factor {part.factors[0].name!r}: not in the partition; "
                              "factor 'ghost': not in the dataset")


def test_extract_clusters_path_checks_shapes():
    betas = [{"g": np.zeros(3)}, {"g": np.zeros(2)}]
    with pytest.raises(ValueError, match="'g': expected 3"):
        extract_clusters_path(betas, NOM3)
    with pytest.raises(ValueError):
        extract_clusters_path(betas[:1], NOM3, tol=-1.0)


def test_refit_reads_partition_by_factor_name():
    schemas = (
        FactorSchema("g", "nominal", ("a", "b", "c")),
        FactorSchema("h", "ordinal", ("0", "1", "2")),
    )
    rng = np.random.default_rng(3)
    codes = np.column_stack([rng.integers(0, 3, 40), rng.integers(0, 3, 40)])
    y = np.array([0.0, 2.0, 2.0])[codes[:, 0]] + np.array([0.0, 0.0, 1.0])[codes[:, 1]]
    ds = Dataset(y + rng.normal(0.0, 0.1, 40), codes, schemas)
    g = FactorPartition("g", (0, 1, 1), (0.0, 0.0))
    h = FactorPartition("h", (0, 0, 1), (0.0, 0.0))
    in_order = refit(ds, ClusterPartition((g, h), threshold=1e-8))
    swapped = refit(ds, ClusterPartition((h, g), threshold=1e-8))
    assert [fp.name for fp in swapped.partition.factors] == ["g", "h"]
    assert swapped.partition == in_order.partition
    for name in ("g", "h"):
        assert np.array_equal(swapped.beta[name], in_order.beta[name])
    assert (swapped.intercept, swapped.rss) == (in_order.intercept, in_order.rss)
    assert swapped.beta["g"][1] == swapped.beta["g"][2] == pytest.approx(2.0, abs=0.1)
    assert swapped.beta["h"].tolist()[:2] == [0.0, 0.0]
    assert swapped.beta["h"][2] == pytest.approx(1.0, abs=0.1)
