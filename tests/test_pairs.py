"""Every consumer of the penalized level pairs applies one rule to
`FactorBlock.pair_index`; each must equal a plain per-pair loop over
`FactorBlock.pairs`, bit for bit."""
from __future__ import annotations

import numpy as np

from catfuse.coding import induced_theta, restriction_rows, theta_layout
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.simlab import evaluate
from catfuse.structure import extract_clusters
from catfuse.weights import (
    ADAPTIVE_CAP,
    DEFAULT_SPATIAL_FLOOR,
    WeightSet,
    adaptive_weights,
    epanechnikov,
    spatial_factors,
    standard_weights,
)

SCHEMAS = (
    FactorSchema("g", "nominal", ("a", "b", "c", "d", "e"),
                 spatial_coords=(0.0, 4.0, 9.5, 15.0, 40.0)),
    FactorSchema("s", "binary", ("no", "yes")),
    FactorSchema("o", "ordinal", ("o0", "o1", "o2", "o3")),
)
LAYOUT = theta_layout(SCHEMAS)


def mixed_ds(n: int = 200) -> Dataset:
    rng = np.random.default_rng(3)
    codes = np.column_stack([rng.integers(0, len(s.levels), n) for s in SCHEMAS])
    return Dataset(rng.normal(size=n), codes, SCHEMAS)


def per_pair(fn) -> np.ndarray:
    """fn(block, i, j) at every pair column of the layout, one at a time."""
    out = np.empty(LAYOUT.q)
    for b in LAYOUT.blocks:
        for c, (i, j) in enumerate(b.pairs):
            out[b.offset + c] = fn(b, i, j)
    return out


def kernel(u: float) -> float:
    return 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0


def test_pair_index_is_pairs_in_column_order():
    for b in LAYOUT.blocks:
        i, j = b.pair_index
        assert list(zip(i.tolist(), j.tolist())) == list(b.pairs)


def test_pair_index_is_built_once_and_read_only():
    for b in LAYOUT.blocks:
        i, j = b.pair_index
        assert b.pair_index is b.pair_index
        assert not (i.flags.writeable or j.flags.writeable)


def test_induced_theta_matches_per_pair_loop():
    rng = np.random.default_rng(0)
    for ref0 in (0.0, 0.75):
        beta = {s.name: np.concatenate([[ref0], rng.normal(size=s.k)]) for s in SCHEMAS}
        want = per_pair(lambda b, i, j: beta[b.name][i] - beta[b.name][j])
        assert np.array_equal(induced_theta(LAYOUT, beta), want)


def test_restriction_rows_match_per_pair_loop():
    want = []
    for b in LAYOUT.blocks:
        if b.kind != "nominal":
            continue
        col = {pair: b.offset + c for c, pair in enumerate(b.pairs)}
        for (i, j) in b.pairs:
            if j >= 1:
                row = np.zeros(LAYOUT.q)
                row[col[(i, 0)]], row[col[(j, 0)]], row[col[(i, j)]] = 1.0, -1.0, -1.0
                want.append(row)
    got = restriction_rows(LAYOUT)
    assert got.shape == (LAYOUT.r, LAYOUT.q)
    assert np.array_equal(got, np.array(want))


def test_standard_weights_match_per_pair_loop():
    ds = mixed_ds()

    def base(b):
        return 2.0 / (b.k + 1) if b.kind == "nominal" else 1.0

    counts = dict(zip((s.name for s in SCHEMAS), ds.n_counts))
    plain = per_pair(lambda b, i, j: base(b))
    freq = per_pair(lambda b, i, j: base(b) * np.sqrt((counts[b.name][i] + counts[b.name][j]) / ds.n))
    assert np.array_equal(standard_weights(ds).values, plain)
    assert np.array_equal(standard_weights(ds, use_frequency=True).values, freq)


def test_adaptive_weights_match_per_pair_loop_and_cap_ties():
    ols = {
        "g": np.array([0.0, 0.5, 0.5, -1.25, 1e-13]),   # (2, 1) ties exactly
        "s": np.array([0.0, 2.0]),
        "o": np.array([0.0, 0.0, 1.5, 1.75]),           # (1, 0) ties exactly
    }
    base = WeightSet(np.linspace(0.5, 1.5, LAYOUT.q), LAYOUT)

    def mult(b, i, j):
        d = abs(ols[b.name][i] - ols[b.name][j])
        return ADAPTIVE_CAP if d == 0 else min(1.0 / d, ADAPTIVE_CAP)

    want = base.values * per_pair(mult)
    assert np.array_equal(adaptive_weights(base, ols).values, want)
    ones = adaptive_weights(WeightSet(np.ones(LAYOUT.q), LAYOUT), ols).values
    g, o = LAYOUT.block("g"), LAYOUT.block("o")
    assert ones[g.offset + g.pairs.index((2, 1))] == ADAPTIVE_CAP
    assert ones[o.offset] == ADAPTIVE_CAP
    assert ones[g.offset + g.pairs.index((4, 0))] == ADAPTIVE_CAP   # 1/1e-13 is capped


def test_spatial_factors_match_per_pair_loop():
    sch = SCHEMAS[0]
    b = LAYOUT.block("g")
    for h in (5.0, 15.0, 5.5):
        want = [max(kernel((sch.spatial_coords[i] - sch.spatial_coords[j]) / h),
                    DEFAULT_SPATIAL_FLOOR) for (i, j) in b.pairs]
        assert np.array_equal(spatial_factors(sch, h=h), np.array(want))


def test_epanechnikov_on_an_array_matches_its_scalar_values():
    u = np.array([-2.0, -1.0, -0.999, -0.3, 0.0, 1.0 / 3.0, 0.5, 1.0, 1.0 + 1e-16, 7.0])
    got = epanechnikov(u)
    assert got.shape == u.shape
    assert np.array_equal(got, np.array([epanechnikov(float(v)) for v in u]))
    assert np.array_equal(got, np.array([kernel(float(v)) for v in u]))


def test_evaluate_matches_per_pair_cluster_comparison():
    truth = {"g": np.array([0.0, 0.0, 1.0, 1.0, -2.0]), "s": np.array([0.0, 1.0]),
             "o": np.array([0.0, 0.0, 2.0, 0.0])}
    est = {"g": np.array([0.0, 1.0, 1.0, 1.0, -2.0]), "s": np.array([0.0, 0.0]),
           "o": np.array([0.0, 2.0, 2.0, 0.0])}
    fe, ft = extract_clusters(est, SCHEMAS), extract_clusters(truth, SCHEMAS, tol=0.0)
    fp = fn = zero = nonzero = 0
    for b, pe, pt in zip(LAYOUT.blocks, fe.factors, ft.factors):
        if len(pt.clusters) == 1:
            continue
        for (i, j) in b.pairs:
            tz = pt.cluster_of(i) == pt.cluster_of(j)
            ez = pe.cluster_of(i) == pe.cluster_of(j)
            zero, nonzero = zero + tz, nonzero + (not tz)
            fp, fn = fp + (tz and not ez), fn + (ez and not tz)
    m = evaluate(est, truth, SCHEMAS)
    assert (m.clustering_fpr, m.clustering_fnr) == (fp / zero, fn / nonzero)
    assert type(m.clustering_fpr) is float and type(m.clustering_fnr) is float
