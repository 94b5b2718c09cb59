"""Design construction: indicator coding, difference layout, restriction
rows, and the augmented least-squares problem."""
from __future__ import annotations

import numpy as np
import pytest

from catfuse.coding import (
    build_augmented,
    indicator_columns,
    induced_theta,
    nominal_pairs,
    restriction_rows,
    theta_layout,
    u_back_transform,
    u_transform,
)
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.errors import LayoutMismatch
from catfuse.weights import standard_weights

from conftest import rent_schema, toy_mixed_ds


def test_nominal_pairs_order():
    # all (i, j) differences grouped by j ascending, i ascending within j
    assert nominal_pairs(3) == [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)]
    assert nominal_pairs(1) == [(1, 0)]


def test_layout_sizes_balanced_nine_level():
    sch = (FactorSchema("g", "nominal", tuple(str(i) for i in range(9))),)
    layout = theta_layout(sch)
    # 9 levels: 8 base differences + 28 extra pairs = 36 columns
    assert layout.q == 36
    assert layout.r == 28


def test_layout_sizes_mixed():
    schemas = (
        FactorSchema("a", "nominal", ("x", "y", "z")),       # 3 pairs, 1 row
        FactorSchema("b", "ordinal", ("1", "2", "3", "4")),  # 3 cols, 0 rows
        FactorSchema("c", "binary", ("no", "yes")),          # 1 col, 0 rows
    )
    layout = theta_layout(schemas)
    assert layout.q == 3 + 3 + 1
    assert layout.r == 1
    assert [b.kind for b in layout.blocks] == ["nominal", "ordinal", "nominal"]


def test_layout_sizes_rent():
    layout = theta_layout(rent_schema())
    # district contributes 25·24/2 pairs; ordinal factors contribute k
    # columns each; binaries one column each
    assert layout.q == 300 + 9 + 5 + 2 + 12 + 5
    assert layout.r == 300 - 24


def test_restriction_rows_structure():
    sch = (FactorSchema("a", "nominal", ("x", "y", "z")),)
    layout = theta_layout(sch)
    A = restriction_rows(layout)
    assert A.shape == (1, 3)
    # theta columns: (1,0), (2,0), (2,1); row encodes t20 - t10 - t21 = 0
    assert A[0].tolist() == [-1.0, 1.0, -1.0]


def test_restriction_rows_all_triples():
    sch = (FactorSchema("g", "nominal", tuple("abcde")),)
    layout = theta_layout(sch)
    A = restriction_rows(layout)
    assert A.shape == (layout.r, layout.q)
    for row in A:
        vals = sorted(row.tolist())
        assert row[row != 0].size == 3
        assert vals.count(-1.0) == 2 and vals.count(1.0) == 1


def test_induced_theta_satisfies_restrictions_exactly():
    # dyadic-grid coefficients keep every pairwise difference representable,
    # so the restriction residual must be bit-exact zero
    schemas = (
        FactorSchema("g", "nominal", tuple(str(i) for i in range(7))),
        FactorSchema("h", "nominal", ("a", "b", "c", "d")),
    )
    layout = theta_layout(schemas)
    A = restriction_rows(layout)
    rng = np.random.default_rng(0)
    for _ in range(100):
        beta = {
            "g": np.concatenate(([0.0], rng.integers(-64, 64, 6) / 8.0)),
            "h": np.concatenate(([0.0], rng.integers(-64, 64, 3) / 8.0)),
        }
        theta = induced_theta(layout, beta)
        assert np.all(A @ theta == 0.0)


def test_induced_theta_restriction_residual_float():
    schemas = (FactorSchema("g", "nominal", tuple(str(i) for i in range(9))),)
    layout = theta_layout(schemas)
    A = restriction_rows(layout)
    rng = np.random.default_rng(1)
    for _ in range(50):
        beta = {"g": np.concatenate(([0.0], rng.normal(0, 5, 8)))}
        resid = A @ induced_theta(layout, beta)
        assert np.max(np.abs(resid)) < 1e-12


def test_u_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(200):
        beta = rng.normal(0, 10, rng.integers(1, 30))
        back = u_back_transform(u_transform(beta))
        assert np.max(np.abs(back - beta)) < 1e-12


def test_u_transform_values():
    delta = u_transform(np.array([1.0, 3.0, 2.0]))
    assert delta.tolist() == [1.0, 2.0, -1.0]
    assert u_back_transform(np.array([1.0, 2.0, -1.0])).tolist() == [1.0, 3.0, 2.0]


def raw_columns(prob):
    """The 0/1 coded design behind a problem, with scaling and centring undone."""
    return prob.Z_data * prob.weight_values + prob.column_means


def test_build_augmented_nominal_block_is_dummy_coding():
    ds = toy_mixed_ds(seed=5)
    prob = build_augmented(ds, standard_weights(ds, use_frequency=True))
    assert np.max(np.abs(prob.Z_data.mean(axis=0))) < 1e-12
    assert abs(prob.y_centered.mean()) < 1e-12
    raw = raw_columns(prob)
    for name, l in (("a", 0), ("c", 2)):
        blk = prob.layout.block(name)
        for i in range(1, blk.k + 1):
            col = raw[:, blk.offset + i - 1]
            assert np.allclose(col, ds.codes[:, l] == i, rtol=0, atol=1e-12)
        # the pair columns θ_ij, j >= 1, carry no data
        assert np.all(prob.Z_data[:, blk.offset + blk.k:blk.offset + blk.length] == 0.0)


def test_build_augmented_unobserved_level_gives_zero_column():
    # the schema guarantees >= 2 declared levels; a level that never occurs
    # is not an error here, it just yields an uninformative column (weights
    # and OLS reject it downstream where it actually matters)
    schemas = (
        FactorSchema("g", "nominal", ("a", "b", "c")),
        FactorSchema("o", "ordinal", ("1", "2", "3")),
    )
    codes = np.column_stack([[0, 1, 0, 1, 0], [0, 1, 1, 0, 1]])
    ds = Dataset(np.arange(5.0), codes, schemas)
    prob = build_augmented(ds, standard_weights(ds))
    g, o = prob.layout.block("g"), prob.layout.block("o")
    assert np.all(prob.Z_data[:, g.offset + 1] == 0.0)     # level c
    assert np.all(prob.Z_data[:, o.offset + 1] == 0.0)     # level 3
    assert np.any(prob.Z_data[:, g.offset] != 0.0)


def test_build_augmented_shapes_and_scaling():
    ds = toy_mixed_ds(seed=6)
    ws = standard_weights(ds, use_frequency=True)
    prob = build_augmented(ds, ws)
    layout = prob.layout
    assert prob.Z_data.shape == (ds.n, layout.q)
    assert prob.A_raw.shape == (layout.r, layout.q)
    assert prob.y_tilde.shape == (ds.n + layout.r,)
    assert np.all(prob.y_tilde[ds.n:] == 0.0)
    assert prob.Z_tilde.shape == (ds.n + layout.r, layout.q)
    # stacked tail is sqrt(gamma) times the scaled restriction rows
    assert np.allclose(prob.Z_tilde[ds.n:], prob.sqrt_gamma * prob.A_scaled, rtol=0, atol=0)
    # nominal extra-pair columns carry no data
    blk = layout.block("a")
    extra = slice(blk.offset + 3, blk.offset + blk.length)
    assert np.all(prob.Z_data[:, extra] == 0.0)
    # scaled columns are the unit-weight columns divided by w
    ws_unit = standard_weights(ds, use_frequency=False)
    prob_unit = build_augmented(ds, ws_unit)
    w = np.asarray(ws.values)
    w_unit = np.asarray(ws_unit.values)
    assert np.allclose(prob.Z_data * w, prob_unit.Z_data * w_unit)


def test_build_augmented_rejects_weights_laid_out_for_other_factors():
    # same q = 6 either way: g has 3 pairs, o has 3 adjacent differences
    g = FactorSchema("g", "nominal", ("a", "b", "c"))
    o = FactorSchema("o", "ordinal", ("0", "1", "2", "3"))
    rng = np.random.default_rng(4)
    codes = np.column_stack([rng.integers(0, 3, 40), rng.integers(0, 4, 40)])
    y = rng.normal(size=40)
    ds = Dataset(y, codes, (g, o))
    swapped = standard_weights(Dataset(y, codes[:, ::-1], (o, g)), use_frequency=True)
    assert swapped.layout.q == theta_layout(ds.schemas).q
    with pytest.raises(LayoutMismatch, match=r"for factors o \(ordinal, 4 levels\), "
                       r"g \(nominal, 3 levels\); the dataset has g .*, o "):
        build_augmented(ds, swapped)


def test_build_augmented_ordinal_block_is_split_coding():
    ds = toy_mixed_ds(seed=7)
    ws = standard_weights(ds, use_frequency=False)
    prob = build_augmented(ds, ws)
    blk = prob.layout.block("b")
    raw = raw_columns(prob)[:, blk.slice]
    codes = ds.codes[:, 1]
    assert raw.shape == (ds.n, 2)
    for i in (1, 2):
        assert np.allclose(raw[:, i - 1], codes >= i, rtol=0, atol=1e-12)


def test_split_design_indicators():
    # split coding of ordinal "b": column i - 1 is codes >= i, i = 1, 2
    ds = toy_mixed_ds(seed=4)
    codes = ds.codes[:, 1]
    cols = indicator_columns(codes, [1, 2], split=True)
    assert cols.shape == (ds.n, 2)
    assert np.array_equal(cols[:, 0], (codes >= 1).astype(float))
    assert np.array_equal(cols[:, 1], (codes >= 2).astype(float))
    # without split the same labels give dummy coding, codes == i
    dummy = indicator_columns(codes, [1, 2])
    assert np.array_equal(dummy[:, 0], (codes == 1).astype(float))
    assert np.array_equal(dummy[:, 1], (codes == 2).astype(float))
