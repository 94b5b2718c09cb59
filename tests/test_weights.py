from __future__ import annotations

import numpy as np
import pytest

from catfuse.coding import theta_layout
from catfuse.datamodel import Dataset, FactorSchema
from catfuse.errors import MissingCoordinates, UnobservedLevel
from catfuse.weights import (
    ADAPTIVE_CAP,
    DEFAULT_SPATIAL_FLOOR,
    WeightSet,
    adaptive_weights,
    epanechnikov,
    ols_coefficients,
    spatial_factors,
    standard_weights,
    with_spatial,
)

from conftest import toy_mixed_ds


def factor_values(ws, name: str) -> np.ndarray:
    """The weights of one factor's block of differences."""
    return ws.values[ws.layout.block(name).slice]


def balanced_one_factor(k1: int, per: int, means) -> Dataset:
    codes = np.repeat(np.arange(k1), per)[:, None]
    y = np.asarray(means, dtype=float)[codes[:, 0]]
    schemas = (FactorSchema("g", "nominal", tuple(str(i) for i in range(k1))),)
    return Dataset(y, codes, schemas)


def test_nominal_weight_values():
    ds = balanced_one_factor(9, 20, np.zeros(9))
    plain = standard_weights(ds, use_frequency=False)
    vals = factor_values(plain, "g")
    # k = 8 non-reference levels: constant 2/(k+1) on every pair
    assert np.allclose(vals, 2.0 / 9.0)
    freq = standard_weights(ds, use_frequency=True)
    assert np.allclose(factor_values(freq, "g"), (2.0 / 9.0) * np.sqrt(40.0 / 180.0))


def test_ordinal_weight_values():
    schemas = (FactorSchema("g", "ordinal", ("0", "1", "2")),)
    codes = np.array([0, 0, 0, 1, 2, 2])[:, None]
    ds = Dataset(np.arange(6.0), codes, schemas)
    plain = standard_weights(ds, use_frequency=False)
    assert factor_values(plain, "g").tolist() == [1.0, 1.0]
    freq = standard_weights(ds, use_frequency=True)
    # adjacent-count terms: (3+1)/6 and (1+2)/6
    assert np.allclose(factor_values(freq, "g"), np.sqrt([4.0 / 6.0, 3.0 / 6.0]))


def test_unobserved_level_rejected_only_with_frequency_weights():
    schemas = (FactorSchema("g", "nominal", ("a", "b", "c")),)
    codes = np.array([0, 0, 1, 1])[:, None]   # level c absent
    ds = Dataset(np.arange(4.0), codes, schemas)
    with pytest.raises(UnobservedLevel):
        standard_weights(ds, use_frequency=True)
    # without frequency weights the empty class is tolerated
    w = standard_weights(ds, use_frequency=False)
    assert np.all(w.values > 0.0)


def test_adaptive_multiplier_is_inverse_ols_difference():
    means = np.array([0.0, 1.0, 3.0])
    ds = balanced_one_factor(3, 10, means)
    base = standard_weights(ds, use_frequency=False)
    ols = ols_coefficients(ds)
    # balanced one-factor OLS reproduces the class means relative to level 0
    assert np.allclose(ols["g"], means - means[0], atol=1e-10)
    adapt = adaptive_weights(base, ols)
    layout = theta_layout(ds.schemas)
    pairs = layout.block("g").pairs
    vals = factor_values(adapt, "g")
    for (i, j), v in zip(pairs, vals):
        expect = (2.0 / 3.0) / abs(means[i] - means[j])
        assert v == pytest.approx(expect, rel=1e-9)


def test_adaptive_cap_on_tied_estimates():
    means = np.array([0.0, 0.0, 2.0])   # exact tie between levels 0 and 1
    ds = balanced_one_factor(3, 10, means)
    base = standard_weights(ds, use_frequency=False)
    adapt = adaptive_weights(base, ols_coefficients(ds))
    vals = factor_values(adapt, "g")
    assert vals[0] == pytest.approx((2.0 / 3.0) * ADAPTIVE_CAP)


def test_epanechnikov_kernel():
    assert epanechnikov(0.0) == pytest.approx(0.75)
    assert epanechnikov(0.5) == pytest.approx(0.75 * 0.75)
    assert epanechnikov(1.0) == 0.0
    assert epanechnikov(-2.0) == 0.0


def test_spatial_factors_floor_and_kernel():
    sch = FactorSchema("g", "nominal", ("a", "b", "c"), spatial_coords=(0.0, 10.0, 100.0))
    mult = spatial_factors(sch, h=15.0)
    # pair order (1,0), (2,0), (2,1); distant pairs sit on the floor
    assert mult[0] == pytest.approx(0.75 * (1 - (10.0 / 15.0) ** 2))
    assert mult[1] == DEFAULT_SPATIAL_FLOOR
    assert mult[2] == DEFAULT_SPATIAL_FLOOR


def test_spatial_factors_at_a_tiny_bandwidth_sit_on_the_floor():
    # (ς_i − ς_j)/h reaches 2e300 at h = 1e-300: the kernel squares u only
    # inside its support, so no square overflows
    sch = FactorSchema("g", "nominal", ("a", "b", "c"), spatial_coords=(0.0, 1.0, 2.0))
    assert spatial_factors(sch, h=1e-300).tolist() == [DEFAULT_SPATIAL_FLOOR] * 3


def test_spatial_factors_need_coordinates_and_a_positive_bandwidth():
    with pytest.raises(MissingCoordinates, match="^factor 'g' has no spatial coordinates$"):
        spatial_factors(FactorSchema("g", "nominal", ("a", "b", "c")), h=15.0)
    sch = FactorSchema("g", "nominal", ("a", "b", "c"), spatial_coords=(0.0, 1.0, 2.0))
    for h in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="^bandwidth h must be > 0$"):
            spatial_factors(sch, h=h)


def test_weight_set_rejects_a_wrong_length_and_non_positive_weights():
    layout = theta_layout([FactorSchema("g", "nominal", ("a", "b", "c"))])
    with pytest.raises(ValueError, match=r"^expected 3 weights, got \(2,\)$"):
        WeightSet(np.ones(2), layout)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^weights must be finite and > 0$"):
            WeightSet(np.array([1.0, bad, 1.0]), layout)


def test_with_spatial_multiplies_only_located_factors():
    rng = np.random.default_rng(0)
    schemas = (
        FactorSchema("g", "nominal", ("a", "b", "c"), spatial_coords=(0.0, 5.0, 6.0)),
        FactorSchema("h", "nominal", ("x", "y")),
    )
    codes = np.column_stack([rng.integers(0, 3, 60), rng.integers(0, 2, 60)])
    ds = Dataset(rng.normal(size=60), codes, schemas)
    base = standard_weights(ds)
    spat = with_spatial(base, schemas, h=15.0)
    assert not np.allclose(factor_values(spat, "g"), factor_values(base, "g"))
    assert np.array_equal(factor_values(spat, "h"), factor_values(base, "h"))


def test_with_spatial_requires_coordinates():
    ds = toy_mixed_ds(seed=9)
    base = standard_weights(ds)
    with pytest.raises(MissingCoordinates):
        with_spatial(base, ds.schemas, h=15.0)


def test_weight_positivity_enforced():
    ds = toy_mixed_ds(seed=10)
    ws = standard_weights(ds)
    assert np.all(np.asarray(ws.values) > 0)
    assert len(ws.values) == theta_layout(ds.schemas).q
