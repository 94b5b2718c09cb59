from __future__ import annotations

import json

import numpy as np
import pytest

from catfuse.datamodel import (
    Dataset,
    FactorSchema,
    ingest_csv,
    load_schema,
    schema_to_json,
)
from catfuse.errors import (
    DegenerateFactor,
    EmptyDataset,
    MissingColumn,
    NonNumericResponse,
    UnknownLevel,
)

from conftest import toy_mixed_ds


def test_schema_rejects_bad_shapes():
    with pytest.raises(DegenerateFactor):
        FactorSchema("f", "nominal", ("only",))
    with pytest.raises(ValueError):
        FactorSchema("f", "nominal", ("x", "x"))
    with pytest.raises(ValueError):
        FactorSchema("f", "binary", ("a", "b", "c"))
    with pytest.raises(ValueError):
        FactorSchema("f", "continuous", ("a", "b"))


def test_schema_spatial_coords_validated():
    ok = FactorSchema("f", "nominal", ("a", "b"), spatial_coords=(0.0, 3.5))
    assert ok.spatial_coords == (0.0, 3.5)
    with pytest.raises(ValueError):
        FactorSchema("f", "nominal", ("a", "b"), spatial_coords=(0.0,))
    with pytest.raises(ValueError):
        FactorSchema("f", "nominal", ("a", "b"), spatial_coords=(0.0, float("nan")))


def test_binary_uses_nominal_penalty():
    sch = FactorSchema("f", "binary", ("no", "yes"))
    assert sch.penalty_scale == "nominal"
    assert sch.k == 1


def test_dataset_counts_and_subset():
    ds = toy_mixed_ds(seed=1)
    assert ds.n == 120
    for l, sch in enumerate(ds.schemas):
        counts = ds.n_counts[l]
        assert counts.sum() == ds.n
        assert len(counts) == sch.k + 1
    sub = ds.subset(np.arange(10))
    assert sub.n == 10
    assert np.array_equal(sub.codes, ds.codes[:10])


def test_dataset_counts_are_not_an_argument():
    ds = toy_mixed_ds(seed=1)
    with pytest.raises(TypeError):
        Dataset(ds.y, ds.codes, ds.schemas, n_counts="ignored")


def test_dataset_arrays_immutable():
    ds = toy_mixed_ds(seed=2)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0
    with pytest.raises(ValueError):
        ds.codes[0, 0] = 3


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


SCHEMAS = (
    FactorSchema("color", "nominal", ("red", "green", "blue")),
    FactorSchema("size", "ordinal", ("s", "m", "l")),
)


def test_ingest_happy_path(tmp_path):
    p = _write(tmp_path, "y,color,size\n1.5,red,s\n2.5,blue,l\n-1,green,m\n")
    ds = ingest_csv(p, SCHEMAS, response_column="y")
    assert ds.n == 3
    assert ds.y.tolist() == [1.5, 2.5, -1.0]
    assert ds.codes.tolist() == [[0, 0], [2, 2], [1, 1]]


def test_ingest_skips_a_utf8_byte_order_mark(tmp_path):
    text = "y,color,size\n1.5,red,s\n2.5,blue,l\n-1,green,m\n"
    plain = ingest_csv(_write(tmp_path, text), SCHEMAS, response_column="y")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    marked = ingest_csv(str(bom), SCHEMAS, response_column="y")
    assert np.array_equal(marked.y, plain.y)
    assert np.array_equal(marked.codes, plain.codes)


def test_ingest_skips_blank_rows(tmp_path):
    p = _write(tmp_path, "y,color,size\n1,red,s\n\n2,blue,l\n")
    assert ingest_csv(p, SCHEMAS, response_column="y").n == 2


def test_ingest_missing_column(tmp_path):
    p = _write(tmp_path, "y,color\n1,red\n")
    with pytest.raises(MissingColumn):
        ingest_csv(p, SCHEMAS, response_column="y")
    p2 = _write(tmp_path, "resp,color,size\n1,red,s\n", "d2.csv")
    with pytest.raises(MissingColumn):
        ingest_csv(p2, SCHEMAS, response_column="y")


def test_ingest_unknown_level_reports_row(tmp_path):
    p = _write(tmp_path, "y,color,size\n1,red,s\n2,purple,m\n")
    with pytest.raises(UnknownLevel) as ei:
        ingest_csv(p, SCHEMAS, response_column="y")
    assert ei.value.row == 2
    assert ei.value.factor == "color"
    assert ei.value.token == "purple"


def test_ingest_non_numeric_response(tmp_path):
    p = _write(tmp_path, "y,color,size\n1,red,s\nabc,blue,l\n")
    with pytest.raises(NonNumericResponse) as ei:
        ingest_csv(p, SCHEMAS, response_column="y")
    assert ei.value.row == 2


def test_ingest_empty(tmp_path):
    p = _write(tmp_path, "y,color,size\n")
    with pytest.raises(EmptyDataset):
        ingest_csv(p, SCHEMAS, response_column="y")


def test_dataset_rejects_a_repeated_factor_name():
    # two 3-level factors both named "g": before, the second silently
    # overwrote the first in every per-factor dict
    rng = np.random.default_rng(0)
    g = FactorSchema("g", "nominal", ("a", "b", "c"))
    codes = rng.integers(0, 3, (30, 2))
    with pytest.raises(ValueError, match="factor name 'g' appears more than once"):
        Dataset(rng.normal(size=30) + 2.0 * codes[:, 0], codes, (g, g))


def test_ingest_rejects_a_repeated_factor_name(tmp_path):
    p = _write(tmp_path, "y,color,size\n1,red,s\n2,blue,l\n")
    schema = _write(tmp_path, json.dumps(schema_to_json(SCHEMAS + SCHEMAS[:1])), "s.json")
    with pytest.raises(ValueError, match="'color'"):
        ingest_csv(p, load_schema(schema), response_column="y")


def test_ingest_rejects_a_response_column_that_is_a_factor(tmp_path):
    p = _write(tmp_path, "y,color,size\n1,red,s\n2,blue,l\n")
    with pytest.raises(ValueError, match="response column 'color' is also a factor name"):
        ingest_csv(p, SCHEMAS, response_column="color")


def test_schema_json_round_trip(tmp_path):
    schemas = (
        FactorSchema("g", "nominal", ("x", "y"), spatial_coords=(1.0, 2.0)),
        FactorSchema("h", "ordinal", ("1", "2", "3")),
    )
    p = tmp_path / "schema.json"
    p.write_text(json.dumps(schema_to_json(schemas)), encoding="utf-8")
    assert load_schema(str(p)) == schemas


def factor_index(ds: Dataset, name: str) -> int:
    """Position of the named factor in ds.schemas."""
    return [sch.name for sch in ds.schemas].index(name)


def class_frequencies(ds: Dataset, factor: str) -> np.ndarray:
    """Counts per level for one factor; length k+1, sums to n."""
    return ds.n_counts[factor_index(ds, factor)].copy()


def test_class_frequencies():
    ds = toy_mixed_ds(seed=3)
    counts = class_frequencies(ds, "a")
    assert counts.sum() == ds.n
    assert len(counts) == 4
    assert np.array_equal(counts, np.bincount(ds.codes[:, 0], minlength=4))


def test_level_table_is_the_indicator_cross_product():
    ds = toy_mixed_ds(seed=4, n=50)
    table = ds.level_table
    assert table is ds.level_table
    D = np.hstack([(ds.codes[:, l, None] == np.arange(sch.k + 1)).astype(float)
                   for l, sch in enumerate(ds.schemas)])
    assert table.offsets.tolist() == [0, 4, 7, 9]
    assert np.array_equal(table.counts, D.T @ D)
    assert np.allclose(table.sums, D.T @ (ds.y - ds.y.mean()), rtol=0.0, atol=1e-12)
    assert table.y_mean == float(ds.y.mean())
    assert np.array_equal(D[np.arange(ds.n)[:, None], table.index], np.ones((ds.n, 3)))
