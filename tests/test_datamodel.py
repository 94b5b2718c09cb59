from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from catfuse.datamodel import (
    Dataset,
    FactorSchema,
    ingest_csv,
    level_values,
    load_schema,
    row_effects,
    schema_to_json,
)
from catfuse.errors import (
    DegenerateFactor,
    EmptyDataset,
    MissingColumn,
    NonNumericResponse,
    ShapeMismatch,
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
    # an entry float() rejects is named by factor and index, as a NaN is
    for coords, index in (((0.0, None, 2.5, 4.0), 1), (([0, 0], [1, 0], [0, 1], [1, 1]), 0),
                          ((0.0, 1.0, {"x": 1}, 3.0), 2), ((0.0, 1.0, 2.0, "x"), 3),
                          ((0.0, float("nan"), 2.0, 3.0), 1), ((0.0, 10 ** 400, 2.0, 3.0), 1),
                          # float() reads these as 1.0 and 2.5, but they are no distances
                          ((0.0, 1.0, True, 3.0), 2), ((0.0, "2.5", 2.0, 3.0), 1),
                          ((np.True_, 1.0, 2.0, 3.0), 0)):
        with pytest.raises(ValueError, match=f"^factor 'f': spatial coord {index} "):
            FactorSchema("f", "nominal", ("a", "b", "c", "d"), spatial_coords=coords)
    # ints and numpy reals are read as floats
    located = FactorSchema("f", "nominal", ("a", "b", "c"),
                           spatial_coords=(0, np.float32(1.5), np.int64(4)))
    assert located.spatial_coords == (0.0, 1.5, 4.0)
    assert all(type(c) is float for c in located.spatial_coords)


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


def test_ingest_a_file_without_a_header_names_the_file(tmp_path):
    p = _write(tmp_path, "", "nothing.csv")
    with pytest.raises(EmptyDataset, match=r"^.*nothing\.csv: file is empty$"):
        ingest_csv(p, SCHEMAS, response_column="y")


def test_load_schema_rejects_a_document_that_is_not_an_array(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text('{"name": "color", "scale": "nominal", "levels": ["red", "green"]}',
                 encoding="utf-8")
    with pytest.raises(ValueError, match=r"^schema document must be a JSON array$"):
        load_schema(str(p))


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


def test_dataset_rejects_non_integral_codes():
    # before, the codes were cast to integers and 1.7, 2.2 read as levels 1, 2
    g = FactorSchema("g", "nominal", ("a", "b", "c"))
    with pytest.raises(ValueError, match="factor 'g': level index is not an integer"):
        Dataset(np.arange(3.0), [[0.0], [1.7], [2.2]], (g,))
    assert Dataset(np.arange(3.0), [[0.0], [1.0], [2.0]], (g,)).codes.tolist() == [[0], [1], [2]]


def test_dataset_rejects_malformed_arrays():
    g = FactorSchema("g", "nominal", ("a", "b", "c"))
    codes = np.array([[0], [1], [2], [1]])
    for y, codes_, schemas, error, message in (
        (np.zeros((4, 1)), codes, (g,), ValueError, "y must be 1-d and codes (n, n_factors)"),
        (np.zeros(0), np.zeros((0, 1), dtype=int), (g,), EmptyDataset, "dataset has no rows"),
        (np.array([0.0, np.inf, 1.0, 2.0]), codes, (g,), ValueError,
         "response contains non-finite values"),
        (np.zeros(4), codes, (g, FactorSchema("h", "nominal", ("x", "y"))), ValueError,
         "codes column count must match number of schemas"),
        (np.zeros(4), np.array([[0], [1], [3], [1]]), (g,), ValueError,
         "factor 'g': level index out of range"),
    ):
        with pytest.raises(error) as ei:
            Dataset(y, codes_, schemas)
        assert type(ei.value) is error and str(ei.value) == message


def test_ingest_rejects_a_needed_column_named_twice_in_the_header(tmp_path):
    # before, the second "color" column was silently ignored, "zzz" and all
    p = _write(tmp_path, "y,color,color,size\n1,red,zzz,s\n2,blue,red,l\n")
    with pytest.raises(ValueError, match="column 'color' appears more than once"):
        ingest_csv(p, SCHEMAS, response_column="y")
    p = _write(tmp_path, "y,color,y,size\n1,red,2,s\n", "d2.csv")
    with pytest.raises(ValueError, match="column 'y' appears more than once"):
        ingest_csv(p, SCHEMAS, response_column="y")
    # columns the schema does not use may repeat
    p = _write(tmp_path, "note,y,color,note,size\nx,1,red,zzz,s\n", "d3.csv")
    assert ingest_csv(p, SCHEMAS, response_column="y").codes.tolist() == [[0, 0]]


def _ingest_error(tmp_path, text):
    with pytest.raises(Exception) as ei:
        ingest_csv(_write(tmp_path, text), SCHEMAS, response_column="y")
    return ei.value


def test_ingest_reports_the_earliest_failing_row(tmp_path):
    # an unknown level at row 2 comes before a bad response at row 4
    err = _ingest_error(tmp_path, "y,color,size\n1,red,s\n2,purple,m\n3,blue,l\nabc,red,s\n")
    assert isinstance(err, UnknownLevel) and (err.row, err.token) == (2, "purple")
    # within a row the response comes first
    err = _ingest_error(tmp_path, "y,color,size\n1,red,s\nabc,purple,m\n")
    assert isinstance(err, NonNumericResponse) and (err.row, err.token) == (2, "abc")
    # a short row is reported only if no earlier row fails
    err = _ingest_error(tmp_path, "y,color,size\n1,red,s\n2,purple,m\n3,blue,l\n4,red\n")
    assert isinstance(err, UnknownLevel) and err.row == 2
    err = _ingest_error(tmp_path, "y,color,size\n1,red,s\n4,red\n3,blue,l\n2,purple,m\n")
    assert type(err) is ValueError and str(err) == "row 2: 2 cells, the header has 3"


def test_ingest_row_numbers_count_blank_rows(tmp_path):
    err = _ingest_error(tmp_path, "y,color,size\n1,red,s\n\n , \n2,purple,m\n")
    assert isinstance(err, UnknownLevel) and err.row == 4


def test_ingest_reports_the_first_factor_in_schema_order(tmp_path):
    # both factors of row 2 are unknown; the header lists size first
    err = _ingest_error(tmp_path, "y,size,color\n1,s,red\n2,xl,purple\n")
    assert isinstance(err, UnknownLevel)
    assert (err.row, err.factor, err.token) == (2, "color", "purple")


@pytest.mark.parametrize("token", ["inf", "nan", "-Infinity", " NaN "])
def test_ingest_rejects_non_finite_responses(tmp_path, token):
    err = _ingest_error(tmp_path, f"y,color,size\n1,red,s\n2,red,s\n{token},blue,l\n")
    assert isinstance(err, NonNumericResponse) and (err.row, err.token) == (3, token.strip())


def _read_row_by_row(path, schema, response):
    """Reference reader: one row at a time, each cell stripped and looked up."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    at = [header.index(name) for name in [response] + [s.name for s in schema]]
    ys, codes = [], []
    for row in rows[1:]:
        if all(c.strip() == "" for c in row):
            continue
        ys.append(float(row[at[0]].strip()))
        codes.append([s.levels.index(row[c].strip()) for s, c in zip(schema, at[1:])])
    return np.array(ys), np.array(codes, dtype=np.int64)


def test_ingest_equals_a_row_by_row_reader(tmp_path):
    rng = np.random.default_rng(16)
    schema = SCHEMAS + (FactorSchema("zone", "nominal", tuple(f"z{i}" for i in range(12))),)
    pad = ["", " ", "  ", "\t"]
    lines = [" size ,note,y , zone,color"]
    for _ in range(2000):
        if rng.random() < 0.03:
            lines.append(["", " ", ",,,,", " , ,\t, , "][rng.integers(4)])
            continue
        cells = [rng.choice(SCHEMAS[1].levels), f"n{rng.integers(99)}",
                 repr(float(rng.normal(0, 10))), f"z{rng.integers(12)}",
                 rng.choice(SCHEMAS[0].levels)]
        cells = [pad[rng.integers(4)] + c + pad[rng.integers(4)] for c in cells]
        lines.append(",".join(cells + ["extra"] * int(rng.integers(3))))
    p = tmp_path / "bank.csv"
    p.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode("utf-8"))
    ds = ingest_csv(str(p), schema, response_column="y")
    y, codes = _read_row_by_row(str(p), schema, "y")
    assert ds.n == y.size > 1900
    assert ds.y.tobytes() == y.tobytes()
    assert ds.codes.tobytes() == codes.tobytes()


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
    assert table.n == ds.n


def test_level_values_stacks_the_rows_and_names_a_malformed_one():
    # one call stacks every β's vector; an empty list, a missing factor, a
    # row of another length, ragged rows and 0-d entries keep their messages
    g = FactorSchema("g", "nominal", ("a", "b", "c"))
    stack = level_values([{"g": np.array([0.0, 1.0, 2.0])}, {"g": [0, 3, -1]}], g)
    assert stack.dtype == float and stack.tolist() == [[0.0, 1.0, 2.0], [0.0, 3.0, -1.0]]
    empty = level_values([], g)
    assert empty.shape == (0, 3) and empty.dtype == float
    with pytest.raises(ShapeMismatch, match="^factor 'g': no per-level values$"):
        level_values([{"g": np.zeros(3)}, {"h": np.zeros(3)}], g)
    for rows in ([np.zeros(3), np.zeros(2)],      # ragged rows
                 [np.zeros(2), np.zeros(2)],      # every row of another length
                 [np.zeros(3), 0.0],              # a 0-d entry beside a row
                 [0.0, 0.0, 0.0],                 # 0-d entries only, as many as levels
                 [np.zeros((1, 3))]):             # a 2-d entry of k + 1 values
        with pytest.raises(ShapeMismatch, match="^factor 'g': expected 3 per-level values$"):
            level_values([{"g": row} for row in rows], g)


def test_row_effects_reads_a_level_stack_as_its_beta_dicts():
    ds = toy_mixed_ds(seed=6, n=40)
    offsets = ds.level_table.offsets.tolist()
    L = offsets[-1]
    stack = np.random.default_rng(6).normal(size=(5, L))
    betas = [{sch.name: row[a:b] for sch, a, b in zip(ds.schemas, offsets, offsets[1:])}
             for row in stack]
    assert row_effects(stack, ds).tobytes() == row_effects(betas, ds).tobytes()
    with pytest.raises(ShapeMismatch,
                       match=fr"^level stack of shape \(5, {L - 1}\) for {L} levels$"):
        row_effects(stack[:, 1:], ds)
