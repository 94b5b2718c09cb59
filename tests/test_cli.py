"""Command line behavior through main(argv): outputs, determinism, errors."""
from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from catfuse.cli import SCHEMA_VERSION, main
from catfuse.datamodel import schema_to_json
from catfuse.simlab import generate, make_scenario
from catfuse.weights import ols_coefficients


def write_inputs(tmp_path, seed=7):
    d = generate(make_scenario("S1", seed=seed))
    ds = d.train
    data = tmp_path / "s1.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "g"])
        for i in range(ds.n):
            w.writerow([repr(float(ds.y[i])), ds.schemas[0].levels[ds.codes[i, 0]]])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_to_json(ds.schemas)), encoding="utf-8")
    return str(data), str(schema), ds


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))


def test_path_first_row_is_ols(tmp_path):
    data, schema, ds = write_inputs(tmp_path)
    out = tmp_path / "out"
    rc = main(["path", "--data", data, "--schema", schema, "--out", str(out),
               "--frequency", "--grid", "100"])
    assert rc == 0
    rows = read_csv_rows(out / "path.csv")
    header, body = rows[0], rows[1:]
    assert len(body) == 100
    assert header[:2] == ["s_ratio", "lambda"]
    assert header[2:10] == [f"g:{i}" for i in range(1, 9)]
    assert header[-3:] == ["df", "delta", "bound"]
    first = body[0]
    assert float(first[0]) == 1.0
    assert float(first[1]) == 0.0
    ols = ols_coefficients(ds)["g"][1:]
    got = np.array([float(v) for v in first[2:10]])
    assert np.max(np.abs(got - ols)) < 1e-8
    # config preamble present
    with open(out / "path.csv", encoding="utf-8") as fh:
        assert fh.readline().startswith("# config: ")


def test_path_delta_within_bound(tmp_path):
    data, schema, _ = write_inputs(tmp_path, seed=8)
    out = tmp_path / "out"
    assert main(["path", "--data", data, "--schema", schema, "--out", str(out),
                 "--adaptive", "--frequency"]) == 0
    rows = read_csv_rows(out / "path.csv")
    for row in rows[1:]:
        delta, bound = float(row[-2]), float(row[-1])
        assert delta <= bound + 1e-12


def test_cv_outputs_and_fit_chain(tmp_path):
    data, schema, _ = write_inputs(tmp_path, seed=9)
    out = tmp_path / "out"
    rc = main(["cv", "--data", data, "--schema", schema, "--out", str(out),
               "--adaptive", "--frequency", "--refit", "--k-folds", "4",
               "--seed", "2", "--grid", "30"])
    assert rc == 0
    rows = read_csv_rows(out / "cv.csv")
    assert rows[0] == ["s_ratio", "mean_score", "fold_1", "fold_2", "fold_3", "fold_4"]
    assert len(rows) - 1 == 30
    chosen = json.loads((out / "chosen.json").read_text(encoding="utf-8"))
    assert chosen["schema_version"] == SCHEMA_VERSION
    assert 0.0 <= chosen["chosen_s_ratio"] <= 1.0
    # mean column is the fold average
    r5 = rows[5]
    assert float(r5[1]) == pytest.approx(np.mean([float(v) for v in r5[2:]]))

    # feed chosen.json straight into fit
    rc = main(["fit", "--data", data, "--schema", schema, "--out", str(out),
               "--adaptive", "--frequency", "--refit",
               "--s-ratio", str(out / "chosen.json"), "--grid", "30"])
    assert rc == 0
    coeff = json.loads((out / "coefficients.json").read_text(encoding="utf-8"))
    assert coeff["s_ratio_requested"] == chosen["chosen_s_ratio"]
    assert coeff["df"] >= 1
    part = json.loads((out / "partition.json").read_text(encoding="utf-8"))
    assert part["df"] == coeff["df"]
    assert (out / "fit.log").read_text(encoding="utf-8").startswith("catfuse fit")


def test_fit_s_ratio_one_matches_ols(tmp_path):
    data, schema, ds = write_inputs(tmp_path, seed=10)
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--schema", schema, "--out", str(out),
                 "--frequency", "--s-ratio", "1.0"]) == 0
    coeff = json.loads((out / "coefficients.json").read_text(encoding="utf-8"))
    got = np.array(coeff["coefficients"]["g"])
    expect = ols_coefficients(ds)["g"]
    assert np.max(np.abs(got - expect)) < 1e-8


def test_fit_s_ratio_zero_collapses(tmp_path):
    data, schema, ds = write_inputs(tmp_path, seed=11)
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--schema", schema, "--out", str(out),
                 "--frequency", "--s-ratio", "0.0"]) == 0
    coeff = json.loads((out / "coefficients.json").read_text(encoding="utf-8"))
    assert coeff["df"] == 1
    assert np.max(np.abs(np.array(coeff["coefficients"]["g"]))) < 1e-8
    assert coeff["intercept"] == pytest.approx(float(ds.y.mean()), abs=1e-8)
    part = json.loads((out / "partition.json").read_text(encoding="utf-8"))
    assert part["partition"]["factors"]["g"]["clusters"] == [list(range(9))]


def test_cli_reruns_are_byte_identical(tmp_path):
    data, schema, _ = write_inputs(tmp_path, seed=12)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["--data", data, "--schema", schema, "--adaptive", "--frequency"]
    for out in (out1, out2):
        assert main(["path", *args, "--out", str(out), "--grid", "40"]) == 0
        assert main(["cv", *args, "--out", str(out), "--grid", "20",
                     "--k-folds", "3", "--seed", "5"]) == 0
        assert main(["fit", *args, "--out", str(out), "--s-ratio", "0.5",
                     "--grid", "40"]) == 0
    for name in ("path.csv", "cv.csv", "chosen.json", "coefficients.json",
                 "partition.json", "fit.log"):
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name


def test_simulate_single_replicate(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--scenario", "S1", "--replicates", "1",
               "--variants", "stdrd", "--out", str(out), "--seed", "3",
               "--grid", "25"])
    assert rc == 0
    rows = read_csv_rows(out / "simreport.csv")
    assert len(rows) == 2          # header + one record
    assert rows[1][0] == "0" and rows[1][1] == "stdrd"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["replicates"] == 1
    assert "stdrd" in summary["summary"]


def test_unknown_scenario_errors_as_json(tmp_path, capsys):
    rc = main(["simulate", "--scenario", "S99", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "S99" in err["message"]


def test_missing_data_file_errors_as_json(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text("[]", encoding="utf-8")
    rc = main(["fit", "--data", str(tmp_path / "absent.csv"), "--schema",
               str(schema), "--out", str(tmp_path / "o"), "--s-ratio", "0.5"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"


def test_bad_level_errors_as_json(tmp_path, capsys):
    data, schema, _ = write_inputs(tmp_path, seed=13)
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("1.0,notalevel\n")
    rc = main(["fit", "--data", data, "--schema", schema,
               "--out", str(tmp_path / "o"), "--s-ratio", "0.5"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "UnknownLevel"


@pytest.mark.parametrize("doc", ["{}", "[1]", '{"chosen_s_ratio": null}'])
def test_fit_rejects_chosen_file_without_numeric_s_ratio(tmp_path, capsys, doc):
    data, schema, _ = write_inputs(tmp_path, seed=14)
    chosen = tmp_path / "chosen.json"
    chosen.write_text(doc, encoding="utf-8")
    out = tmp_path / "o"
    rc = main(["fit", "--data", data, "--schema", schema, "--out", str(out),
               "--s-ratio", str(chosen)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "chosen_s_ratio" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("s_ratio", ["nan", "1.5", "-0.1", "chosen.json"])
def test_fit_rejects_s_ratio_outside_unit_interval(tmp_path, capsys, s_ratio):
    data, schema, _ = write_inputs(tmp_path, seed=14)
    if s_ratio == "chosen.json":
        s_ratio = str(tmp_path / "chosen.json")
        with open(s_ratio, "w", encoding="utf-8") as fh:
            json.dump({"chosen_s_ratio": 2.0}, fh)
    out = tmp_path / "o"
    rc = main(["fit", "--data", data, "--schema", schema, "--out", str(out),
               "--s-ratio", s_ratio])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "[0, 1]" in err["message"]
    assert not out.exists()


def test_short_csv_row_errors_as_json(tmp_path, capsys):
    data, schema, _ = write_inputs(tmp_path, seed=15)
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("1.0\n")
    rc = main(["path", "--data", data, "--schema", schema, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith("row 181:")


@pytest.mark.parametrize("entry, where", [
    ({"scale": "nominal", "levels": ["a", "b"]}, "schema entry 1 has no 'name' key"),
    ({"name": "h", "levels": ["a", "b"]}, "schema entry 1 has no 'scale' key"),
    ({"name": "h", "scale": "nominal"}, "schema entry 1 has no 'levels' key"),
    (["h", "nominal"], "schema entry 1 must be a JSON object"),
    ({"name": "h", "scale": "nominal", "levels": 3}, "schema entry 1: 'levels' must be a JSON array"),
    ({"name": "h", "scale": "nominal", "levels": "ab"},
     "schema entry 1: 'levels' must be a JSON array"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": 5},
     "schema entry 1: 'spatial_coords' must be a JSON array"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": "12"},
     "schema entry 1: 'spatial_coords' must be a JSON array"),
])
def test_malformed_schema_entry_errors_as_json(tmp_path, capsys, entry, where):
    data, schema, _ = write_inputs(tmp_path, seed=16)
    doc = json.loads(open(schema, encoding="utf-8").read()) + [entry]
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc = main(["path", "--data", data, "--schema", schema, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": where}
