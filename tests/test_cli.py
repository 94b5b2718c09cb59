"""Command line behavior through main(argv): outputs, determinism, errors."""
from __future__ import annotations

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from catfuse.cli import SCHEMA_VERSION, main
from catfuse.coding import build_augmented
from catfuse.datamodel import schema_to_json
from catfuse.selection import build_weights, predicted_effects
from catfuse.simlab import generate, make_scenario, run_study
from catfuse.solver import path
from catfuse.structure import extract_clusters, refit
from catfuse.weights import ols_coefficients

from conftest import ALIASED_MESSAGE, aliased_nominal_ds


def write_dataset(tmp_path, ds, name):
    """ds as a CSV (response y, exact floats) plus its schema file."""
    data = tmp_path / name
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [sch.name for sch in ds.schemas])
        for i in range(ds.n):
            w.writerow([repr(float(ds.y[i]))]
                       + [sch.levels[c] for sch, c in zip(ds.schemas, ds.codes[i])])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_to_json(ds.schemas)), encoding="utf-8")
    return str(data), str(schema)


def write_inputs(tmp_path, seed=7):
    ds = generate(make_scenario("S1", seed=seed)).train
    return (*write_dataset(tmp_path, ds, "s1.csv"), ds)


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


def test_fit_refit_and_the_study_take_the_intercept_by_one_rule(tmp_path):
    # the study's "+rf" variant is scored with the intercept `fit --refit`
    # writes: the refit's own OLS intercept at the CV-chosen s
    d = generate(make_scenario("S2", seed=0))
    (rec,) = run_study("S2", ["stdrd+rf"], replicates=1, seed=0, grid_size=30).records
    data, schema = write_dataset(tmp_path, d.train, "s2.csv")
    out = tmp_path / "out"
    assert main(["fit", "--data", data, "--schema", schema, "--out", str(out), "--frequency",
                 "--refit", "--grid", "30", "--s-ratio", repr(rec.chosen_s_ratio)]) == 0
    coeff = json.loads((out / "coefficients.json").read_text(encoding="utf-8"))
    beta = {name: np.array(v) for name, v in coeff["coefficients"].items()}

    pr = path(build_augmented(d.train, build_weights(d.train, False, True)), 30)
    part = extract_clusters(pr.solution_at(rec.chosen_s_ratio).beta, d.train.schemas)
    assert coeff["intercept"] == refit(d.train, part).intercept
    pred = coeff["intercept"] + predicted_effects(beta, d.test)
    assert rec.msep == float(np.mean((d.test.y - pred) ** 2))


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


@pytest.mark.parametrize("spatial_h", [None, "3"], ids=["plain", "spatial"])
def test_cli_reruns_are_byte_identical(tmp_path, spatial_h):
    data, schema, _ = write_inputs(tmp_path, seed=12)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["--data", data, "--schema", schema, "--adaptive", "--frequency"]
    if spatial_h is not None:
        # the S1 schema with spatial coordinates on g, also run without --spatial-h
        doc = json.loads(Path(schema).read_text(encoding="utf-8"))
        doc[0]["spatial_coords"] = [float(i) for i in range(len(doc[0]["levels"]))]
        Path(schema).write_text(json.dumps(doc), encoding="utf-8")
        plain = tmp_path / "plain"
        assert main(["path", *args, "--out", str(plain), "--grid", "40"]) == 0
        args += ["--spatial-h", spatial_h]
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
    if spatial_h is not None:
        # the rows, not only the config preamble, move with the kernel weights
        assert read_csv_rows(out1 / "path.csv") != read_csv_rows(plain / "path.csv")


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


def test_path_reads_a_csv_with_a_byte_order_mark(tmp_path):
    data, schema, _ = write_inputs(tmp_path, seed=15)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(data).read_bytes())
    assert main(["path", "--data", str(bom), "--schema", schema, "--grid", "5",
                 "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "path.csv").exists()


@pytest.mark.parametrize("command", [
    ["path"],
    ["fit", "--s-ratio", "0.5"],
    ["fit", "--adaptive", "--s-ratio", "0.5"],
    ["cv", "--k-folds", "2"],
    ["cv", "--adaptive", "--k-folds", "2"],
])
def test_empty_schema_errors_as_json(tmp_path, capsys, command):
    data = tmp_path / "d.csv"
    data.write_text("y\n1.0\n2.0\n3.0\n4.0\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text("[]", encoding="utf-8")
    out = tmp_path / "o"
    rc = main([*command, "--data", str(data), "--schema", str(schema), "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ValueError"
    assert "the schema has no factors" in err["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["cv", "simulate"])
def test_a_negative_seed_errors_as_json_naming_the_seed(tmp_path, capsys, command):
    data, schema, _ = write_inputs(tmp_path, seed=19)
    inputs = {"cv": ["--data", data, "--schema", schema, "--grid", "10", "--k-folds", "3"],
              "simulate": ["--scenario", "S1", "--replicates", "1", "--grid", "10"]}
    out = tmp_path / "o"
    rc = main([command, *inputs[command], "--seed", "-1", "--out", str(out)])
    assert rc == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message": "seed must be >= 0, got -1"}
    assert not out.exists()


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


@pytest.mark.parametrize("extra, response, message", [
    ({"name": "g", "scale": "nominal", "levels": ["0", "1", "2"]}, "y",
     "factor name 'g' appears more than once"),
    ({"name": "y", "scale": "nominal", "levels": ["0", "1"]}, "y",
     "response column 'y' is also a factor name"),
])
def test_fit_rejects_clashing_column_names(tmp_path, capsys, extra, response, message):
    data, schema, _ = write_inputs(tmp_path, seed=17)
    doc = json.loads(Path(schema).read_text(encoding="utf-8")) + [extra]
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = tmp_path / "o"
    rc = main(["fit", "--data", data, "--schema", schema, "--response", response,
               "--out", str(out), "--s-ratio", "0.5"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_aliased_factors_error_as_json_naming_them(tmp_path, capsys):
    data, schema = write_dataset(tmp_path, aliased_nominal_ds(), "aliased.csv")
    out = tmp_path / "o"
    assert main(["path", "--data", data, "--schema", schema, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "OlsUnavailable", "message": ALIASED_MESSAGE}
    assert not out.exists()


def test_spatial_bandwidth_without_coordinates_errors_as_json(tmp_path, capsys):
    data, schema, _ = write_inputs(tmp_path, seed=18)
    rc = main(["fit", "--data", data, "--schema", schema, "--spatial-h", "10",
               "--out", str(tmp_path / "o"), "--s-ratio", "0.5"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "MissingCoordinates",
                   "message": "no factor of the schema has spatial coordinates"}


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
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": [0.0, None]},
     "factor 'h': spatial coord 1 must be a finite number >= 0, got None"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": [[0, 0], [1, 0]]},
     "factor 'h': spatial coord 0 must be a finite number >= 0, got [0, 0]"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": [0.0, {"x": 1}]},
     "factor 'h': spatial coord 1 must be a finite number >= 0, got {'x': 1}"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": ["x", 1.0]},
     "factor 'h': spatial coord 0 must be a finite number >= 0, got 'x'"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": [True, 2.5]},
     "factor 'h': spatial coord 0 must be a finite number >= 0, got True"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "b"], "spatial_coords": [1.0, "2.5"]},
     "factor 'h': spatial coord 1 must be a finite number >= 0, got '2.5'"),
    ({"name": 5, "scale": "nominal", "levels": ["a", "b"]},
     "schema entry 1: 'name' must be a JSON string"),
    ({"name": ["h"], "scale": "nominal", "levels": ["a", "b"]},
     "schema entry 1: 'name' must be a JSON string"),
    ({"name": "h", "scale": "nominal", "levels": [None, "b"]},
     "schema entry 1: level 0 must be a JSON string or number, got null"),
    ({"name": "h", "scale": "nominal", "levels": [True, "True"]},
     "schema entry 1: level 0 must be a JSON string or number, got true"),
    ({"name": "h", "scale": "nominal", "levels": ["a", ["a"]]},
     "schema entry 1: level 1 must be a JSON string or number, got [\"a\"]"),
    # CSV cells are stripped, so no cell could read these labels; the schema
    # is rejected before the CSV header, which has no column h, is read
    ({"name": "h", "scale": "nominal", "levels": ["a ", "b"]},
     "factor 'h': level 'a ' has surrounding whitespace, which CSV cells are stripped of"),
    ({"name": "h", "scale": "nominal", "levels": ["a", "\tb"]},
     "factor 'h': level '\\tb' has surrounding whitespace, which CSV cells are stripped of"),
])
def test_malformed_schema_entry_errors_as_json(tmp_path, capsys, entry, where):
    data, schema, _ = write_inputs(tmp_path, seed=16)
    doc = json.loads(Path(schema).read_text(encoding="utf-8")) + [entry]
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc = main(["path", "--data", data, "--schema", schema, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": where}


def _readme_command_line_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def _subcommand_options(command, capsys):
    with pytest.raises(SystemExit) as ei:
        main([command, "--help"])
    assert ei.value.code == 0
    return set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))


def test_readme_command_line_section_matches_the_parser(capsys):
    section = _readme_command_line_section()
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    options = {c: _subcommand_options(c, capsys) for c in ("fit", "path", "cv", "simulate")}
    # every documented flag is accepted by some subcommand
    assert documented - set.union(*options.values()) == set()
    # every option fit, path and cv share is documented
    shared = (options["fit"] & options["path"] & options["cv"]) - {"--help"}
    assert shared - documented == set()
