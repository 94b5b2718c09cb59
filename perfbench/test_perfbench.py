"""Tests of the benchmark's own logic: self-time arithmetic, failure
counting, the correctness checkers and the span wrappers."""
from __future__ import annotations

import copy
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import spans
import workloads as W
from worker import closed_loop
from catfuse import selection, weights
from catfuse.cli import main as cli_main
from catfuse.datamodel import schema_to_json
from catfuse.simlab import generate, make_scenario, run_study
from catfuse.solver import PrecisionReport


def test_self_time_on_hand_built_tree():
    # op [0,100] has children a [10,40] and b [30,60] (overlapping: union 50)
    # and d [90,120], which sticks out of op and counts only up to 100.
    # a has child c [15,25].
    tree = [
        [1, None, "op", 0, 100],
        [2, 1, "a", 10, 40],
        [3, 1, "b", 30, 60],
        [4, 2, "c", 15, 25],
        [5, 1, "d", 90, 120],
    ]
    own = spans.self_times(tree)
    assert own == {1: 40, 2: 20, 3: 30, 4: 10, 5: 30}
    agg = spans.by_name(tree + [[6, None, "c", 200, 205]])
    assert agg["c"]["calls"] == 2
    assert agg["c"]["self_s"] == pytest.approx(15e-9)
    assert agg["op"]["total_s"] == pytest.approx(100e-9)


def test_failures_count_raising_operations_and_failed_checks():
    def op(item):
        if item == 2:
            raise ValueError("boom")
        return item

    def check(item, out):
        return ["wrong output"] if item == 3 else []

    stats = closed_loop(op, check, [0, 1, 2, 3], seconds=0.0)
    assert stats.attempted == 4
    assert stats.failed == 2
    assert stats.errors == ["ValueError: boom", "wrong output"]
    assert len(stats.durations) == 4


def test_wide_path_checker_rejects_point_beyond_precision_bound():
    ds = generate(make_scenario("S1", seed=3)).train
    out = W.wide_path_op(ds)
    ref = checks.beta_rows(out.path, ds.schemas)
    ols = weights.ols_coefficients(ds)
    assert checks.check_wide_path(out, ds.schemas, ols, ref) == []

    sols = list(out.path.solutions)
    p = sols[5].precision
    sols[5] = dataclasses.replace(sols[5], precision=PrecisionReport(delta=p.bound + 1e-9, bound=p.bound))
    bad = dataclasses.replace(out, path=dataclasses.replace(out.path, solutions=tuple(sols)))
    errors = checks.check_wide_path(bad, ds.schemas, ols, ref)
    assert any("precision bound violated at grid points [5]" in e for e in errors)

    shifted = ref.copy()
    shifted[40, 0] += 1e-7
    assert any("reference" in e for e in checks.check_wide_path(out, ds.schemas, ols, shifted))


def test_tall_cli_checker_rejects_one_changed_byte(tmp_path):
    d = generate(make_scenario("S1", seed=4)).train
    data = tmp_path / "d.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "g"])
        for i in range(d.n):
            w.writerow([repr(float(d.y[i])), d.schemas[0].levels[d.codes[i, 0]]])
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(schema_to_json(d.schemas)), encoding="utf-8")
    out = tmp_path / "out"
    for argv in W.tall_cli_commands(str(data), str(schema), str(out)):
        assert cli_main(argv + ["--grid", "20"]) == 0
    files = W.read_outputs(str(out))
    ref = checks.tall_numbers(files)
    assert checks.check_tall_cli(files, None, ref) == []
    assert checks.check_tall_cli(files, copy.deepcopy(files), ref) == []

    changed = dict(files)
    raw = bytearray(files["path/path.csv"])
    raw[-5] = ord("7") if raw[-5] != ord("7") else ord("8")
    changed["path/path.csv"] = bytes(raw)
    assert any("path/path.csv differs" in e for e in checks.check_tall_cli(changed, files, ref))

    shifted = dict(ref, fit_beta=ref["fit_beta"] + 1e-7)
    assert checks.check_tall_cli(files, None, shifted) == [
        "fit_beta differs from the reference by 1.000e-07"]
    recounted = dict(ref, path_df=ref["path_df"] + 1)
    assert checks.check_tall_cli(files, None, recounted) == ["path_df differs from the reference"]

    text = files["path/path.csv"].decode()
    lines = text.splitlines()
    header = lines[1].split(",")
    cells = lines[3].split(",")
    cells[header.index("delta")] = repr(float(cells[header.index("bound")]) + 1e-9)
    lines[3] = ",".join(cells)
    beyond = dict(files, **{"path/path.csv": "\n".join(lines).encode()})
    assert any("row 2: delta" in e for e in checks.check_tall_cli(beyond, None, ref))


def test_s2_study_checker_rejects_changed_df():
    rep = run_study("S1", ["ols", "stdrd+rf"], replicates=1, seed=2, k_folds=3, grid_size=20)
    records = checks.report_records(rep)
    assert checks.check_s2_study(records, records) == []

    changed = copy.deepcopy(records)
    changed[1]["df"] += 1
    assert checks.check_s2_study(changed, records) == [
        f"stdrd+rf: df {records[1]['df'] + 1!r} != reference {records[1]['df']!r}"
    ]
    nudged = copy.deepcopy(records)
    nudged[0]["msep"] *= 1 + 1e-10
    assert checks.check_s2_study(nudged, records) == []
    nudged[0]["msep"] *= 1 + 1e-6
    assert len(checks.check_s2_study(nudged, records)) == 1


def test_tracing_wraps_every_binding_and_restores_them():
    ds = generate(make_scenario("S1", seed=5)).train
    original = weights.standard_weights
    rec = spans.Recorder()
    with spans.tracing(rec), rec.span("op"):
        assert selection.standard_weights is not original
        selection.build_weights(ds, adaptive=True, use_frequency=True)
        ds.subset([0, 1, 2, 3])
    assert selection.standard_weights is original and weights.standard_weights is original
    names = {s[spans.NAME]: s for s in rec.spans}
    by_id = {s[spans.SPAN_ID]: s for s in rec.spans}
    # selection calls weights through its own bindings; both are seen, nested
    assert by_id[names["weights.standard_weights"][spans.PARENT]][spans.NAME] == "selection.build_weights"
    assert by_id[names["weights.ols_coefficients"][spans.PARENT]][spans.NAME] == "selection.build_weights"
    assert "datamodel.subset" in names


def test_instances_follow_the_seed():
    assert W.instances_for("wide-path", 7) == W.instances_for("wide-path", 7)
    assert len(set(W.instances_for("s2-study", 7))) == W.S2_PER_RUN
    assert all(0 <= i < W.WIDE_BANK for i in W.instances_for("wide-path", 123456789))
    assert 0 <= W.instances_for("tall-cli", 123456789)[0] < W.TALL_BANK


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-path", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
