"""The package's public surface."""
from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import catfuse

SRC = os.path.dirname(os.path.abspath(catfuse.__file__))


def _src_trees():
    """(module name, syntax tree) of each src module but __init__.py, which
    only re-exports."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def test_every_exported_name_resolves():
    missing = [name for name in catfuse.__all__ if not hasattr(catfuse, name)]
    assert missing == []


def test_runtime_imports_only_numpy_and_the_standard_library():
    # the README promises numpy as the only runtime dependency
    foreign = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["catfuse" if node.level else node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top not in ("numpy", "catfuse") and top not in sys.stdlib_module_names:
                    foreign.append(f"{name}: {module}")
    assert foreign == []


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _src_trees():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {bound}" for bound in sorted(imported - used)]
    assert unused == []


def _calls():
    """(module.function, callee) of each call in a top-level function or a
    method of a src module."""
    for module, tree in _src_trees():
        for stmt in tree.body:
            defs = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
            for fn in defs:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call):
                            yield f"{module}.{fn.name}", node.func


CHAIN = {"build_weights", "build_augmented", "path"}


def test_weights_augmented_problem_and_path_meet_only_in_weighted_path():
    # one function composes a fit's weights, augmented problem and path, so
    # the CLI, CV and the study all take theirs from selection.weighted_path
    imports = {module: {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names}
               for module, tree in _src_trees()}
    callers = {caller for caller, f in _calls()
               if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in CHAIN}
    assert callers == {"selection.weighted_path"}
    assert imports["cli"] & CHAIN == set()
    assert imports["simlab"] & CHAIN == set()


def test_cv_curve_is_made_only_by_score_folds():
    # the CV chain ends in one step: score_folds makes the curve and the CV
    # choice, and CvCurve has no constructor of its own
    def names_cv_curve(f):
        if isinstance(f, ast.Attribute):
            return f.attr == "CvCurve" or names_cv_curve(f.value)
        return isinstance(f, ast.Name) and f.id == "CvCurve"

    assert [caller for caller, f in _calls() if names_cv_curve(f)] == ["selection.score_folds"]
    tree = dict(_src_trees())["selection"]
    curve = next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == "CvCurve")
    assert not any(isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)) for s in curve.body)


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_every_exported_name_is_called_in_src_or_named_in_the_readme():
    # a public name that only tests call belongs in tests/reference.py. A use
    # is a bare name, a module attribute (coding.X) or an imported module,
    # outside the top-level def or class of that name
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}
    used = set()
    for _, tree in _src_trees():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    found = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    found = node.attr
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found = node.module.split(".")[-1]
                else:
                    continue
                if found != own:
                    used.add(found)
    readme = _readme()
    unused = [name for name in catfuse.__all__
              if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert unused == []


def _readme_library_block() -> str:
    section = _readme().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


REGIONS, GRADES = ("north", "south", "east", "west"), ("low", "mid", "high")


def _write_region_grade_csv(directory: Path) -> None:
    """data.csv of 200 rows: y, a nominal region and an ordinal grade."""
    rng = np.random.default_rng(0)
    r, g = rng.integers(0, 4, 200), rng.integers(0, 3, 200)
    y = np.array([0.0, 0.0, 1.5, 1.5])[r] + np.array([0.0, 1.0, 1.0])[g] + rng.normal(0, 1, 200)
    rows = [f"{float(v)!r},{REGIONS[i]},{GRADES[j]}" for v, i, j in zip(y, r, g)]
    (directory / "data.csv").write_text("y,region,grade\n" + "\n".join(rows) + "\n",
                                        encoding="utf-8")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    _write_region_grade_csv(tmp_path)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_readme_library_block(), scope)
    fit, pr = scope["fit"], scope["pr"]
    assert fit.solution is scope["sol"]
    assert fit.solution is pr.solution_at(scope["cv"].chosen_s_ratio)
    assert int(capsys.readouterr().out.splitlines()[1]) == catfuse.degrees_of_freedom(fit.partition)


_LOADS = """
import json, sys
import catfuse
seen = {"after_import": sorted(m for m in sys.modules if m.startswith("catfuse."))}
try:
    catfuse.no_such_name
except AttributeError as e:
    seen["unknown"] = str(e)
from catfuse.cli import main
data = ["--data", "data.csv", "--schema", "schema.json", "--grid", "10"]
seen["exits"] = [main(["path", *data, "--out", "path"]),
                 main(["fit", *data, "--s-ratio", "0.5", "--refit", "--out", "fit"])]
seen["after_commands"] = sorted(m for m in sys.modules if m.startswith("catfuse."))
print(json.dumps(seen))
"""


def test_a_module_loads_when_a_name_of_it_is_first_read(tmp_path):
    # in a fresh interpreter: `import catfuse` loads no submodule, and the
    # path and fit commands never load the simulation lab
    _write_region_grade_csv(tmp_path)
    (tmp_path / "schema.json").write_text(json.dumps([
        {"name": "region", "scale": "nominal", "levels": list(REGIONS)},
        {"name": "grade", "scale": "ordinal", "levels": list(GRADES)}]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _LOADS], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    assert seen["after_import"] == []
    assert seen["unknown"] == "module 'catfuse' has no attribute 'no_such_name'"
    assert seen["exits"] == [0, 0]
    assert "catfuse.cli" in seen["after_commands"]
    assert "catfuse.simlab" not in seen["after_commands"]
