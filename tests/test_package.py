"""The package's public surface."""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import numpy as np

import catfuse

SRC = os.path.dirname(os.path.abspath(catfuse.__file__))


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


def _readme_library_block() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    regions, grades = ("north", "south", "east", "west"), ("low", "mid", "high")
    r, g = rng.integers(0, 4, 200), rng.integers(0, 3, 200)
    y = np.array([0.0, 0.0, 1.5, 1.5])[r] + np.array([0.0, 1.0, 1.0])[g] + rng.normal(0, 1, 200)
    rows = [f"{float(v)!r},{regions[i]},{grades[j]}" for v, i, j in zip(y, r, g)]
    (tmp_path / "data.csv").write_text("y,region,grade\n" + "\n".join(rows) + "\n",
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_readme_library_block(), scope)
    fit, pr = scope["fit"], scope["pr"]
    assert fit.solution is scope["sol"]
    assert fit.solution is pr.solution_at(scope["cv"].chosen_s_ratio)
    assert int(capsys.readouterr().out.splitlines()[1]) == catfuse.degrees_of_freedom(fit.partition)
