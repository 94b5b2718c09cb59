"""The package's public surface."""
from __future__ import annotations

import ast
import os
import sys

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
