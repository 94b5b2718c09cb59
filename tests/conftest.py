"""Shared fixtures: schema builders and the optional rent-standard CSV."""
from __future__ import annotations

import os

import numpy as np
import pytest

from catfuse.datamodel import Dataset, FactorSchema
from catfuse.selection import compute_fold_paths, fold_parts

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rent_schema() -> tuple:
    """Munich rent-standard factor layout: 25 districts, 10 construction
    decades, 6 room counts, 3 location grades, 13 floor-space classes and
    5 binary amenities (57 dummy coefficients, 58 free parameters)."""
    decades = tuple(f"{1910 + 10 * i}s" for i in range(10))
    space = ("(0,30)",) + tuple(
        f"[{30 + 10 * i},{40 + 10 * i})" for i in range(11)
    ) + ("[140,inf)",)
    return (
        FactorSchema("district", "nominal", tuple(str(i) for i in range(1, 26))),
        FactorSchema("year", "ordinal", decades),
        FactorSchema("rooms", "ordinal", tuple(str(i) for i in range(1, 7))),
        FactorSchema("quality", "ordinal", ("fair", "good", "excellent")),
        FactorSchema("space", "ordinal", space),
        FactorSchema("hotwater", "binary", ("yes", "no")),
        FactorSchema("heating", "binary", ("yes", "no")),
        FactorSchema("bath", "binary", ("yes", "no")),
        FactorSchema("suppl", "binary", ("no", "yes")),
        FactorSchema("kitchen", "binary", ("no", "yes")),
    )


def rent_csv_path() -> str | None:
    """User-supplied data location; None when absent."""
    cand = os.environ.get("CATFUSE_RENT_CSV", os.path.join(REPO_ROOT, "data", "rent.csv"))
    return cand if os.path.exists(cand) else None


def toy_mixed_ds(seed: int = 0, n: int = 120) -> Dataset:
    """One nominal, one ordinal, one binary factor with known effects."""
    rng = np.random.default_rng(seed)
    schemas = (
        FactorSchema("a", "nominal", ("a0", "a1", "a2", "a3")),
        FactorSchema("b", "ordinal", ("b0", "b1", "b2")),
        FactorSchema("c", "binary", ("no", "yes")),
    )
    codes = np.column_stack([
        rng.integers(0, 4, n),
        rng.integers(0, 3, n),
        rng.integers(0, 2, n),
    ])
    effects = (
        np.array([0.0, 1.0, 1.0, -2.0])[codes[:, 0]]
        + np.array([0.0, 2.0, 2.0])[codes[:, 1]]
        + np.array([0.0, 0.5])[codes[:, 2]]
    )
    y = 0.5 + effects + rng.normal(0, 1, n)
    return Dataset(y, codes, schemas)


def fold_paths(ds: Dataset, config):
    """(parts, paths): the split of ds that config's fold fields name
    (fold_parts) and compute_fold_paths on it, as kfold_cv makes them; the
    pair score_folds takes."""
    parts = fold_parts(ds, config.k_folds, config.seed)
    return parts, compute_fold_paths(parts, config)


def aliased_nominal_ds() -> Dataset:
    """Two 3-level nominal factors a and b with equal codes, plus an ordinal
    c drawn apart from them (60 rows): the unpenalized fit is rank deficient
    with no empty level."""
    rng = np.random.default_rng(8)
    schemas = (FactorSchema("a", "nominal", ("x", "y", "z")),
               FactorSchema("b", "nominal", ("x", "y", "z")),
               FactorSchema("c", "ordinal", ("0", "1", "2")))
    col = rng.integers(0, 3, 60)
    return Dataset(rng.normal(0, 1, 60), np.column_stack([col, col, rng.integers(0, 3, 60)]),
                   schemas)


ALIASED_MESSAGE = ("unpenalized fit: collapsed design is rank deficient (rank 4 < 6); "
                   "factors 'a' and 'b' are collinear")
