"""Datasets, factor schemas, and CSV ingestion.

A factor is a categorical predictor described by a `FactorSchema`; a
`Dataset` holds the response and the per-observation level indices for every
factor. This module is the single source of truth for level counts and class
frequencies, and for the `LevelTable` every unpenalized least-squares fit on a
dataset reads.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateFactor,
    EmptyDataset,
    MissingColumn,
    NonNumericResponse,
    ShapeMismatch,
    UnknownLevel,
)

SCALES = ("nominal", "ordinal", "binary")
NO_FACTORS = "the schema has no factors: there are no coefficients to fit"


@dataclass(frozen=True)
class FactorSchema:
    """Metadata for one categorical predictor.

    Parameters
    ----------
    name : str
        Column name in input files.
    scale : str
        One of ``nominal``, ``ordinal``, ``binary``. Binary factors are
        treated as nominal with a single non-reference level everywhere
        downstream.
    levels : tuple of str
        Ordered level labels; the first entry is the reference level whose
        coefficient is fixed at 0.
    spatial_coords : tuple of float, optional
        Per-level scalar distances (e.g. km to a city center) used for
        kernel-based spatial weight factors.
    """

    name: str
    scale: str
    levels: Tuple[str, ...]
    spatial_coords: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(str(v) for v in self.levels))
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        if len(self.levels) < 2:
            raise DegenerateFactor(self.name, len(self.levels))
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"factor {self.name!r} has duplicate level labels")
        if self.scale == "binary" and len(self.levels) != 2:
            raise ValueError(
                f"binary factor {self.name!r} must have exactly 2 levels, "
                f"got {len(self.levels)}"
            )
        if self.spatial_coords is not None:
            coords = tuple(float(c) for c in self.spatial_coords)
            object.__setattr__(self, "spatial_coords", coords)
            if len(coords) != len(self.levels):
                raise ValueError(
                    f"factor {self.name!r}: {len(coords)} spatial coords for "
                    f"{len(self.levels)} levels"
                )
            if any(not math.isfinite(c) or c < 0 for c in coords):
                raise ValueError(f"factor {self.name!r}: spatial coords must be finite and >= 0")

    @property
    def k(self) -> int:
        """Number of non-reference levels (dummy columns)."""
        return len(self.levels) - 1

    @property
    def penalty_scale(self) -> str:
        """Scale used by penalty construction: binary collapses to nominal."""
        return "nominal" if self.scale == "binary" else self.scale


@dataclass(frozen=True)
class Dataset:
    """Immutable response + coded factors.

    `codes[:, l]` holds level indices into ``schemas[l].levels``.
    """

    y: np.ndarray
    codes: np.ndarray
    schemas: Tuple[FactorSchema, ...]
    n_counts: Tuple[np.ndarray, ...] = field(init=False)   # per-level counts, per factor

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        codes = np.asarray(self.codes, dtype=np.int64)
        if y.ndim != 1 or codes.ndim != 2 or codes.shape[0] != y.shape[0]:
            raise ValueError("y must be 1-d and codes (n, n_factors)")
        if y.shape[0] == 0:
            raise EmptyDataset("dataset has no rows")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite values")
        if codes.shape[1] != len(self.schemas):
            raise ValueError("codes column count must match number of schemas")
        counts = []
        for l, sch in enumerate(self.schemas):
            if any(s.name == sch.name for s in self.schemas[:l]):
                raise ValueError(f"factor name {sch.name!r} appears more than once")
            col = codes[:, l]
            if col.min() < 0 or col.max() > sch.k:
                raise ValueError(f"factor {sch.name!r}: level index out of range")
            counts.append(np.bincount(col, minlength=sch.k + 1))
        y.setflags(write=False)
        codes.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "schemas", tuple(self.schemas))
        object.__setattr__(self, "n_counts", tuple(counts))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @cached_property
    def level_table(self) -> "LevelTable":
        """The dataset's LevelTable, built on first use and kept."""
        sizes = [sch.k + 1 for sch in self.schemas]
        offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        L = int(offsets[-1])
        index = self.codes + offsets[:-1]
        # DᵀD from bincounts of (level of factor l, stacked level of a factor
        # from l on), so no n × L indicator is built; the blocks below the
        # diagonal are the transposes of those above it
        upper = np.zeros((L, L))
        for l, size in enumerate(sizes):
            keys = (self.codes[:, l, None] * L + index[:, l:]).ravel()
            upper[offsets[l]:offsets[l + 1]] = np.bincount(
                keys, minlength=size * L).reshape(size, L)
        counts = upper + upper.T - np.diag(upper.diagonal())
        y_mean = float(self.y.mean())
        # per-level sums of y − ȳ in two passes: the second adds each level's
        # rows' residuals about its first-pass mean and so recovers what the
        # first pass's running sum lost, which a reference level with one row
        # amplified into a 1e-10 error of β̂ at n = 50 000
        flat = index.ravel()
        yc = np.repeat(self.y - y_mean, len(sizes))
        sums = np.bincount(flat, weights=yc, minlength=L)
        sums += np.bincount(flat, weights=yc - (sums / np.maximum(counts.diagonal(), 1.0))[flat],
                            minlength=L)
        for a in (offsets, index, counts, sums):
            a.setflags(write=False)
        return LevelTable(offsets, index, counts, sums, y_mean)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset restricted to the given row indices (order kept)."""
        return Dataset(self.y[rows], self.codes[rows], self.schemas)


def level_values(betas: Sequence[Mapping[str, np.ndarray]], factor) -> np.ndarray:
    """(len(betas) × (k + 1)) stack of each β's vector for `factor` (with a
    name and k): the one per-level length check, raising ShapeMismatch."""
    rows = [np.asarray(b[factor.name], dtype=float) for b in betas]
    if any(row.shape != (factor.k + 1,) for row in rows):
        raise ShapeMismatch(f"factor {factor.name!r}: expected {factor.k + 1} per-level values")
    return np.array(rows).reshape(len(betas), factor.k + 1)


@dataclass(frozen=True)
class LevelTable:
    """What every unpenalized least-squares fit on a dataset depends on.

    All predictors are categorical, so with D the n × L 0/1 matrix of every
    factor's levels, stacked (factor l's level i at offsets[l] + i,
    L = Σ(k+1)), such a fit reads the data only through DᵀD, Dᵀ(y − ȳ), ȳ
    and n. `index` keeps each row's stacked levels for row-level residuals.
    """

    offsets: np.ndarray     # (F + 1,) first stacked level of each factor; offsets[-1] = L
    index: np.ndarray       # (n × F) stacked level of each row and factor
    counts: np.ndarray      # (L × L) co-occurrence counts DᵀD
    sums: np.ndarray        # (L,) per-level sums of y − ȳ
    y_mean: float


def ingest_csv(path, schema: Sequence[FactorSchema], response_column: str) -> Dataset:
    """Read a CSV file (comma separator, UTF-8, header row, '.' decimal).

    A UTF-8 byte-order mark before the header, as spreadsheet programs
    write, is skipped.

    Level tokens are mapped to indices by schema order. Any unparseable cell
    rejects the whole file; rows are never silently skipped. Data rows are
    numbered from 1.
    """
    schema = tuple(schema)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: file is empty")
        header = [h.strip() for h in header]
        col_of = {}
        for name in [response_column] + [s.name for s in schema]:
            if name not in header:
                raise MissingColumn(name)
            if name in col_of:
                raise ValueError(f"response column {name!r} is also a factor name"
                                 if name == response_column else
                                 f"factor name {name!r} appears more than once")
            col_of[name] = header.index(name)
        width = max(col_of.values()) + 1
        level_maps = [{lab: i for i, lab in enumerate(s.levels)} for s in schema]
        ys = []
        code_rows = []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) < width:
                raise ValueError(f"row {rownum}: {len(row)} cells, the header has {len(header)}")
            tok = row[col_of[response_column]].strip()
            try:
                yval = float(tok)
            except ValueError:
                raise NonNumericResponse(rownum, tok)
            if not math.isfinite(yval):
                raise NonNumericResponse(rownum, tok)
            codes = []
            for s, lm in zip(schema, level_maps):
                tok = row[col_of[s.name]].strip()
                if tok not in lm:
                    raise UnknownLevel(rownum, s.name, tok)
                codes.append(lm[tok])
            ys.append(yval)
            code_rows.append(codes)
    if not ys:
        raise EmptyDataset(f"{path}: no data rows")
    return Dataset(np.array(ys), np.array(code_rows, dtype=np.int64), schema)


def load_schema(path) -> Tuple[FactorSchema, ...]:
    """Read a schema JSON document: array of {name, scale, levels, spatial_coords?}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("schema document must be a JSON array")
    out = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"schema entry {i} must be a JSON object")
        for key in ("name", "scale", "levels"):
            if key not in entry:
                raise ValueError(f"schema entry {i} has no {key!r} key")
        levels, coords = entry["levels"], entry.get("spatial_coords")
        if not isinstance(levels, list):
            raise ValueError(f"schema entry {i}: 'levels' must be a JSON array")
        if coords is not None and not isinstance(coords, list):
            raise ValueError(f"schema entry {i}: 'spatial_coords' must be a JSON array")
        out.append(
            FactorSchema(
                name=entry["name"],
                scale=entry["scale"],
                levels=tuple(levels),
                spatial_coords=None if coords is None else tuple(coords),
            )
        )
    return tuple(out)


def schema_to_json(schemas: Iterable[FactorSchema]) -> list:
    """Inverse of load_schema, for embedding schemas in output files."""
    out = []
    for s in schemas:
        entry = {"name": s.name, "scale": s.scale, "levels": list(s.levels)}
        if s.spatial_coords is not None:
            entry["spatial_coords"] = list(s.spatial_coords)
        out.append(entry)
    return out
