"""Datasets, factor schemas, and CSV ingestion.

A factor is a categorical predictor described by a `FactorSchema`; a
`Dataset` holds the response and the per-observation level indices for every
factor. This module is the single source of truth for level counts and class
frequencies, and for the `LevelTable` every least-squares fit and Gram matrix
on a dataset is read off.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
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
            # a real number only: float() would also read True or "2.5" as a distance
            coords = tuple(_float_or_nan(c) if isinstance(c, numbers.Real)
                           and not isinstance(c, bool) else math.nan for c in self.spatial_coords)
            if len(coords) != len(self.levels):
                raise ValueError(f"factor {self.name!r}: {len(coords)} spatial coords "
                                 f"for {len(self.levels)} levels")
            bad = [i for i, c in enumerate(coords) if not (math.isfinite(c) and c >= 0)]
            if bad:
                raise ValueError(f"factor {self.name!r}: spatial coord {bad[0]} must be a "
                                 f"finite number >= 0, got {self.spatial_coords[bad[0]]!r}")
            object.__setattr__(self, "spatial_coords", coords)

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
        codes = np.asarray(self.codes)
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
            if np.any(col != np.floor(col)):
                raise ValueError(f"factor {sch.name!r}: level index is not an integer")
            if not np.all((col >= 0) & (col <= sch.k)):
                raise ValueError(f"factor {sch.name!r}: level index out of range")
            counts.append(np.bincount(col.astype(np.int64), minlength=sch.k + 1))
        codes = codes.astype(np.int64, copy=False)
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
        factor = np.repeat(np.arange(len(sizes)), sizes)
        position = np.arange(L) - offsets[factor]
        for a in (offsets, counts, sums, factor, position):
            a.setflags(write=False)
        return LevelTable(offsets, counts, sums, y_mean, self.n, factor, position)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """New Dataset restricted to the given row indices (order kept)."""
        return Dataset(self.y[rows], self.codes[rows], self.schemas)


def level_values(betas: Sequence[Mapping[str, np.ndarray]], factor) -> np.ndarray:
    """(len(betas) × (k + 1)) stack of each β's vector for `factor` (with a
    name and k): the one per-level check, raising ShapeMismatch for a β
    without the factor or with another length."""
    name, width = factor.name, factor.k + 1
    try:
        rows = [b[name] for b in betas]
    except KeyError:
        raise ShapeMismatch(f"factor {name!r}: no per-level values") from None
    try:
        stack = np.array(rows, dtype=float)         # one call stacks every row
    except ValueError:                              # ragged rows, or a value that is no number
        stack = None
    if stack is None or stack.shape != (len(rows), width):
        # read row by row, failing as that row's own np.asarray does
        if any(np.asarray(row, dtype=float).shape != (width,) for row in rows):
            raise ShapeMismatch(f"factor {name!r}: expected {width} per-level values")
        stack = np.array(rows, dtype=float).reshape(len(rows), width)   # the empty list
    return stack


def row_effects(betas, ds: Dataset) -> np.ndarray:
    """(G × n) sums of per-level effects, one row per β: `betas` is a
    sequence of G β dicts, or a (G × L) stack of every factor's per-level
    values, stacked as Dataset.level_table stacks levels."""
    stacked = isinstance(betas, np.ndarray)
    L = sum(sch.k + 1 for sch in ds.schemas)
    if stacked and (betas.ndim != 2 or betas.shape[1] != L):
        raise ShapeMismatch(f"level stack of shape {betas.shape} for {L} levels")
    out = np.zeros((len(betas), ds.n))
    start = 0
    for l, sch in enumerate(ds.schemas):
        B = betas[:, start:start + sch.k + 1] if stacked else level_values(betas, sch)
        out += B[:, ds.codes[:, l]]
        start += sch.k + 1
    return out


@dataclass(frozen=True)
class LevelTable:
    """What every unpenalized least-squares fit on a dataset depends on.

    All predictors are categorical, so with D the n × L 0/1 matrix of every
    factor's levels, stacked (factor l's level i at offsets[l] + i,
    L = Σ(k+1)), such a fit reads the data only through DᵀD, Dᵀ(y − ȳ), ȳ
    and n. No array here has n rows.
    """

    offsets: np.ndarray     # (F + 1,) first stacked level of each factor; offsets[-1] = L
    counts: np.ndarray      # (L × L) co-occurrence counts DᵀD
    sums: np.ndarray        # (L,) per-level sums of y − ȳ
    y_mean: float
    n: int
    factor: np.ndarray      # (L,) the factor of each stacked level
    position: np.ndarray    # (L,) each stacked level's index within its factor

    def gram(self, C: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """XᵀX = CᵀDᵀDC − ccᵀ/n, Xᵀ(y − ȳ) = Cᵀ·sums and the column counts
        c = Cᵀ·diag(DᵀD) of X = DC centered, for C an L × m level coding."""
        counts = C.T @ self.counts.diagonal()
        gram = C.T @ self.counts @ C - counts[:, None] * counts / self.n
        return gram, C.T @ self.sums, counts


def ingest_csv(path, schema: Sequence[FactorSchema], response_column: str) -> Dataset:
    """Read a CSV file (comma separator, UTF-8, header row, '.' decimal).

    A UTF-8 byte-order mark before the header, as spreadsheet programs
    write, is skipped; a column needed twice in the header is rejected.

    The rows before the first short one are read by column: the response
    in one pass, each factor through a table of its distinct tokens. Any
    unparseable cell rejects the whole file; rows are never silently
    skipped. Data rows are numbered from 1, blank ones included, and the
    earliest failing row is reported: within it the response, then the
    factors in schema order; a short row only if no earlier row fails.
    A level label with surrounding whitespace (no stripped cell matches it)
    is rejected before the file is opened.
    """
    schema = tuple(schema)
    for s in schema:
        padded = [lab for lab in s.levels if lab != lab.strip()]
        if padded:
            raise ValueError(f"factor {s.name!r}: level {padded[0]!r} has surrounding whitespace, "
                             "which CSV cells are stripped of")
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
            if header.count(name) > 1:
                raise ValueError(f"column {name!r} appears more than once in the header")
            col_of[name] = header.index(name)
        rows = list(reader)
    # a row is blank when its cells, joined, are whitespace; one with cells
    # left but fewer than the columns needed is short
    filled = np.fromiter(map(len, map(str.strip, map("".join, rows))), np.intp, len(rows)) > 0
    short = filled & (np.fromiter(map(len, rows), np.intp, len(rows)) <= max(col_of.values()))
    stop = int(np.argmax(short)) if short.any() else len(rows)
    numbers = np.flatnonzero(filled[:stop]) + 1
    body = list(compress(rows, filled[:stop]))
    columns = list(zip(*body)) or [()] * len(header)
    tokens = list(map(str.strip, columns[col_of[response_column]]))
    try:
        y = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:                  # the error path reads token by token
        y = np.array(list(map(_float_or_nan, tokens)))
    codes = np.empty((len(body), len(schema)), dtype=np.int64)
    for l, s in enumerate(schema):
        cells = columns[col_of[s.name]]
        level_of = {lab: i for i, lab in enumerate(s.levels)}
        code_of = {cell: level_of.get(cell.strip(), -1) for cell in set(cells)}
        codes[:, l] = np.fromiter(map(code_of.__getitem__, cells), np.int64, len(cells))
    # (rows × checks), read in row-major order: the first True is the
    # earliest row's first failing check
    failed = np.column_stack([~np.isfinite(y), codes < 0])
    if failed.any():
        row, check = divmod(int(np.argmax(failed)), failed.shape[1])
        if check == 0:
            raise NonNumericResponse(int(numbers[row]), tokens[row])
        name = schema[check - 1].name
        raise UnknownLevel(int(numbers[row]), name, body[row][col_of[name]].strip())
    if stop < len(rows):
        raise ValueError(f"row {stop + 1}: {len(rows[stop])} cells, the header has {len(header)}")
    if not body:
        raise EmptyDataset(f"{path}: no data rows")
    return Dataset(y, codes, schema)


def _float_or_nan(token) -> float:
    try:
        return float(token)
    except (ValueError, OverflowError):     # OverflowError: an int past float range
        return math.nan


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
        if not isinstance(entry["name"], str):
            raise ValueError(f"schema entry {i}: 'name' must be a JSON string")
        if not isinstance(levels, list):
            raise ValueError(f"schema entry {i}: 'levels' must be a JSON array")
        # str() would make a label of null or true that no CSV cell reads as meant
        bad = [j for j, v in enumerate(levels)
               if isinstance(v, bool) or not isinstance(v, (str, int, float))]
        if bad:
            raise ValueError(f"schema entry {i}: level {bad[0]} must be a JSON string or number, "
                             f"got {json.dumps(levels[bad[0]])}")
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
