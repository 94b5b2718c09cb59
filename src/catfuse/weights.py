"""Penalty weight construction.

Standard weights (base scaling with optional class-frequency terms),
adaptive rescaling by inverse OLS differences, and spatial kernel factors
for factors carrying per-level coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .coding import ThetaLayout, induced_theta, theta_layout
from .datamodel import NO_FACTORS, Dataset, FactorSchema
from .errors import (
    MissingCoordinates,
    OlsUnavailable,
    RankDeficient,
    UnobservedLevel,
)
from .structure import refit_labels

ADAPTIVE_CAP = 1e12
DEFAULT_SPATIAL_FLOOR = 1e-6


@dataclass(frozen=True)
class WeightSet:
    """One weight per penalized difference, aligned with a ThetaLayout.

    `values[c]` belongs to the difference `layout` places at column c:
    nominal pairs (i, j) in canonical order, ordinal adjacent differences.
    """

    values: np.ndarray
    layout: ThetaLayout

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.layout.q,):
            raise ValueError(f"expected {self.layout.q} weights, got {v.shape}")
        if np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("weights must be finite and > 0")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def standard_weights(ds: Dataset, use_frequency: bool = False) -> WeightSet:
    """Base weights: nominal pair (i,j) gets 2/(k+1), ordinal differences 1.

    With `use_frequency`, nominal weights gain the factor sqrt((n_i+n_j)/n)
    and ordinal ones sqrt((n_i+n_{i-1})/n); this requires every declared
    level to be observed. Binary factors use the nominal formula with k = 1.
    """
    layout = theta_layout(ds.schemas)
    values = np.empty(layout.q)
    for l, (sch, b) in enumerate(zip(ds.schemas, layout.blocks)):
        counts = ds.n_counts[l]
        values[b.slice] = 2.0 / (b.k + 1) if b.kind == "nominal" else 1.0
        if use_frequency:
            if not counts.all():
                raise UnobservedLevel(sch.name, sch.levels[int(np.argmin(counts))])
            i, j = b.pair_index
            values[b.slice] *= np.sqrt((counts[i] + counts[j]) / ds.n)
    return WeightSet(values, layout)


def ols_coefficients(ds: Dataset) -> Dict[str, np.ndarray]:
    """Unpenalized least-squares per-level coefficients: `refit_labels`
    with every level in a cluster of its own, except where the data cannot
    tell a level from its tree parent (coding.FactorBlock.level_coding). A
    tree edge with no restriction row whose rows all lie on one side, an
    ordinal step or a two-level factor whose data column is constant,
    fuses its two levels, so its θ is 0 in `path`'s λ = 0 point.

    Returns full per-level vectors (reference entry 0) in a fresh dict of
    fresh arrays. The fit is made once per dataset and kept on it, as its
    level table is: a Dataset does not change. Raises OlsUnavailable (a
    RankDeficient) when the design is still rank deficient, naming each
    level that has no rows and a cluster of its own, and the factors whose
    columns are collinear (refit_labels); and ValueError (as `path` does)
    when the schema has no factors.
    """
    if not ds.schemas:
        raise ValueError(NO_FACTORS)
    # kept in the instance dict, as functools.cached_property keeps level_table
    fit = vars(ds).get("_ols_fit")
    if fit is None:
        fit = vars(ds)["_ols_fit"] = _ols_fit(ds)
    return {name: beta.copy() for name, beta in fit.beta.items()}


def _ols_fit(ds: Dataset):
    """ols_coefficients' refit_labels fit of ds."""
    labels = []
    for b, counts in zip(theta_layout(ds.schemas).blocks, ds.n_counts):
        lab = np.arange(b.k + 1)
        if b.length == b.k:         # no restriction row: a chain (ordinal or k = 1)
            # an edge's level joins its parent's cluster when the rows on the
            # edge's child side are none or all of them
            side = counts @ b.level_coding
            lab[1:] = np.cumsum((side != 0) & (side != ds.n))
        labels.append(lab)
    try:
        return refit_labels(ds, np.concatenate(labels))
    except RankDeficient as e:
        named = "".join(f"; factor {sch.name!r} level index {i} has no rows"
                        for sch, counts, lab in zip(ds.schemas, ds.n_counts, labels)
                        for i in np.flatnonzero((counts == 0) & (np.bincount(lab)[lab] == 1)))
        raise OlsUnavailable(f"unpenalized fit: {e}{named}") from None


def adaptive_weights(base: WeightSet, ols: Dict[str, np.ndarray]) -> WeightSet:
    """Multiply each weight by 1/|OLS difference| for its pair, capped.

    `ols` maps factor name to the full per-level OLS coefficient vector.
    A difference of exactly 0 (and any difference small enough to push the
    multiplier past the cap) yields the capped multiplier 1e12, forcing
    fusion at any positive penalty without breaking the arithmetic.
    """
    with np.errstate(divide="ignore"):
        multiplier = np.minimum(1.0 / np.abs(induced_theta(base.layout, ols)), ADAPTIVE_CAP)
    return WeightSet(base.values * multiplier, base.layout)


def epanechnikov(u):
    """Kernel 0.75(1 − u²) on |u| <= 1 and 0 outside (and at NaN),
    elementwise; u is squared only inside, so no u overflows."""
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    v = np.where(inside, u, 0.0)
    return np.where(inside, 0.75 * (1.0 - v * v), 0.0)[()]


def spatial_factors(schema: FactorSchema, h: float) -> np.ndarray:
    """Kernel multipliers ζ_ij = max(K((ς_i − ς_j)/h), DEFAULT_SPATIAL_FLOOR)
    per difference.

    Order matches the factor's block in theta_layout. The floor keeps all
    multipliers strictly positive where the Epanechnikov kernel hits 0.
    """
    if schema.spatial_coords is None:
        raise MissingCoordinates(schema.name)
    if not h > 0:
        raise ValueError("bandwidth h must be > 0")
    coords = np.asarray(schema.spatial_coords)
    i, j = theta_layout([schema]).blocks[0].pair_index
    return np.maximum(epanechnikov((coords[i] - coords[j]) / h), DEFAULT_SPATIAL_FLOOR)


def with_spatial(ws: WeightSet, schemas, h: float) -> WeightSet:
    """Apply spatial multipliers to every factor that has coordinates."""
    located = [sch for sch in schemas if sch.spatial_coords is not None]
    if not located:
        raise MissingCoordinates()
    values = np.array(ws.values)
    for sch in located:
        values[ws.layout.block(sch.name).slice] *= spatial_factors(sch, h=h)
    return replace(ws, values=values)
