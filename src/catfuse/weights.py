"""Penalty weight construction.

Standard weights (base scaling with optional class-frequency terms),
adaptive rescaling by inverse OLS differences, and spatial kernel factors
for factors carrying per-level coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

import numpy as np

from .coding import ThetaLayout, theta_layout
from .datamodel import NO_FACTORS, Dataset, FactorSchema, level_values
from .errors import (
    MissingCoordinates,
    OlsUnavailable,
    RankDeficient,
    UnobservedLevel,
)
from .structure import partition_from_labels, refit

ADAPTIVE_CAP = 1e12
DEFAULT_BANDWIDTH_KM = 15.0
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
    """Unpenalized least-squares per-level coefficients: `refit` on the
    partition that keeps every level in its own cluster.

    Returns full per-level vectors (reference entry 0). Raises OlsUnavailable
    when the dummy design is rank deficient, and ValueError (as `path` does)
    when the schema has no factors.
    """
    if not ds.schemas:
        raise ValueError(NO_FACTORS)
    singletons = np.concatenate([np.arange(sch.k + 1) for sch in ds.schemas])
    try:
        return refit(ds, partition_from_labels(singletons, ds.schemas)).beta
    except RankDeficient as e:
        raise OlsUnavailable(f"dummy design: {e}") from None


def adaptive_weights(base: WeightSet, ols: Dict[str, np.ndarray]) -> WeightSet:
    """Multiply each weight by 1/|OLS difference| for its pair, capped.

    `ols` maps factor name to the full per-level OLS coefficient vector.
    A difference of exactly 0 (and any difference small enough to push the
    multiplier past the cap) yields the capped multiplier 1e12, forcing
    fusion at any positive penalty without breaking the arithmetic.
    """
    values = np.array(base.values)
    for b in base.layout.blocks:
        bl = level_values([ols], b)[0]
        i, j = b.pair_index
        with np.errstate(divide="ignore"):
            values[b.slice] *= np.minimum(1.0 / np.abs(bl[i] - bl[j]), ADAPTIVE_CAP)
    return WeightSet(values, base.layout)


def epanechnikov(u):
    """Kernel 0.75(1 − u²) on |u| <= 1 and 0 outside, elementwise."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)[()]


def spatial_factors(
    schema: FactorSchema,
    h: float = DEFAULT_BANDWIDTH_KM,
) -> np.ndarray:
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


def with_spatial(
    ws: WeightSet,
    schemas,
    h: float = DEFAULT_BANDWIDTH_KM,
) -> WeightSet:
    """Apply spatial multipliers to every factor that has coordinates."""
    located = [sch for sch in schemas if sch.spatial_coords is not None]
    if not located:
        raise MissingCoordinates()
    values = np.array(ws.values)
    for sch in located:
        values[ws.layout.block(sch.name).slice] *= spatial_factors(sch, h=h)
    return replace(ws, values=values)
