"""Penalty weight construction.

Standard weights (base scaling with optional class-frequency terms),
adaptive rescaling by inverse OLS differences, and spatial kernel factors
for factors carrying per-level coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .coding import ThetaLayout, theta_layout
from .datamodel import Dataset, FactorSchema
from .errors import (
    MissingCoordinates,
    OlsUnavailable,
    RankDeficient,
    UnobservedLevel,
)
from .structure import ClusterPartition, FactorPartition, refit

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
    use_frequency: bool = False
    adaptive: bool = False
    spatial: bool = False
    ols_reference: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.layout.q,):
            raise ValueError(f"expected {self.layout.q} weights, got {v.shape}")
        if np.any(~np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("weights must be finite and > 0")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def factor_values(self, name: str) -> np.ndarray:
        b = self.layout.block(name)
        return self.values[b.slice]


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
        if use_frequency:
            for i, c in enumerate(counts):
                if c == 0:
                    raise UnobservedLevel(sch.name, sch.levels[i])
        base = 2.0 / (b.k + 1) if b.kind == "nominal" else 1.0
        for c, (i, j) in enumerate(b.pairs):
            w = base
            if use_frequency:
                w *= np.sqrt((counts[i] + counts[j]) / ds.n)
            values[b.offset + c] = w
    return WeightSet(values, layout, use_frequency=use_frequency)


def ols_coefficients(ds: Dataset) -> Dict[str, np.ndarray]:
    """Unpenalized least-squares per-level coefficients: `refit` on the
    partition that keeps every level in its own cluster.

    Returns full per-level vectors (reference entry 0). Raises OlsUnavailable
    when the dummy design is rank deficient.
    """
    if not ds.schemas:
        raise OlsUnavailable("no coefficients to estimate")
    singletons = ClusterPartition(tuple(
        FactorPartition(sch.name, tuple((i,) for i in range(sch.k + 1)), 0,
                        (0.0,) * (sch.k + 1))
        for sch in ds.schemas
    ), threshold=0.0)
    try:
        return refit(ds, singletons).beta
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
    flat = np.concatenate([np.asarray(ols[b.name], float) for b in base.layout.blocks])
    for b in base.layout.blocks:
        bl = np.asarray(ols[b.name], dtype=float)
        if bl.shape != (b.k + 1,):
            raise ValueError(
                f"factor {b.name!r}: expected {b.k + 1} per-level OLS coefficients"
            )
        for c, (i, j) in enumerate(b.pairs):
            d = abs(bl[i] - bl[j])
            mult = ADAPTIVE_CAP if d == 0 else min(1.0 / d, ADAPTIVE_CAP)
            values[b.offset + c] *= mult
    return WeightSet(
        values,
        base.layout,
        use_frequency=base.use_frequency,
        adaptive=True,
        spatial=base.spatial,
        ols_reference=flat,
    )


def epanechnikov(u: float) -> float:
    return 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0


def spatial_factors(
    schema: FactorSchema,
    h: float = DEFAULT_BANDWIDTH_KM,
    floor: float = DEFAULT_SPATIAL_FLOOR,
) -> np.ndarray:
    """Kernel multipliers ζ_ij = max(K((ς_i − ς_j)/h), floor) per difference.

    Order matches the factor's block in theta_layout. The floor keeps all
    multipliers strictly positive where the Epanechnikov kernel hits 0.
    """
    if schema.spatial_coords is None:
        raise MissingCoordinates(schema.name)
    if not h > 0:
        raise ValueError("bandwidth h must be > 0")
    coords = schema.spatial_coords
    layout = theta_layout([schema])
    b = layout.blocks[0]
    out = np.empty(b.length)
    for c, (i, j) in enumerate(b.pairs):
        out[c] = max(epanechnikov((coords[i] - coords[j]) / h), floor)
    return out


def with_spatial(
    ws: WeightSet,
    schemas,
    h: float = DEFAULT_BANDWIDTH_KM,
    floor: float = DEFAULT_SPATIAL_FLOOR,
) -> WeightSet:
    """Apply spatial multipliers to every factor that has coordinates."""
    values = np.array(ws.values)
    touched = False
    for sch in schemas:
        if sch.spatial_coords is None:
            continue
        b = ws.layout.block(sch.name)
        values[b.slice] *= spatial_factors(sch, h=h, floor=floor)
        touched = True
    if not touched:
        raise MissingCoordinates("(no factor has spatial coordinates)")
    return replace(ws, values=values, spatial=True)
