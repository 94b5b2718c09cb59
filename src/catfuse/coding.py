"""Design matrices and parameter transforms.

One indicator-column routine for dummy and split coding, the
first-difference transform U and its inverse, the pairwise-difference
parameterization θ with its restriction matrix A, and assembly of the
augmented least-squares problem whose plain L1 solution approximates the
difference-penalized fit.

Both penalties sum w_ij·|β_i − β_j| over one set of level pairs, and
`theta_layout` is its one statement (see ThetaLayout): θ, A, the weights and
the evaluation all read it through `FactorBlock.pair_index`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema, level_values
from .errors import LayoutMismatch

# √γ for the restriction rows: γ = 1e10 is a constant of the method. A fused
# pair's β̂ still differ by the O(λ/γ) restriction violation, which
# structure.DEFAULT_CLUSTER_TOL is matched to absorb.
DEFAULT_SQRT_GAMMA = 1e5


# ---------------------------------------------------------------------------
# layout of the theta vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorBlock:
    """One factor's slice of the global θ vector."""

    name: str
    kind: str              # 'nominal' (includes binary) or 'ordinal'
    k: int                 # non-reference level count
    offset: int            # start column in θ
    pairs: Tuple[Tuple[int, int], ...]  # (i, j) differences; ordinal: (i, i-1)

    @property
    def length(self) -> int:
        return len(self.pairs)

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.length)

    @cached_property
    def pair_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """`pairs` as two read-only integer arrays (i, j), in column order."""
        index = np.array(self.pairs, dtype=np.intp).T
        index.setflags(write=False)
        return tuple(index)


@dataclass(frozen=True)
class ThetaLayout:
    """Ordered factor blocks plus global sizes: the penalty's one statement
    of the level pairs it sums over, column c holding θ_c = β_i − β_j.

    Nominal blocks carry all pairs (i, j), i > j >= 0, in the order
    (1,0),(2,0),...,(k,0),(2,1),...,(k,k-1); block length (k+1)k/2. So
    θ_{i0} sits at column offset + i − 1, which `back_transform`, `path`'s
    data columns and `restriction_rows` rely on. Ordinal blocks carry the
    adjacent differences δ_i = β_i − β_{i−1}, length k.
    """

    blocks: Tuple[FactorBlock, ...]

    @cached_property
    def q(self) -> int:
        return sum(b.length for b in self.blocks)

    @cached_property
    def r(self) -> int:
        """Restriction row count: (k-1)k/2 per nominal factor with k >= 2."""
        return sum((b.k - 1) * b.k // 2 for b in self.blocks
                   if b.kind == "nominal" and b.k >= 2)

    def block(self, name: str) -> FactorBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


def nominal_pairs(k: int) -> List[Tuple[int, int]]:
    return [(i, j) for j in range(k) for i in range(j + 1, k + 1)]


def theta_layout(schemas: Sequence[FactorSchema]) -> ThetaLayout:
    blocks = []
    offset = 0
    for sch in schemas:
        kind = sch.penalty_scale
        pairs = tuple(nominal_pairs(sch.k) if kind == "nominal"
                      else ((i, i - 1) for i in range(1, sch.k + 1)))
        blocks.append(FactorBlock(sch.name, kind, sch.k, offset, pairs))
        offset += len(pairs)
    return ThetaLayout(tuple(blocks))


# ---------------------------------------------------------------------------
# indicator coding
# ---------------------------------------------------------------------------

def indicator_columns(codes: np.ndarray, labels, split: bool = False) -> np.ndarray:
    """0/1 columns, one per label: `codes == label` (dummy coding) or, with
    `split`, `codes >= label` (split coding of an ordinal factor)."""
    codes = np.asarray(codes)[:, None]
    labels = np.asarray(labels)[None, :]
    return (codes >= labels if split else codes == labels).astype(float)


def u_transform(beta: np.ndarray) -> np.ndarray:
    """First differences δ_i = β_i − β_{i−1} with β_0 = 0."""
    beta = np.asarray(beta, dtype=float)
    return np.diff(beta, prepend=0.0)


def u_back_transform(delta: np.ndarray) -> np.ndarray:
    """Cumulative sums: β_i = Σ_{s<=i} δ_s."""
    return np.cumsum(np.asarray(delta, dtype=float))


# ---------------------------------------------------------------------------
# augmented problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentedProblem:
    """All pieces of the stacked L1 problem on (ỹ, Z̃).

    Z_data holds the centered data rows, already rescaled per-column by 1/w
    so the solver applies a unit-weight penalty to θ̃ = Wθ. A_scaled holds
    the restriction rows under the same column rescaling, without the √γ
    factor; A_raw keeps the ±1 pattern for precision diagnostics.
    """

    Z_data: np.ndarray
    A_scaled: np.ndarray
    A_raw: np.ndarray
    y_centered: np.ndarray
    gamma: float
    layout: ThetaLayout
    weight_values: np.ndarray
    column_means: np.ndarray

    @property
    def sqrt_gamma(self) -> float:
        return float(np.sqrt(self.gamma))

    @property
    def q(self) -> int:
        return self.Z_data.shape[1]

    @property
    def r(self) -> int:
        return self.A_raw.shape[0]

    @property
    def Z_tilde(self) -> np.ndarray:
        return np.vstack([self.Z_data, self.sqrt_gamma * self.A_scaled])

    @property
    def y_tilde(self) -> np.ndarray:
        return np.concatenate([self.y_centered, np.zeros(self.r)])


def restriction_rows(layout: ThetaLayout) -> np.ndarray:
    """Rows encoding θ_{i0} − θ_{j0} − θ_{ij} = 0 for every nominal (i,j), j >= 1."""
    q = layout.q
    blocks = [np.zeros((0, q))]
    for b in layout.blocks:
        if b.kind != "nominal":
            continue
        i, j = b.pair_index
        c = np.flatnonzero(j >= 1)          # pair columns θ_ij, j >= 1
        rows = np.zeros((c.size, q))
        at = np.arange(c.size)
        rows[at, b.offset + i[c] - 1] = 1.0
        rows[at, b.offset + j[c] - 1] = -1.0
        rows[at, b.offset + c] = -1.0
        blocks.append(rows)
    return np.vstack(blocks)


def build_augmented(ds: Dataset, weights) -> AugmentedProblem:
    """Assemble the augmented problem for the full factor set at
    γ = DEFAULT_SQRT_GAMMA².

    Nominal blocks contribute Z = (X | 0) plus restriction rows; ordinal
    blocks contribute centered split-coded columns and no restrictions.
    `weights` is a WeightSet (whose values are checked finite and > 0)
    laid out for ds.schemas; one laid out for other factors raises
    LayoutMismatch naming both factor lists.
    """
    w, layout = weights.values, weights.layout
    if layout != theta_layout(ds.schemas):
        have, want = (", ".join(f"{b.name} ({b.kind}, {b.k + 1} levels)" for b in lay.blocks)
                      for lay in (layout, theta_layout(ds.schemas)))
        raise LayoutMismatch(f"weights are laid out for factors {have}; the dataset has {want}")

    n = ds.n
    Z = np.zeros((n, layout.q))
    for l, b in enumerate(layout.blocks):
        # nominal: dummies in the θ_i0 columns, the pair columns stay zero
        # (Z = (X | 0)); ordinal: split coding in the δ columns
        Z[:, b.offset:b.offset + b.k] = indicator_columns(
            ds.codes[:, l], np.arange(1, b.k + 1), split=b.kind == "ordinal")
    means = Z.mean(axis=0)
    Zc = Z - means
    A_raw = restriction_rows(layout)
    return AugmentedProblem(
        Z_data=Zc / w,
        A_scaled=A_raw / w,
        A_raw=A_raw,
        y_centered=ds.y - ds.y.mean(),
        gamma=DEFAULT_SQRT_GAMMA ** 2,
        layout=layout,
        weight_values=w,
        column_means=means,
    )


# ---------------------------------------------------------------------------
# helpers shared by tests and structure extraction
# ---------------------------------------------------------------------------

def induced_theta(layout: ThetaLayout, beta: Dict[str, np.ndarray]) -> np.ndarray:
    """θ implied by per-level coefficients: θ_ij = β_i − β_j on either scale.

    `beta[name]` is the full per-level vector (length k+1, reference entry 0).
    β_0 enters the ordinal δ_1 = β_1 − β_0 the same way it enters the nominal
    θ_i0.
    """
    theta = np.zeros(layout.q)
    for b in layout.blocks:
        bl = level_values([beta], b)[0]
        i, j = b.pair_index
        theta[b.slice] = bl[i] - bl[j]
    return theta
