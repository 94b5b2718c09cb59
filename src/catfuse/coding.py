"""Design matrices and parameter transforms.

The pairwise-difference parameterization θ with its restriction matrix A,
the first-difference transform U, and assembly of the
augmented least-squares problem whose plain L1 solution approximates the
difference-penalized fit, whose data block is read off the level table.

Both penalties sum w_ij·|β_i − β_j| over one set of level pairs, and
`theta_layout` is its one statement (see ThetaLayout): θ, A, the weights and
the evaluation all read it through `FactorBlock.pair_index`. The data sit
on a spanning tree of each factor's pairs, coded by `FactorBlock.level_coding`,
and every other pair gets one restriction row.
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
    pairs: Tuple[Tuple[int, int], ...]  # (i, j) differences, tree edges first

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

    @cached_property
    def level_coding(self) -> np.ndarray:
        """Read-only (k + 1) × k 0/1 P, β = P·θ_tree: row i marks the tree
        edges (pairs[:k], in level order) on level i's path to level 0."""
        P = np.zeros((self.k + 1, self.k))
        for c, (i, parent) in enumerate(self.pairs[:self.k]):
            P[i] = P[parent]
            P[i, c] = 1.0
        P.setflags(write=False)
        return P


@dataclass(frozen=True)
class ThetaLayout:
    """Ordered factor blocks plus global sizes: the penalty's one statement
    of the level pairs it sums over, column c holding θ_c = β_i − β_j.

    Nominal blocks carry all pairs (i, j), i > j >= 0, in the order
    (1,0),(2,0),...,(k,0),(2,1),...,(k,k-1); block length (k+1)k/2. Ordinal
    blocks carry the adjacent differences δ_i = β_i − β_{i−1}, length k. The
    first k pairs are the tree edges (i, parent(i)): the star (i, 0) or the
    chain (i, i − 1), edge i at column offset + i − 1, which `level_coding`,
    `restriction_rows`, `back_transform` and `path`'s data columns rely on.
    """

    blocks: Tuple[FactorBlock, ...]

    @cached_property
    def q(self) -> int:
        return sum(b.length for b in self.blocks)

    @cached_property
    def r(self) -> int:
        """Restriction row count: one per non-tree pair."""
        return sum(b.length - b.k for b in self.blocks)

    @cached_property
    def pair_row(self) -> np.ndarray:
        """Read-only (q,) vector: the restriction row of each non-tree pair
        column, in restriction_rows' order, and -1 at each tree column."""
        rows = np.full(self.q, -1)
        start = 0
        for b in self.blocks:
            rows[b.offset + b.k:b.offset + b.length] = np.arange(start, start + b.length - b.k)
            start += b.length - b.k
        rows.setflags(write=False)
        return rows

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
# augmented problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentedProblem:
    """All pieces of the stacked L1 problem on (ỹ, Z̃), with no n-row array.

    Z_data, the centered data rows rescaled per-column by 1/w so the solver
    applies a unit-weight penalty to θ̃ = Wθ, is built only when read; the
    solver reads XtX = Z_dataᵀZ_data, Xty = Z_dataᵀy_centered and absXtX,
    absXty, the same of the absolute values. A_scaled holds the restriction
    rows under the same column rescaling, without the √γ factor; A_raw
    keeps the ±1 pattern for precision diagnostics.
    """

    XtX: np.ndarray
    Xty: np.ndarray
    absXtX: np.ndarray
    absXty: np.ndarray
    A_scaled: np.ndarray
    A_raw: np.ndarray
    layout: ThetaLayout
    weight_values: np.ndarray
    column_means: np.ndarray
    dataset: Dataset

    @property
    def gamma(self) -> float:
        """γ = DEFAULT_SQRT_GAMMA², the method's constant."""
        return DEFAULT_SQRT_GAMMA ** 2

    @property
    def sqrt_gamma(self) -> float:
        return float(np.sqrt(self.gamma))

    @property
    def q(self) -> int:
        return self.layout.q

    @property
    def r(self) -> int:
        return self.A_raw.shape[0]

    @cached_property
    def Z_data(self) -> np.ndarray:
        Z = np.zeros((self.dataset.n, self.q))
        for l, b in enumerate(self.layout.blocks):
            Z[:, b.offset:b.offset + b.k] = b.level_coding[self.dataset.codes[:, l]]
        return (Z - self.column_means) / self.weight_values

    @property
    def y_centered(self) -> np.ndarray:
        return self.dataset.y - self.dataset.y.mean()


def restriction_rows(layout: ThetaLayout) -> np.ndarray:
    """One row per non-tree pair (i, j): (P[i] − P[j])·θ_tree − θ_ij = 0."""
    q = layout.q
    blocks = [np.zeros((0, q))]
    for b in layout.blocks:
        i, j = (index[b.k:] for index in b.pair_index)
        rows = np.zeros((i.size, q))
        rows[:, b.offset:b.offset + b.k] = b.level_coding[i] - b.level_coding[j]
        rows[np.arange(i.size), b.offset + b.k + np.arange(i.size)] = -1.0
        blocks.append(rows)
    return np.vstack(blocks)


def build_augmented(ds: Dataset, weights) -> AugmentedProblem:
    """Assemble the augmented problem for the full factor set at
    γ = DEFAULT_SQRT_GAMMA².

    Each block's centered data sit on its tree columns, coded by its
    level_coding P (dummy coding on a star, split coding on a chain); each
    other pair column has one restriction row. The Gram pieces are read off
    ds.level_table (LevelTable.gram with C the L × q coding of the stacked
    levels, P per block), so no n × q array is built.
    `weights` is a WeightSet (whose values are checked finite and > 0)
    laid out for ds.schemas; one laid out for other factors raises
    LayoutMismatch naming both factor lists.
    """
    w, layout = weights.values, weights.layout
    if layout != theta_layout(ds.schemas):
        have, want = (", ".join(f"{b.name} ({b.kind}, {b.k + 1} levels)" for b in lay.blocks)
                      for lay in (layout, theta_layout(ds.schemas)))
        raise LayoutMismatch(f"weights are laid out for factors {have}; the dataset has {want}")

    table = ds.level_table
    L = int(table.offsets[-1])
    C = np.zeros((L, layout.q))
    for b, start in zip(layout.blocks, table.offsets.tolist()):
        C[start:start + b.k + 1, b.offset:b.offset + b.k] = b.level_coding
    XtX, Xty, counts = table.gram(C)
    means = counts / ds.n
    # |x_j| = m_j + d_j(1 − 2m_j) = 2m_j(1 − m_j) + (1 − 2m_j)x_j for the 0/1
    # column d_j = x_j + m_j, and X's columns sum to 0
    slope = 1.0 - 2.0 * means
    base = 2.0 * means * (1.0 - means)
    abs_y = np.abs(ds.y - table.y_mean)
    abs_sums = np.bincount((ds.codes + table.offsets[:-1]).ravel(),
                           weights=np.repeat(abs_y, len(layout.blocks)), minlength=L)
    ww = np.outer(w, w)
    A_raw = restriction_rows(layout)
    return AugmentedProblem(
        XtX=XtX / ww,
        Xty=Xty / w,
        absXtX=(ds.n * np.outer(base, base) + slope[:, None] * XtX * slope) / ww,
        absXty=(means * abs_y.sum() + slope * (C.T @ abs_sums)) / w,
        A_scaled=A_raw / w,
        A_raw=A_raw,
        layout=layout,
        weight_values=w,
        column_means=means,
        dataset=ds,
    )


# ---------------------------------------------------------------------------
# helpers shared by the path and structure extraction
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


def u_transform(beta: np.ndarray) -> np.ndarray:
    """First differences δ_i = β_i − β_{i−1} with β_0 = 0."""
    beta = np.asarray(beta, dtype=float)
    return np.diff(beta, prepend=0.0)
