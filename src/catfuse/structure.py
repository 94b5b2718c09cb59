"""Cluster extraction, OLS refitting, and degrees of freedom.

A fitted coefficient vector is turned into a partition of each factor's
levels (levels whose coefficients coincide within tolerance form one
cluster); the partition drives refitting on the collapsed design and the
model's degree-of-freedom count.

One sort-and-cut rule reads every factor's partition: order the levels
(by β̂ for a nominal factor, by level for an ordinal one) and cut wherever
the step to the next level exceeds the threshold. Any two nominal levels
may fuse, and for values on a line the all-pairs "within threshold"
closure is exactly the sorted runs without a large step. Only
neighbouring ordinal levels may fuse, and their steps are the differences
δ the penalty acts on.

A path is read in one pass: the rule gives every level's cluster label at
every grid point at once (`cluster_labels_path`), `extract_clusters_path`
builds each distinct partition from those labels once, and
`extract_clusters` is its one-row case. A partition stores only the labels;
its member tuples (`FactorPartition.clusters`) are derived for output.

Every unpenalized least-squares fit (the refit, the OLS behind adaptive
weights and the λ = 0 end of a path) solves normal equations: `refit`
collapses the dataset's LevelTable by cluster, so no n-row design is built,
and `solve_normal_equations` holds the one rank rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema, level_values
from .errors import RankDeficient
from .coding import u_transform

# matched to γ = coding.DEFAULT_SQRT_GAMMA²: absorbs the O(λ/γ) gap left
# between fused levels
DEFAULT_CLUSTER_TOL = 1e-8

# Rank rule of every unpenalized least-squares fit: its Gram G has full rank
# when the Cholesky factor exists and every pivot has L_ii² > RANK_TOL·max G_ii.
# Exactly collinear columns leave no factor or a pivot at rounding level
# (1.6e-16·max G_ii for two equal columns at n = 50 000), while a reference
# level with a single row of n = 50 000 keeps every pivot above 9e-5·max G_ii.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class FactorPartition:
    """Partition of one factor's levels {0..k} into coefficient clusters.

    labels[i] is level i's cluster, clusters numbered by smallest member, so
    the reference level 0 is always in cluster 0 (zero_cluster).
    coefficients[c] is the shared value of cluster c. The member tuples
    (`clusters`) are derived from the labels for output.
    """

    name: str
    labels: Tuple[int, ...]
    coefficients: Tuple[float, ...]

    zero_cluster = 0

    def __post_init__(self):
        # the distinct labels in order of first occurrence must be 0, 1, ...
        order = tuple(dict.fromkeys(self.labels))
        if order != tuple(range(len(order))):
            raise ValueError(f"factor {self.name!r}: cluster labels {self.labels} are "
                             "not numbered by first occurrence from 0")
        if len(self.coefficients) != len(order):
            raise ValueError(f"factor {self.name!r}: {len(self.coefficients)} "
                             f"coefficients for {len(order)} clusters")

    @property
    def clusters(self) -> Tuple[Tuple[int, ...], ...]:
        """Levels grouped by cluster, ascending within a cluster, in label order."""
        members: List[List[int]] = [[] for _ in self.coefficients]
        for lev, c in enumerate(self.labels):
            members[c].append(lev)
        return tuple(map(tuple, members))

    def cluster_of(self, level: int) -> int:
        if not 0 <= level < len(self.labels):
            raise ValueError(f"level {level} not in partition of {self.name!r}")
        return self.labels[level]


@dataclass(frozen=True)
class ClusterPartition:
    """Per-factor partitions plus the threshold they were extracted at."""

    factors: Tuple[FactorPartition, ...]
    threshold: float

    def factor(self, name: str) -> FactorPartition:
        for f in self.factors:
            if f.name == name:
                return f
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "factors": {
                f.name: {
                    "clusters": [list(c) for c in f.clusters],
                    "coefficients": list(f.coefficients),
                    "zero_cluster": f.zero_cluster,
                }
                for f in self.factors
            },
        }


def _read_out(
    betas: Sequence[Dict[str, np.ndarray]],
    schemas: Sequence[FactorSchema],
    tol: float,
) -> Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]:
    """Per factor, the (grid × levels) stack of β̂ and the cluster label of
    every level at every row; and each row's threshold tol·max(1, max|β̂|).

    The sort-and-cut rule (module docstring): take the levels in fusion
    order, step from each to the next, and start a new cluster wherever a
    step is not within the row's threshold (a NaN step always cuts). A
    nominal factor's fusion order sorts β̂ and steps between sorted
    neighbours; this is the all-pairs closure (any two levels within
    threshold fuse, transitively), because in sorted order a pair that
    spans a cut differs by at least that cut's step, also after rounding.
    An ordinal factor keeps level order and steps δ = u_transform(β̂[1:]),
    so its clusters are contiguous runs. A factor holding a NaN does not
    count towards max|β̂|. Clusters are numbered by smallest member, so
    level 0 is in cluster 0.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    stacks = [level_values(betas, sch) for sch in schemas]
    scale = np.zeros(len(betas))
    for B in stacks:
        scale = np.fmax(scale, np.abs(B).max(axis=1))
    thresholds = tol * np.maximum(1.0, scale)
    labels = []
    for sch, B in zip(schemas, stacks):
        if sch.penalty_scale == "nominal":
            order = np.argsort(B, axis=1, kind="stable")
            steps = np.diff(np.take_along_axis(B, order, axis=1), axis=1)
        else:
            order = np.broadcast_to(np.arange(B.shape[1]), B.shape)
            steps = u_transform(B[:, 1:])
        runs = np.zeros(B.shape, dtype=np.intp)    # run index in fusion order
        runs[:, 1:] = np.cumsum(~(np.abs(steps) <= thresholds[:, None]), axis=1)
        # each run's smallest level (unused run slots sort last), then runs
        # renumbered in that order and read back per level
        first = np.full(B.shape, B.shape[1])
        np.minimum.at(first, (np.arange(B.shape[0])[:, None], runs), order)
        number = np.argsort(np.argsort(first, axis=1, kind="stable"), axis=1)
        lab = np.empty_like(runs)
        np.put_along_axis(lab, order, np.take_along_axis(number, runs, axis=1), axis=1)
        labels.append(lab)
    return stacks, thresholds, labels


def cluster_labels_path(
    betas: Sequence[Dict[str, np.ndarray]],
    schemas: Sequence[FactorSchema],
    tol: float = DEFAULT_CLUSTER_TOL,
) -> np.ndarray:
    """(len(betas) × L) cluster labels of every level, the factors' levels
    stacked as in `Dataset.level_table`: row g holds the partition
    extract_clusters_path reads off betas[g], each factor's clusters
    numbered by smallest member."""
    _, _, labels = _read_out(betas, schemas, tol)
    return np.hstack(labels)


def partition_from_labels(
    labels: np.ndarray, schemas: Sequence[FactorSchema]
) -> ClusterPartition:
    """The partition one row of cluster_labels_path names, for `refit`,
    which reads only the labels: coefficients and threshold are 0."""
    labels, parts, at = tuple(labels.tolist()), [], 0
    for sch in schemas:
        lab = labels[at:at + sch.k + 1]
        parts.append(FactorPartition(sch.name, lab, (0.0,) * (max(lab) + 1)))
        at += sch.k + 1
    return ClusterPartition(tuple(parts), threshold=0.0)


def extract_clusters_path(
    betas: Sequence[Dict[str, np.ndarray]],
    schemas: Sequence[FactorSchema],
    tol: float = DEFAULT_CLUSTER_TOL,
) -> List[ClusterPartition]:
    """One ClusterPartition per β dict: levels grouped whose coefficients
    agree within that β's threshold tol·max(1, max|β̂|), by the
    sort-and-cut rule (module docstring), whose labels cluster_labels_path
    returns.

    `betas[g][name]` is a full per-level vector (reference entry 0). A
    cluster's coefficient is its members' mean.
    """
    stacks, thresholds, labels = _read_out(betas, schemas, tol)
    per_factor = [_factor_partitions(sch, B, lab)
                  for sch, B, lab in zip(schemas, stacks, labels)]
    return [
        ClusterPartition(tuple(parts[g] for parts in per_factor), threshold=float(t))
        for g, t in enumerate(thresholds)
    ]


def _factor_partitions(
    sch: FactorSchema, B: np.ndarray, labels: np.ndarray
) -> List[FactorPartition]:
    """One factor's partition at every row of B (grid × levels), whose
    levels carry the cluster labels `labels`."""
    # each distinct labelling is read once
    rows_of: Dict[bytes, List[int]] = {}
    for g, row in enumerate(labels):
        rows_of.setdefault(row.tobytes(), []).append(g)
    parts = [None] * B.shape[0]
    for rows in rows_of.values():
        row = labels[rows[0]]
        lab = tuple(row.tolist())
        # a C-contiguous (rows × members) block reduces each row in the
        # order b[members].mean() does, so the means are bit-identical
        block = B[rows]
        means = np.column_stack(
            [np.ascontiguousarray(block[:, row == c]).mean(axis=1)
             for c in range(max(lab) + 1)]
        )
        for g, coefficients in zip(rows, means.tolist()):
            parts[g] = FactorPartition(sch.name, lab, tuple(coefficients))
    return parts


def extract_clusters(
    beta: Dict[str, np.ndarray],
    schemas: Sequence[FactorSchema],
    tol: float = DEFAULT_CLUSTER_TOL,
) -> ClusterPartition:
    """The partition of one β: the one-row case of extract_clusters_path."""
    return extract_clusters_path([beta], schemas, tol)[0]


@dataclass(frozen=True)
class RefitResult:
    """OLS on the cluster-collapsed design, expanded back to levels."""

    beta: Dict[str, np.ndarray]          # full per-level vectors
    partition: ClusterPartition          # with refitted cluster coefficients
    intercept: float
    rss: float


def solve_normal_equations(G: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """The solution of G·x = b for a Gram matrix G of full rank by RANK_TOL.

    Raises RankDeficient("{what} is rank deficient (rank r < m)"), with r
    the number of eigenvalues of G above RANK_TOL times the largest.
    """
    try:
        pivots = np.linalg.cholesky(G).diagonal() ** 2
        full = pivots.min(initial=np.inf) > RANK_TOL * G.diagonal().max(initial=0.0)
    except np.linalg.LinAlgError:
        full = False
    if not full:
        ev = np.linalg.eigvalsh(G)
        rank = int(np.sum(ev > RANK_TOL * ev[-1]))
        raise RankDeficient(f"{what} is rank deficient (rank {rank} < {b.size})")
    return np.linalg.solve(G, b)


def refit(ds: Dataset, partition: ClusterPartition) -> RefitResult:
    """Ordinary least squares with each factor's dummies collapsed by cluster.

    Zero-cluster levels get no column (their coefficient stays 0); every
    other cluster contributes one indicator column for membership, so level
    i of a factor reads column labels[i] − 1 of that factor's columns. The
    collapsed design must have full column rank; it may have no columns.
    The refitted partition keeps the input labels.

    The fit solves the normal equations of the centered collapsed design
    from ds.level_table: with C the L × m membership of levels in columns,
    column counts c = Cᵀ·diag(DᵀD) and b = Cᵀ·sums, G = CᵀDᵀDC − ccᵀ/n and
    the intercept is ȳ − cᵀcoef/n. rss is summed over the rows' residuals.
    """
    by_name = {fp.name: fp for fp in partition.factors}
    fps = [by_name[sch.name] for sch in ds.schemas]
    table = ds.level_table
    # the design column of every stacked level: factor f's cluster c >= 1 is
    # column firsts[f] + c − 1, and its zero cluster reads -1 (coefficient 0)
    firsts = np.cumsum([0] + [len(fp.coefficients) - 1 for fp in fps])
    labels = np.concatenate([np.zeros(0, dtype=np.intp)] + [fp.labels for fp in fps])
    base = np.repeat(firsts[:-1], [len(fp.labels) for fp in fps])
    col = np.where(labels > 0, labels + base - 1, -1)
    m = int(firsts[-1])
    C = (col[:, None] == np.arange(m)).astype(float)
    counts = C.T @ table.counts.diagonal()
    G = C.T @ table.counts @ C - np.outer(counts, counts) / ds.n
    coef = solve_normal_equations(G, C.T @ table.sums, "collapsed design")
    shift = float(counts @ coef) / ds.n      # the centering of the columns
    level_coef = np.append(coef, 0.0)[col]
    fitted = level_coef[table.index].sum(axis=1) - shift
    rss = float(np.sum((ds.y - table.y_mean - fitted) ** 2))

    values, starts, firsts = coef.tolist(), table.offsets.tolist(), firsts.tolist()
    return RefitResult(
        beta={sch.name: level_coef[start:start + sch.k + 1].copy()
              for sch, start in zip(ds.schemas, starts)},
        partition=ClusterPartition(tuple(
            FactorPartition(fp.name, fp.labels, (0.0, *values[first:end]))
            for fp, first, end in zip(fps, firsts, firsts[1:])),
            threshold=partition.threshold),
        intercept=table.y_mean - shift,
        rss=rss,
    )


def degrees_of_freedom(partition: ClusterPartition) -> int:
    """1 + number of distinct nonzero cluster coefficients per factor.

    Clusters other than the reference cluster 0 count unless their fitted
    coefficient is itself 0 within the partition's threshold (an ordinal
    run can return to 0 without touching the reference cluster).
    """
    return 1 + int(sum(abs(c) > partition.threshold
                       for fp in partition.factors for c in fp.coefficients[1:]))
