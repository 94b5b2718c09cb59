"""Cluster extraction, OLS refitting, and degrees of freedom.

A fitted coefficient vector is turned into a partition of each factor's
levels (levels whose coefficients coincide within tolerance form one
cluster); the partition drives refitting on the collapsed design and the
model's degree-of-freedom count.

One sort-and-split rule reads every factor's partition: order the levels
(by β̂ for a nominal factor, by level for an ordinal one) and cut wherever
the step to the next level exceeds the threshold. Any two nominal levels
may fuse, and for values on a line the all-pairs "within threshold"
closure is exactly the sorted runs without a large step. Only
neighbouring ordinal levels may fuse, and their steps are the differences
δ the penalty acts on.

A path is read in one pass: `extract_clusters_path` stacks each factor's
β̂ over the grid, sorts and cuts all rows at once, and builds each distinct
partition once; `extract_clusters` is its one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema
from .errors import RankDeficient
from .coding import u_transform

# matched to γ = coding.DEFAULT_SQRT_GAMMA²: absorbs the O(λ/γ) gap left
# between fused levels
DEFAULT_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class FactorPartition:
    """Partition of one factor's levels {0..k} into coefficient clusters.

    Clusters are tuples of level indices, each sorted ascending, ordered by
    smallest member; zero_cluster indexes the cluster containing the
    reference level 0. coefficients[c] is the shared value of cluster c.
    """

    name: str
    clusters: Tuple[Tuple[int, ...], ...]
    zero_cluster: int
    coefficients: Tuple[float, ...]

    def cluster_of(self, level: int) -> int:
        for c, members in enumerate(self.clusters):
            if level in members:
                return c
        raise ValueError(f"level {level} not in partition of {self.name!r}")


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


def extract_clusters_path(
    betas: Sequence[Dict[str, np.ndarray]],
    schemas: Sequence[FactorSchema],
    tol: float = DEFAULT_CLUSTER_TOL,
) -> List[ClusterPartition]:
    """One ClusterPartition per β dict: levels grouped whose coefficients
    agree within that β's threshold tol·max(1, max|β̂|).

    `betas[g][name]` is a full per-level vector (reference entry 0). Each
    factor's vectors are stacked into a (grid × levels) array and read by
    one rule: take the levels in fusion order, step from each to the next,
    and start a new cluster wherever a step is not within the row's
    threshold (a NaN step always cuts). A nominal factor's fusion order
    sorts β̂ and steps between sorted neighbours; this is the all-pairs
    closure (any two levels within threshold fuse, transitively), because
    in sorted order a pair that spans a cut differs by at least that cut's
    step, also after rounding. An ordinal factor keeps level order and
    steps δ = u_transform(β̂[1:]), so its clusters are contiguous runs.
    A factor holding a NaN does not count towards max|β̂|. A cluster's
    coefficient is its members' mean.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    stacks = []
    for sch in schemas:
        rows = [np.asarray(b[sch.name], dtype=float) for b in betas]
        if any(row.shape != (sch.k + 1,) for row in rows):
            raise ValueError(
                f"factor {sch.name!r}: expected {sch.k + 1} per-level values"
            )
        stacks.append(np.array(rows).reshape(len(betas), sch.k + 1))
    scale = np.zeros(len(betas))
    for B in stacks:
        scale = np.fmax(scale, np.abs(B).max(axis=1))
    thresholds = tol * np.maximum(1.0, scale)
    per_factor = [_factor_partitions(sch, B, thresholds) for sch, B in zip(schemas, stacks)]
    return [
        ClusterPartition(tuple(parts[g] for parts in per_factor), threshold=float(t))
        for g, t in enumerate(thresholds)
    ]


def _factor_partitions(
    sch: FactorSchema, B: np.ndarray, thresholds: np.ndarray
) -> List[FactorPartition]:
    """One factor's partition at every row of B (grid × levels)."""
    if sch.penalty_scale == "nominal":
        order = np.argsort(B, axis=1, kind="stable")
        steps = np.diff(np.take_along_axis(B, order, axis=1), axis=1)
    else:
        order = np.broadcast_to(np.arange(B.shape[1]), B.shape)
        steps = u_transform(B[:, 1:])
    runs = np.zeros(B.shape, dtype=int)          # run index in fusion order
    runs[:, 1:] = np.cumsum(~(np.abs(steps) <= thresholds[:, None]), axis=1)
    labels = np.empty_like(runs)                 # run index of each level
    np.put_along_axis(labels, order, runs, axis=1)
    # each distinct labelling is turned into clusters once: levels ascending
    # within a cluster, clusters by smallest member
    rows_of: Dict[bytes, List[int]] = {}
    for g, row in enumerate(labels):
        rows_of.setdefault(row.tobytes(), []).append(g)
    parts = [None] * B.shape[0]
    for rows in rows_of.values():
        members: Dict[int, List[int]] = {}
        for lev, run in enumerate(labels[rows[0]].tolist()):
            members.setdefault(run, []).append(lev)
        clusters = tuple(tuple(m) for m in members.values())
        # a C-contiguous (rows × members) block reduces each row in the
        # order b[list(c)].mean() does, so the means are bit-identical
        block = B[rows]
        means = np.column_stack(
            [np.ascontiguousarray(block[:, c]).mean(axis=1) for c in clusters]
        )
        for g, coefficients in zip(rows, means.tolist()):
            # ordered by smallest member, level 0's cluster comes first
            parts[g] = FactorPartition(sch.name, clusters, 0, tuple(coefficients))
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


def refit(ds: Dataset, partition: ClusterPartition) -> RefitResult:
    """Ordinary least squares with each factor's dummies collapsed by cluster.

    Zero-cluster columns are dropped (their coefficient stays 0); every
    other cluster contributes one indicator column for membership. The
    collapsed design must have full column rank; it may have no columns.
    """
    fps = {fp.name: fp for fp in partition.factors}
    # per factor: its partition, the design column of each cluster and of
    # each level (column -1 for the zero cluster)
    columns = []
    m = 0
    for sch in ds.schemas:
        fp = fps[sch.name]
        cols = []
        for c in range(len(fp.clusters)):
            cols.append(-1 if c == fp.zero_cluster else m)
            m += c != fp.zero_cluster
        of_level = [-1] * (sch.k + 1)
        for col, members in zip(cols, fp.clusters):
            for lev in members:
                of_level[lev] = col
        columns.append((fp, cols, np.array(of_level)))
    X = np.zeros((ds.n, m + 1))      # column -1 collects the zero clusters
    rows = np.arange(ds.n)
    for l, (_, _, of_level) in enumerate(columns):
        X[rows, of_level[ds.codes[:, l]]] = 1.0
    X = X[:, :m]
    y_mean = float(ds.y.mean())
    yc = ds.y - y_mean
    means = X.mean(axis=0)
    Xc = X - means
    coef, _, rank, _ = np.linalg.lstsq(Xc, yc, rcond=None)
    if rank < m:
        raise RankDeficient(f"collapsed design is rank deficient (rank {rank} < {m})")
    intercept = y_mean - float(means @ coef)
    rss = float(np.sum((yc - Xc @ coef) ** 2))

    coef = np.append(coef, 0.0)      # column -1 reads the zero cluster's 0
    new_parts = tuple(
        FactorPartition(fp.name, fp.clusters, fp.zero_cluster, tuple(coef[cols].tolist()))
        for fp, cols, _ in columns
    )
    return RefitResult(
        beta={fp.name: coef[of_level] for fp, _, of_level in columns},
        partition=ClusterPartition(new_parts, threshold=partition.threshold),
        intercept=intercept,
        rss=rss,
    )


def degrees_of_freedom(partition: ClusterPartition) -> int:
    """1 + number of distinct nonzero cluster coefficients per factor.

    Clusters other than the reference cluster count unless their fitted
    coefficient is itself 0 within the partition's threshold (an ordinal
    run can return to 0 without touching the reference cluster).
    """
    df = 1
    for fp in partition.factors:
        for c, members in enumerate(fp.clusters):
            if c == fp.zero_cluster:
                continue
            if abs(fp.coefficients[c]) > partition.threshold:
                df += 1
    return df
