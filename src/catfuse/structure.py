"""Cluster extraction, OLS refitting, and degrees of freedom.

A fitted coefficient vector is turned into a partition of each factor's
levels (levels whose coefficients coincide within tolerance form one
cluster); the partition drives refitting on the collapsed design and the
model's degree-of-freedom count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema
from .errors import RankDeficient
from .coding import indicator_columns, u_transform

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

    def level_coefficients(self) -> np.ndarray:
        k1 = sum(len(c) for c in self.clusters)
        out = np.zeros(k1)
        for c, members in enumerate(self.clusters):
            for lev in members:
                out[lev] = self.coefficients[c]
        return out

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


def _union_find_merge(k1: int, merge_pairs) -> List[List[int]]:
    parent = list(range(k1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in merge_pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            # smaller-level representative wins: deterministic output
            if ri < rj:
                parent[rj] = ri
            else:
                parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for lev in range(k1):
        groups.setdefault(find(lev), []).append(lev)
    return [sorted(groups[r]) for r in sorted(groups)]


def extract_clusters(
    beta: Dict[str, np.ndarray],
    schemas: Sequence[FactorSchema],
    tol: float = DEFAULT_CLUSTER_TOL,
) -> ClusterPartition:
    """Group levels whose coefficients agree within tol·max(1, max|β̂|).

    `beta[name]` is a full per-level vector (reference entry 0). Nominal
    factors merge any pair of levels within threshold (union-find); ordinal
    factors merge adjacent levels only, keeping clusters contiguous.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    scale = 0.0
    for sch in schemas:
        b = np.asarray(beta[sch.name], dtype=float)
        if b.shape != (sch.k + 1,):
            raise ValueError(
                f"factor {sch.name!r}: expected {sch.k + 1} per-level values"
            )
        if b.size:
            scale = max(scale, float(np.max(np.abs(b))))
    threshold = tol * max(1.0, scale)
    parts = []
    for sch in schemas:
        b = np.asarray(beta[sch.name], dtype=float)
        k1 = sch.k + 1
        if sch.penalty_scale == "nominal":
            pairs = [
                (j, i)
                for i in range(k1)
                for j in range(i)
                if abs(b[i] - b[j]) <= threshold
            ]
            clusters = _union_find_merge(k1, pairs)
        else:
            delta = u_transform(b[1:])
            clusters = []
            current = [0]
            for i in range(1, k1):
                if abs(delta[i - 1]) <= threshold:
                    current.append(i)
                else:
                    clusters.append(current)
                    current = [i]
            clusters.append(current)
        coefs = tuple(float(np.mean(b[c])) for c in clusters)
        zero = next(c for c, members in enumerate(clusters) if 0 in members)
        parts.append(
            FactorPartition(
                name=sch.name,
                clusters=tuple(tuple(c) for c in clusters),
                zero_cluster=zero,
                coefficients=coefs,
            )
        )
    return ClusterPartition(tuple(parts), threshold=threshold)


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
    collapsed design must have full column rank.
    """
    blocks = []
    col_owner = []   # (factor index, cluster index)
    for l, sch in enumerate(ds.schemas):
        fp = partition.factors[l]
        if fp.name != sch.name:
            fp = partition.factor(sch.name)
        level_cluster = np.full(sch.k + 1, fp.zero_cluster)
        for c, members in enumerate(fp.clusters):
            level_cluster[list(members)] = c
        labels = [c for c in range(len(fp.clusters)) if c != fp.zero_cluster]
        blocks.append(indicator_columns(level_cluster[ds.codes[:, l]], labels))
        col_owner.extend((l, c) for c in labels)
    y_mean = float(ds.y.mean())
    yc = ds.y - y_mean
    if col_owner:
        X = np.hstack(blocks)
        means = X.mean(axis=0)
        Xc = X - means
        coef, _, rank, _ = np.linalg.lstsq(Xc, yc, rcond=None)
        if rank < Xc.shape[1]:
            raise RankDeficient(
                f"collapsed design is rank deficient (rank {rank} < {Xc.shape[1]})"
            )
        fitted = Xc @ coef
        intercept = y_mean - float(means @ coef)
    else:
        coef = np.zeros(0)
        fitted = np.zeros(ds.n)
        intercept = y_mean
    rss = float(np.sum((yc - fitted) ** 2))

    by_factor: Dict[int, Dict[int, float]] = {}
    for (l, c), value in zip(col_owner, coef):
        by_factor.setdefault(l, {})[c] = float(value)
    beta = {}
    new_parts = []
    for l, sch in enumerate(ds.schemas):
        fp = partition.factor(sch.name)
        cluster_vals = []
        full = np.zeros(sch.k + 1)
        for c, members in enumerate(fp.clusters):
            v = 0.0 if c == fp.zero_cluster else by_factor.get(l, {}).get(c, 0.0)
            cluster_vals.append(v)
            for lev in members:
                full[lev] = v
        beta[sch.name] = full
        new_parts.append(
            FactorPartition(
                name=fp.name,
                clusters=fp.clusters,
                zero_cluster=fp.zero_cluster,
                coefficients=tuple(cluster_vals),
            )
        )
    return RefitResult(
        beta=beta,
        partition=ClusterPartition(tuple(new_parts), threshold=partition.threshold),
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
