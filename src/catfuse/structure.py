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
weights and the λ = 0 end of a path) is `refit_labels`: OLS on the dummy
design collapsed by a row of cluster_labels_path, read off the dataset's
LevelTable (no n-row design is built) under the one rank rule. It returns
β and the intercept only. `refit` checks a partition against the dataset,
calls it and sums the residuals (datamodel.row_effects) for its rss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema, level_values, row_effects
from .errors import RankDeficient, ShapeMismatch
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
# a column is in a rank-deficient Gram's null space past this unit-vector entry
NULL_WEIGHT_TOL = 1e-6


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
    if not tol >= 0:            # NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
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


class LabelFit(NamedTuple):
    """refit_labels' fit: full per-level vectors and intercept, and the same
    vectors stacked as Dataset.level_table stacks levels (each beta entry is
    a view of its factor's slice of `levels`)."""

    beta: Dict[str, np.ndarray]
    intercept: float
    levels: np.ndarray


def refit_labels(ds: Dataset, labels: np.ndarray) -> LabelFit:
    """Ordinary least squares with each factor's dummies collapsed by
    cluster, for `labels` stacking every factor's cluster labels as
    Dataset.level_table stacks its levels: one row of cluster_labels_path.
    An array of another shape raises ShapeMismatch naming its shape. Each
    factor's labels must be integers numbered by first occurrence from 0,
    as FactorPartition's are; otherwise ValueError names the factor.

    Zero-cluster levels get no column (coefficient 0), and cluster c >= 1 of
    a factor is one indicator column. The normal equations of the centered
    collapsed design are read off ds.level_table (LevelTable.gram with C the
    L × m membership of levels in columns); with c its column counts, the
    intercept is ȳ − cᵀcoef/n. No residual is computed here (refit sums
    them). The design may have no columns; one not of full rank by RANK_TOL
    raises RankDeficient("collapsed design is rank deficient (rank r < m)"),
    with r the number of eigenvalues of G above RANK_TOL times the largest,
    and `factors` naming each factor with a column in G's null space; when
    there are two or more, the message ends "; factors 'a' and 'b' are
    collinear".
    """
    table = ds.level_table
    factor = table.factor
    L = factor.size
    labels = np.asarray(labels)
    if labels.shape != (L,):
        raise ShapeMismatch(f"cluster labels of shape {labels.shape} for {L} levels")
    # numbered by first occurrence from 0: within a factor no label exceeds
    # its level's position, and the running maximum steps by 0 or 1 (one
    # running maximum serves every factor once labels are shifted by their
    # factor's first stacked level)
    offset = table.offsets[factor]
    ok, lab = np.zeros(L, dtype=bool), np.zeros(L, dtype=np.intp)
    if labels.dtype.kind in "biuf":          # strings and objects are no integers
        ok = (labels == np.floor(labels)) & (labels >= 0) & (labels <= table.position)
        lab = np.where(ok, labels, 0).astype(np.intp)
        running = np.maximum.accumulate(lab + offset) - offset
        ok[1:] &= running[1:] - running[:-1] <= 1
    if not ok.all():
        raise ValueError("; ".join(
            f"factor {ds.schemas[f].name!r}: cluster labels "
            f"{labels[table.offsets[f]:table.offsets[f + 1]].tolist()} "
            "are not integers numbered by first occurrence from 0"
            for f in np.unique(factor[~ok]).tolist()))
    labels = lab
    # the design column of every stacked level: factor f's cluster c >= 1 is
    # column firsts[f] + c − 1, and its zero cluster reads -1 (coefficient 0)
    firsts = np.zeros(len(ds.schemas) + 1, dtype=np.intp)
    np.cumsum(np.maximum.reduceat(labels, table.offsets[:-1]), out=firsts[1:])
    col = np.where(labels > 0, labels + firsts[factor] - 1, -1)
    m = int(firsts[-1])
    G, b, counts = table.gram((col[:, None] == np.arange(m)).astype(float))
    try:
        pivots = np.linalg.cholesky(G).diagonal() ** 2
        full = pivots.min(initial=np.inf) > RANK_TOL * G.diagonal().max(initial=0.0)
    except np.linalg.LinAlgError:
        full = False
    if not full:
        ev, vecs = np.linalg.eigh(G)
        null = ev <= RANK_TOL * ev[-1]
        carried = np.isin(col, np.flatnonzero(np.abs(vecs[:, null]).max(axis=1) > NULL_WEIGHT_TOL))
        names = tuple(ds.schemas[f].name for f in np.unique(factor[carried]))
        named = ""
        if len(names) > 1:
            *rest, last = map(repr, names)
            named = f"; factors {', '.join(rest)} and {last} are collinear"
        raise RankDeficient(f"collapsed design is rank deficient (rank {m - null.sum()} < {m})"
                            f"{named}", factors=names)
    coef = np.linalg.solve(G, b)
    shift = float(counts @ coef) / ds.n      # the centering of the columns
    levels = np.concatenate((coef, [0.0]))[col]
    return LabelFit(
        beta={sch.name: levels[start:start + sch.k + 1]
              for sch, start in zip(ds.schemas, table.offsets.tolist())},
        intercept=table.y_mean - shift,
        levels=levels,
    )


def refit(ds: Dataset, partition: ClusterPartition) -> RefitResult:
    """refit_labels on the partition's labels, checked against the dataset.

    A factor the partition lacks, one the dataset lacks, or one whose
    partition has other than k + 1 labels raises ShapeMismatch naming each.
    The refitted partition keeps the input labels and threshold; a
    cluster's coefficient is the refitted β of its smallest member. rss
    sums the squared residuals y − intercept − datamodel.row_effects.
    """
    by_name = {fp.name: fp for fp in partition.factors}
    fps = [by_name.get(sch.name) for sch in ds.schemas]
    wrong = [f"factor {sch.name!r}: " + ("not in the partition" if fp is None else
                                         f"{len(fp.labels)} cluster labels for {sch.k + 1} levels")
             for fp, sch in zip(fps, ds.schemas) if fp is None or len(fp.labels) != sch.k + 1]
    wrong += [f"factor {name!r}: not in the dataset"
              for name in by_name if name not in {sch.name for sch in ds.schemas}]
    if wrong:
        raise ShapeMismatch("; ".join(wrong))
    fit = refit_labels(ds, np.concatenate([np.zeros(0, dtype=np.intp)] + [fp.labels for fp in fps]))
    residuals = (ds.y - fit.intercept) - row_effects([fit.beta], ds)[0]
    return RefitResult(
        beta=fit.beta,
        partition=ClusterPartition(tuple(
            FactorPartition(fp.name, fp.labels,
                            tuple(fit.beta[fp.name][[c[0] for c in fp.clusters]].tolist()))
            for fp in fps), threshold=partition.threshold),
        intercept=fit.intercept,
        rss=float(np.sum(residuals ** 2)),
    )


def degrees_of_freedom(partition: ClusterPartition) -> int:
    """1 + number of distinct nonzero cluster coefficients per factor.

    Clusters other than the reference cluster 0 count unless their fitted
    coefficient is itself 0 within the partition's threshold (an ordinal
    run can return to 0 without touching the reference cluster).
    """
    return 1 + int(sum(abs(c) > partition.threshold
                       for fp in partition.factors for c in fp.coefficients[1:]))
