"""Simulation scenarios, evaluation metrics, and study harness.

Three built-in scenarios:

S1  one nominal factor with 9 levels, 20 observations per level, class
    means (with intercept 1) stepping 0/2/4 in triples, noise sd 2.
S2  eight factors — nominal 8, nominal 8 (noise), nominal 4, nominal 4
    (noise), ordinal 8, ordinal 8 (noise), ordinal 4, ordinal 4 (noise) —
    40 dummy coefficients, n_train 500, n_test 1000, noise sd 1.
S3  S2 plus 4 nominal and 4 ordinal pure-noise factors with 6 uniform
    levels each.

Metrics follow the usual fusion-study conventions: coefficient MSE over
dummy coefficients, test-set MSEP, selection FPR/FNR over whole factors,
clustering FPR/FNR over coefficient differences within relevant factors.
Rates and df read one partition, the one the tuned fit returns.
"""
from __future__ import annotations

import dataclasses
import os
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema, level_values
from .coding import theta_layout
from .selection import (
    DEFAULT_K_FOLDS,
    CvConfig,
    compute_fold_paths,
    fit_at,
    fold_parts,
    intercept_for,
    predicted_effects,
    score_folds,
    weighted_path,
)
from .solver import DEFAULT_GRID_SIZE
from .structure import ClusterPartition, degrees_of_freedom, extract_clusters
from .weights import ols_coefficients

PROBS_8 = (0.1, 0.1, 0.2, 0.05, 0.2, 0.1, 0.2, 0.05)
PROBS_4 = (0.1, 0.4, 0.2, 0.3)
UNIFORM_6 = (1.0 / 6,) * 6


@dataclass(frozen=True)
class Scenario:
    name: str
    schemas: Tuple[FactorSchema, ...]
    beta_star: Dict[str, np.ndarray]     # full per-level vectors, ref entry 0
    alpha: float
    noise_sd: float
    probs: Tuple[Optional[Tuple[float, ...]], ...]   # None = balanced block design
    n_train: int
    n_test: int
    seed: int


# per factor: name, scale, level count, level probabilities (None for a
# balanced block design) and true effects (None for pure noise)
_S2_FACTORS = (
    ("nom8", "nominal", 8, PROBS_8, (0, 0, 1, 1, 1, 1, -2, -2)),
    ("nom8n", "nominal", 8, PROBS_8, None),
    ("nom4", "nominal", 4, PROBS_4, (0, 0, 2, 2)),
    ("nom4n", "nominal", 4, PROBS_4, None),
    ("ord8", "ordinal", 8, PROBS_8, (0, 0, 1, 1, 2, 2, 4, 4)),
    ("ord8n", "ordinal", 8, PROBS_8, None),
    ("ord4", "ordinal", 4, PROBS_4, (0, 0, -2, -2)),
    ("ord4n", "ordinal", 4, PROBS_4, None),
)
# per scenario: noise sd, n_train, n_test and its factors
_SCENARIOS = {
    "S1": (2.0, 180, 180, (("g", "nominal", 9, None, (0, 0, 0, 3, 3, 3, 6, 6, 6)),)),
    "S2": (1.0, 500, 1000, _S2_FACTORS),
    "S3": (1.0, 500, 1000, _S2_FACTORS
           + tuple((f"xnom{i}", "nominal", 6, UNIFORM_6, None) for i in range(1, 5))
           + tuple((f"xord{i}", "ordinal", 6, UNIFORM_6, None) for i in range(1, 5))),
}


def make_scenario(name: str, seed: int = 0) -> Scenario:
    """Built-in scenario factory; names S1, S2, S3 (intercept 1 each)."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected S1, S2 or S3")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    noise_sd, n_train, n_test, factors = _SCENARIOS[name]
    return Scenario(
        name=name,
        schemas=tuple(FactorSchema(f, scale, tuple(map(str, range(k1))))
                      for f, scale, k1, _, _ in factors),
        beta_star={f: np.zeros(k1) if truth is None else np.array(truth, dtype=float)
                   for f, _, k1, _, truth in factors},
        alpha=1.0,
        noise_sd=noise_sd,
        probs=tuple(p for _, _, _, p, _ in factors),
        n_train=n_train,
        n_test=n_test,
        seed=seed,
    )


@dataclass(frozen=True)
class GeneratedData:
    train: Dataset
    test: Dataset
    beta_star: Dict[str, np.ndarray]


def _draw_codes(rng, scenario: Scenario, n: int) -> np.ndarray:
    cols = []
    for sch, p in zip(scenario.schemas, scenario.probs):
        if p is None:
            # balanced block design: equal counts per level, schema order
            reps = n // len(sch.levels)
            if reps * len(sch.levels) != n:
                raise ValueError("balanced design needs n divisible by level count")
            cols.append(np.repeat(np.arange(len(sch.levels)), reps))
        else:
            cols.append(rng.choice(len(sch.levels), size=n, p=np.array(p)))
    return np.column_stack(cols)


def generate(scenario: Scenario) -> GeneratedData:
    """Draw train and test sets; deterministic for a given scenario seed."""
    rng = np.random.default_rng(scenario.seed)
    out = []
    for n in (scenario.n_train, scenario.n_test):
        codes = _draw_codes(rng, scenario, n)
        mean = scenario.alpha + sum(
            scenario.beta_star[sch.name][codes[:, l]]
            for l, sch in enumerate(scenario.schemas)
        )
        y = mean + rng.normal(0.0, scenario.noise_sd, n)
        out.append(Dataset(y, codes, scenario.schemas))
    return GeneratedData(train=out[0], test=out[1], beta_star=scenario.beta_star)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalMetrics:
    coef_mse: float
    selection_fpr: float
    selection_fnr: float
    clustering_fpr: float
    clustering_fnr: float


def evaluate(
    beta_hat: Dict[str, np.ndarray],
    partition: ClusterPartition,
    truth: Dict[str, np.ndarray],
    schemas: Sequence[FactorSchema],
) -> EvalMetrics:
    """Score an estimate β̂ and the partition its fit returns (the one its
    df counts; no labels are read again) against the truth.

    A pair (i, j) of a factor's block is fused when the partition's labels
    agree, and truly fused when the true effects are equal: the truth's
    groups are its equal effects. A factor is selected when some pair is not
    fused, and relevant when some pair is not truly fused. Selection rates
    are over whole factors; clustering rates over differences within
    relevant factors: all pairs of a nominal factor, adjacent ones of an
    ordinal. A factor β̂, truth or partition lacks or sizes wrongly raises
    ShapeMismatch naming it."""
    labels = {fp.name: fp.labels for fp in partition.factors}
    sq_err = []
    sel_fp = sel_fn = n_noise = n_rel = 0
    clu_fp = clu_fn = n_zero_diff = n_nonzero_diff = 0
    for sch, b in zip(schemas, theta_layout(schemas).blocks):
        bh, bt, el = level_values([beta_hat, truth, labels], sch)
        sq_err.extend(((bh - bt)[1:] ** 2).tolist())
        i, j = b.pair_index
        true_zero, est_zero = bt[i] == bt[j], el[i] == el[j]
        selected = not est_zero.all()
        if not true_zero.all():
            n_rel += 1
            sel_fn += not selected
            n_zero_diff += int(true_zero.sum())
            n_nonzero_diff += int((~true_zero).sum())
            clu_fp += int((true_zero & ~est_zero).sum())
            clu_fn += int((~true_zero & est_zero).sum())
        else:
            n_noise += 1
            sel_fp += selected
    return EvalMetrics(
        coef_mse=float(np.mean(sq_err)),
        selection_fpr=sel_fp / n_noise if n_noise else 0.0,
        selection_fnr=sel_fn / n_rel if n_rel else 0.0,
        clustering_fpr=clu_fp / n_zero_diff if n_zero_diff else 0.0,
        clustering_fnr=clu_fn / n_nonzero_diff if n_nonzero_diff else 0.0,
    )


# ---------------------------------------------------------------------------
# study harness
# ---------------------------------------------------------------------------

def parse_variant(label: str) -> Optional[CvConfig]:
    """The CvConfig of a variant label, or None for "ols". Labels: "ols",
    or "stdrd"/"adapt" followed by nothing, "+rf" (refit after structure
    discovery, in CV too: refit_inside), "-nf" (drop class-frequency weight
    terms), "+rf-nf" or "-nf+rf"; any other label raises ValueError."""
    if label == "ols":
        return None
    match = re.fullmatch(r"(stdrd|adapt)(\+rf-nf|-nf\+rf|\+rf|-nf)?", label)
    if match is None:
        raise ValueError(f"unknown variant label {label!r}")
    suffix = match.group(2) or ""
    return CvConfig(
        adaptive=match.group(1) == "adapt",
        use_frequency="-nf" not in suffix,
        refit_inside="+rf" in suffix,
    )


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    variant: str
    coef_mse: float
    msep: float
    selection_fpr: float
    selection_fnr: float
    clustering_fpr: float
    clustering_fnr: float
    chosen_s_ratio: float
    df: int


@dataclass(frozen=True)
class SimReport:
    scenario: str
    records: Tuple[ReplicateRecord, ...]
    seed: int

    # every field of a record after its replicate and variant
    METRICS = tuple(f.name for f in dataclasses.fields(ReplicateRecord))[2:]

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per variant: median and mean of every metric, replicate-ordered."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for label in dict.fromkeys(rec.variant for rec in self.records):
            rows = [r for r in self.records if r.variant == label]
            stats = {}
            for m in self.METRICS:
                vals = np.array([getattr(r, m) for r in rows], dtype=float)
                stats[m] = {
                    "median": float(np.median(vals)),
                    "mean": float(np.mean(vals)),
                }
            out[label] = stats
        return out


class _Unit(NamedTuple):
    """One weighting of one replicate: the variants that share its paths."""
    replicate: int
    data: GeneratedData
    parts: List[Tuple[Dataset, Dataset]]     # the replicate's fold_parts
    config: Optional[CvConfig]               # None for "ols"
    labels: Tuple[str, ...]


def _run_unit(unit: _Unit) -> List[ReplicateRecord]:
    """The records of a unit's variants, in label order. A weighting makes
    its fold paths and full-data path once; each variant then takes s from
    score_folds and its fit from fit_at that s. "ols" is the unpenalized fit.
    Each fit is read once: df and evaluate read the partition it returns."""
    train, test = unit.data.train, unit.data.test
    if unit.config is not None:
        fold_paths = compute_fold_paths(unit.parts, unit.config)
        full = weighted_path(train, unit.config)
    records = []
    for label in unit.labels:
        if unit.config is None:
            beta = ols_coefficients(train)
            part = extract_clusters(beta, train.schemas)
            alpha, chosen_s = intercept_for(beta, train), 1.0
        else:
            refit_inside = parse_variant(label).refit_inside
            chosen_s = score_folds(unit.parts, fold_paths, refit_inside).chosen_s_ratio
            _, beta, part, alpha = fit_at(full, train, chosen_s, refit_inside)
        df = degrees_of_freedom(part)
        m = evaluate(beta, part, unit.data.beta_star, train.schemas)
        pred = alpha + predicted_effects(beta, test)
        msep = float(np.mean((test.y - pred) ** 2))
        records.append(ReplicateRecord(
            replicate=unit.replicate, variant=label, msep=msep, chosen_s_ratio=chosen_s,
            df=df, **dataclasses.asdict(m)))
    return records


# in a child forked by _run_all: every unit of the study, as at the fork
_inherited: Sequence[_Unit] = ()


def _inherit(units: Sequence[_Unit]) -> None:
    global _inherited
    _inherited = units


def _run_inherited(i: int) -> List[ReplicateRecord]:
    return _run_unit(_inherited[i])


def _worker_count(units: int) -> int:
    """The processes a study's units run on: min(units, usable CPUs), the
    CPUs of this process's affinity mask; 1 off Linux and in a daemonic
    process, which may not start children."""
    from multiprocessing import current_process
    if sys.platform != "linux" or current_process().daemon:
        return 1
    return min(units, len(os.sched_getaffinity(0)))


def _run_all(units: Sequence[_Unit]) -> List[List[ReplicateRecord]]:
    """Each unit's records, in unit order. At w = _worker_count > 1, w forked
    children each take the next unit when free, and this process runs none.
    A failure raises what a run in one process raises: the exception of the
    first failing unit in unit order. Units not yet started are cancelled,
    and no child outlives the call."""
    w = _worker_count(len(units))
    if w == 1:
        return [_run_unit(unit) for unit in units]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    # the children inherit the units at the fork rather than unpickle them
    with ProcessPoolExecutor(w, mp_context=get_context("fork"), initializer=_inherit,
                             initargs=(units,)) as pool:
        return list(pool.map(_run_inherited, range(len(units))))


def run_study(
    scenario_name: str,
    variants: Sequence[str],
    replicates: int,
    seed: int = 0,
    k_folds: int = DEFAULT_K_FOLDS,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> SimReport:
    """CV-tuned fits of every variant on shared per-replicate data.

    Replicate r uses scenario seed (seed + r); variants within a replicate
    see identical train/test draws, enabling paired comparisons. A penalized
    variant is a CvConfig (parse_variant) and the tuned fit `catfuse cv` and
    `catfuse fit` make: s chosen by score_folds on the fold paths, then
    fit_at that s on the full-data path, refitted for "+rf" (with the
    refit's own intercept). Each replicate's training set is split once
    (fold_parts) for every weighting, and variants sharing a weighting share
    its fold paths and full-data path (keyed by their config without
    refit_inside, which changes only the scoring and the read-out at the
    chosen point). CV labels and refits only the points its grid reads.

    Each (replicate, weighting) pair, and each replicate's "ols", is one
    unit of work. On Linux with w > 1 usable CPUs (this process's affinity
    mask, up to one per unit), w forked children each take the next unit
    when free, and this process runs none. The records, and so every output
    of `catfuse simulate`, and any error are those of a run on one CPU;
    `taskset -c 0` pins a run to one CPU.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not variants:
        raise ValueError("variants must name at least one variant")
    # per weighting (a config without seed and refit_inside; None for "ols"):
    # the labels of its variants
    weightings: Dict[Optional[CvConfig], List[str]] = {}
    for label, vc in zip(variants, map(parse_variant, variants)):
        key = None if vc is None else dataclasses.replace(
            vc, k_folds=k_folds, grid_size=grid_size, refit_inside=False)
        weightings.setdefault(key, []).append(label)
    tuned = any(key is not None for key in weightings)
    units: List[_Unit] = []
    for rep in range(replicates):
        data = generate(make_scenario(scenario_name, seed=seed + rep))
        parts = fold_parts(data.train, k_folds, seed + rep) if tuned else []
        for key, labels in weightings.items():
            config = None if key is None else dataclasses.replace(key, seed=seed + rep)
            units.append(_Unit(rep, data, parts, config, tuple(labels)))
    # a unit's records come in its label order; the report's, in variant order
    done = {(r.replicate, r.variant): r for unit_records in _run_all(units) for r in unit_records}
    records = tuple(done[rep, label] for rep in range(replicates) for label in variants)
    return SimReport(scenario=scenario_name, records=records, seed=seed)
