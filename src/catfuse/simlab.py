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
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .datamodel import Dataset, FactorSchema, level_values
from .coding import build_augmented, theta_layout
from .selection import (
    DEFAULT_K_FOLDS,
    CvConfig,
    CvCurve,
    build_weights,
    compute_fold_paths,
    fit_at,
    intercept_for,
    predicted_effects,
    score_folds,
)
from .solver import DEFAULT_GRID_SIZE, PathResult, path
from .structure import degrees_of_freedom, extract_clusters
from .weights import ols_coefficients

PROBS_8 = (0.1, 0.1, 0.2, 0.05, 0.2, 0.1, 0.2, 0.05)
PROBS_4 = (0.1, 0.4, 0.2, 0.3)
S1_EFFECTS = (0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 6.0, 6.0, 6.0)


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


def _levels(k1: int) -> Tuple[str, ...]:
    return tuple(str(i) for i in range(k1))


def make_scenario(name: str, seed: int = 0) -> Scenario:
    """Built-in scenario factory; names S1, S2, S3."""
    if name == "S1":
        sch = (FactorSchema("g", "nominal", _levels(9)),)
        return Scenario(
            name="S1",
            schemas=sch,
            beta_star={"g": np.array(S1_EFFECTS)},
            alpha=1.0,
            noise_sd=2.0,
            probs=(None,),
            n_train=180,
            n_test=180,
            seed=seed,
        )
    if name in ("S2", "S3"):
        specs = [
            ("nom8", "nominal", 8, PROBS_8, (0, 0, 1, 1, 1, 1, -2, -2)),
            ("nom8n", "nominal", 8, PROBS_8, None),
            ("nom4", "nominal", 4, PROBS_4, (0, 0, 2, 2)),
            ("nom4n", "nominal", 4, PROBS_4, None),
            ("ord8", "ordinal", 8, PROBS_8, (0, 0, 1, 1, 2, 2, 4, 4)),
            ("ord8n", "ordinal", 8, PROBS_8, None),
            ("ord4", "ordinal", 4, PROBS_4, (0, 0, -2, -2)),
            ("ord4n", "ordinal", 4, PROBS_4, None),
        ]
        if name == "S3":
            uniform6 = tuple([1.0 / 6] * 6)
            for i in range(1, 5):
                specs.append((f"xnom{i}", "nominal", 6, uniform6, None))
            for i in range(1, 5):
                specs.append((f"xord{i}", "ordinal", 6, uniform6, None))
        schemas = []
        beta_star = {}
        probs = []
        for fname, scale, k1, p, truth in specs:
            schemas.append(FactorSchema(fname, scale, _levels(k1)))
            beta_star[fname] = np.array(truth, dtype=float) if truth is not None else np.zeros(k1)
            probs.append(tuple(p))
        return Scenario(
            name=name,
            schemas=tuple(schemas),
            beta_star=beta_star,
            alpha=1.0,
            noise_sd=1.0,
            probs=tuple(probs),
            n_train=500,
            n_test=1000,
            seed=seed,
        )
    raise ValueError(f"unknown scenario {name!r}; expected S1, S2 or S3")


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
    truth: Dict[str, np.ndarray],
    schemas: Sequence[FactorSchema],
) -> EvalMetrics:
    """Score an estimate against the truth.

    Selection and fusion are read off the cluster labels of partitions
    (structure.extract_clusters): the estimate's at the default tolerance, so
    penalized and refitted estimates are judged by the same rule, the truth's
    at tolerance 0. A factor is selected when some level has a label above 0
    (more than one cluster); a pair (i, j) of the factor's block is fused
    when labels[i] == labels[j]. Selection rates are over whole factors;
    clustering rates over differences within relevant (non-noise) factors —
    all pairs for nominal factors, adjacent pairs for ordinal ones.
    """
    sq_err = []
    for sch in schemas:
        bh, bt = level_values([beta_hat, truth], sch)
        sq_err.extend(((bh - bt)[1:] ** 2).tolist())
    est = extract_clusters(beta_hat, schemas)
    true = extract_clusters(truth, schemas, tol=0.0)

    sel_fp = sel_fn = n_noise = n_rel = 0
    clu_fp = clu_fn = n_zero_diff = n_nonzero_diff = 0
    for b, fe, ft in zip(theta_layout(schemas).blocks, est.factors, true.factors):
        selected = max(fe.labels) > 0
        if max(ft.labels) > 0:
            n_rel += 1
            if not selected:
                sel_fn += 1
            i, j = b.pair_index
            tl, el = np.array(ft.labels), np.array(fe.labels)
            true_zero, est_zero = tl[i] == tl[j], el[i] == el[j]
            n_zero_diff += int(true_zero.sum())
            n_nonzero_diff += int((~true_zero).sum())
            clu_fp += int((true_zero & ~est_zero).sum())
            clu_fn += int((~true_zero & est_zero).sum())
        else:
            n_noise += 1
            if selected:
                sel_fp += 1
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

@dataclass(frozen=True)
class VariantConfig:
    label: str
    ols_only: bool = False
    adaptive: bool = False
    use_frequency: bool = True
    refit_after: bool = False


def parse_variant(label: str) -> VariantConfig:
    """Labels: "ols", or "stdrd"/"adapt" with optional "+rf" (refit after
    structure discovery) and "-nf" (drop class-frequency weight terms)."""
    if label == "ols":
        return VariantConfig(label=label, ols_only=True)
    base = label
    rf = "+rf" in base
    base = base.replace("+rf", "")
    nf = "-nf" in base
    base = base.replace("-nf", "")
    if base == "stdrd":
        adaptive = False
    elif base == "adapt":
        adaptive = True
    else:
        raise ValueError(f"unknown variant label {label!r}")
    return VariantConfig(
        label=label,
        adaptive=adaptive,
        use_frequency=not nf,
        refit_after=rf,
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
        labels = []
        for rec in self.records:
            if rec.variant not in labels:
                labels.append(rec.variant)
        for label in labels:
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
    variant is the tuned fit `catfuse cv` and `catfuse fit` make: s chosen
    by CvCurve.from_scores on score_folds, then fit_at that s on the
    full-data path, refitted for "+rf" (with the refit's own intercept).
    Variants sharing a weight configuration share its fold paths and its
    full-data path (refit changes only the scoring and the read-out at the
    chosen point), which roughly halves the cost of refit/no-refit
    contrasts. A "+rf" variant's CV scoring refits each distinct partition
    of a fold once (score_folds).
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    vcs = [parse_variant(v) for v in variants]
    records: List[ReplicateRecord] = []
    for rep in range(replicates):
        data = generate(make_scenario(scenario_name, seed=seed + rep))
        train, test = data.train, data.test
        # per weight set (adaptive, use_frequency): fold paths and full-data path
        paths: Dict[Tuple[bool, bool], Tuple[list, PathResult]] = {}
        for vc in vcs:
            if vc.ols_only:
                beta = ols_coefficients(train)
                part = extract_clusters(beta, train.schemas)
                alpha, chosen_s = intercept_for(beta, train), 1.0
            else:
                key = (vc.adaptive, vc.use_frequency)
                if key not in paths:
                    folds = compute_fold_paths(train, CvConfig(
                        k_folds=k_folds, grid_size=grid_size, seed=seed + rep,
                        adaptive=vc.adaptive, use_frequency=vc.use_frequency))
                    ws = build_weights(train, *key)
                    paths[key] = (folds, path(build_augmented(train, ws), grid_size))
                fold_paths, full = paths[key]
                scored = score_folds(fold_paths, grid_size, vc.refit_after)
                chosen_s = CvCurve.from_scores(*scored).chosen_s_ratio
                _, beta, part, alpha = fit_at(full, train, chosen_s, vc.refit_after)
            df = degrees_of_freedom(part)
            m = evaluate(beta, data.beta_star, train.schemas)
            pred = alpha + predicted_effects(beta, test)
            msep = float(np.mean((test.y - pred) ** 2))
            records.append(ReplicateRecord(
                replicate=rep, variant=vc.label, msep=msep, chosen_s_ratio=chosen_s,
                df=df, **dataclasses.asdict(m)))
    return SimReport(scenario=scenario_name, records=tuple(records), seed=seed)
