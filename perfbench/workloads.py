"""The three benchmark workloads: seeded input generators and one operation each.

Every workload is a closed loop driven from one process: the next operation
starts only after the previous one has finished. A run cycles through a fixed
list of instances that ``instances_for`` derives from the benchmark's
``--seed``; the program only ever receives the generated inputs.

Calls into catfuse go through module attributes (``selection.build_weights``
rather than a name imported at load time), so that the span wrappers
installed by ``spans.tracing`` see them.

BENCHMARK.json gates tall-cli and s2-study. wide-path runs the same way
(``run.py --workload wide-path``) but is left out of the gated set: on a
2-vCPU host the contract's time limit for all runs allows only two workloads
at the run length that keeps their spread within bound, and the layers
wide-path exercises (coding, weights, solver, structure) are all measured on
the other two.

Why each workload exists:

wide-path
    One path on a realistically sized design shaped like the paper's rent
    analysis (n = 2053, q = 333, r = 276). The large saddle-point systems
    (q + r ~ 600) dominate; factorization reuse and an exact-problem backend
    show up here, while CV, refit memoisation and file I/O are absent.
tall-cli
    ``catfuse path`` then ``catfuse fit`` on a tall S3-shaped CSV
    (n = 10 000, q = 168, r = 88), each in a fresh interpreter as users run
    them, so a cache kept inside one process cannot show a gain users never
    see. Path cost grows with n here (coordinate-descent polish and KKT passes
    over the stacked (n+r) x q matrix), so a Gram-form solver should move this
    workload most. It is the only workload that reads a CSV and writes files.
s2-study
    One replicate of the S2 simulation study with the five default variants,
    5-fold CV and grid 100: 14 small paths (q = 88, r = 48) and about 1000
    ``refit``/``extract_clusters`` calls. CV scoring, refit memoisation,
    fold-Gram downdating and fold-level parallelism show up here, and
    wide-path bypasses all of them.

The unobserved-level and response-scale defects are deliberately not
exercised: every generator observes every declared level, and responses stay
on their natural scale.
"""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from catfuse import coding, datamodel, selection, simlab, solver, structure

WORKLOADS = ("wide-path", "tall-cli", "s2-study")

# wide-path: a run uses WIDE_PER_RUN of the WIDE_BANK recorded instances.
RENT_N = 2053
WIDE_BANK = 8
WIDE_PER_RUN = 5
WIDE_GRID = 100
WIDE_REFIT_S = 0.6

# tall-cli: one CSV per run, written during set-up, for one of the TALL_BANK
# recorded instances.
TALL_N = 10_000
TALL_BANK = 6
TALL_S_RATIO = "0.5"
CLI_ENTRY = "import sys; from catfuse.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120.0

# s2-study: a run uses S2_PER_RUN of the S2_BANK recorded replicate seeds;
# two keep a whole cycle short (about 8 s), so the loop overshoots --seconds
# by little. Replicate costs differ by about 4%, far less than host drift.
S2_BANK = 8
S2_PER_RUN = 2
S2_VARIANTS = ("ols", "stdrd", "stdrd+rf", "adapt", "adapt+rf")
S2_K_FOLDS = 5
S2_GRID = 100

_SALT = {"wide-path": 11, "tall-cli": 12, "s2-study": 13}


def _rng(seed: int, workload: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, _SALT[workload], *extra])


def instances_for(workload: str, seed: int) -> List[int]:
    """Indices of the bank instances one run cycles through, in order."""
    if workload == "wide-path":
        return [int(i) for i in _rng(seed, workload).choice(WIDE_BANK, WIDE_PER_RUN, replace=False)]
    if workload == "s2-study":
        return [int(i) for i in _rng(seed, workload).choice(S2_BANK, S2_PER_RUN, replace=False)]
    if workload == "tall-cli":
        return [int(_rng(seed, workload).integers(TALL_BANK))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# rent-shaped design (wide-path)
# ---------------------------------------------------------------------------

def rent_schemas() -> Tuple[datamodel.FactorSchema, ...]:
    """The rent-standard factor layout (same as the test suite's rent_schema):
    25-level nominal district, four ordinal factors and five binary ones."""
    FS = datamodel.FactorSchema
    decades = tuple(f"{1910 + 10 * i}s" for i in range(10))
    space = ("(0,30)",) + tuple(f"[{30 + 10 * i},{40 + 10 * i})" for i in range(11)) + ("[140,inf)",)
    return (
        FS("district", "nominal", tuple(str(i) for i in range(1, 26))),
        FS("year", "ordinal", decades),
        FS("rooms", "ordinal", tuple(str(i) for i in range(1, 7))),
        FS("quality", "ordinal", ("fair", "good", "excellent")),
        FS("space", "ordinal", space),
        FS("hotwater", "binary", ("yes", "no")),
        FS("heating", "binary", ("yes", "no")),
        FS("bath", "binary", ("yes", "no")),
        FS("suppl", "binary", ("no", "yes")),
        FS("kitchen", "binary", ("no", "yes")),
    )


# Level probabilities: uneven district sizes, post-war construction decades,
# mostly 2-3 rooms and fair/good quality, floor space peaking at 50-80 m2,
# and rare "missing amenity" levels, as in rent-standard surveys.
_DISTRICT_WEIGHTS = (3, 2, 2, 1, 1, 2, 3, 4, 4, 5, 4, 3, 6, 5, 4, 3, 7, 6, 5, 4, 3, 2, 6, 5, 4)
RENT_PROBS = {
    "district": tuple(w / sum(_DISTRICT_WEIGHTS) for w in _DISTRICT_WEIGHTS),
    "year": (0.05, 0.04, 0.06, 0.04, 0.16, 0.18, 0.17, 0.12, 0.11, 0.07),
    "rooms": (0.10, 0.35, 0.32, 0.15, 0.06, 0.02),
    "quality": (0.60, 0.37, 0.03),
    "space": (0.05, 0.08, 0.12, 0.15, 0.15, 0.12, 0.10, 0.07, 0.05, 0.04, 0.03, 0.02, 0.02),
    "hotwater": (0.97, 0.03),
    "heating": (0.90, 0.10),
    "bath": (0.93, 0.07),
    "suppl": (0.92, 0.08),
    "kitchen": (0.93, 0.07),
}

# Effects in rent per m2: five district clusters (districts 14, 16, 22 and
# 24 share one, as the paper's analysis fuses them), fused decades 1930s and
# 1940s, falling rent per m2 with rooms and floor space, and one binary
# factor (suppl) without effect.
RENT_EFFECTS = {
    "district": (0.0, 0.0, -0.4, -0.4, 0.6, 0.6, 0.0, 1.2, 1.2, -0.4, 0.0, 0.6, 1.2,
                 -0.8, 0.0, -0.8, 0.6, 0.0, -0.4, 0.6, 1.2, -0.8, 0.0, -0.8, 0.0),
    "year": (0.0, 0.0, -0.3, -0.3, -0.3, 0.0, 0.0, 0.5, 1.0, 1.6),
    "rooms": (0.0, 0.0, -0.4, -0.4, -0.9, -0.9),
    "quality": (0.0, 0.7, 1.8),
    "space": (0.0, -1.5, -2.3, -2.6, -2.6, -2.9, -2.9, -2.9, -3.1, -3.1, -3.1, -3.1, -3.1),
    "hotwater": (0.0, -1.6),
    "heating": (0.0, -1.1),
    "bath": (0.0, -0.6),
    "suppl": (0.0, 0.0),
    "kitchen": (0.0, 0.9),
}
RENT_INTERCEPT = 9.5
RENT_NOISE_SD = 2.2


def _draw_all_levels(rng, probs: Sequence[Sequence[float]], n: int) -> np.ndarray:
    """Codes drawn from per-factor level probabilities, with every declared
    level observed: the first rows cycle through all levels of each factor,
    then the rows are shuffled."""
    cols = []
    for p in probs:
        k1 = len(p)
        col = rng.choice(k1, size=n, p=np.asarray(p))
        col[:k1] = np.arange(k1)
        cols.append(col)
    codes = np.column_stack(cols)
    return codes[rng.permutation(n)]


def rent_dataset(instance: int) -> datamodel.Dataset:
    """Synthetic rent-shaped dataset, response in rent per m2."""
    schemas = rent_schemas()
    rng = np.random.default_rng([_SALT["wide-path"], instance])
    codes = _draw_all_levels(rng, [RENT_PROBS[s.name] for s in schemas], RENT_N)
    mean = RENT_INTERCEPT + sum(
        np.asarray(RENT_EFFECTS[s.name])[codes[:, l]] for l, s in enumerate(schemas)
    )
    y = mean + rng.normal(0.0, RENT_NOISE_SD, RENT_N)
    return datamodel.Dataset(y, codes, schemas)


@dataclass(frozen=True)
class WideResult:
    path: solver.PathResult
    dfs: Tuple[int, ...]
    refit: structure.RefitResult


def wide_path_op(ds: datamodel.Dataset) -> WideResult:
    ws = selection.build_weights(ds, adaptive=True, use_frequency=True)
    pr = solver.path(coding.build_augmented(ds, ws), WIDE_GRID)
    dfs = tuple(
        structure.degrees_of_freedom(structure.extract_clusters(sol.beta, ds.schemas))
        for sol in pr.solutions
    )
    part = structure.extract_clusters(pr.solution_at(WIDE_REFIT_S).beta, ds.schemas)
    return WideResult(path=pr, dfs=dfs, refit=structure.refit(ds, part))


# ---------------------------------------------------------------------------
# tall S3 CSV (tall-cli)
# ---------------------------------------------------------------------------

def write_tall_inputs(instance: int, directory: str) -> Tuple[str, str]:
    """Write an S3-shaped CSV with TALL_N rows and its schema JSON.

    Factors, level probabilities, true effects and noise follow the S3
    scenario; every declared level is observed. Responses are written with
    repr() so the CSV round-trips exactly. Returns (csv path, schema path).
    """
    sc = simlab.make_scenario("S3")
    rng = np.random.default_rng([_SALT["tall-cli"], instance])
    codes = _draw_all_levels(rng, sc.probs, TALL_N)
    mean = sc.alpha + sum(sc.beta_star[s.name][codes[:, l]] for l, s in enumerate(sc.schemas))
    y = mean + rng.normal(0.0, sc.noise_sd, TALL_N)
    data = os.path.join(directory, "tall.csv")
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [s.name for s in sc.schemas])
        for i in range(TALL_N):
            w.writerow([repr(float(y[i]))] + [s.levels[c] for s, c in zip(sc.schemas, codes[i])])
    schema = os.path.join(directory, "schema.json")
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(datamodel.schema_to_json(sc.schemas), fh)
    return data, schema


TALL_OUTPUTS = ("path/path.csv", "fit/coefficients.json", "fit/partition.json", "fit/fit.log")


def tall_cli_commands(data: str, schema: str, out: str) -> List[List[str]]:
    base = ["--data", data, "--schema", schema, "--frequency"]
    return [
        ["path", *base, "--out", os.path.join(out, "path")],
        ["fit", *base, "--s-ratio", TALL_S_RATIO, "--refit", "--out", os.path.join(out, "fit")],
    ]


def run_cli(argv: Sequence[str], env: Dict[str, str], launcher: Optional[Sequence[str]] = None) -> None:
    """Run one catfuse command in a fresh interpreter, as the console script
    does; ``launcher`` replaces the plain entry point (the traced run)."""
    head = list(launcher) if launcher else [sys.executable, "-c", CLI_ENTRY]
    proc = subprocess.run(head + list(argv), env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"catfuse {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")


def read_outputs(out: str) -> Dict[str, bytes]:
    files = {}
    for name in TALL_OUTPUTS:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


# ---------------------------------------------------------------------------
# S2 study replicate (s2-study)
# ---------------------------------------------------------------------------

def s2_study_op(replicate_seed: int) -> simlab.SimReport:
    return simlab.run_study(
        "S2", list(S2_VARIANTS), replicates=1, seed=replicate_seed,
        k_folds=S2_K_FOLDS, grid_size=S2_GRID,
    )
