"""Correctness checks applied to every operation's output.

Each checker returns a list of error strings; an empty list means the output
is correct. A failed check counts the operation as failed.

Tolerances:

* ``PRECISION_SLACK`` is the slack ``PrecisionReport.satisfied`` allows on
  delta <= bound, so a path.csv row passes exactly when the solver reported
  its point as satisfied.
* ``BETA_ATOL`` = 1e-8 is the coefficient tolerance of acceptance criteria 3
  and 4 (OLS recovery at lambda = 0, ordinal reduction). wide-path betas are
  compared with the recorded reference at this absolute tolerance; the
  response is in rent per m2, so coefficients are of order 1. tall-cli
  betas (path.csv rows and the fitted coefficients) are compared the same
  way, and their df exactly.
* ``S2_FLOAT_RTOL`` = 1e-8 (relative, with ``S2_FLOAT_ATOL`` = 1e-12 for
  values at 0) for the float metrics of a study replicate; ``df`` and
  ``chosen_s_ratio`` must match the reference exactly.
"""
from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PRECISION_SLACK = 1e-12
BETA_ATOL = 1e-8
S2_FLOAT_RTOL = 1e-8
S2_FLOAT_ATOL = 1e-12
S2_EXACT = ("df", "chosen_s_ratio")
S2_FLOATS = ("coef_mse", "msep", "selection_fpr", "selection_fnr",
             "clustering_fpr", "clustering_fnr")


def beta_rows(path_result, schemas) -> np.ndarray:
    """Non-reference per-level coefficients, one row per path point."""
    return np.array([
        np.concatenate([sol.beta[s.name][1:] for s in schemas]) for sol in path_result.solutions
    ])


def check_wide_path(result, schemas, ols_beta: Dict[str, np.ndarray],
                    ref_betas: np.ndarray) -> List[str]:
    """Precision at every point, OLS at lambda = 0, zero at the top, and
    every point's beta against the recorded reference."""
    errors = []
    sols = result.path.solutions
    bad = [g for g, s in enumerate(sols) if not s.precision.satisfied]
    if bad:
        errors.append(f"precision bound violated at grid points {bad[:5]}")
    if sols[-1].lam != 0.0:
        errors.append(f"last grid point has lambda {sols[-1].lam!r}, expected 0")
    ols_gap = max(float(np.max(np.abs(sols[-1].beta[s.name] - ols_beta[s.name]))) for s in schemas)
    if not ols_gap <= BETA_ATOL:
        errors.append(f"lambda = 0 beta differs from OLS by {ols_gap:.3e}")
    if any(np.any(sols[0].beta[s.name] != 0.0) for s in schemas):
        errors.append("top of the path is not all zero")
    got = beta_rows(result.path, schemas)
    if got.shape != ref_betas.shape:
        errors.append(f"path betas have shape {got.shape}, reference {ref_betas.shape}")
    else:
        gap = float(np.max(np.abs(got - ref_betas)))
        if not gap <= BETA_ATOL:
            errors.append(f"path betas differ from the reference by {gap:.3e}")
    if not (np.isfinite(result.refit.rss) and all(np.all(np.isfinite(b)) for b in result.refit.beta.values())):
        errors.append("refit produced non-finite values")
    return errors


def _path_table(files: Dict[str, bytes]) -> Tuple[List[str], List[List[str]]]:
    """path.csv as its header and the cells of each row."""
    lines = [ln for ln in files["path/path.csv"].decode("utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def tall_numbers(files: Dict[str, bytes]) -> Dict[str, np.ndarray]:
    """The numbers of a tall-cli output checked against the reference: the
    per-level betas and df of every path.csv row, and the fitted intercept,
    coefficients and df of coefficients.json."""
    header, rows = _path_table(files)
    lo, hi = header.index("lambda") + 1, header.index("df")
    coef = json.loads(files["fit/coefficients.json"])
    return {
        "path_beta": np.array([[float(c) for c in cells[lo:hi]] for cells in rows]),
        "path_df": np.array([int(cells[hi]) for cells in rows]),
        "fit_beta": np.array([coef["intercept"],
                              *(v for vals in coef["coefficients"].values() for v in vals)]),
        "fit_df": np.array([coef["df"]]),
    }


def check_tall_cli(files: Dict[str, bytes], baseline: Optional[Dict[str, bytes]],
                   reference: Dict[str, np.ndarray]) -> List[str]:
    """Outputs byte-identical to the first run on the same input, every
    path.csv row within its precision bound, betas within BETA_ATOL of the
    recorded reference and every df exactly as recorded."""
    errors = []
    if baseline is not None:
        for name, data in files.items():
            if data != baseline.get(name):
                errors.append(f"{name} differs from the first run on the same input")
    try:
        header, rows = _path_table(files)
        i_delta, i_bound = header.index("delta"), header.index("bound")
        for row_no, cells in enumerate(rows, start=1):
            delta, bound = float(cells[i_delta]), float(cells[i_bound])
            if not delta <= bound + PRECISION_SLACK:
                errors.append(f"path.csv row {row_no}: delta {delta!r} > bound {bound!r}")
        got = tall_numbers(files)
    except (IndexError, KeyError, ValueError) as e:
        return errors + [f"cannot read the outputs: {type(e).__name__}: {e}"]
    for key, ref in reference.items():
        if got[key].shape != ref.shape:
            errors.append(f"{key} has shape {got[key].shape}, reference {ref.shape}")
        elif key.endswith("_df"):
            if not np.array_equal(got[key], ref):
                errors.append(f"{key} differs from the reference")
        else:
            gap = float(np.max(np.abs(got[key] - ref)))
            if not gap <= BETA_ATOL:
                errors.append(f"{key} differs from the reference by {gap:.3e}")
    return errors


def report_records(report) -> List[dict]:
    """A study report's records as plain dicts, the reference format."""
    return [
        {"variant": r.variant, **{m: getattr(r, m) for m in (*S2_EXACT, *S2_FLOATS)}}
        for r in report.records
    ]


def check_s2_study(records: Sequence[dict], reference: Sequence[dict]) -> List[str]:
    """df and chosen_s_ratio exactly as recorded; float metrics within
    S2_FLOAT_RTOL."""
    errors = []
    if [r["variant"] for r in records] != [r["variant"] for r in reference]:
        return [f"variants {[r['variant'] for r in records]} differ from the reference"]
    for got, ref in zip(records, reference):
        for key in S2_EXACT:
            if got[key] != ref[key]:
                errors.append(f"{got['variant']}: {key} {got[key]!r} != reference {ref[key]!r}")
        for key in S2_FLOATS:
            if not math.isclose(got[key], ref[key], rel_tol=S2_FLOAT_RTOL, abs_tol=S2_FLOAT_ATOL):
                errors.append(f"{got['variant']}: {key} {got[key]!r} != reference {ref[key]!r}")
    return errors
