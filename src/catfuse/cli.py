"""Command line front end: fit, path, cv, simulate.

All outputs are self-describing (resolved config, schema_version, package
version embedded) and byte-identical across reruns with the same inputs.
Each command computes its files' text, and only then does `_write` put
them in the output directory, each atomically: temp file in the target
directory, then os.replace. A JSON document is built by `_json_doc` and a
CSV table by `_csv`, both embedding the config. `fit` and `cv` make the
same tuned fit as a study variant (selection.fit_at, CvCurve.from_scores).
Errors print one JSON object to stderr and exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .coding import build_augmented
from .datamodel import Dataset, ingest_csv, load_schema
from .errors import CatfuseError
from .selection import (
    DEFAULT_K_FOLDS,
    CvConfig,
    build_weights,
    fit_at,
    kfold_cv,
)
from .simlab import SimReport, run_study
from .solver import DEFAULT_GRID_SIZE, PathResult, path
from .structure import degrees_of_freedom, extract_clusters_path

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _write(out_dir: str, files: Dict[str, str]) -> None:
    """Write each named text into out_dir (made if missing), atomically."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        tmp = os.path.join(out_dir, name + ".tmp")
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, name))


def _json_doc(cfg: Dict, fields: Dict) -> str:
    """A JSON document of fields plus schema_version, version and config."""
    doc = dict(fields, schema_version=SCHEMA_VERSION, version=__version__, config=cfg)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(cfg: Dict, header: List[str], rows: List[List[str]]) -> str:
    """A "# config:" line, the header and the rows, comma separated."""
    lines = [f"# config: {json.dumps(cfg, sort_keys=True)}", ",".join(header)]
    return "\n".join(lines + [",".join(cells) for cells in rows]) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def _config_dict(args: argparse.Namespace) -> Dict:
    """The command's parsed arguments, without the output directory."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    cfg.update(schema_version=SCHEMA_VERSION, version=__version__)
    return cfg


def _resolve_s_ratio(raw: str) -> float:
    """A number in [0, 1], or a path to a cv chosen.json file holding one."""
    try:
        s = float(raw)
    except ValueError:
        with open(raw, encoding="utf-8") as fh:
            doc = json.load(fh)
        s = doc.get("chosen_s_ratio") if isinstance(doc, dict) else None
        if type(s) not in (int, float):
            raise ValueError(f"--s-ratio {raw}: no numeric chosen_s_ratio in the file")
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"--s-ratio {raw}: s/s_max must be in [0, 1], got {s!r}")
    return s


def _load_dataset(args: argparse.Namespace) -> Dataset:
    schemas = load_schema(args.schema)
    return ingest_csv(args.data, schemas, response_column=args.response)


def _full_path(ds: Dataset, args: argparse.Namespace) -> PathResult:
    ws = build_weights(ds, args.adaptive, args.frequency, args.spatial_h)
    return path(build_augmented(ds, ws), args.grid)


# ---------------------------------------------------------------------------
# commands: each returns its output files' names and texts
# ---------------------------------------------------------------------------

def cmd_fit(args: argparse.Namespace) -> Dict[str, str]:
    cfg = _config_dict(args)
    ds = _load_dataset(args)
    s_req = _resolve_s_ratio(args.s_ratio)
    pr = _full_path(ds, args)
    sol, beta, part, intercept = fit_at(pr, ds, s_req, args.refit)
    df = degrees_of_freedom(part)

    lines = [
        f"catfuse fit v{__version__}",
        "config: " + json.dumps(cfg, sort_keys=True),
        f"n={ds.n} factors={len(ds.schemas)} q={pr.solutions[0].theta.size}",
        f"lambda_max={_fmt(pr.lambda_max)}",
        f"s_ratio requested={_fmt(s_req)} used={_fmt(sol.s_ratio)} lambda={_fmt(sol.lam)}",
        f"delta={_fmt(sol.precision.delta)} bound={_fmt(sol.precision.bound)} "
        f"satisfied={sol.precision.satisfied}",
        f"df={df}",
    ]
    lines += [f"{fp.name}: clusters={[list(c) for c in fp.clusters]} "
              f"coefficients={[float(c) for c in fp.coefficients]}" for fp in part.factors]
    return {
        "coefficients.json": _json_doc(cfg, {
            "intercept": float(intercept),
            "coefficients": {s.name: [float(v) for v in beta[s.name]] for s in ds.schemas},
            "levels": {s.name: list(s.levels) for s in ds.schemas},
            "s_ratio_requested": s_req,
            "s_ratio_used": float(sol.s_ratio),
            "lambda": float(sol.lam),
            "df": df,
            "delta": float(sol.precision.delta),
            "bound": float(sol.precision.bound),
        }),
        "partition.json": _json_doc(cfg, {"df": df, "partition": part.to_json()}),
        "fit.log": "\n".join(lines) + "\n",
    }


def cmd_path(args: argparse.Namespace) -> Dict[str, str]:
    cfg = _config_dict(args)
    ds = _load_dataset(args)
    pr = _full_path(ds, args)

    cols = [f"{sch.name}:{lvl}" for sch in ds.schemas for lvl in sch.levels[1:]]
    header = ["s_ratio", "lambda"] + cols + ["df", "delta", "bound"]
    parts = extract_clusters_path([sol.beta for sol in pr.solutions], ds.schemas)
    # rows run from the unpenalized end (s_ratio 1, the OLS fit) down to 0
    rows = [[_fmt(sol.s_ratio), _fmt(sol.lam)]
            + [_fmt(v) for sch in ds.schemas for v in sol.beta[sch.name][1:]]
            + [str(degrees_of_freedom(part)), _fmt(sol.precision.delta), _fmt(sol.precision.bound)]
            for sol, part in zip(reversed(pr.solutions), reversed(parts))]
    return {"path.csv": _csv(cfg, header, rows)}


def cmd_cv(args: argparse.Namespace) -> Dict[str, str]:
    cfg = _config_dict(args)
    ds = _load_dataset(args)
    curve = kfold_cv(ds, CvConfig(
        k_folds=args.k_folds, grid_size=args.grid, seed=args.seed, adaptive=args.adaptive,
        use_frequency=args.frequency, refit_inside=args.refit, spatial_h=args.spatial_h))
    header = ["s_ratio", "mean_score"] + [f"fold_{k + 1}" for k in range(args.k_folds)]
    rows = [[_fmt(s), _fmt(curve.mean_score[g])] + [_fmt(v) for v in curve.fold_scores[g]]
            for g, s in enumerate(curve.s_grid)]
    return {
        "cv.csv": _csv(cfg, header, rows),
        "chosen.json": _json_doc(cfg, {
            "chosen_s_ratio": float(curve.chosen_s_ratio),
            "mean_score_at_chosen": float(np.min(curve.mean_score)),
            "k_folds": args.k_folds,
            "seed": args.seed,
        }),
    }


def cmd_simulate(args: argparse.Namespace) -> Dict[str, str]:
    cfg = _config_dict(args)
    report = run_study(args.scenario, args.variants, replicates=args.replicates,
                       seed=args.seed, k_folds=args.k_folds, grid_size=args.grid)
    rows = [[str(rec.replicate), rec.variant]
            + [str(v) if isinstance(v, int) else _fmt(v)
               for v in (getattr(rec, m) for m in SimReport.METRICS)]
            for rec in report.records]
    return {
        "simreport.csv": _csv(cfg, ["replicate", "variant"] + list(SimReport.METRICS), rows),
        "summary.json": _json_doc(cfg, {
            "scenario": report.scenario,
            "replicates": args.replicates,
            "summary": report.summary(),
        }),
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV with response and factor columns")
    p.add_argument("--schema", required=True, help="JSON factor schema file")
    p.add_argument("--response", default="y", help="response column name (default y)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--adaptive", action="store_true",
                   help="scale weights by inverse OLS differences")
    p.add_argument("--frequency", action="store_true",
                   help="include class-frequency terms in the weights")
    p.add_argument("--spatial-h", type=float, default=None, dest="spatial_h",
                   help="kernel bandwidth for factors with spatial coordinates")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE,
                   help=f"grid points (default {DEFAULT_GRID_SIZE})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="catfuse",
        description="Fusion and selection for categorical predictors "
                    "by difference-penalized least squares.",
    )
    ap.add_argument("--version", action="version", version=f"catfuse {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="single fit at a given s/s_max")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--s-ratio", required=True, dest="s_ratio",
                   help="target s/s_max in [0,1], or path to a cv chosen.json")
    p.add_argument("--refit", action="store_true",
                   help="refit cluster means by OLS after structure discovery")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("path", help="export the whole coefficient path as CSV")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("cv", help="K-fold cross-validation over the s/s_max grid")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--k-folds", type=int, default=DEFAULT_K_FOLDS, dest="k_folds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--refit", action="store_true",
                   help="score refitted cluster means instead of penalized fits")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("simulate", help="run a simulation study")
    p.add_argument("--scenario", required=True, help="S1, S2 or S3")
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--variants", nargs="+",
                   default=["ols", "stdrd", "stdrd+rf", "adapt", "adapt+rf"],
                   help="estimator labels: ols, stdrd, adapt, with +rf / -nf suffixes")
    p.add_argument("--k-folds", type=int, default=DEFAULT_K_FOLDS, dest="k_folds")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write(args.out, args.func(args))
        return 0
    except CatfuseError as e:
        print(json.dumps(e.as_dict(), sort_keys=True), file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)},
                         sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
