"""One workload process: set-up, one warm-up operation, then the timed loop.

run.py starts this in a fresh interpreter with BLAS threads pinned and
``src`` on PYTHONPATH, so the interpreter start, the package import, the input
generation and the warm-up all count as set-up. The process prints one JSON
object as its last stdout line: ``ready_ns`` (``time.monotonic_ns`` when the
warm-up was done and checked), the attempted and failed operation counts, the
durations of the timed operations and, with ``--trace 1``, the per-layer
metrics.

The timed loop runs whole cycles over the instance list, so every run
times each of its instances equally often; ``--seconds`` is the least time
it runs. With ``--trace 1`` every instance is run twice in a row, untraced
and then traced: per-layer counts then average over the same operations in
every run, and the untraced twin of each traced operation gives the tracing
overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import checks
import spans
import workloads as W
from catfuse import weights

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
MAX_ERRORS = 5


@dataclass
class LoopStats:
    durations: List[float] = field(default_factory=list)   # seconds per operation
    items: list = field(default_factory=list)              # schedule item of each operation
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    def record(self, item, seconds: float, errors: Sequence[str]) -> None:
        self.attempted += 1
        self.durations.append(seconds)
        self.items.append(item)
        if errors:
            self.failed += 1
            self.errors.extend(errors[: MAX_ERRORS - len(self.errors)])


def run_checked(op: Callable, check: Callable, item, stats: LoopStats) -> None:
    """Time one operation, check its output and record both. An exception
    is a failed operation, like a failed check."""
    t0 = time.monotonic_ns()
    try:
        out = op(item)
    except Exception:   # the loop goes on and reports the failure
        errors = [traceback.format_exc(limit=-1).strip().splitlines()[-1]]
    else:
        errors = None
    t1 = time.monotonic_ns()
    if errors is None:
        errors = check(item, out)
    stats.record(item, (t1 - t0) / 1e9, errors)


def closed_loop(op: Callable, check: Callable, schedule: Sequence, seconds: float) -> LoopStats:
    """Run ``op`` over ``schedule`` one item at a time, in whole cycles,
    until a cycle ends after at least ``seconds`` have passed: every run then
    times every item of its schedule equally often."""
    stats = LoopStats()
    start = time.monotonic_ns()
    while True:
        for item in schedule:
            run_checked(op, check, item, stats)
        if time.monotonic_ns() - start >= seconds * 1e9:
            break
    stats.elapsed_s = (time.monotonic_ns() - start) / 1e9
    return stats


# ---------------------------------------------------------------------------
# the three workloads: set-up, operation, check
# ---------------------------------------------------------------------------

class WidePath:
    def __init__(self, seed: int, workdir: str):
        self.instances = W.instances_for("wide-path", seed)
        self.data = {i: W.rent_dataset(i) for i in self.instances}
        self.ols = {i: weights.ols_coefficients(ds) for i, ds in self.data.items()}
        with np.load(os.path.join(REFERENCE, "wide_path.npz")) as ref:
            self.ref = {i: ref[f"beta_{i}"] for i in self.instances}

    def op(self, inst: int, rec: Optional[spans.Recorder]):
        return W.wide_path_op(self.data[inst])

    def check(self, inst: int, out) -> List[str]:
        return checks.check_wide_path(out, self.data[inst].schemas, self.ols[inst], self.ref[inst])


class TallCli:
    def __init__(self, seed: int, workdir: str):
        self.instances = W.instances_for("tall-cli", seed)
        self.workdir = workdir
        self.data, self.schema = W.write_tall_inputs(self.instances[0], workdir)
        self.out = os.path.join(workdir, "out")
        with np.load(os.path.join(REFERENCE, "tall_cli.npz")) as ref:
            i = self.instances[0]
            self.ref = {k: ref[f"{k}_{i}"] for k in ("path_beta", "path_df", "fit_beta", "fit_df")}
        self.env = dict(os.environ)
        self.baseline: Optional[Dict[str, bytes]] = None

    def op(self, inst: int, rec: Optional[spans.Recorder]):
        for k, argv in enumerate(W.tall_cli_commands(self.data, self.schema, self.out)):
            if rec is None:
                W.run_cli(argv, self.env)
                continue
            span_file = os.path.join(self.workdir, f"spans-{k}.json")
            W.run_cli(argv, self.env, [sys.executable, os.path.join(HERE, "cli_child.py"), span_file])
            with open(span_file, encoding="utf-8") as fh:
                rec.adopt(json.load(fh))
        return self.out

    def check(self, inst: int, out: str) -> List[str]:
        files = W.read_outputs(out)
        errors = checks.check_tall_cli(files, self.baseline, self.ref)
        if self.baseline is None and not errors:
            self.baseline = files
        return errors


class S2Study:
    def __init__(self, seed: int, workdir: str):
        self.instances = W.instances_for("s2-study", seed)
        with open(os.path.join(REFERENCE, "s2_study.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        self.ref = {i: ref[str(i)] for i in self.instances}

    def op(self, inst: int, rec: Optional[spans.Recorder]):
        return W.s2_study_op(inst)

    def check(self, inst: int, out) -> List[str]:
        return checks.check_s2_study(checks.report_records(out), self.ref[inst])


SETUPS = {"wide-path": WidePath, "tall-cli": TallCli, "s2-study": S2Study}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced operations
# ---------------------------------------------------------------------------

SELF_S = ("datamodel.ingest_csv", "datamodel.subset", "coding.build_augmented",
          "weights.ols_coefficients", "weights.standard_weights", "weights.adaptive_weights",
          "solver.path", "structure.extract_clusters", "structure.refit",
          "structure.degrees_of_freedom", "selection.compute_fold_paths",
          "selection.score_folds", "selection.build_weights", "selection.predicted_effects",
          "simlab.run_study", "simlab.generate", "simlab.evaluate", "cli.main")
CALLS = ("datamodel.subset", "coding.build_augmented", "weights.ols_coefficients", "solver.path",
         "structure.extract_clusters", "structure.refit", "selection.predicted_effects")
OP_SPAN = "op"


def layer_metrics(recorders: Sequence[spans.Recorder], traced_s: Sequence[float],
                  untraced_s: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics per traced operation (means over ``recorders``)."""
    n = len(recorders)
    agg: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    delta_max = 0.0
    for rec in recorders:
        for name, a in spans.by_name(rec.spans).items():
            tgt = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in tgt:
                tgt[k] += a[k]
        for k, v in rec.counts.items():
            counts[k] = counts.get(k, 0.0) + v
        delta_max = max(delta_max, rec.maxima.get("solver.delta_max", 0.0))

    def total(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = total(name, "self_s") / n
    for name in CALLS:
        m[f"{name}.calls"] = total(name, "calls") / n
    rows = counts.get("datamodel.ingest_csv.rows", 0.0)
    m["datamodel.ingest_csv.rows_per_s"] = ratio(rows, total("datamodel.ingest_csv", "self_s"))
    m["coding.build_augmented.bytes"] = counts.get("coding.build_augmented.bytes", 0.0) / n
    points = counts.get("solver.path.points", 0.0)
    solves = counts.get("solver.solves", 0.0)
    m["solver.path.points"] = points / n
    m["solver.path.s_per_point"] = ratio(total("solver.path", "total_s"), points)
    m["solver.solves"] = solves / n
    m["solver.sweeps"] = counts.get("solver.sweeps", 0.0) / n
    m["solver.solves_per_point"] = ratio(solves, points)
    m["solver.precision_ok_frac"] = ratio(counts.get("solver.precision_ok", 0.0), points)
    m["solver.delta_max"] = delta_max
    m["solver.design_bytes"] = counts.get("solver.design_bytes", 0.0) / n
    m["structure.refit.distinct_frac"] = ratio(counts.get("structure.refit.distinct", 0.0),
                                               total("structure.refit", "calls"))
    m["cli.bytes_written"] = counts.get("cli.bytes_written", 0.0) / n
    listed = set(SELF_S) | {OP_SPAN}
    m["trace.unlisted_self_s"] = sum(a["self_s"] for k, a in agg.items() if k not in listed) / n
    m["trace.remainder_s"] = total(OP_SPAN, "self_s") / n
    m["trace.op_s.mean"] = total(OP_SPAN, "total_s") / n
    m["trace.op_s.p50"] = statistics.median(traced_s)
    m["trace.untraced_op_s.p50"] = statistics.median(untraced_s)
    m["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", help="file for the recorded spans (with --trace 1)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    wl = SETUPS[args.workload](args.seed, args.workdir)
    recorders: List[spans.Recorder] = []

    def op(item):
        inst, traced = item
        if not traced:
            return wl.op(inst, None)
        rec = spans.Recorder()
        recorders.append(rec)
        with spans.tracing(rec), rec.span(OP_SPAN):
            return wl.op(inst, rec)

    def check(item, out):
        return wl.check(item[0], out)

    warm = LoopStats()
    run_checked(op, check, (wl.instances[0], False), warm)
    result = {"ready_ns": time.monotonic_ns(), "env": environment()}
    stats = LoopStats()
    if not args.setup_only:
        if args.trace:
            schedule = [(i, t) for i in wl.instances for t in (False, True)]
        else:
            schedule = [(i, False) for i in wl.instances]
        stats = closed_loop(op, check, schedule, args.seconds)
    result.update(
        attempted=warm.attempted + stats.attempted,
        failed=warm.failed + stats.failed,
        errors=warm.errors + stats.errors,
        durations=stats.durations,
        elapsed_s=stats.elapsed_s,
        instances=wl.instances,
    )
    if args.trace and not args.setup_only:
        traced = [d for d, (_, t) in zip(stats.durations, stats.items) if t]
        untraced = [d for d, (_, t) in zip(stats.durations, stats.items) if not t]
        result["layers"] = layer_metrics(recorders, traced, untraced)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([r.to_json() for r in recorders], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
