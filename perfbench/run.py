"""catfuse benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {wide-path,tall-cli,s2-study} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout (or anywhere: paths are resolved from this
file). Workloads are described in ``workloads.py``. Each is a closed loop in
one worker process with BLAS pinned to one thread; a run cycles through
instances derived from ``--seed`` and checks every operation's output
(``checks.py``).

``--trace 0`` starts SETUP_REPEATS workers one after another. Each one
imports catfuse, generates its inputs and runs one checked warm-up operation;
the time from starting it to that point is one set-up sample. The last worker
then runs the timed loop in whole cycles over its instances, for at least
``--seconds``. Printed metrics (units as BENCHMARK.json declares them):

    setup_s       median set-up time over the workers
    op_s.p50      median seconds per timed operation
    ops_per_s     operations completed per second of the loop
    peak_rss_mb   peak resident memory of any process that ran
                  the workload (workers and catfuse commands)
    success_frac  1 - failed/attempted over every operation,
                  warm-ups included

``--trace 1`` starts one worker that runs each instance untraced and then
traced (``spans.py``) and prints the per-layer metrics, per traced
operation; the spans are written to ``.perfbench/`` at the checkout root.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment block. Without the catfuse sources next to this directory the
script exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Same names as workloads.WORKLOADS; not imported from there because that
# module needs numpy and catfuse, and this script must fail cleanly without them.
WORKLOADS = ("wide-path", "tall-cli", "s2-study")
SETUP_REPEATS = 3
SETUP_ALLOWANCE_S = 30.0   # per worker, on top of twice --seconds for the timed loop
BLAS_THREADS = "1"



def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def source_facts() -> dict:
    files = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc}


def run_worker(args, workdir: str, deadline: float, setup_only: bool, spans_out: str = None) -> tuple:
    """Start one worker; return (set-up seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    t0 = time.monotonic_ns()
    # Own session, so that a timeout also stops the catfuse commands it runs.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:   # ended in the meantime
                pass
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    return (result["ready_ns"] - t0) / 1e9, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="catfuse benchmark (see module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "catfuse", "__init__.py")):
        print(f"error: no catfuse sources under {SRC}; run from a catfuse checkout",
              file=sys.stderr)
        return 2

    units = metric_units()
    n_workers = 1 if args.trace else SETUP_REPEATS
    # The loop runs whole cycles, so it may overshoot --seconds by one cycle.
    deadline = time.monotonic() + n_workers * SETUP_ALLOWANCE_S + 2 * args.seconds
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    spans_out = (os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
                 if args.trace else None)
    setups, results = [], []
    try:
        for k in range(n_workers):
            last = k == n_workers - 1
            setup_s, res = run_worker(args, os.path.join(workdir, str(k)), deadline,
                                      setup_only=not last, spans_out=spans_out if last else None)
            setups.append(setup_s)
            results.append(res)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss   # before any other child
    final = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    durations = final["durations"]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **final["env"], **source_facts(),
        "instances": final["instances"],
    }
    if args.trace:
        values = final["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(durations),
            "ops_per_s": len(durations) / final["elapsed_s"],
            "peak_rss_mb": peak_kb / 1024.0,
            "success_frac": (attempted - failed) / attempted,
        }
        print(f"setup samples (s): {[round(s, 4) for s in setups]}")
        print(f"op_s.p50 over {len(durations)} operations; op durations (s): "
              f"{[round(d, 4) for d in durations]}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for e in (err for r in results for err in r["errors"]):
        print(f"failure: {e}")
    print(f"fail_frac = {failed}/{attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
