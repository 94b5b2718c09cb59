"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Writes ``reference/wide_path.npz`` (per bank instance, the non-reference
per-level betas at every grid point), ``reference/tall_cli.npz`` (per bank
instance, the numbers ``checks.tall_numbers`` reads from the ``catfuse path``
and ``catfuse fit`` outputs) and ``reference/s2_study.json`` (per bank
replicate seed, every variant's record). Run it only at a commit whose
outputs are trusted; the checks then hold later commits to these values.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

import checks
import workloads as W
from catfuse import cli

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    out = os.path.join(HERE, "reference")
    os.makedirs(out, exist_ok=True)
    betas = {}
    for i in range(W.WIDE_BANK):
        ds = W.rent_dataset(i)
        betas[f"beta_{i}"] = checks.beta_rows(W.wide_path_op(ds).path, ds.schemas)
    np.savez_compressed(os.path.join(out, "wide_path.npz"), **betas)
    tall = {}
    for i in range(W.TALL_BANK):
        with tempfile.TemporaryDirectory() as tmp:
            data, schema = W.write_tall_inputs(i, tmp)
            for argv in W.tall_cli_commands(data, schema, os.path.join(tmp, "out")):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"catfuse {argv[0]} failed on tall-cli instance {i}")
            for key, value in checks.tall_numbers(W.read_outputs(os.path.join(tmp, "out"))).items():
                tall[f"{key}_{i}"] = value
    np.savez_compressed(os.path.join(out, "tall_cli.npz"), **tall)
    records = {str(i): checks.report_records(W.s2_study_op(i)) for i in range(W.S2_BANK)}
    with open(os.path.join(out, "s2_study.json"), "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
