"""Traced stand-in for the ``catfuse`` console script.

    python3 perfbench/cli_child.py SPANS.json <catfuse arguments>

Installs the span wrappers in this interpreter, runs ``catfuse.cli.main``
with the given arguments, counts the bytes of the files it wrote into
``--out``, and writes the spans and counts to SPANS.json. The exit code is
that of ``main``.
"""
from __future__ import annotations

import os
import sys

import spans
from catfuse import cli


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    out = argv[argv.index("--out") + 1]
    rec = spans.Recorder()
    with spans.tracing(rec):
        code = cli.main(argv)
    rec.counts["cli.bytes_written"] += sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
    )
    rec.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
