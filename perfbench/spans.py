"""Span recording around catfuse's public functions, installed from outside.

The package imports names with ``from .x import f``, so one function is
reachable through several module bindings (``catfuse.solver.path`` is also
``catfuse.selection.path``, ``catfuse.simlab.path`` and ``catfuse.cli.path``).
``tracing`` replaces every such binding, in the defining module too (so
``run_study`` calling ``generate`` is seen), with a wrapper that records a
span: name, start, end and parent. ``Dataset.subset`` is wrapped on its class.
Scalar helpers called once per coordinate (``soft_threshold``,
``epanechnikov``) are left alone, since a span per call would swamp what it
measures, and so are the CLI's subcommand functions and ``build_parser``,
whose formatting and file writing is what ``cli.main``'s self time stands
for.

Spans are kept in memory by a ``Recorder``, one per operation, together with
counts taken at the same boundaries (path points, solves, sweeps, bytes of
the arrays ``build_augmented`` returns, distinct refit partitions, CSV rows).
Times come from ``time.monotonic_ns``, one clock for every process on the
machine, so spans recorded in a child interpreter nest under the parent's.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

LAYERS = ("datamodel", "coding", "weights", "solver", "structure", "selection", "simlab", "cli")
SKIPPED = frozenset({"solver.soft_threshold", "weights.epanechnikov", "cli.build_parser",
                     "cli.cmd_fit", "cli.cmd_path", "cli.cmd_cv", "cli.cmd_simulate"})
METHODS = (("datamodel", "Dataset", "subset"),)

# span tuple fields
SPAN_ID, PARENT, NAME, START, END = range(5)


class Recorder:
    """Spans and counts of one operation, kept in memory.

    A finished span is a tuple (id, parent id, name, start ns, end ns);
    tuples of atomic values drop out of the garbage collector's tracking, so
    a long trace does not slow the program's own collections.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}
        self._stack: List[tuple] = []        # open spans: (id, parent, name, start)
        self._next_id = 1
        self._refit_keys: set = set()
        self._refit_data: list = []          # keeps datasets alive so ids stay unique

    def begin(self, name: str) -> None:
        parent = self._stack[-1][SPAN_ID] if self._stack else None
        self._stack.append((self._next_id, parent, name, time.monotonic_ns()))
        self._next_id += 1

    def end(self) -> None:
        self.spans.append(self._stack.pop() + (time.monotonic_ns(),))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def note_refit(self, ds, partition) -> None:
        key = (id(ds), tuple(fp.clusters for fp in partition.factors))
        if key not in self._refit_keys:
            self._refit_keys.add(key)
            self._refit_data.append(ds)
            self.counts["structure.refit.distinct"] += 1

    def adopt(self, doc: dict) -> None:
        """Attach spans and counts recorded in another process under the
        currently open span."""
        offset = self._next_id - 1
        parent = self._stack[-1][SPAN_ID] if self._stack else None
        for sid, par, name, start, end in doc["spans"]:
            self.spans.append((sid + offset, parent if par is None else par + offset,
                               name, start, end))
            self._next_id = max(self._next_id, sid + offset + 1)
        for k, v in doc["counts"].items():
            self.counts[k] += v
        for k, v in doc["maxima"].items():
            self.maximum(k, v)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


# ---------------------------------------------------------------------------
# counts taken when a wrapped call returns
# ---------------------------------------------------------------------------

def _count_path(rec: Recorder, args, kwargs, out) -> None:
    problem = args[0] if args else kwargs["problem"]
    sols = out.solutions
    rec.counts["solver.path.points"] += len(sols)
    rec.counts["solver.solves"] += sum(s.solves for s in sols)
    rec.counts["solver.sweeps"] += sum(s.sweeps for s in sols)
    rec.counts["solver.precision_ok"] += sum(1 for s in sols if s.precision.satisfied)
    rec.maximum("solver.delta_max", max(s.precision.delta for s in sols))
    rows = problem.Z_data.shape[0] + problem.r
    rec.counts["solver.design_bytes"] += 8 * rows * problem.q


def _count_augmented(rec: Recorder, args, kwargs, out) -> None:
    rec.counts["coding.build_augmented.bytes"] += sum(
        a.nbytes for a in (out.Z_data, out.A_scaled, out.A_raw, out.y_centered,
                           out.weight_values, out.column_means))


def _count_refit(rec: Recorder, args, kwargs, out) -> None:
    ds = args[0] if args else kwargs["ds"]
    partition = args[1] if len(args) > 1 else kwargs["partition"]
    rec.note_refit(ds, partition)


def _count_ingest(rec: Recorder, args, kwargs, out) -> None:
    rec.counts["datamodel.ingest_csv.rows"] += out.n


COUNTERS: Dict[str, Callable] = {
    "solver.path": _count_path,
    "coding.build_augmented": _count_augmented,
    "structure.refit": _count_refit,
    "datamodel.ingest_csv": _count_ingest,
}


def _wrap(fn: Callable, name: str, rec: Recorder) -> Callable:
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end()
        if counter is not None:
            counter(rec, args, kwargs, out)
        return out

    return wrapper


def _public_functions(modules: Dict[str, object]) -> Dict[int, Tuple[Callable, str]]:
    found = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__ and name not in SKIPPED):
                found[id(obj)] = (obj, name)
    return found


@contextlib.contextmanager
def tracing(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every binding of each public catfuse function for the duration
    of the block, recording into ``rec``; the original bindings come back on
    exit."""
    modules = {layer: importlib.import_module(f"catfuse.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("catfuse"), *modules.values()]
    targets = _public_functions(modules)
    wrappers = {key: _wrap(fn, name, rec) for key, (fn, name) in targets.items()}
    patched = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        orig = vars(cls)[meth]
        patched.append((cls, meth, orig))
        setattr(cls, meth, _wrap(orig, f"{layer}.{meth}", rec))
    try:
        yield rec
    finally:
        for ns, attr, obj in reversed(patched):
            setattr(ns, attr, obj)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, int]:
    """Per span id: its duration minus the part its child spans cover (ns)."""
    children: Dict[Optional[int], List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {
        s[SPAN_ID]: (s[END] - s[START]) - _covered(children[s[SPAN_ID]], s[START], s[END])
        for s in spans
    }


def by_name(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["self_s"] += own[s[SPAN_ID]] / 1e9
        agg["total_s"] += (s[END] - s[START]) / 1e9
    return dict(out)
