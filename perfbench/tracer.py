"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``amplab`` layer, and the
dense linear algebra they call, for the length of one traced run. Each
wrapper is a span: it counts the call, times it, and charges its duration
minus that of the spans it encloses to its own name as self time. Nothing is
traced inside ``src/``; the wrappers replace module and class attributes and
are all put back when the run ends.

A name is patched where callers look it up. ``harness`` does
``from .amp import run_sensing_amp``, so the function object is replaced in
every loaded ``amplab`` module that holds it, not only in its home module.
Library internals are left alone: ``numpy.linalg.cond`` calls its own SVD
without passing through ``numpy.linalg.svd``, so that SVD is not counted.

Spans sit on one stack, so a traced run must stay on one thread; the
workloads run the harness serially.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Tuple

# (module, attribute) pairs of the functions each layer exposes.
LINALG = [("numpy.linalg", f) for f in
          ("solve", "cond", "svd", "cholesky", "eigh", "eigvalsh", "qr")] + \
         [("scipy.linalg", f) for f in ("solve", "cho_factor", "cho_solve")]
FUNCTIONS = LINALG + [
    ("amplab.ensembles", f) for f in
    ("sample_ginibre", "sample_wigner", "sample_haar_orthogonal", "sample_signal")
] + [
    ("amplab.amp", f) for f in ("run_sensing_amp", "run_symmetric_amp", "run_asymmetric_amp")
] + [
    ("amplab.state_evolution", f) for f in ("se_symmetric", "se_asymmetric", "se_scalar_sensing")
] + [
    ("amplab.tensor_net", f) for f in
    ("eval_value_bruteforce", "eval_value_contraction", "wick_expectation",
     "wick_expectation_mc", "bcp_ratio", "alt_cycle_component_bound_check")
] + [
    ("amplab.harness", f) for f in ("run_experiment", "tensor_checks")
]
# (module, class, method) triples, patched on the class.
METHODS = [("amplab.denoisers", "Denoiser", m) for m in ("apply", "divergence", "divergence_mc")]


def span_name(module: str, attr: str) -> str:
    """``amplab.amp`` + ``run_sensing_amp`` -> ``amp.run_sensing_amp``;
    library names keep their full module path."""
    if module.startswith("amplab."):
        module = module[len("amplab."):]
    return f"{module}.{attr}"


SPAN_NAMES: List[str] = [span_name(m, a) for m, a in FUNCTIONS] + \
                        [span_name(m, a) for m, _, a in METHODS]


@dataclass
class SpanStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0


class Tracer:
    """Counts, self times and failures per span name for one traced run."""

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {name: SpanStats() for name in SPAN_NAMES}
        self.wall_s = 0.0
        self._stack: List[List[float]] = []  # per open span: time of its children
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.failed += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt

        return span

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Replace every traced name with its span wrapper."""
        holders = [mod for key, mod in list(sys.modules.items())
                   if key == "amplab" or key.startswith("amplab.")]
        for module_name, attr in FUNCTIONS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = self._wrap(span_name(module_name, attr), original)
            self._set(home, attr, wrapper)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, attr, self._wrap(span_name(module_name, attr), vars(cls)[attr]))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def tracing(self):
        """Install the spans, time the enclosed block as the traced wall time,
        and restore the originals however the block ends."""
        self.install()
        try:
            t0 = time.perf_counter()
            try:
                yield self
            finally:
                self.wall_s = time.perf_counter() - t0
        finally:
            self.restore()

    @property
    def unattributed_s(self) -> float:
        """Traced wall time that no span covers: benchmark glue between calls
        into the program, plus the tracer's own bookkeeping at top level."""
        return self.wall_s - sum(s.self_s for s in self.stats.values())

    def metrics(self, log_counts: Dict[str, int]) -> Dict[str, float]:
        """The per-layer figures of this run, keyed by metric name. Self time
        is given as a share of the traced wall time: shares from one run
        cancel the machine's speed at the time, and a layer the workload never
        reaches reads 0, not a time."""
        out: Dict[str, float] = {}
        for name, s in self.stats.items():
            out[f"{name}.self_frac"] = s.self_s / self.wall_s
            out[f"{name}.calls"] = s.calls
        out["numpy.linalg.cholesky.failed"] = self.stats["numpy.linalg.cholesky"].failed
        analytic = self.stats["denoisers.divergence"].calls
        probed = self.stats["denoisers.divergence_mc"].calls
        out["denoisers.analytic_div_frac"] = analytic / (analytic + probed) if analytic + probed else 0.0
        out["state_evolution.log_records"] = log_counts.get("amplab.state_evolution", 0)
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.unattributed_s
        return out


class LogCounter(logging.Handler):
    """Counts records per logger name instead of printing them."""

    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


@contextmanager
def counting_logs():
    """Route everything the ``amplab`` loggers emit into a :class:`LogCounter`
    for the enclosed block, so repeated warnings add no terminal output to
    the timed run."""
    logger = logging.getLogger("amplab")
    counter = LogCounter()
    propagate = logger.propagate
    logger.addHandler(counter)
    logger.propagate = False
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
        logger.propagate = propagate
