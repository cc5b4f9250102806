"""Spans recorded from outside lqnash, around the calls into each layer.

The tracer replaces public functions in the module namespaces their callers
resolve them from (`lqnash.solver.build_g` is what `solve` calls), so the
real `solve`, `run_sweep` and `cmd_verify` run unmodified.  Spans are kept in
memory as (layer, start_ns, end_ns, op, parent) and turned into per-layer
self times after the run.  A target that a later version of lqnash no longer
has is reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, layer).  Several targets may feed one layer.
TARGETS = (
    ("lqnash.solver", "normalize", "game.normalize"),
    ("lqnash.solver", "exact_game", "game.normalize"),
    ("lqnash.solver", "build_g", "solver.build_g"),
    ("lqnash.solver", "classify_discriminant", "solver.discriminant"),
    ("lqnash.solver", "sturm_count", "exactalg.sturm_count"),
    ("lqnash.solver", "isolate_roots_in_interval", "exactalg.isolate"),
    ("lqnash.solver", "refine_root", "exactalg.refine"),
    ("lqnash.solver", "recover_k1", "solver.recover_verify"),
    ("lqnash.solver", "residuals", "solver.recover_verify"),
    ("lqnash.solver", "cost", "solver.recover_verify"),
    ("lqnash.solver", "denormalize_equilibrium", "solver.recover_verify"),
    ("lqnash.sweep", "solve", "solver.solve"),
    ("lqnash.sweep", "run_sweep", "sweep.run"),
    ("lqnash.sweep", "rows_to_csv", "sweep.emit"),
    ("lqnash.sweep", "render_svg", "sweep.emit"),
    ("lqnash.sweep", "rows_to_json_doc", "sweep.emit"),
    ("lqnash.sweep", "write_atomic", "sweep.emit"),
    ("lqnash.cli", "canonical_dumps", "sweep.emit"),
    ("lqnash.cli", "solve", "solver.solve"),
    ("lqnash.cli", "normalize", "game.normalize"),
    ("lqnash.cli", "build_g", "solver.build_g"),
    ("lqnash.cli", "grid_scan", "oracle.grid_scan"),
    ("lqnash.cli", "br_iteration", "oracle.br_iteration"),
    ("lqnash.cli", "resultant_elimination", "oracle.resultant_elimination"),
    ("lqnash.cli", "isolate_real_roots", "oracle.resultant_elimination"),
    ("lqnash.cli", "refine_root", "oracle.resultant_elimination"),
    ("lqnash.cli", "simulate_cost", "oracle.simulate_cost"),
    ("lqnash.cli", "cost", "oracle.simulate_cost"),
    ("lqnash.cli", "stationarity_system", "groebner.buchberger"),
    ("lqnash.cli", "buchberger", "groebner.buchberger"),
    ("lqnash.cli", "elimination_polynomial", "groebner.buchberger"),
)

# Calls whose arguments and result are kept for the exact counters.  They are
# kept after the span has ended, so they are not timed, and only for the first
# `capture_ops` operations, the prefix every run of a seed covers.
CAPTURE = frozenset({
    ("lqnash.solver", "build_g"),
    ("lqnash.solver", "isolate_roots_in_interval"),
    ("lqnash.solver", "refine_root"),
    ("lqnash.cli", "br_iteration"),
    ("lqnash.cli", "buchberger"),
})


class Tracer:
    """In-memory span store; `install` wraps the targets, `remove` restores them."""

    def __init__(self, targets=TARGETS, capture_ops: int = 0):
        self.targets = targets
        self.capture_ops = capture_ops
        self.spans: list = []
        self.captured: dict[tuple[str, str], list] = defaultdict(list)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        self.absent = []
        for module_name, attr, layer in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            key = (module_name, attr)
            setattr(module, attr, self._wrap(fn, layer, key if key in CAPTURE else None))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def wrap(self, layer: str, fn):
        """`fn` recording a span per call, for calls the benchmark itself makes."""
        return self._wrap(fn, layer, None)

    def _wrap(self, fn, layer, capture_key):
        spans, stack = self.spans, self._stack
        captured = self.captured[capture_key] if capture_key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (layer, start, end, self.op, parent)
            if captured is not None and self.op < self.capture_ops:
                captured.append((args, result))
            return result

        return traced


def layer_times(spans, speed: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Total inclusive and self nanoseconds per layer, each span scaled by the
    machine speed of its operation's block.

    A span's self time is its duration minus that of its direct children;
    children of one span run one after another, so their durations do not
    overlap.
    """
    child_ns = defaultdict(int)
    for layer, start, end, op, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    inclusive, self_ns = defaultdict(float), defaultdict(float)
    for idx, (layer, start, end, op, parent) in enumerate(spans):
        inclusive[layer] += (end - start) * speed[op]
        self_ns[layer] += (end - start - child_ns[idx]) * speed[op]
    return inclusive, self_ns
