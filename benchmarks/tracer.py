"""Outside-in tracer: times modval's layers by rebinding their public functions.

Every public function defined in a layer module is replaced, in every
``modval`` namespace that holds it, by a wrapper that records a span
(function, start, end, parent) in memory. The program itself is not edited,
and ``installed()`` always puts the original functions back, so no wrapper
leaks into untraced ops.

A span's self time is its duration minus the durations of its direct
children. The self times of one op therefore add up exactly to the duration
of its root span, ``modval.cli.main``; ``fold`` checks that and folds the
op's spans into per-layer totals before the next op starts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("hilbert", "protocol", "reconstruction", "noise", "tomography", "cli")
ROOT_FUNCTION = "cli.main"


def modval_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "modval" or name.startswith("modval."))]


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Span recorder for the layers in ``LAYERS``; modval must be imported."""

    def __init__(self):
        self.names: list[str] = []  # span name by function index
        self.layer_of: list[str] = []
        self.spans: list = []  # (function index, start ns, end ns, parent, exception, bytes)
        self._stack: list[int] = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"modval.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        # (namespace, attribute, original, wrapper) for every binding of a wrapped function
        self._bindings = [
            (module, attr, value, wrappers[id(value)][1])
            for module in modval_modules()
            for attr, value in vars(module).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]
        self.totals = Counter()  # per-layer self ns and calls, per-name calls and ns
        self.ops = 0

    def _wrap(self, fn, name: str, layer: str):
        index = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_bytes = layer == "hilbert"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            exc_name = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, exc_name, 0)
            if counts_bytes:
                mat = getattr(result, "mat", None)
                if isinstance(mat, np.ndarray):
                    spans[slot] = (index, start, end, parent, None, mat.nbytes)
            return result

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def installed(self):
        """Rebind every wrapped name for the duration of the block."""
        try:
            for module, attr, _, wrapper in self._bindings:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)

    def fold(self, op_wall_ns: int) -> str | None:
        """Fold the current op's spans into the totals and clear them.

        Returns a reason when the spans do not account for the op: a span
        left open, not exactly one ``cli.main`` root, self times that do not
        add up to the root span, or a root span longer than the op timer.
        """
        spans = self.spans
        try:
            if any(span is None for span in spans) or self._stack:
                return "span left open"
            roots = [span for span in spans if span[3] == -1]
            if len(roots) != 1 or self.names[roots[0][0]] != ROOT_FUNCTION:
                return f"expected one {ROOT_FUNCTION} root span, got {len(roots)}"
            child_ns = [0] * len(spans)
            for index, start, end, parent, _, _ in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            totals = self.totals
            self_sum = 0
            for slot, (index, start, end, parent, exc_name, nbytes) in enumerate(spans):
                name, layer = self.names[index], self.layer_of[index]
                self_ns = end - start - child_ns[slot]
                self_sum += self_ns
                totals[f"{layer}.self_ns"] += self_ns
                totals[f"{layer}.calls"] += 1
                totals[f"{name}.calls"] += 1
                totals[f"{name}.ns"] += end - start
                totals["hilbert.bytes"] += nbytes
                if exc_name:
                    totals[f"{name}.raised.{exc_name}"] += 1
            root_ns = roots[0][2] - roots[0][1]
            if self_sum != root_ns:
                return f"self times sum to {self_sum} ns, root span is {root_ns} ns"
            glue_ns = op_wall_ns - root_ns
            if glue_ns < 0:
                return f"root span {root_ns} ns exceeds the op timer {op_wall_ns} ns"
            totals["glue_ns"] += glue_ns
            totals["op_wall_ns"] += op_wall_ns
            self.ops += 1
            return None
        finally:
            spans.clear()

    def count(self, name: str) -> int:
        return self.totals[f"{name}.calls"]


def layer_metrics(tracer: Tracer, result: dict) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    ``result`` carries the run's ``bytes_written`` and the summed wall times
    of its traced and untraced ops (``traced_ns``, ``untraced_ns``).
    """
    ops = tracer.ops
    totals = tracer.totals
    count = tracer.count
    metrics = {}
    total_self = sum(totals[f"{layer}.self_ns"] for layer in LAYERS)
    for layer in LAYERS:
        self_ns = totals[f"{layer}.self_ns"]
        metrics[f"{layer}.self_ms_per_op"] = (self_ns / ops / 1e6, "ms")
        metrics[f"{layer}.calls_per_op"] = (totals[f"{layer}.calls"] / ops, "count")
        metrics[f"{layer}.share"] = (self_ns / total_self, "ratio")
    trials = count("noise.trial_rng")
    rejected = totals["reconstruction.reconstruct.raised.NegativeDiscriminant"]
    metrics.update({
        "hilbert.operator_bytes_per_op": (totals["hilbert.bytes"] / ops, "bytes"),
        "protocol.settings_per_op": (count("protocol.run_protocol") / ops, "count"),
        "reconstruction.inversions_per_op": (
            (count("reconstruction.modular_exact_inversion")
             + count("reconstruction.modular_first_order")) / ops, "count"),
        "reconstruction.definitional_ms_per_op": (
            totals["reconstruction.modular_definitional.ns"] / ops / 1e6, "ms"),
        "noise.trials_per_op": (trials / ops, "count"),
        "noise.trials_kept_frac": ((trials - rejected) / trials if trials else 0.0, "ratio"),
        "noise.binomial_draws_per_op": (count("noise.sample_counts") / ops, "count"),
        "tomography.linear_inversions_per_op": (
            count("tomography.linear_inversion") / ops, "count"),
        "cli.bytes_written_per_op": (result["bytes_written"] / ops, "bytes"),
        "trace.overhead_frac": (result["traced_ns"] / result["untraced_ns"] - 1.0, "ratio"),
    })
    return metrics
