"""Call tracing from outside the program: wrap qsd's public functions by identity.

``closed_form`` and ``cli`` bind names with ``from .x import y``, so patching
only the defining module would miss those callers. The tracer therefore
replaces every reference to each traced function object in every loaded
``qsd`` module namespace, and puts the originals back on ``uninstall``.

Spans stay in memory with a parent link; a span's self time is its duration
minus the durations of its child spans. Wrappers return results and re-raise
exceptions unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = (
    "bloch.validate_ensemble",
    "closed_form.solve_auto",
    "closed_form.solve_two_state",
    "closed_form.solve_three_state",
    "closed_form.solve_diagonal",
    "closed_form.solve_symmetric_shell",
    "family.assemble_result",
    "family.guess_result",
    "kkt.kkt_residuals",
    "oracle.solve_oracle",
    "oracle.minimax_common_point",
    "oracle.recover_povm",
    "weights.subset_support_weights",
    "weights.min_norm_nonneg_weights",
    "cli.parse_ensemble_file",
    "cli.build_report",
    "cli.main",
)

# Spans whose return value the per-op summary needs.
_KEEP_RESULT = frozenset(
    {"closed_form.solve_auto", "family.assemble_result", "oracle.minimax_common_point"}
)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "raised", "result")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = start
        self.raised = False
        self.result = None


class Tracer:
    """Collects spans for the calls made between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._op_first = 0
        self._stack: list = []
        self._patched: list = []
        self._accepted = 0
        self._iterations = 0
        self._converged = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep:
                span.result = result
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "qsd" or k.startswith("qsd.")]
        for name in TRACED:
            module, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module("qsd." + module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def end_op(self) -> None:
        """Close the current op: summarize its spans, then drop their results.

        An assemble_result call is useful when its result is what the op's
        outermost solve_auto returned.
        """
        op_spans = self.spans[self._op_first:]
        self._op_first = len(self.spans)
        final = next((s.result for s in op_spans if s.name == "closed_form.solve_auto"), None)
        for s in op_spans:
            if s.name == "family.assemble_result" and final is not None and s.result is final:
                self._accepted += 1
            elif s.name == "oracle.minimax_common_point" and s.result is not None:
                self._iterations += s.result.iterations
                self._converged += bool(s.result.converged)
            s.result = None
        self.op += 1

    def per_op_metrics(self, methods) -> dict:
        """Per-layer metrics, each divided by the number of traced ops."""
        ops = max(self.op, 1)
        stats = {name: [0, 0.0, 0] for name in TRACED}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        for s, covered in zip(self.spans, child_time):
            entry = stats[s.name]
            entry[0] += 1
            entry[1] += (s.end - s.start) - covered
            entry[2] += s.raised
        metrics = {}
        for name, (calls, self_s, errors) in stats.items():
            metrics[f"{name}.calls"] = (calls / ops, "1/op")
            metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
            metrics[f"{name}.errors"] = (errors / ops, "1/op")
        assembled = stats["family.assemble_result"][0]
        minimax = stats["oracle.minimax_common_point"][0]
        metrics["family.assemble_result.accept_frac"] = (
            self._accepted / assembled if assembled else 1.0, "frac")
        metrics["oracle.minimax_common_point.iterations"] = (self._iterations / ops, "1/op")
        metrics["oracle.minimax_common_point.converged_frac"] = (
            self._converged / minimax if minimax else 1.0, "frac")
        for tag, count in methods.items():
            metrics[f"method.{tag}"] = (count / ops, "1/op")
        return metrics
