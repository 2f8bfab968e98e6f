"""Spans around the public functions of each zbrace module, recorded from outside the program.

``Tracer.install`` replaces every binding of each listed function in the
loaded ``zbrace`` modules with a wrapper that records a span (name, start,
end, parent) in memory.  A function imported by name into another module
is a separate binding, so each one is replaced; otherwise the calls made
through it would be lost.  ``layer_metrics`` turns the spans into the
per-layer metrics of BENCHMARK.json.  Operations run on one thread, so a
single stack gives each span its parent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

# span name -> (module, function)
SPANS = {
    "fileio.parse_brace": ("zbrace.fileio", "parse_brace"),
    "groups.validate_group": ("zbrace.groups", "validate_group"),
    "braces.make_skew_brace": ("zbrace.braces", "make_skew_brace"),
    "braces.socle": ("zbrace.braces", "socle"),
    "braces.pair_criterion": ("zbrace.braces", "odd_matrix_pair_criterion"),
    "solutions.build_solution": ("zbrace.solutions", "build_solution"),
    "solutions.braid_sweep": ("zbrace.solutions", "verify_braid_constraints"),
    "solutions.inverse_solution": ("zbrace.solutions", "inverse_solution"),
    "solutions.is_involutive": ("zbrace.solutions", "is_involutive"),
    "solutions.dedup": ("zbrace.solutions", "dedup_solutions"),
    "solutions.gv": ("zbrace.solutions", "gv_correspondence_check"),
    "tensor.braid_matrix": ("zbrace.tensor", "braid_matrix_check"),
    "tensor.ybe": ("zbrace.tensor", "ybe_matrix_check"),
    "tensor.coproduct_commutation": ("zbrace.tensor", "coproduct_commutation_check"),
    "tensor.lift_commutation": ("zbrace.tensor", "lift_commutation_check"),
    "tensor.cocycle": ("zbrace.tensor", "cocycle_check"),
    "tensor.twisted_solution": ("zbrace.tensor", "twisted_solution_check"),
    "tensor.twisted_coproduct": ("zbrace.tensor", "twisted_coproduct_check"),
    "tensor.coproduct_defect": ("zbrace.tensor", "coproduct_defect"),
    "tensor.r_lift_defects": ("zbrace.tensor", "r_lift_defects"),
    "reporting.build_report": ("zbrace.reporting", "build_report"),
    "reporting.solution_suite": ("zbrace.reporting", "solution_suite"),
    "reporting.tensor_suite": ("zbrace.reporting", "tensor_suite"),
    "reporting.dedup_section": ("zbrace.reporting", "dedup_section"),
    "reporting.gv_section": ("zbrace.reporting", "gv_section"),
    "reporting.serialize_report": ("zbrace.reporting", "serialize_report"),
    "lazy.sampled_verify": ("zbrace.lazy", "sampled_verify_lazy"),
    "lazy.sampled_laws": ("zbrace.lazy", "sampled_brace_laws"),
}
# A class has one binding: its constructor is wrapped on the class itself.
BUNDLE_SPAN = "tensor.bundle"
TENSOR_CHECKS = frozenset(name for name in SPANS if name.startswith("tensor."))

# Per-layer metrics, in BENCHMARK.json order.  "_s" sums a span's duration,
# ".self_s" subtracts its child spans, "_calls" counts spans or calls.
PER_LAYER = (
    "cli.import_s",
    "fileio.parse_brace_s", "fileio.parse_brace.self_s",
    "groups.validate_group_s", "groups.validate_group_calls",
    "braces.make_skew_brace_s", "braces.socle_s", "braces.socle_calls",
    "braces.pair_criterion_s", "braces.pair_criterion_calls",
    "solutions.build_solution_s", "solutions.build_solution_calls", "solutions.braid_sweep_s",
    "solutions.inverse_solution_s", "solutions.is_involutive_s", "solutions.dedup_s",
    "solutions.dedup.self_s", "solutions.gv_s",
    "tensor.bundle_s", "tensor.braid_matrix_s", "tensor.ybe_s", "tensor.coproduct_commutation_s",
    "tensor.lift_commutation_s", "tensor.cocycle_s", "tensor.twisted_solution_s",
    "tensor.twisted_coproduct_s", "tensor.coproduct_defect_s", "tensor.r_lift_defects_s",
    "tensor.points_exhaustive", "tensor.points_sampled",
    "reporting.build_report_s", "reporting.solution_suite.self_s", "reporting.tensor_suite.self_s",
    "reporting.dedup_section_s", "reporting.gv_section_s", "reporting.serialize_report_s",
    "lazy.sampled_verify_s", "lazy.sampled_laws_s", "lazy.circle_calls", "lazy.add_calls",
)


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _tensor_points(result) -> tuple[int, int]:
    """(exhaustive, sampled) points of a TensorCheck, a list of them, or a (check, matrix) pair."""
    if isinstance(result, tuple):
        result = result[0]
    checks = result if isinstance(result, list) else [result]
    exhaustive = sum(c.points for c in checks if c.status != "sampled")
    sampled = sum(c.points for c in checks if c.status == "sampled")
    return exhaustive, sampled


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, tensor points]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if name in TENSOR_CHECKS:
                span[4] = _tensor_points(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each SPANS function in the loaded zbrace modules."""
        for modname, _ in SPANS.values():
            importlib.import_module(modname)
        modules = [m for name, m in sys.modules.items() if name == "zbrace" or name.startswith("zbrace.")]
        for name, (modname, attr) in SPANS.items():
            fn = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapped)
        bundle = sys.modules["zbrace.tensor"].TwistBundle
        self._undo.append((bundle, "__init__", bundle.__init__))
        bundle.__init__ = self.wrap(BUNDLE_SPAN, bundle.__init__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def counting(self, lb, fields: tuple[str, ...]):
        """A copy of a LazyBrace whose listed callables count their calls as ``lazy.<field>``."""
        counts = self.counts

        def counted(key, fn):
            counts[key] = 0

            def call(*args):
                counts[key] += 1
                return fn(*args)

            return call

        return dataclasses.replace(
            lb, **{f: counted(f"lazy.{f}", getattr(lb, f)) for f in fields}
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric but cli.import_s, which needs a fresh process."""
        totals: dict[str, float] = {}
        selfs: dict[str, float] = {}
        calls: dict[str, int] = dict(self.counts)
        points = [0, 0]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, pts) in enumerate(self.spans):
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(self.spans[p][0])
                p = self.spans[p][3]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + (end - start) - child_time[i]
            if name not in ancestors:
                totals[name] = totals.get(name, 0.0) + (end - start)
            if pts is not None and not TENSOR_CHECKS.intersection(ancestors):
                points[0] += pts[0]
                points[1] += pts[1]

        out: dict[str, float] = {}
        for metric in PER_LAYER[1:]:
            if metric == "tensor.points_exhaustive":
                out[metric] = points[0]
            elif metric == "tensor.points_sampled":
                out[metric] = points[1]
            elif metric.endswith(".self_s"):
                out[metric] = selfs.get(metric[: -len(".self_s")], 0.0)
            elif metric.endswith("_calls"):
                out[metric] = calls.get(metric[: -len("_calls")], 0)
            else:
                out[metric] = totals.get(metric[: -len("_s")], 0.0)
        return out
