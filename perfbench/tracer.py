"""Span tracer that wraps kerrcomb's public functions from the outside.

The program itself carries no tracing. ``Tracer.install`` replaces each
traced function with a recording wrapper in every loaded ``kerrcomb``
module whose namespace binds it (``phases`` imports ``build_m`` by name,
``cli`` reaches it as ``fluct.build_m``, ``steady.threshold`` calls its
own module's ``parametric_branch``), so every call the package resolves
goes through the wrapper. Spans are kept in memory and written out once
at the end of the run.

A span is (name, start_ns, end_ns, parent, item, raised). ``parent`` is
the index of the enclosing span or -1; ``item`` identifies the unit of
work the span belongs to (a grid cell, an operating point, a trajectory
batch) so spans of one item can be grouped.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (module, function) pairs whose calls are recorded, in report order
TRACED = (
    ("model", "normalize"),
    ("steady", "pump_only_branches"),
    ("steady", "parametric_branch"),
    ("steady", "threshold"),
    ("fluct", "build_m"),
    ("fluct", "max_eigenvalue_real"),
    ("fluct", "noise_spectrum"),
    ("duan", "quadrature_covariance"),
    ("duan", "minimize_duan"),
    ("phases", "classify_drive"),
    ("manifest", "write_output"),
    ("oracle", "langevin_covariance"),
)

# a call to one of these starts a new item; nested spans inherit its id
ITEM_ROOTS = {"phases.classify_drive"}

_SQRT3 = math.sqrt(3.0)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_parametric(counts: Counter, args, kwargs, result) -> None:
    if _arg(args, kwargs, 2, "dtl") > _SQRT3:
        counts["parametric.scan"] += 1
        counts["parametric.hit"] += bool(result)


def _observe_pump_only(counts: Counter, args, kwargs, result) -> None:
    counts["pump_only.multi_root"] += len(result) > 1


def _observe_duan(counts: Counter, args, kwargs, result) -> None:
    counts["duan.entangled"] += result.entangled


def _observe_classify(counts: Counter, args, kwargs, result) -> None:
    counts["cells." + ("error" if result.error else result.phase.value)] += 1


def _observe_write(counts: Counter, args, kwargs, result) -> None:
    counts["write_output.bytes"] += len(
        _arg(args, kwargs, 2, "content").encode())


# counters taken at the same boundaries as the spans
_OBSERVERS = {
    "steady.parametric_branch": _observe_parametric,
    "steady.pump_only_branches": _observe_pump_only,
    "duan.minimize_duan": _observe_duan,
    "phases.classify_drive": _observe_classify,
    "manifest.write_output": _observe_write,
}


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._next_item = 0
        self._patches: list[tuple[object, str, object]] = []

    def new_item(self):
        """Start a new item and return its id."""
        self.item = self._next_item
        self._next_item += 1
        return self.item

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVERS.get(name)
        item_root = name in ITEM_ROOTS

        def traced(*args, **kwargs):
            outer_item = self.item
            if item_root:
                self.new_item()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, raised)
                self.item = outer_item
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever kerrcomb binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "kerrcomb" or n.startswith("kerrcomb."))
                   and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"kerrcomb.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive and self seconds, raised calls.

        Self time is a span's duration minus the durations of its direct
        children; traced code is serial, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "errors": 0} for m, f in TRACED}
        for idx, (name, start, end, _, _, raised) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["total_s"] += (end - start) * 1e-9
            t["self_s"] += (end - start - child_ns[idx]) * 1e-9
            t["errors"] += raised
        return totals

    def write(self, path: Path) -> None:
        """Write the spans as one JSON document of parallel columns."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        doc = {key: list(col) for key, col in zip(
            ("name", "start_ns", "end_ns", "parent", "item", "raised"), cols)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
