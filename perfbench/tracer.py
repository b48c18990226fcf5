"""Span tracer that wraps halfgraph's public functions from outside the package.

`Tracer.install()` replaces every public function of each layer module with a
wrapper that records one span (name, start, end, parent) per call, both where
the function is defined and in every halfgraph module that bound it with
`from ... import`.  A few hot methods are wrapped on their class.  Spans stay
in memory; `layer_metrics()` turns them into per-layer call counts and self
times, and `dump()` writes them out when the run ends.  Untraced runs never
import this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("graphcore", "halves", "density", "constructions", "exactmath", "srg",
          "independence", "girth5", "report", "cli")

# (module, class, attribute) -> span name; the hot methods worth a span of their own.
METHODS = {
    ("graphcore", "Graph", "__init__"): "graphcore.Graph",
    ("exactmath", "Polynomial", "__mul__"): "exactmath.Polynomial.mul",
    ("exactmath", "Polynomial", "__rmul__"): "exactmath.Polynomial.mul",
    ("exactmath", "Polynomial", "eval"): "exactmath.Polynomial.eval",
    ("exactmath", "QuadNum", "sign"): "exactmath.QuadNum.sign",
}

SECTION_PREFIX = "cli.section_"

# Span names reported with both `.calls` and `.self_s`, then with only one of them.
SPAN_METRICS = (
    "graphcore.enumerate_triangle_free", "graphcore.canonical_key", "graphcore.Graph",
    "graphcore.independence_number", "halves.beta_exact", "halves.local_search_half",
    "halves.beta_of_half", "density.c4_density", "exactmath.Polynomial.mul",
    "exactmath.Polynomial.eval", "srg.rho_qc", "independence.independence_half",
)
SELF_ONLY = (
    "graphcore.named", "halves.beta_exact.n_le_20", "halves.beta_exact.n_21_36",
    "exactmath.verify_sparse_identities", "srg.srg_case_analysis", "girth5.girth5_report",
    "report.dump_report",
)
CALLS_ONLY = ("exactmath.QuadNum.sign", "report.run_check")
SECTIONS = ("counts", "quadrilaterals", "sparse", "srg", "independence", "girth5")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in CALLS_ONLY:
        units[f"{name}.calls"] = "count"
    for section in SECTIONS:
        units[f"cli.section.{section}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["graphcore.classes_per_canonical_key"] = "ratio"
    units["trace.top_coverage"] = "ratio"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would close before the generator runs
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


class Tracer:
    """Records spans around halfgraph's public functions; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._keys: set = set()
        self.classes_kept = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = self._name_id(name)
        if name == "halves.beta_exact":
            small, large = (self._name_id("halves.beta_exact.n_le_20"),
                            self._name_id("halves.beta_exact.n_21_36"))

            def pick(args, kwargs):
                g = args[0] if args else kwargs["g"]
                return small if g.n <= 20 else large
        else:
            def pick(args, kwargs):
                return name_id
        on_return = None
        if name == "graphcore.canonical_key":
            on_return = self._keys.add
        elif name == "graphcore.enumerate_triangle_free":
            on_return = self._close_enumeration

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (pick(args, kwargs), start, end, parent)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _close_enumeration(self, _result) -> None:
        # Classes kept by one enumeration = distinct canonical keys it computed.
        self.classes_kept += len(self._keys)
        self._keys.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = sys.modules["halfgraph"]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"halfgraph.{layer}"]
            for attr, fn in list(_public_callables(module)):
                name = f"{layer}.{attr}"
                if name.startswith(SECTION_PREFIX):
                    name = "cli.section." + name[len(SECTION_PREFIX):]
                wrapper = self._wrap(fn, name)
                wrapped[id(fn)] = wrapper
                self._patch(module, attr, wrapper)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"halfgraph.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name))
        # Rebind names other modules imported with `from ... import`.
        modules = [package] + [m for key, m in sys.modules.items()
                               if key.startswith("halfgraph.") and m is not None]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for name_id, *_ in self.spans:
            name = self.names[name_id]
            counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items()))

    def layer_metrics(self, window: tuple[float, float]) -> dict[str, float]:
        """Per-layer calls and self time from the spans; `window` is the timed region."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        top = 0.0
        lo, hi = window
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            if name.startswith("halves.beta_exact."):
                self_s[name] = self_s.get(name, 0.0) + end - start - child[index]
                name = "halves.beta_exact"
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + end - start - child[index]
            if parent < 0 and start >= lo and end <= hi:
                top += end - start

        def layer_sum(table, layer):
            return sum(v for k, v in table.items()
                       if k.split(".", 1)[0] == layer and not k.startswith("halves.beta_exact."))

        metrics: dict[str, float] = {}
        for key in metric_units():
            base, _, kind = key.rpartition(".")
            if kind not in ("calls", "self_s"):
                continue
            table = calls if kind == "calls" else self_s
            metrics[key] = layer_sum(table, base) if base in LAYERS else table.get(base, 0)
        keys = calls.get("graphcore.canonical_key", 0)
        metrics["graphcore.classes_per_canonical_key"] = self.classes_kept / keys if keys else 0.0
        metrics["trace.top_coverage"] = top / (hi - lo) if hi > lo else 0.0
        metrics["trace.spans"] = len(self.spans)
        return metrics

    def dump(self, path: str, run_id: str) -> None:
        """Write every span as one JSON line: [name, start, end, parent, run id]."""
        with open(path, "w") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, run_id]))
                fh.write("\n")
