"""Boundary tracing for the latincrit package, installed from outside it.

Every name that one ``latincrit`` module imports from another (functions,
classes and the module objects themselves) is replaced, in the importing
module's namespace, by a wrapper that records a span: id, layer, name,
start, end, parent span id and job id.  Spans stay in memory until ``dump``.  Calls
inside one module are not wrapped, so each span marks one crossing
between layers, and a layer's self time is its spans' durations minus
the time their child spans cover.

Counts are taken at the same boundaries from the values the calls return:
completion counts and capped answers from ``solver``, squares from
``enumeration``.  Exception classes are left alone, because wrapping them
would break the ``except`` clauses that name them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
import types
from collections import Counter

PACKAGE = "latincrit"
LAYERS = ("cli", "core", "solver", "criticality", "enumeration", "constructions", "bounds")


def _origin(value) -> str | None:
    """The layer that defines `value`, or None if it is not from the package."""
    name = value.__name__ if isinstance(value, types.ModuleType) else getattr(value, "__module__", None)
    if not isinstance(name, str) or not name.startswith(PACKAGE + "."):
        return None
    layer = name[len(PACKAGE) + 1 :]
    return layer if layer in LAYERS else None


def _cap_argument(args, kwargs):
    if "cap" in kwargs:
        return kwargs["cap"]
    return args[2] if len(args) > 2 else None


def _observe_solver(counts, args, kwargs, result):
    """Completion count and capped flag from a CompletionReport, a
    ``(count, witnesses)`` tuple, or a yes/no uniqueness answer."""
    if isinstance(result, bool):
        counts["solver.unique"] += result
        return
    if hasattr(result, "count") and hasattr(result, "capped"):
        count, capped = result.count, result.capped
    elif isinstance(result, tuple) and result and isinstance(result[0], int):
        count = result[0]
        cap = _cap_argument(args, kwargs)
        capped = cap is not None and count >= cap
    else:
        return
    counts["solver.completions"] += count
    counts["solver.unique"] += count == 1
    counts["solver.capped"] += capped


def _observe_enumeration(counts, args, kwargs, result):
    reduced = getattr(result, "reduced_count", None)
    if reduced is not None:
        counts["enumeration.squares"] += reduced
    elif hasattr(result, "order") and hasattr(result, "grid"):
        counts["enumeration.squares"] += 1  # one square yielded by a generator


OBSERVERS = {"solver": _observe_solver, "enumeration": _observe_enumeration}


class _Proxy:
    """Stands in for a class or module: calling it (for a class) and every
    callable attribute read through it are traced."""

    def __init__(self, tracer, layer, target):
        self._tracer, self._layer, self._target = tracer, layer, target
        if isinstance(target, type):
            self._new = tracer.wrap(layer, target.__name__, target)

    def __call__(self, *args, **kwargs):
        return self._new(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value) and not (isinstance(value, type) and issubclass(value, BaseException)):
            prefix = f"{self._target.__name__}." if isinstance(self._target, type) else ""
            value = self._tracer.wrap(self._layer, prefix + attr, value)
        setattr(self, attr, value)  # later reads skip __getattr__
        return value


class Tracer:
    def __init__(self):
        # (id, layer, name, start, end, parent id, job), appended when a span
        # closes; flat tuples keep the garbage collector's work small.
        self.spans = []
        self.stack = []
        self.ids = itertools.count()
        self.job = -1
        self.counts = Counter()
        self.replaced = []  # (module, name, original value)

    def wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        spans, stack, ids, counts, clock = self.spans, self.stack, self.ids, self.counts, time.perf_counter
        observe = OBSERVERS.get(layer)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, layer, name, start, end, parent, self.job))
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, layer, name, fn):
        """One span per resumption, so time spent by the consumer between
        items is not charged to the generator's layer."""
        step = self.wrap(layer, name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced

    def install(self) -> None:
        """Wrap, in each layer module, the names it imported from another layer."""
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(module).items()):
                origin = _origin(value)
                if origin is None or origin == layer:
                    continue
                if isinstance(value, type) and issubclass(value, BaseException):
                    continue
                if isinstance(value, (type, types.ModuleType)):
                    wrapped = _Proxy(self, origin, value)
                elif callable(value):
                    wrapped = self.wrap(origin, attr, value)
                else:
                    continue
                self.replaced.append((module, attr, value))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, value in self.replaced:
            setattr(module, attr, value)
        self.replaced.clear()

    def summary(self, passes: int, scales: list[float]) -> dict:
        """Per-layer metrics, averaged over `passes` identical passes.  Each
        span's self time is scaled to the reference speed by ``scales[job]``,
        the scale of the job run it belongs to (see ``speed.py``)."""
        layer_of = {}
        child_time = Counter()
        for span_id, layer, name, start, end, parent, job in self.spans:
            layer_of[span_id] = layer
            child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        solver_from_criticality = 0
        for span_id, layer, name, start, end, parent, job in self.spans:
            calls[layer] += 1
            self_s[layer] += (end - start - child_time[span_id]) * scales[job]
            if layer == "solver" and layer_of.get(parent) == "criticality":
                solver_from_criticality += 1
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "solver.calls": calls["solver"],
            "solver.self_s": self_s["solver"],
            "solver.us_per_call": ratio(1e6 * self_s["solver"], calls["solver"]),
            "solver.completions": c["solver.completions"],
            "solver.unique_ratio": ratio(c["solver.unique"], calls["solver"]),
            "solver.capped_ratio": ratio(c["solver.capped"], calls["solver"]),
            "criticality.calls": calls["criticality"],
            "criticality.self_s": self_s["criticality"],
            "criticality.solver_calls_per_call": ratio(solver_from_criticality, calls["criticality"]),
            "enumeration.squares": c["enumeration.squares"],
            "enumeration.self_s": self_s["enumeration"],
            "enumeration.us_per_square": ratio(1e6 * self_s["enumeration"], c["enumeration.squares"]),
            "core.calls": calls["core"],
            "core.self_s": self_s["core"],
            "constructions.calls": calls["constructions"],
            "constructions.self_s": self_s["constructions"],
            "bounds.evals": calls["bounds"],
            "bounds.self_s": self_s["bounds"],
            "cli.self_s": self_s["cli"],
            "trace.spans": len(self.spans),
        }
        additive = [k for k in m if not k.endswith(("_ratio", "_per_call", "_per_square"))]
        for k in additive:
            m[k] /= passes
        return m

    def solver_calls_by_job(self) -> Counter:
        return Counter(span[-1] for span in self.spans if span[1] == "solver")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
