"""Per-layer spans, recorded by wrapping the library's module attributes.

The tracer replaces public functions of ``cli``, ``solver``, ``dpml`` and
``grid_calculus`` with timing wrappers in every ``nabladelay`` module that
holds them, so calls between modules are caught as well as the
benchmark's own calls.  ``remove`` puts the originals back.

Spans are aggregated in memory per name: calls, total (inclusive) time
and self time, which is the span minus the time of the spans it caused.
Only calls made while ``active`` is set are recorded, so the benchmark's
own reference computations stay out of the figures.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute, span name); a dotted attribute is a method.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("solver", "step_solve", "solver.step_solve"),
    ("solver", "closed_form_solve", "solver.closed_form_solve"),
    ("solver", "commutative_solve", "solver.commutative_solve"),
    ("solver", "delta_solve", "solver.delta_solve"),
    ("solver", "homogeneous_part", "solver.homogeneous_part"),
    ("solver", "forced_part", "solver.forced_part"),
    ("solver", "verify", "solver.verify"),
    ("dpml", "dpml_eval", "dpml.dpml_eval"),
    ("dpml", "special_reductions", "dpml.special_reductions"),
    ("dpml", "ml_eval", "dpml.ml_eval"),
    ("grid_calculus", "monomial_run", "grid.monomial_run"),
    ("grid_calculus", "rl_difference", "grid.rl_difference"),
    ("grid_calculus", "nabla_sum", "grid.nabla_sum"),
)
# Called too often for a span to be cheap; only their calls are counted.
COUNTS = (
    ("grid_calculus", "monomial", "grid.monomial"),
    ("dpml", "WordSumTable.row", "dpml.wordsum_row"),
)
PACKAGE = "nabladelay"
CLOSED_ROUTES = ("solver.closed_form_solve", "solver.commutative_solve", "solver.delta_solve",
                 "solver.homogeneous_part", "solver.forced_part")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []
        self._seen = weakref.WeakKeyDictionary()  # DpmlFunction -> grid points asked for
        self._undo: list[tuple] = []
        self.active = False

    # -- wrappers ------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        children = [0.0]
        stack = self._stack
        stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - children[0]

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs)
        return wrapper

    def _count(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                entry[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _dpml_value(self, fn):
        seen = self._seen

        @functools.wraps(fn)
        def wrapper(obj, k):
            if not self.active:
                return fn(obj, k)
            points = seen.get(obj)
            if points is None:
                points = seen[obj] = set()
            name = "dpml.value.hit" if k in points else "dpml.value.miss"
            points.add(k)
            return self._record(name, fn, (obj, k), {})
        return wrapper

    # -- install / remove ----------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def _patch(self, module_name, attr, wrap):
        modules = self._modules()
        home = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, wrap(original))
            self._undo.append((cls, method, original))
            return
        original = getattr(home, attr)
        wrapper = wrap(original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, functools.partial(self._span, name))
        for module, attr, name in COUNTS:
            self._patch(module, attr, functools.partial(self._count, name))
        self._patch("dpml", "DpmlFunction.value", self._dpml_value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def _get(self, name, column):
        return self.stats.get(name, [0, 0.0, 0.0])[column]

    def calls(self, name) -> int:
        return int(self._get(name, 0))

    def total_ms(self, name) -> float:
        return 1e3 * self._get(name, 1)

    def self_ms(self, name) -> float:
        return 1e3 * self._get(name, 2)

    def table(self) -> dict:
        return {name: {"calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * s}
                for name, (c, t, s) in sorted(self.stats.items())}

    def layer_metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, except the run-level ones."""
        hit, miss = "dpml.value.hit", "dpml.value.miss"
        return {
            "cli.load_config.ms": self.total_ms("cli.load_config"),
            "cli.self_ms": self.self_ms("cli.main") + self.self_ms("cli.load_config"),
            "solver.step_solve.ms": self.total_ms("solver.step_solve"),
            "solver.closed.self_ms": sum(self.self_ms(n) for n in CLOSED_ROUTES),
            "solver.verify.self_ms": self.self_ms("solver.verify"),
            "dpml.value.calls": self.calls(hit) + self.calls(miss),
            "dpml.value.distinct": self.calls(miss),
            "dpml.value.hit_ms": self.total_ms(hit),
            "dpml.value.miss_ms": self.total_ms(miss),
            "dpml.wordsum_row.calls": self.calls("dpml.wordsum_row"),
            "dpml.dpml_eval.ms": self.total_ms("dpml.dpml_eval"),
            "dpml.special_reductions.ms": self.total_ms("dpml.special_reductions"),
            "dpml.ml_eval.ms": self.total_ms("dpml.ml_eval"),
            "grid.monomial.calls": self.calls("grid.monomial"),
            "grid.monomial_run.ms": self.total_ms("grid.monomial_run"),
            "grid.rl_difference.ms": self.total_ms("grid.rl_difference"),
            "grid.nabla_sum.ms": self.total_ms("grid.nabla_sum"),
        }
