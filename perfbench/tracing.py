"""Span tracing of the package layers from outside the package.

The tracer replaces functions with wrappers in the namespaces where
callers look them up (module attributes and class attributes); the
package source is never edited.  Every wrapped call records a span
``(name, layer, start, end, parent)`` in memory; hot leaf functions are
only counted, because a span per call would dominate their cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# package module -> layer name; GermEvaluator (Pade continuation) is
# reported as its own layer ``germ`` although it lives in borel.py
LAYERS = ("series", "borel", "germ", "connection", "odes", "twoscale",
          "cycles")

# (module, qualified name) -> counter; wrapped as count-only
COUNTED = {
    ("odes", "rhs_g"): "rhs_g_calls",
    ("odes", "rhs_h"): "rhs_h_calls",
}

# counters bumped by count-only wrappers (one per wrapped call)
COUNTED_CALLS = tuple(COUNTED.values()) + ("ivp_solves", "newton_steps")

# private functions worth a span of their own
EXTRA_SPANS = {
    "borel": ("_evaluator",),
    "connection": ("_truncation_kernel", "_fit_exponential"),
    "odes": ("_refine_pole",),
    "twoscale": ("_fit_Fn", "_lambdified"),
    "cycles": ("_ode_continue",),
}

# span name -> counter incremented once per call
CALL_COUNTERS = {
    "germ.GermEvaluator.__call__": "germ_evals",
    "germ.GermEvaluator.__init__": "pade_builds",
    "borel.laplace_ray": "laplace_rays",
    "borel.sum_transseries": "transseries_sums",
    "odes.integrate_path": "path_integrations",
    "odes._refine_pole": "pole_refinements",
    "cycles.poincare_step": "poincare_steps",
    "twoscale.integrability_witness": "witnesses",
}


class Tracer:
    """Collects spans and exact counters while installed."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent]
        self.counters = {}
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _span_wrapper(self, fn, name, layer):
        counter = CALL_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, clock(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
                if counter:
                    self.count(counter)
        return wrapper

    def _count_wrapper(self, fn, key):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _chart_counter(self, fn):
        """Counts the chart switches recorded in returned traces."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = fn(*args, **kwargs)
            charts = [chart for _, _, chart in trace.samples]
            self.count("chart_switches",
                       sum(a != b for a, b in zip(charts, charts[1:])))
            return trace
        return wrapper

    def _solve_ivp_wrapper(self, fn):
        """Counts ODE solves, and Newton steps when inside _refine_pole."""
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = "ivp_solves"
            if stack and spans[stack[-1]][0] == "odes._refine_pole":
                key = "newton_steps"
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the layer functions of ``package`` (the boutroux module)."""
        import importlib

        modules = {m: importlib.import_module("%s.%s" % (package.__name__, m))
                   for m in LAYERS}
        wrapped = {}   # id(original) -> wrapper
        for mod_name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and \
                        attr not in EXTRA_SPANS.get(mod_name, ()):
                    continue
                key = (mod_name, attr)
                if key in COUNTED:
                    w = self._count_wrapper(obj, COUNTED[key])
                else:
                    w = self._span_wrapper(obj, "%s.%s" % key, mod_name)
                if key == ("odes", "integrate_path"):
                    w = self._chart_counter(w)
                wrapped[id(obj)] = w
        # rebind every module-level alias (from .x import f) to the wrapper
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        # methods: the Pade continuation is the germ layer
        ge = modules["borel"].GermEvaluator
        for meth in ("__init__", "__call__", "err_est", "check_ray"):
            self._set(ge, meth, self._span_wrapper(
                ge.__dict__[meth], "germ.GermEvaluator." + meth, "germ"))
        odes = modules["odes"]
        self._set(odes, "solve_ivp", self._solve_ivp_wrapper(odes.solve_ivp))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- overhead --------------------------------------------------------

    @staticmethod
    def calibrate(n=20000):
        """Cost in seconds of one span and of one counted call.

        Times a trivial function bare, span-wrapped and count-wrapped on
        a scratch tracer; the traced run's overhead is then about
        spans * span_cost + counted_calls * count_cost.
        """
        def f(x):
            return x

        scratch = Tracer()
        variants = (f, scratch._span_wrapper(f, "calibrate", "series"),
                    scratch._count_wrapper(f, "calibrate"))
        best = []
        for g in variants:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                for i in range(n):
                    g(i)
                times.append(time.perf_counter() - t0)
                del scratch.spans[:]
            best.append(min(times) / n)
        return max(best[1] - best[0], 0.0), max(best[2] - best[0], 0.0)

    # -- reduction -------------------------------------------------------

    def self_times(self, lo, hi):
        """Self time per layer of spans lo..hi-1 (a closed group: no span
        outside it has a parent inside it): duration minus children."""
        spans = self.spans
        child = [0.0] * (hi - lo)
        for name, layer, t0, t1, parent in spans[lo:hi]:
            if parent >= lo:
                child[parent - lo] += t1 - t0
        out = {layer: 0.0 for layer in LAYERS}
        for i, (name, layer, t0, t1, parent) in enumerate(spans[lo:hi]):
            out[layer] += (t1 - t0) - child[i]
        return out

    def layer_calls(self, lo, hi):
        out = {layer: 0 for layer in LAYERS}
        for span in self.spans[lo:hi]:
            out[span[1]] += 1
        return out

    def dump(self, path, t_origin, mark):
        """Write the spans as JSON, times relative to ``t_origin`` (the
        start of the round); spans before index ``mark`` are set-up."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s",
                                  "parent"],
                       "round_starts_at": mark,
                       "spans": [[n, l, a - t_origin, b - t_origin, p]
                                 for n, l, a, b, p in self.spans],
                       "counters": self.counters}, fh)
