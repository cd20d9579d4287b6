"""The benchmark's span tracer against the package's current API.

``perfbench/tracing.py`` wraps package functions by name from outside the
package, so renaming or deleting one of them breaks traced benchmark runs
without breaking any package test.  This test installs the tracer, checks
that every name it lists was wrapped (count-only names: where the package
defines them) and that every span name a counter reads was given to a
package function, uninstalls it and checks that every attribute is
restored.
"""

import importlib
import importlib.util
import os

import boutroux

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_wraps_listed_names_and_uninstall_restores():
    tracing = load_tracing()
    modules = {m: importlib.import_module("boutroux." + m)
               for m in tracing.LAYERS}
    germ_evaluator = modules["borel"].GermEvaluator
    before = {m: dict(vars(mod)) for m, mod in modules.items()}
    methods_before = dict(vars(germ_evaluator))
    listed = [(m, name) for m, names in tracing.EXTRA_SPANS.items()
              for name in names] + [("odes", "solve_ivp")]
    # count-only names are wrapped where the package defines them; the
    # reference right-hand sides rhs_g and rhs_h live in tests/test_odes.py,
    # and the tracer must not add them back (their counters read 0)
    counted = [(m, name) for m, name in tracing.COUNTED if name in before[m]]
    missing = [(m, name) for m, name in tracing.COUNTED
               if name not in before[m]]

    tracer = tracing.Tracer()
    # the span names install gives out; a counter whose span name is not
    # among them would read 0 without any error
    span_names, span_wrapper = set(), tracer._span_wrapper

    def recording_wrapper(fn, name, layer):
        span_names.add(name)
        return span_wrapper(fn, name, layer)

    tracer._span_wrapper = recording_wrapper
    try:
        tracer.install(boutroux)
        for name in tracing.CALL_COUNTERS:
            assert name in span_names, "no package function %s" % name
        for m, name in listed:
            assert name in before[m], "%s.%s is gone" % (m, name)
        for m, name in listed + counted:
            assert vars(modules[m])[name] is not before[m][name], name
        for m, name in missing:
            assert name not in vars(modules[m]), name
        for meth in ("__init__", "__call__", "err_est", "check_ray"):
            assert vars(germ_evaluator)[meth] is not methods_before[meth]
    finally:
        tracer.uninstall()

    for m, mod in modules.items():
        for attr, obj in before[m].items():
            assert vars(mod)[attr] is obj, "%s.%s not restored" % (m, attr)
    for attr, obj in methods_before.items():
        assert vars(germ_evaluator)[attr] is obj, attr
