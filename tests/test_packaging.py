"""Packaging: the package runs on numpy, mpmath and click alone.

Every ODE is integrated by the package's own Taylor stepper, so importing
the package must not pull in scipy, and pyproject.toml must not declare it.
"""

import os
import pkgutil
import subprocess
import sys

import boutroux

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_import_does_not_load_scipy():
    names = sorted(m.name for m in pkgutil.iter_modules(boutroux.__path__))
    assert {"borel", "connection", "cycles", "errors", "odes", "series",
            "twoscale"} <= set(names)
    code = ("import sys, importlib\n"
            "import boutroux\n"
            "for name in %r:\n"
            "    importlib.import_module('boutroux.' + name)\n"
            "assert 'scipy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))\n" % names)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(boutroux.__path__[0])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def test_scipy_not_a_dependency():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        assert "scipy" not in fh.read()


def test_numpy_only_in_connection():
    """numpy serves the least-squares fits of connection alone; every other
    module computes in mpmath and Python floats and complex numbers."""
    src = os.path.join(ROOT, "src", "boutroux")
    users = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                if "numpy" in fh.read():
                    users.append(name)
    assert users == ["connection.py"]
