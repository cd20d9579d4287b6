"""Command-line front end: reproducible tables and diagnostics.

Every output file starts with a header carrying the configuration hash
so identical configurations on the same build produce byte-identical
files.  Module errors surface as machine-readable JSON on stdout with a
nonzero exit code.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import sys
from importlib.metadata import PackageNotFoundError, version as _pkg_version

import click
import mpmath as mp
import numpy as np

from .config import RunConfig, load_config
from .errors import BoutrouxError


def _version():
    try:
        return _pkg_version("boutroux")
    except PackageNotFoundError:
        return "unversioned"


def _header(cfg):
    return "config_hash=%s version=%s" % (cfg.config_hash(), _version())


def _write_json(cfg, path, payload):
    doc = {"config_hash": cfg.config_hash(), "version": _version()}
    doc.update(payload)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        click.echo(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(cfg, path, columns, rows):
    lines = ["# " + _header(cfg), ",".join(columns)]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines)
    if path is None:
        click.echo(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_complex(text):
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(text), 0.0)


def _parse_grid(text):
    a, b, n = text.split(":")
    return np.linspace(float(a), float(b), int(n))


def _parse_range(text):
    if ".." in text:
        a, b = text.split("..", 1)
        return range(int(a), int(b) + 1)
    return [int(text)]


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BoutrouxError as exc:
            click.echo(json.dumps({"error": type(exc).__name__,
                                   "message": str(exc)}))
            sys.exit(2)
    return wrapper


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="flat key=value configuration file")
@click.option("--out", "out_path", default=None,
              help="output file (default: stdout)")
@click.pass_context
@handle_errors
def main(ctx, config_path, out_path):
    """Numerical laboratory for truncated solutions of Painleve I."""
    cfg = load_config(config_path) if config_path else RunConfig().validate()
    mp.mp.dps = cfg.precision
    ctx.obj = {"cfg": cfg, "out": out_path}


@main.command()
@click.option("--order", default=20, show_default=True)
@click.pass_obj
@handle_errors
def coeffs(obj, order):
    """Exact power-series and Borel-plane coefficient tables."""
    from .borel import solve_H0_convolution
    from .series import h0_coefficients

    cs = h0_coefficients(order)
    germ = solve_H0_convolution(order)
    payload = {
        "series": [{"k": 4 + i, "numerator": str(c.numerator),
                    "denominator": str(c.denominator)}
                   for i, c in enumerate(cs)],
        "borel": [{"p_power": germ.lead2 // 2 + j,
                   "numerator": str(c.numerator),
                   "denominator": str(c.denominator)}
                  for j, c in enumerate(germ.coeffs[:order])],
    }
    _write_json(obj["cfg"], obj["out"], payload)


@main.command()
@click.option("--order", default=200, show_default=True)
@click.pass_obj
@handle_errors
def borel(obj, order):
    """Borel-germ diagnostics and the singularity constant estimate."""
    from .borel import estimate_S, solve_H0_convolution

    germ = solve_H0_convolution(order)
    S, S_err = estimate_S(germ)
    exact = mp.sqrt(mp.mpf(6) / (5 * mp.pi)) / (2 * mp.sqrt(mp.pi))
    payload = {
        "order": order,
        "S_estimate": [float(mp.re(S)), float(mp.im(S))],
        "S_extrapolation_error": float(S_err),
        "S_closed_form_magnitude": float(exact),
        "relative_error": float(abs(abs(S) - exact) / exact),
    }
    _write_json(obj["cfg"], obj["out"], payload)


@main.command("sum")
@click.option("--C", "c_str", default="0", show_default=True,
              help="transseries constant, re[,im]")
@click.option("--phi", default=None, type=float,
              help="Laplace ray angle in radians; required lateral choice "
                   "(e.g. pi/4) when the grid lies on the real axis")
@click.option("--grid", default="8:20:13", show_default=True,
              help="|x| grid a:b:n")
@click.option("--arg-x", default=0.0, show_default=True, type=float)
@click.pass_obj
@handle_errors
def sum_cmd(obj, c_str, phi, grid, arg_x):
    """Borel-summed transseries values on an |x| grid."""
    from .borel import sum_transseries

    C = _parse_complex(c_str)
    rows = []
    for r in _parse_grid(grid):
        x = mp.mpf(r) * mp.exp(1j * mp.mpf(arg_x))
        h = sum_transseries(C, x, phi=phi)
        rows.append((float(r), float(mp.re(h)), float(mp.im(h))))
    _write_csv(obj["cfg"], obj["out"], ["abs_x", "h_re", "h_im"], rows)


@main.command()
@click.option("--C", "c_str", default="1", show_default=True)
@click.option("--radius", default=30.0, show_default=True)
@click.option("--arg0", default=math.pi / 4, show_default=True, type=float)
@click.option("--arg1", default=-math.pi / 4, show_default=True, type=float)
@click.pass_obj
@handle_errors
def integrate(obj, c_str, radius, arg0, arg1):
    """Integrate along an arc, reporting the trace and detected poles."""
    from .odes import arc_path, detect_poles, far_field_init, integrate_path

    C = _parse_complex(c_str)
    x0 = radius * cmath.exp(1j * arg0)
    state, err = far_field_init(C, x0)
    trace = integrate_path(x0, state, arc_path(radius, arg0, arg1),
                           rtol=obj["cfg"].ode_tol)
    detect_poles(trace)
    doc = json.loads(trace.to_json())
    doc["seed_error_estimate"] = err
    _write_json(obj["cfg"], obj["out"], doc)


@main.command()
@click.option("--C", "c_str", default="1", show_default=True)
@click.option("--n", "n_range", default="5..15", show_default=True)
@click.pass_obj
@handle_errors
def poles(obj, c_str, n_range):
    """Predicted vs detected pole locations of the first array."""
    from .odes import locate_pole

    C = _parse_complex(c_str)
    rows, gaps, ns = [], [], []
    for n in _parse_range(n_range):
        pred, rec = locate_pole(n, C)
        gap = abs(rec.location - pred)
        rows.append((n, pred.real, pred.imag,
                     rec.location.real, rec.location.imag, gap))
        gaps.append(gap)
        ns.append(n)
    if len(ns) > 2:
        slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
        rows.append(("# fitted_gap_slope", slope, "", "", "", ""))
    _write_csv(obj["cfg"], obj["out"],
               ["n", "predicted_re", "predicted_im",
                "detected_re", "detected_im", "gap"], rows)


@main.command()
@click.pass_obj
@handle_errors
def stokes(obj):
    """Constant-beyond-all-orders and Stokes-multiplier report."""
    from .borel import laplace_ray, solve_H0_convolution
    from .connection import extract_constant, measure_mu, mu_closed_form
    from .cycles import solve_stok2

    germ = solve_H0_convolution()
    hp = lambda x: laplace_ray(germ, x, phi=mp.pi / 4)
    hm = lambda x: laplace_ray(germ, x, phi=-mp.pi / 4)
    mu_meas, resid = measure_mu(hp, hm)
    mu_alg, alg_resid = solve_stok2()
    trit = lambda x: laplace_ray(germ, x, phi=-mp.pi / 8, tol=1e-20)
    C_plus = complex(extract_constant(trit, math.pi / 4))
    payload = {
        "mu_closed_form": [0.0, float(mp.im(mu_closed_form()))],
        "mu_measured": [mu_meas.real, mu_meas.imag],
        "mu_measured_fit_residual": resid,
        "mu_from_integer_balance": [mu_alg.real, mu_alg.imag],
        "integer_balance_residual": alg_resid,
        "tritronquee_C_plus": [C_plus.real, C_plus.imag],
    }
    _write_json(obj["cfg"], obj["out"], payload)


@main.command()
@click.option("--x0", default="50", show_default=True,
              help="|x0| (arg fixed at -pi/2 * 1.05)")
@click.option("--s0", default="-0.1", show_default=True)
@click.option("--steps", default=None, type=int,
              help="cycle count (default |x0|/2)")
@click.pass_obj
@handle_errors
def invariants(obj, x0, s0, steps):
    """Adiabatic invariants Q and K_shifted along a cycle run."""
    from .cycles import run_cycles

    r = float(x0)
    x_init = r * cmath.exp(-1j * math.pi / 2 * 1.05)
    s_init = _parse_complex(s0)
    N = steps if steps is not None else int(r / 2)
    states = run_cycles(x_init, s_init, N)
    rows = [(st.n, st.x_n.real, st.x_n.imag, st.s_n.real, st.s_n.imag,
             st.Q.real, st.Q.imag, st.K_shifted.real, st.K_shifted.imag)
            for st in states]
    _write_csv(obj["cfg"], obj["out"],
               ["n", "x_re", "x_im", "s_re", "s_im",
                "Q_re", "Q_im", "K_re", "K_im"], rows)


@main.command()
@click.option("--full/--fast", default=False, show_default=True,
              help="run the full pytest acceptance suite vs built-in "
                   "closed-form checks")
@click.pass_obj
@handle_errors
def verify(obj, full):
    """Acceptance checks: closed-form subset by default, --full for all."""
    if full:
        import pytest

        sys.exit(pytest.main(["-q", "tests/test_acceptance.py"]))

    from fractions import Fraction

    from .borel import borel_transform, estimate_S, solve_H0_convolution
    from .cycles import cycle_J, cycle_L, rho, solve_stok2
    from .series import h0_coefficients, h0_series
    from .twoscale import integrability_witness

    checks = []

    cs = h0_coefficients(60)
    checks.append(("c4 = -392/625", cs[0] == Fraction(-392, 625)))
    checks.append(("odd coefficients vanish",
                   all(c == 0 for i, c in enumerate(cs) if (4 + i) % 2)))
    g1 = solve_H0_convolution(60)
    g2 = borel_transform(h0_series(61))
    checks.append(("Borel transform agreement",
                   g1.lead2 == g2.lead2
                   and all(a == b for a, b in zip(g1.coeffs, g2.coeffs))))
    S, _ = estimate_S()
    exact = mp.sqrt(mp.mpf(6) / (5 * mp.pi)) / (2 * mp.sqrt(mp.pi))
    checks.append(("singularity constant",
                   abs(abs(S) - exact) / exact < 1e-3))
    mu, resid = solve_stok2()
    checks.append(("mu closed form", resid < 1e-12
                   and abs(mu - 1j * math.sqrt(6 / (5 * math.pi))) < 1e-12))
    checks.append(("integrability witness",
                   integrability_witness(Fraction(-392, 625)) == 0
                   and integrability_witness(
                       Fraction(-392, 625) + Fraction(1, 10)) != 0))
    s = -0.5
    h = 1e-4
    J = cycle_J(s)
    Jpp = (cycle_J(s + h) - 2 * J + cycle_J(s - h)) / h**2
    checks.append(("period ODE", abs(Jpp + rho(s) * J / 4) < 1e-6))
    Jp = (cycle_J(s + 1e-5) - cycle_J(s - 1e-5)) / 2e-5
    checks.append(("L = 2 J'", abs(cycle_L(s) - 2 * Jp) < 1e-8))

    payload = {"checks": [{"name": n, "passed": bool(ok)}
                          for n, ok in checks],
               "all_passed": all(ok for _, ok in checks)}
    _write_json(obj["cfg"], obj["out"], payload)
    if not payload["all_passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
