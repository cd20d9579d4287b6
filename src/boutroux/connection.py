"""Constant-beyond-all-orders extraction and Stokes-multiplier measurement.

The constant C multiplying the exponentially small level of a solution is
recovered as the limit of e^x x^{1/2} (h(x) - L H0(x)) along a schedule of
|x| values, where L H0 is the lateral Borel sum of the bare power series;
the Stokes multiplier mu is measured from the difference of the two lateral
Borel sums and cross-checked against the closed form i sqrt(6/(5 pi)).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import FitDegenerateError, NoConvergenceError


def _truncation_kernel(x, theta):
    """The lateral Borel sum L H0(x) in the frame of direction theta.

    L sums on the Borel-summable side, on the ray phi of sign opposite to
    theta.  h - L H0 is the exponentially small part that C multiplies.
    """
    from .borel import laplace_ray, solve_H0_convolution

    # the tritronquee's callers pass mp.pi / 8, so this ray reuses their
    # Laplace engine
    phi = mp.pi / 8 if theta < 0 else -mp.pi / 8
    return laplace_ray(solve_H0_convolution(), x, phi=phi, tol=1e-18)


def mu_closed_form():
    """mu = i sqrt(6/(5 pi))."""
    return 1j * mp.sqrt(mp.mpf(6) / (5 * mp.pi))


# S = Im mu / (2 sqrt(pi)), the strength of H0's Borel singularities at
# p = +-1, as a float that does not depend on the ambient precision
with mp.workdps(30):
    BOREL_S = float(mp.im(mu_closed_form()) / (2 * mp.sqrt(mp.pi)))


def default_schedule():
    """|x| = 16.5, 18.5, ..., 36.5."""
    return [16.5 + 2.0 * j for j in range(11)]


def neville(us, vs):
    """Value at u = 0 of the polynomial through the points (us[i], vs[i]),
    by Neville's algorithm; with us = 1/n it extrapolates vs to n = inf."""
    vs = list(vs)
    for lvl in range(1, len(us)):
        vs = [(vs[i + 1] * us[i] - vs[i] * us[i + lvl]) / (us[i] - us[i + lvl])
              for i in range(len(vs) - 1)]
    return vs[0]


def extract_constant(evaluator, theta, schedule=None, return_info=False):
    """Constant beyond all orders of ``evaluator`` along arg x = theta.

    Computes v_j = e^{x_j} x_j^{1/2} (h(x_j) - L H0(x_j)) on the schedule,
    with L H0 the lateral Borel sum of ``_truncation_kernel``, fits
    C + a1/|x| + ... + a4/|x|^4 together with the second-level mode
    sigma^j |x|^{-1/2}, sigma = e^{-Delta e^{i theta}}, by least squares,
    and cross-checks by a refit on the tail and by 3-level Richardson.
    The difference is taken in mpmath: each term of v_j is about 3e5 at
    |x| = 36.5, so a double-precision difference would lose six digits.

    On the Stokes directions theta = 0 or +-pi plain evaluation is
    ill-posed; the average of the two off-axis extractions (the
    (C+ + C-)/2 semantics of the two-sided limit) is returned.
    """
    if schedule is None:
        schedule = default_schedule()
    if len(schedule) < 6:
        raise ValueError("schedule too short for the 6-parameter fit")
    theta = float(theta)
    if abs(theta) < 1e-12 or abs(abs(theta) - math.pi) < 1e-12:
        base = 0.0 if abs(theta) < 1e-12 else math.copysign(math.pi, theta)
        up = extract_constant(evaluator, base + math.pi / 4, schedule)
        dn = extract_constant(evaluator, base - math.pi / 4, schedule)
        c = (up + dn) / 2
        return (c, {"two_sided": True}) if return_info else c

    rs = [mp.mpf(r) for r in schedule]
    vs = []
    for r in rs:
        x = r * mp.exp(1j * mp.mpf(theta))
        vs.append(complex(mp.exp(x) * mp.sqrt(x)
                          * (evaluator(x) - _truncation_kernel(x, theta))))

    # second-level mode: C^2 e^{-x} x^{-1/2} t_2 contributes sigma^j
    sigma = complex(mp.exp(-(rs[1] - rs[0]) * mp.exp(1j * mp.mpf(theta))))
    cols = []
    for j, r in enumerate(rs):
        u = 1.0 / float(r)
        cols.append([1.0, u, u * u, u ** 3, u ** 4, sigma ** j * u ** 0.5])
    A = np.array(cols, dtype=complex)
    b = np.array(vs, dtype=complex)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    C = complex(coef[0])

    # cross-checks: refit on the tail, and Richardson on the cleaned values
    coef_tail, *_ = np.linalg.lstsq(A[3:], b[3:], rcond=None)
    cleaned = [vs[j] - A[j, 5] * coef[5] for j in range(len(rs))]
    rich = complex(neville([1 / r for r in rs[-3:]], cleaned[-3:]))
    err = max(abs(C - complex(coef_tail[0])), abs(C - rich))
    if err > 1e-3:
        raise NoConvergenceError(
            "constant extraction did not settle",
            diagnostics={"C_fit": C, "C_tail": complex(coef_tail[0]),
                         "C_richardson": rich, "values": vs})
    if return_info:
        return C, {"err_est": err, "richardson": rich, "values": vs,
                   "two_sided": False}
    return C


def _fit_exponential(grid, diffs, sign):
    """Least squares of diffs ~ sign * mu e^{-r} r^{-1/2} (1 + a1/r)."""
    grid = [float(r) for r in grid]
    if len(grid) < 3:
        raise FitDegenerateError("need at least 3 grid points")
    if (max(grid) - min(grid)) < math.log(10.0):
        raise FitDegenerateError(
            "grid spans less than one decade of e^{-x} variation")
    rows, rhs = [], []
    for r, d in zip(grid, diffs):
        w = sign * mp.exp(-mp.mpf(r)) / mp.sqrt(mp.mpf(r))
        rows.append([complex(w), complex(w / r)])
        rhs.append(complex(d))
    A = np.array(rows, dtype=complex)
    b = np.array(rhs, dtype=complex)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.max(np.abs(A @ coef - b)))
    return complex(coef[0]), resid


def measure_mu(h_plus, h_minus, grid=None):
    """Stokes multiplier from the lateral difference on a real grid.

    Fits h+(x) - h-(x) to -mu e^{-x} x^{-1/2} (1 + a1/x) over the grid
    (default x = 8..20) and returns (mu, max fit residual).
    """
    if grid is None:
        grid = [8.0 + k for k in range(13)]
    diffs = [h_plus(mp.mpf(r)) - h_minus(mp.mpf(r)) for r in grid]
    return _fit_exponential(grid, diffs, -1)


def verify_second_stokes_line(h_sigma, h_plus, grid=None):
    """Residual of  h+(x) - hsigma(x) = +mu e^{-|x|} |x|^{-1/2}, x -> -infty.

    The evaluators are called at x = |x| e^{i pi}.  Returns (fitted
    constant - mu, max fit residual).  A fitted constant closer to -mu
    than to +mu indicates swapped arguments and raises FitDegenerate.
    """
    if grid is None:
        grid = [8.0 + k for k in range(13)]
    diffs = []
    for r in grid:
        x = mp.mpf(r) * mp.exp(1j * mp.pi)
        diffs.append(h_plus(x) - h_sigma(x))
    c, resid = _fit_exponential(grid, diffs, +1)
    mu = complex(mu_closed_form())
    if abs(c + mu) < abs(c - mu):
        raise FitDegenerateError(
            "fitted constant is near -mu: evaluator arguments look swapped")
    return c - mu, resid
