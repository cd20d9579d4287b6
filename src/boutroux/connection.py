"""Constant-beyond-all-orders extraction and Stokes-multiplier measurement.

The constant C multiplying the exponentially small level of a solution is
recovered as the limit of e^x x^{1/2} (h(x) - optimally truncated series)
along a schedule of |x| values; the Stokes multiplier mu is measured from
the difference of the two lateral Borel sums and cross-checked against the
closed form i sqrt(6/(5 pi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import FitDegenerateError, NoConvergenceError
from .series import h0_coefficients

_KERNEL_CACHE = {}


def _truncation_kernel(r, kmax, theta):
    """Universal truncation residue e^x sqrt(x) (L H0(x) - trunc(x)).

    L is the lateral Borel sum in the frame of direction theta (the ray
    on the Borel-summable side, phi of sign opposite to theta).  This is
    the C-independent part of the extraction sequence and is subtracted
    exactly rather than fitted.
    """
    key = (float(r), int(kmax), round(float(theta), 12), mp.mp.dps)
    if key not in _KERNEL_CACHE:
        from .borel import laplace_ray, solve_H0_convolution

        x = mp.mpf(r) * mp.exp(1j * mp.mpf(theta))
        # the tritronquee's callers pass mp.pi / 8, so this ray reuses
        # their Laplace engine
        phi = mp.pi / 8 if theta < 0 else -mp.pi / 8
        h = laplace_ray(solve_H0_convolution(), x, phi=phi, tol=1e-18)
        _KERNEL_CACHE[key] = complex(
            mp.exp(x) * mp.sqrt(x) * (h - truncated_series(x, kmax)))
    return _KERNEL_CACHE[key]


def mu_closed_form():
    """mu = i sqrt(6/(5 pi))."""
    return 1j * mp.sqrt(mp.mpf(6) / (5 * mp.pi))


@dataclass
class ConnectionData:
    """Constants of one solution with respect to the two lateral frames."""

    C_plus: complex
    C_minus: complex
    mu: complex

    def jump_residual(self):
        """Residual of the lateral-frame relation C+ - C- = -mu."""
        return self.C_plus - self.C_minus + self.mu


def truncated_series(x, kmax):
    """Sum_{k <= kmax} c_k x^{-k} with the exact coefficients."""
    if kmax < 4:
        return mp.mpf(0)
    cs = h0_coefficients(kmax)
    acc = mp.mpf(0)
    xm = mp.mpc(x)
    for i in range(len(cs) - 1, -1, -1):
        k = 4 + i
        if k > kmax:
            continue
        c = cs[i]
        acc = acc / xm + mp.mpf(c.numerator) / c.denominator
    return acc * xm ** -4


def default_schedule():
    """|x| = 16.5, 18.5, ..., 36.5."""
    return [16.5 + 2.0 * j for j in range(11)]


def _richardson3(rs, ws):
    """3-level Neville extrapolation in 1/r to 1/r = 0 on the last points."""
    us = [1 / mp.mpf(r) for r in rs[-3:]]
    vs = list(ws[-3:])
    for lvl in range(1, 3):
        nxt = []
        for i in range(len(vs) - 1):
            u0, u1 = us[i], us[i + lvl]
            nxt.append((vs[i + 1] * u0 - vs[i] * u1) / (u0 - u1))
        vs = nxt
    return vs[0]


def extract_constant(evaluator, theta, schedule=None, return_info=False):
    """Constant beyond all orders of ``evaluator`` along arg x = theta.

    Computes v_j = e^{x_j} x_j^{1/2} (h(x_j) - truncated series) on the
    schedule with optimal truncation index floor(|x_j|) (ties broken
    downward), removes the truncation-noise mode ~ rho^j with
    rho = e^{Delta (e^{i theta} - 1 - i theta)} by least squares together
    with a cubic fit in 1/|x|, and cross-checks by 3-level Richardson.
    (The -i theta term carries the phase of the least term x^{-n} as the
    optimal index n advances with the schedule.)

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
        kmax = int(math.floor(float(r)))
        if float(r) == kmax:  # tie broken downward
            kmax -= 1
        v = mp.exp(x) * mp.sqrt(x) * (evaluator(x) - truncated_series(x, kmax))
        vs.append(complex(v) - _truncation_kernel(r, kmax, theta))

    delta = float(rs[1] - rs[0])
    rho = complex(mp.exp(delta * (mp.exp(1j * mp.mpf(theta)) - 1
                                  - 1j * mp.mpf(theta))))
    # second-level mode: C^2 e^{-x} x^{-1/2} t_2 contributes sigma^j
    sigma = complex(mp.exp(-delta * mp.exp(1j * mp.mpf(theta))))
    cols = []
    for j, r in enumerate(rs):
        u = 1.0 / float(r)
        su = u ** 0.5  # Stirling prefactor of the least term
        cols.append([1.0, u, u * u, u ** 3,
                     rho ** j * su, rho ** j * su * u, sigma ** j * su])
    A = np.array(cols, dtype=complex)
    b = np.array(vs, dtype=complex)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    C = complex(coef[0])

    # cross-checks: refit on the tail, and Richardson on the cleaned values
    coef_tail, *_ = np.linalg.lstsq(A[3:], b[3:], rcond=None)
    cleaned = [vs[j] - A[j, 4] * coef[4] - A[j, 5] * coef[5]
               - A[j, 6] * coef[6] for j in range(len(rs))]
    rich = complex(_richardson3([float(r) for r in rs], cleaned))
    err = max(abs(C - complex(coef_tail[0])), abs(C - rich))
    if err > 1e-3:
        raise NoConvergenceError(
            "constant extraction did not settle",
            diagnostics={"C_fit": C, "C_tail": complex(coef_tail[0]),
                         "C_richardson": rich, "values": vs})
    if return_info:
        return C, {"err_est": err, "richardson": rich, "values": vs,
                   "rho": rho, "two_sided": False}
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
