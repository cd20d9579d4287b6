"""Complex-path integration of the normalized equation with pole traversal.

Every ODE of the package is integrated on Taylor discs in complex double,
each opened by one helper, :func:`_open_disc`.  At a centre c the Taylor
coefficients of the solution through the current state follow from a
short recurrence on the equation multiplied by x; for the h-equation,
x h'' + h' = x (h + h^2/2) + EQ4 x^{-3} needs one Cauchy product for h^2
and the known series of (c + t)^{-3}.  A disc with local tolerance
eps = atol + rtol |y| takes the order n = ceil(-ln(eps) / 2) + 1 (20 at
eps = 1e-16) and the radius min_j (eps / |a_j|)^{1/j} over the last two
coefficients j = n - 1, n (Jorba and Zou, Exp. Math. 14, 2005), bounded
by DIST_FRAC times the distance to the singular point x = 0; a path that
passes just beside x = 0 shortens its steps instead of grinding, and one
through it is refused.  :func:`solve_ivp` steps along straight segments
from disc to disc; the Poincare map of :mod:`boutroux.cycles` reads its
Newton iterates off the discs directly.

Every pole of h is a double pole h = 12/(x - x0)^2 + ... whose Laurent
series has one free coefficient, beta at order (x - x0)^4 (the Painleve
property: the resonance at that order is consistent).  Where |h| exceeds
ENTER_G on a step's polynomial (an event found by bisection, about 1.1
from the pole), :func:`_refine_pole` fits (x0, beta) to (x, h, h') by
Newton's method and records the pole; the path then crosses the disc
|x - x0| < (12/EXIT_G)^{1/2} on the Laurent series and returns to the
h-chart where it leaves the disc.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .connection import BOREL_S
from .errors import ChartDeadlockError, NonConvergentSumError, StepFailureError
from .series import EQP_COEFF, h0_series, level_series

# x^{-4} coefficient of the h-equation right-hand side h'' = h + h^2/2 + ...
EQ4 = float(-EQP_COEFF)
# the pole chart: fit a pole where |h| rises above ENTER_G, leave its
# Laurent series at the radius where 12/|x - x0|^2 = EXIT_G
ENTER_G = 10.0
EXIT_G = 5.0
_EXIT_RADIUS = (12 / EXIT_G) ** 0.5
# the fraction of the distance to the nearest singular point of the
# equation that one Taylor step may cover
DIST_FRAC = 0.5


# ---------------------------------------------------------------------------
# Taylor and Laurent series, and the stepper


def _series_h(c, h, hp, n):
    """Taylor coefficients a_0..a_n at x = c of the h-chart solution through
    (h, h'), from x h'' + h' = x (h + h^2/2) + EQ4 x^{-3} at order t^k,
    x = c + t: c (k+1)(k+2) a_{k+2} + (k+1)^2 a_{k+1}
    = c F_k + F_{k-1} + e_k with F = h + h^2/2 and e_k the coefficients of
    EQ4 (c + t)^{-3}."""
    a = [complex(h), complex(hp)]
    e = EQ4 / c ** 3
    F_prev = 0j
    for k in range(n - 1):
        F = a[k] + 0.5 * sum(map(mul, a[:k + 1], a[k::-1]))
        a.append((c * F + F_prev + e - (k + 1) ** 2 * a[k + 1])
                 / (c * (k + 1) * (k + 2)))
        F_prev = F
        e *= -(k + 3) / ((k + 1) * c)
    return a


def _series_pole(x0, beta, n):
    """Laurent coefficients b_{-2}..b_n of h about the pole x0 with
    b_4 = beta, and the resonance residual.

    The same equation at order t^{n-2}, x = x0 + t, gives b_{-2} = 12 and,
    for every other n >= -1,
    x0 (n-4)(n+3) b_n = x0 b_{n-2} + b_{n-3} + (x0/2) S'_{n-2}
    + (1/2) S_{n-3} + e_{n-2} - (n-1)^2 b_{n-1},
    with S_m the sum of b_i b_j over i + j = m, S' the same over
    i, j >= -1, and e_m the coefficients of EQ4 (x0 + t)^{-3}.  Since
    S_m = S'_m + 24 b_{m+2} for m >= -3, this is
    x0 (n-4)(n+3) b_n = x0 F_{n-2} + F_{n-3} + e_{n-2}
    + (12 - (n-1)^2) b_{n-1} with F = b + S'/2 for n >= 0, and
    b_{-1} = -12/(5 x0).  At n = 4 the left side vanishes: the right side
    there is the resonance residual, zero when the equation has the
    Painleve property.  Returns (c, residual) with c[k] = b_{k-2}, so that
    h = sum c[k] t^{k-2}.
    """
    a = [-2.4 / x0]                  # a[j] = b_{j-1}
    e = EQ4 / x0 ** 3
    F_prev = residual = 0j
    for k in range(n + 1):
        F = (a[k - 1] if k else 12.0) + 0.5 * sum(map(mul, a, reversed(a)))
        b = x0 * F + F_prev + (12 - (k - 1) ** 2) * a[k]
        if k > 1:
            b += e
            e *= -(k + 1) / ((k - 1) * x0)
        if k == 4:
            residual, b = b, beta
        else:
            b /= x0 * (k - 4) * (k + 3)
        a.append(b)
        F_prev = F
    return [12.0] + a, residual


def _horner(cs, t):
    """Value and derivative at t of the polynomial sum cs[k] t^k."""
    y = d = 0j
    for c in reversed(cs):
        d = d * t + y
        y = y * t + c
    return y, d


def _pole_state(cs, t):
    """(h, h') at distance t from the pole of the Laurent coefficients cs."""
    p, dp = _horner(cs, t)
    return p / t ** 2, (dp - 2 * p / t) / t ** 2


def _accurate_radius(cs, eps):
    """The Jorba-Zou step rule: the least of (eps / |a_j|)^{1/j} over the
    last two coefficients, the radius within which they fall below eps."""
    n = len(cs) - 1
    r = math.inf
    for j in (n - 1, n):
        m = abs(cs[j])
        if m > 0:
            r = min(r, (eps / m) ** (1.0 / j))
    return r


def _order(eps):
    """The stepper's order for the local tolerance eps."""
    return max(4, math.ceil(-0.5 * math.log(eps)) + 1)


def _open_disc(series, c, y, yp, singular=(0.0,), rtol=1e-15, atol=1e-16):
    """One Taylor disc at x = c through (y, y'): ``series(c, y, y', n)``
    to the order n for the local tolerance eps = atol + rtol |y|, and the
    accurate radius r, the least of the Jorba-Zou radius and DIST_FRAC
    times the distance to the nearest point of ``singular``.  Returns
    (coefficients, r).  Raises StepFailureError when a coefficient is not
    finite or r underflows (at most 4 ulps of |c|)."""
    eps = atol + rtol * abs(y)
    cs = series(c, y, yp, _order(eps))
    if not all(map(cmath.isfinite, cs)):
        raise StepFailureError("Taylor coefficients overflow near x = %s" % c)
    r = min(_accurate_radius(cs, eps),
            DIST_FRAC * min(abs(c - p) for p in singular))
    if r <= 4 * math.ulp(abs(c)):
        raise StepFailureError("step size underflow near x = %s" % c)
    return cs, r


def _exit_fraction(u, d, r):
    """The s > 0 at which the segment from a point inside a disc of radius
    r, at offset u from its centre, in the direction d leaves the disc:
    the root of |u + s d| = r."""
    b, dd = (u.conjugate() * d).real, abs(d) ** 2
    return (math.sqrt(b * b + dd * (r ** 2 - abs(u) ** 2)) - b) / dd


def solve_ivp(series, x0, x1, y0, singular=(0.0,), event=None,
              rtol=1e-15, atol=1e-16):
    """Taylor-series integration of a second-order equation along the
    straight segment x0 -> x1 in complex x.

    ``series(c, y, y', n)`` gives the Taylor coefficients 0..n at c of the
    solution through (y, y').  Each step opens the disc of
    :func:`_open_disc` at its start and runs to the disc's edge, or to x1
    inside it.
    The integration stops where ``event(y)`` passes from <= 0 to > 0 at
    the end of a step, located by bisection on the step's polynomial.
    Returns (x_end, (y, y') at x_end, steps, hit) with steps a list of
    (centre, end, coefficients).  Raises StepFailureError, before any
    step, for a non-finite start state or a segment through a point of
    ``singular``, and when a step yields non-finite coefficients or
    underflows.
    """
    x, x1 = complex(x0), complex(x1)
    y, yp = complex(y0[0]), complex(y0[1])
    if not (cmath.isfinite(y) and cmath.isfinite(yp)):
        raise StepFailureError("non-finite state (%s, %s) at x = %s"
                               % (y, yp, x))
    for p in singular:
        z = (x - p).conjugate() * (x1 - p)  # real, <= 0 when p in [x, x1]
        if z.imag == 0 and z.real <= 0:
            raise StepFailureError("segment %s -> %s passes through the "
                                   "singular point x = %s" % (x, x1, p))
    steps, hit = [], False
    while x != x1 and not hit:
        cs, r = _open_disc(series, x, y, yp, singular, rtol, atol)
        dx, end = x1 - x, x1
        if r < abs(dx):
            dx *= r / abs(dx)
            end = x + dx
        y1, yp1 = _horner(cs, dx)
        hit = event is not None and event(y) <= 0 < event(y1)
        if hit:
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if event(_horner(cs, mid * dx)[0]) > 0:
                    hi = mid
                else:
                    lo = mid
            dx, end = hi * dx, x + hi * dx
            y1, yp1 = _horner(cs, dx)
        steps.append((x, end, cs))
        x, y, yp = end, y1, yp1
    return x, (y, yp), steps, hit


def _enter_pole(h):
    return abs(h) - ENTER_G


# ---------------------------------------------------------------------------
# Traces and poles


@dataclass
class PoleRecord:
    """A double pole of h, fitted where a path entered its disc."""

    location: complex
    witness: float = 0.0  # relative mismatch of the fit's (h, h')


@dataclass
class SolutionTrace:
    """Result of a path integration: samples and poles."""

    samples: list = field(default_factory=list)  # (x, (h, h'), chart)
    poles: list = field(default_factory=list)

    @property
    def endpoint(self):
        x, state, _ = self.samples[-1]
        return x, state

    def to_json(self):
        import json

        return json.dumps({
            "samples": [{"x": [x.real, x.imag], "chart": c,
                         "state": [s[0].real, s[0].imag,
                                   s[1].real, s[1].imag]}
                        for x, s, c in self.samples],
            "poles": [{"x": [p.location.real, p.location.imag],
                       "witness": p.witness} for p in self.poles],
        })


def arc_path(radius, theta0, theta1, max_chord=1.5):
    """Waypoints along an origin-centered arc, short chords."""
    span = abs(theta1 - theta0) * radius
    n = max(2, int(math.ceil(span / max_chord)))
    return [radius * cmath.exp(1j * (theta0 + (theta1 - theta0) * k / n))
            for k in range(1, n + 1)]


def integrate_path(x0, state, path, rtol=1e-15, atol=1e-16):
    """Integrate along the polyline x0 -> path[0] -> ... -> path[-1].

    ``state`` is (h, h'); ``rtol`` and ``atol`` set the local error of a
    Taylor step (see :func:`solve_ivp`).  Where |h| rises above ENTER_G
    the pole is fitted by :func:`_refine_pole` and recorded in the trace,
    and the path crosses the disc of radius (12/EXIT_G)^{1/2} about it on
    the Laurent series (chart "pole").  A segment through the singular
    point x = 0 raises StepFailureError.  Returns a :class:`SolutionTrace`
    with a sample at every waypoint and chart switch.
    """
    x = complex(x0)
    state = complex(state[0]), complex(state[1])
    trace = SolutionTrace(samples=[(x, state, "h")])
    pole = None  # (x0, Laurent coefficients) inside a pole's disc
    for target in map(complex, path):
        while x != target:
            if pole is None:
                x, state, _, hit = solve_ivp(_series_h, x, target, state,
                                             event=_enter_pole, rtol=rtol,
                                             atol=atol)
                if hit:
                    rec, cs = _refine_pole(x, state,
                                           atol + rtol * abs(state[0]))
                    trace.poles.append(rec)
                    pole = rec.location, cs
            else:
                # leave the disc where |x + s d - x_p| = _EXIT_RADIUS, s > 0
                x_p, cs = pole
                d = target - x
                s = _exit_fraction(x - x_p, d, _EXIT_RADIUS)
                if s < 1:
                    x, pole = x + s * d, None
                else:
                    x = target
                state = _pole_state(cs, x - x_p)
            trace.samples.append((x, state, "h" if pole is None else "pole"))
    return trace


def _refine_pole(x, state, eps):
    """Fit the pole (x0, beta) whose Laurent series passes through
    (x, h, h') = (x, state).

    Newton's method on the 2x2 system h(x; x0, beta) = h,
    h'(x; x0, beta) = h', from beta = 0 and x0 = x + 2(h + 1)/h', the pole
    of 12/(x - x0)^2 - 1 (b_0 = -1 + O(x0^{-2})).  The residual takes the
    series to twice the stepper's order n at eps, the Jacobian forward
    differences of the series to order n: at order n a series meets eps
    out to about e^{-2} of its radius of convergence (the Jorba-Zou step),
    at 2n out to about e^{-1} of it.  The fitted series must meet eps, by
    its last two terms, out to the exit radius (12/EXIT_G)^{1/2}, which
    must contain x.  Returns (PoleRecord,
    Laurent coefficients of the fit) with the witness the larger relative
    mismatch of h and h' at x.  Raises StepFailureError when Newton's
    method breaks down or does not settle, or the series fails that
    check.
    """
    h, hp = state
    n = _order(eps)

    def mismatch(x0, beta, m):
        fh, fp = _pole_state(_series_pole(x0, beta, m)[0], x - x0)
        return fh - h, fp - hp

    cs, d = None, 1e-7
    try:
        x0, beta = x + 2 * (h + 1) / hp, 0j
        for _ in range(40):
            f, g = mismatch(x0, beta, 2 * n)
            f0, g0 = mismatch(x0, beta, n)
            fa, ga = mismatch(x0 + d, beta, n)
            fb, gb = mismatch(x0, beta + d, n)
            j00, j01, j10, j11 = fa - f0, fb - f0, ga - g0, gb - g0
            det = (j00 * j11 - j01 * j10) / d
            step = (f * j11 - g * j01) / det
            x0, beta = x0 - step, beta - (j00 * g - j10 * f) / det
            if abs(step) <= 4 * math.ulp(abs(x0)):
                cs, _ = _series_pole(x0, beta, 2 * n)
                break
    except (ZeroDivisionError, OverflowError):
        pass  # Newton's method broke down: cs is None
    if not (cs and all(map(cmath.isfinite, cs))
            and abs(x - x0) < _EXIT_RADIUS <= _accurate_radius(cs, eps)):
        raise StepFailureError("no Laurent series through the state at "
                               "x = %s reaches the edge of its disc" % x)
    fh, fp = _pole_state(cs, x - x0)
    witness = max(abs(fh - h) / abs(h), abs(fp - hp) / abs(hp))
    return PoleRecord(location=x0, witness=witness), cs


def detect_poles(trace, tol=1e-10):
    """The poles fitted along ``trace`` whose witness is at most ``tol``,
    sorted by imaginary and then real part; also stored in trace.poles."""
    trace.poles = sorted((p for p in trace.poles if p.witness <= tol),
                         key=lambda p: (p.location.imag, p.location.real))
    return trace.poles


# ---------------------------------------------------------------------------
# Far-field seeding

FAR_FIELD_LEVELS = 14
# longest truncation order of a seed series; shorter orders take a slice
SEED_ORDER = 60
EPS = math.ulp(1.0)


@lru_cache(maxsize=None)
def _seed_series(k):
    """(lead2, coefficients, coefficients of the derivative) of h0 (k = 0)
    or of h_k to order x^{-SEED_ORDER}, each coefficient rounded once to a
    float; the derivative of a leading slice is the same slice of these."""
    s = h0_series(SEED_ORDER) if k == 0 else level_series(k, SEED_ORDER)
    return (s.lead2, tuple(map(float, s.coeffs)),
            tuple(map(float, s.differentiate().coeffs)))


def far_field_init(C, x0):
    """Seed (h, h') at large |x0| from the truncated transseries.

    Sums h = sum_{k=0}^{K} q^k h_k with q = C e^{-x0}, h_0 = h0 and
    K = FAR_FIELD_LEVELS (K = 0 when C = 0), from the exact coefficients
    rounded to floats, by Horner's rule in 1/x0 in complex double.  Each
    series diverges and is cut near its least term (optimal truncation,
    order ~ |x0|) by one rule: x^{k/2} h_k is summed through x^{-N}, N the
    even integer at or below |x0|, clamped to [8, SEED_ORDER].  Returns
    (state, err_est) where err_est adds the first omitted non-zero term of
    every series (its last stored term where the table ends first), the
    optimal-truncation floor, the first omitted level and the rounding
    bound of the sums.  Warns when it exceeds 1e-8, and raises
    NonConvergentSumError when the seed or its estimate overflows complex
    double (|C| or |q| far out of range).

    The Borel-summed transseries is not used as a seed: at the seeds of
    locate_pole (n = 5, 10, 15, C = 1) and 30 digits, sum_transseries needs
    17 levels and 1.2-3.6 s per seed, against 0.2-0.3 ms here, and the two
    agree to 1.2e-15 at n = 5.
    """
    x0 = complex(x0)
    N = int(min(max(abs(x0), 8), SEED_ORDER))
    N -= N % 2
    try:
        q = complex(C) * cmath.exp(-x0)
    except OverflowError:
        q = complex(math.inf)
    u, au = 1 / x0, 1 / abs(x0)
    h = hp = 0j
    # optimal-truncation floor: the least term of the divergent series is
    # reached near order |x| and has size ~ 2 pi S e^{-|x|}, with S the
    # Borel singularity constant
    err = 2 * math.pi * BOREL_S * math.exp(-abs(x0))
    rounding, sizes, pref = 0.0, [], 1
    K = FAR_FIELD_LEVELS if C != 0 else 0
    for k in range(K + 1):
        lead2, cs, dcs = _seed_series(k)
        n = N + 1 + (lead2 + k) // 2  # terms through x^{-N} of x^{k/2} h_k
        v = d = 0j
        mv = md = 0.0
        for c, dc in zip(reversed(cs[:n]), reversed(dcs[:n])):
            v, d = v * u + c, d * u + dc
            mv, md = mv * au + abs(c), md * au + abs(dc)
        scale = x0 ** (lead2 / 2)
        s, ds = v * scale, d * scale * u
        h += pref * s
        hp += pref * (ds - k * s)
        # Horner's rounding: 4 n eps times the sum of |term| (Higham's
        # gamma_2n, doubled for complex arithmetic)
        rounding += abs(pref) * 4 * n * EPS * abs(scale) * (
            (k + 1) * mv + md * au)
        sizes.append(abs(pref * s))
        # the first omitted non-zero term (h0's odd orders vanish)
        j = next((j for j in range(n, len(cs)) if cs[j]), len(cs) - 1)
        err += abs(pref * cs[j]) * abs(x0) ** (lead2 / 2 - j)
        pref *= q
    if K:
        # first omitted level estimated by the observed geometric decay
        err += sizes[-1] * min(sizes[-1] / sizes[-2], 1.0) \
            if sizes[-2] > 0 else sizes[-1]
    err += rounding
    if not (cmath.isfinite(h) and cmath.isfinite(hp) and math.isfinite(err)):
        raise NonConvergentSumError(
            "far-field seed at x0 = %s for C = %s overflows complex double"
            % (x0, C))
    if err > 1e-8:
        warnings.warn("far-field seed error estimate %.2e exceeds 1.00e-08; "
                      "move the seed outward" % err)
    return (h, hp), err


# ---------------------------------------------------------------------------
# Global continuation of the tritronquee


def continue_around(R_target=20.0):
    """Continue the tritronquee from arg x = pi/4 both ways around.

    Seeded at radius 30, counterclockwise to arg x = 3pi/2 (pole-free
    sector; the path dips to radius 5 while passing arg x = pi, where
    errors in the exponentially growing direction would otherwise be
    amplified by e^{|x|}), and clockwise to arg x = -pi through the pole
    sector at radius 8.  The tritronquee has no poles on that path: at
    R_target = 20 it makes no chart switch and detect_poles finds none.
    Returns (trace_ccw, trace_cw).
    """
    R_seed, r_dip, r_dip_cw = 30.0, 5.0, 8.0
    seed, _ = far_field_init(0.0, R_seed * cmath.exp(1j * cmath.pi / 4))
    x_seed = R_seed * cmath.exp(1j * cmath.pi / 4)

    path_ccw = (arc_path(R_seed, cmath.pi / 4, cmath.pi / 2)
                + [1j * r_dip]
                + arc_path(r_dip, cmath.pi / 2, 3 * cmath.pi / 2,
                           max_chord=0.8)
                + [-1j * R_target])
    trace_ccw = integrate_path(x_seed, seed, path_ccw)

    path_cw = (arc_path(R_seed, cmath.pi / 4, -cmath.pi / 2)
               + [-1j * r_dip_cw]
               + arc_path(r_dip_cw, -cmath.pi / 2, -cmath.pi, max_chord=0.8)
               + [-R_target])
    trace_cw = integrate_path(x_seed, seed, path_cw)
    detect_poles(trace_cw)
    return trace_ccw, trace_cw


def single_valuedness_residual(trace_ccw, trace_cw):
    """Residual of  h(|x|e^{3i pi/2}) + h(|x|e^{-i pi}) + 2.

    Both points map to the same z, where the branches of sqrt(z/6) in
    y = i sqrt(z/6) (1 - 4/(25x^2) + h) differ by a sign, so the two
    brackets sum to 0; their -4/(25x^2) terms cancel, since x^2 = -|x|^2
    at the first point and |x|^2 at the second.  The two traces must end
    at |x|e^{3i pi/2} and |x|e^{-i pi} with the same |x|.
    """
    x1, s1 = trace_ccw.endpoint
    x2, s2 = trace_cw.endpoint
    if abs(abs(x1) - abs(x2)) > 1e-9:
        raise ValueError("traces end at different radii")
    return s1[0] + s2[0] + 2


def locate_pole(n, C=1.0):
    """Refine pole n of the first array, seeded far afield.

    Integrates from the far-field seed at prediction + 4 + 0.3i to
    prediction + 0.4 + 0.1i, which enters the pole's disc, and reads the
    pole off the Laurent fit there.  Returns (predicted, record): the
    four-order asymptotic prediction and the fitted PoleRecord.
    """
    from .twoscale import predict_pole

    pred = complex(predict_pole(n, C).x_n)
    x0 = pred + 4.0 + 0.3j
    state, _ = far_field_init(C, x0)
    poles = detect_poles(integrate_path(x0, state, [pred + 0.4 + 0.1j]))
    if not poles:
        raise ChartDeadlockError("no pole detected near prediction for "
                                 "n = %d" % n)
    return pred, min(poles, key=lambda p: abs(p.location - pred))
