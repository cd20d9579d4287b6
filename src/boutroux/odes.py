"""Complex-path integration of the normalized equation with pole traversal.

The h-equation is integrated as a first-order system along piecewise-linear
paths in complex x.  Near poles (double poles with h ~ 12/(x-x0)^2) the
state switches to the chart g = h(1 + h/3)^{-1}, in which a pole of h is a
regular point with g = 3, g' = 0; hysteresis thresholds avoid thrashing.
The module also carries the coordinate map back to the standard Painleve I
variables.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .connection import BOREL_S
from .errors import ChartDeadlockError, StepFailureError
from .series import EQP_COEFF, h0_coefficients, h0_series, level_series

# x^{-4} coefficient of the h-equation right-hand side h'' = h + h^2/2 + ...
EQ4 = float(-EQP_COEFF)
# chart hysteresis: enter the g-chart above |h| = ENTER_G, leave below EXIT_G
ENTER_G = 10.0
EXIT_G = 5.0
MAX_SWITCHES = 400


# ---------------------------------------------------------------------------
# Right-hand sides and charts


def rhs_h(x, state):
    """(h, h') -> (h', h'') for  h'' = h + h^2/2 + EQ4/x^4 - h'/x."""
    if x == 0:
        raise ValueError("the equation is singular at x = 0")
    h, hp = state
    return np.array([hp, h + h * h / 2 + EQ4 / x**4 - hp / x])


def rhs_g(x, state):
    """(g, g') for the pole chart g = h(1 + h/3)^{-1}.

    Substituting h = 3g/(3-g) into the h-equation gives
    g'' = g(3-g)/3 + g^2/2 + EQ4 x^{-4}(3-g)^2/9 - g'/x - 2g'^2/(3-g),
    regular at g = 3 (a double pole of h).
    """
    if x == 0:
        raise ValueError("the equation is singular at x = 0")
    g, v = state
    omg = 3.0 - g
    vp = (g * omg / 3 + g * g / 2 + EQ4 / x**4 * omg * omg / 9
          - v / x - 2 * v * v / omg)
    return np.array([v, vp])


def h_from_g(state):
    g, v = state
    omg = 3.0 - g
    return np.array([3 * g / omg, 9 * v / (omg * omg)])


def g_from_h(state):
    h, hp = state
    oph = 3.0 + h
    return np.array([3 * h / oph, 9 * hp / (oph * oph)])


# ---------------------------------------------------------------------------
# Coordinate maps to the standard Painleve I variables

_Z_FACTOR = 30.0 ** 0.8 / 24.0


def map_x_to_z(x, h, hp):
    """(x, h, h') -> (z, y, dy/dz) in the original Painleve I variables.

    z = 24^{-1} 30^{4/5} x^{4/5} e^{-i pi/5},
    y = i sqrt(z/6) (1 - 4/(25 x^2) + h),
    with principal-branch powers continued from the positive axis.
    """
    x = complex(x)
    z = _Z_FACTOR * x ** 0.8 * cmath.exp(-1j * cmath.pi / 5)
    dzdx = 0.8 * z / x
    root = 1j * cmath.sqrt(z / 6)
    core = 1 - 4 / (25 * x * x) + h
    y = root * core
    dydx = root * (core * dzdx / (2 * z) + 8 / (25 * x**3) + hp)
    return z, y, dydx / dzdx


def map_z_to_x(z, y, dydz):
    """Inverse of :func:`map_x_to_z` (principal branch)."""
    z = complex(z)
    x = (z * cmath.exp(1j * cmath.pi / 5) / _Z_FACTOR) ** 1.25
    dzdx = 0.8 * z / x
    root = 1j * cmath.sqrt(z / 6)
    core = y / root
    h = core - 1 + 4 / (25 * x * x)
    dydx = dydz * dzdx
    hp = dydx / root - core / (2 * z) * dzdx - 8 / (25 * x**3)
    return x, h, hp


# ---------------------------------------------------------------------------
# Traces


@dataclass
class PoleRecord:
    """A double pole of h found in the g-chart."""

    location: complex
    witness: float = 0.0  # |g - 3| at the refined location


@dataclass
class TraceSegment:
    x0: complex
    x1: complex
    chart: str
    t0: float
    t1: float
    sol: object  # dense OdeSolution over [t0, t1] in the segment parameter


@dataclass
class SolutionTrace:
    """Result of a path integration: samples, dense segments, poles."""

    samples: list = field(default_factory=list)  # (x, state, chart)
    segments: list = field(default_factory=list)
    poles: list = field(default_factory=list)

    @property
    def endpoint(self):
        return self.state_h(-1)

    def state_h(self, i):
        x, state, chart = self.samples[i]
        return x, (h_from_g(state) if chart == "g" else np.asarray(state))

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


def integrate_path(x0, state, path, rtol=1e-12, atol=1e-14):
    """Integrate along the polyline x0 -> path[0] -> ... -> path[-1].

    ``state`` is (h, h') in the h-chart.  The integration switches charts
    with hysteresis: enters the g-chart when |h| exceeds ENTER_G and
    returns when |h| falls below EXIT_G.  A segment through the singular
    point x = 0 raises StepFailureError before anything is integrated.
    Returns a :class:`SolutionTrace` whose dense g-chart segments support
    pole refinement.
    """
    state = np.asarray(state, dtype=complex)
    x0 = complex(x0)
    points = [x0] + [complex(p) for p in path]
    for a, b in zip(points, points[1:]):
        z = a.conjugate() * b  # real and <= 0 when 0 lies on [a, b]
        if z.imag == 0 and z.real <= 0:
            raise StepFailureError("segment %s -> %s passes through the "
                                   "singular point x = 0" % (a, b))
    chart = "h"
    trace = SolutionTrace()
    trace.samples.append((x0, state.copy(), chart))
    switches = 0

    for target in path:
        target = complex(target)
        if target == x0:
            continue
        dx = target - x0
        tau = 0.0
        while tau < 1.0:
            if chart == "h":
                def fun(t, y, _dx=dx, _x0=x0):
                    return _dx * rhs_h(_x0 + t * _dx, y)

                def event(t, y):
                    return abs(y[0]) - ENTER_G
                event.direction = 1.0
            else:
                def fun(t, y, _dx=dx, _x0=x0):
                    return _dx * rhs_g(_x0 + t * _dx, y)

                def event(t, y):
                    return abs(3 * y[0] / (3 - y[0])) - EXIT_G
                event.direction = -1.0
            event.terminal = True

            sol = solve_ivp(fun, (tau, 1.0), state, method="DOP853",
                            rtol=rtol, atol=atol, dense_output=True,
                            events=event)
            if sol.status == -1:
                raise StepFailureError(
                    "integration failed near x = %s: %s"
                    % (x0 + sol.t[-1] * dx, sol.message))
            t_end = sol.t[-1]
            trace.segments.append(TraceSegment(
                x0=x0, x1=target, chart=chart, t0=tau, t1=t_end, sol=sol.sol))
            state = sol.y[:, -1].copy()
            x_here = x0 + t_end * dx
            if sol.status == 1:  # chart event
                switches += 1
                if switches > MAX_SWITCHES:
                    raise ChartDeadlockError(
                        "more than %d chart switches; integration is "
                        "thrashing near x = %s" % (MAX_SWITCHES, x_here))
                if abs(t_end - tau) == 0.0 and switches > 5:
                    raise ChartDeadlockError(
                        "chart switch makes no progress at x = %s" % x_here)
                if chart == "h":
                    state = g_from_h(state)
                    chart = "g"
                else:
                    state = h_from_g(state)
                    chart = "h"
            tau = t_end
            trace.samples.append((x_here, state.copy(), chart))
        x0 = target
    return trace


def detect_poles(trace, tol=1e-10):
    """Refine g = 3 crossings of a trace's g-chart segments to poles of h.

    Newton iteration on g'(x) = 0 in complex x (a simple zero at the pole
    since g - 3 ~ -(3/4)(x - x0)^2), re-integrating the chart system along
    each Newton step.  Returns deduplicated :class:`PoleRecord` entries.
    """
    candidates = []
    for seg in trace.segments:
        if seg.chart != "g":
            continue
        dx = seg.x1 - seg.x0
        ts = np.linspace(seg.t0, seg.t1, max(8, int(40 * abs(
            (seg.t1 - seg.t0) * dx)) + 2))
        vals = seg.sol(ts)
        dev = np.abs(vals[0] - 3.0)
        for i in range(1, len(ts) - 1):
            if dev[i] <= dev[i - 1] and dev[i] <= dev[i + 1] and dev[i] < 0.8:
                candidates.append((dev[i], seg.x0 + ts[i] * dx,
                                   vals[:, i].copy()))
    # best candidates first; a near-exact pole passage leaves a wake of
    # spurious g ~ 3 samples behind it, suppressed by the exclusion radius
    candidates.sort(key=lambda c: c[0])
    found = []
    for _, x_c, state in candidates:
        if any(abs(x_c - p.location) < 1.0 for p in found):
            continue
        rec = _refine_pole(x_c, state, tol)
        if rec is not None and all(abs(rec.location - p.location) > 1.0
                                   for p in found):
            found.append(rec)
    found.sort(key=lambda p: (p.location.imag, p.location.real))
    trace.poles = found
    return found


def _refine_pole(x_c, state, tol):
    """Newton on g'(x) = 0 from a nearby chart state.

    Steps are capped and each move is integrated with guard events: the
    g-chart blows up on the h = -3 ring around the pole (|x - x0| ~ 2), so
    a wandering iterate is abandoned rather than integrated through it.
    """
    x_c = complex(x_c)
    budget = 4.0

    def runaway(t, y):
        return abs(y[0]) - 50.0
    runaway.terminal = True

    def escaped(t, y):
        return abs(3 * y[0] / (3 - y[0])) - 4.0
    escaped.terminal = True

    for _ in range(40):
        g, v = state
        vp = rhs_g(x_c, state)[1]
        if vp == 0:
            return None
        step = -v / vp
        if abs(step) > 0.4:
            step *= 0.4 / abs(step)
        if abs(g - 3.0) < tol or abs(step) < 1e-13:
            # close enough: take the last Newton step without integrating
            # (|g - 3| at the refined point only shrinks further)
            return PoleRecord(location=x_c + step,
                              witness=float(abs(g - 3.0)))
        budget -= abs(step)
        if budget < 0:
            return None
        # tolerances are kept above the floating-point noise floor of the
        # 0/0 ratio v^2/(3-g) near the pole, or the stepper stalls
        sol = solve_ivp(lambda t, y: step * rhs_g(x_c + t * step, y),
                        (0.0, 1.0), state, method="DOP853",
                        rtol=1e-9, atol=1e-11, events=(runaway, escaped))
        if sol.status != 0:
            return None
        x_c = x_c + step
        state = sol.y[:, -1]
    return None


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


def _seed_terms(k, n, x):
    """Value and derivative at x of the first n terms of _seed_series(k) by
    Horner's rule in 1/x, and a rounding bound for each: 4 n eps times the
    sum of |term| (Higham's gamma_2n, doubled for complex arithmetic)."""
    lead2, cs, dcs = _seed_series(k)
    u, au = 1 / x, 1 / abs(x)
    v = d = 0j
    mv = md = 0.0
    for c, dc in zip(reversed(cs[:n]), reversed(dcs[:n])):
        v, d = v * u + c, d * u + dc
        mv, md = mv * au + abs(c), md * au + abs(dc)
    scale = x ** (lead2 / 2)
    bound = 4 * n * EPS * abs(scale)
    return v * scale, d * scale * u, bound * mv, bound * md * au


def far_field_init(C, x0):
    """Seed (h, h') at large |x0| from the truncated transseries.

    Sums the exact coefficients, rounded to floats, in complex double at
    optimal-ish truncation N ~ |x0| with FAR_FIELD_LEVELS exponential
    levels; returns (state, err_est) where err_est adds the first omitted
    power term, the optimal-truncation floor, the first omitted level and
    the rounding bound of the sums.  Warns when it exceeds 1e-8.

    The Borel-summed transseries is not used as a seed: at the seeds of
    locate_pole (n = 5, 10, 15, C = 1) and 30 digits, sum_transseries needs
    17 levels and 1.2-3.6 s per seed, against 0.2-0.3 ms here, and the two
    agree to 2.2e-13.
    """
    x0 = complex(x0)
    N = int(min(max(abs(x0), 8), SEED_ORDER))
    if N % 2:
        N -= 1
    h, hp, rh, rhp = _seed_terms(0, N - 3, x0)  # c_4..c_N
    rounding = rh + rhp
    tail = float(h0_coefficients(N + 2)[-1])
    err = abs(tail) * abs(x0) ** (-(N + 2))
    # optimal-truncation floor: the least term of the divergent series is
    # reached near order |x| and has size ~ 2 pi S e^{-|x|}, with S the
    # Borel singularity constant
    err += 2 * math.pi * BOREL_S * math.exp(-abs(x0))
    if C != 0:
        q = complex(C) * cmath.exp(-x0)
        n = min(N + 20, SEED_ORDER) + 1  # a_0..a_{N+20}
        pref = 1
        sizes = []
        for k in range(1, FAR_FIELD_LEVELS + 1):
            s, ds, rs, rds = _seed_terms(k, n, x0)
            pref *= q
            term = pref * s
            h += term
            hp += pref * (ds - k * s)
            rounding += abs(pref) * ((k + 1) * rs + rds)
            sizes.append(abs(term))
        # first omitted level estimated by the observed geometric decay
        err += sizes[-1] * min(sizes[-1] / sizes[-2], 1.0) \
            if sizes[-2] > 0 else sizes[-1]
    err += rounding
    if err > 1e-8:
        warnings.warn("far-field seed error estimate %.2e exceeds 1.00e-08; "
                      "move the seed outward" % err)
    return np.array([h, hp]), err


# ---------------------------------------------------------------------------
# Global continuation of the tritronquee


def continue_around(R_target=20.0):
    """Continue the tritronquee from arg x = pi/4 both ways around.

    Seeded at radius 30, counterclockwise to arg x = 3pi/2 (pole-free
    sector; the path dips to radius 5 while passing arg x = pi, where
    errors in the exponentially growing direction would otherwise be
    amplified by e^{|x|}), and clockwise to arg x = -pi through the pole
    sector at radius 8 using chart switching.  Returns (trace_ccw, trace_cw).
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
    """Residual of  h(|x|e^{3i pi/2}) + h(|x|e^{-i pi}) + 2 - 8/(25|x|^2).

    The two traces must end at |x|e^{3i pi/2} and |x|e^{-i pi} with the
    same |x|.
    """
    x1, s1 = trace_ccw.endpoint
    x2, s2 = trace_cw.endpoint
    r1, r2 = abs(x1), abs(x2)
    if abs(r1 - r2) > 1e-9:
        raise ValueError("traces end at different radii")
    return s1[0] + s2[0] + 2 - 8.0 / (25 * r1 * r1)


def locate_pole(n, C=1.0):
    """Detect and refine pole n of the first array, seeded far afield.

    Returns (predicted, record): the four-order asymptotic prediction and
    the refined PoleRecord nearest to it.
    """
    from .twoscale import predict_pole

    pred = complex(predict_pole(n, C).x_n)
    x0 = pred + 4.0 + 0.3j
    state, _ = far_field_init(C, x0)
    trace = integrate_path(x0, state, [pred - 1.0 + 0.3j],
                           rtol=1e-11, atol=1e-13)
    poles = detect_poles(trace)
    if not poles:
        raise ChartDeadlockError("no pole detected near prediction for "
                                 "n = %d" % n)
    best = min(poles, key=lambda p: abs(p.location - pred))
    return pred, best
