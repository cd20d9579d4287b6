"""Complex-path integration of the normalized equation with pole traversal.

Every ODE of the package is integrated by one Taylor-series stepper,
:func:`solve_ivp`, in complex double, along straight segments in complex
x.  At a centre c the Taylor coefficients of the solution through the
current state follow from a short recurrence on the equation multiplied by
x; for the h-equation, x h'' + h' = x (h + h^2/2) + EQ4 x^{-3} needs one
Cauchy product for h^2 and the known series of (c + t)^{-3}.  A step with
local tolerance eps = atol + rtol |y| takes the order
n = ceil(-ln(eps) / 2) + 1 (20 at eps = 1e-16) and the length
min_j (eps / |a_j|)^{1/j} over the last two coefficients j = n - 1, n
(Jorba and Zou, Exp. Math. 14, 2005), bounded by DIST_FRAC times the
distance to the singular point x = 0; a path that passes just beside
x = 0 shortens its steps instead of grinding.  Each step's polynomial is
its dense output.

Near poles (double poles with h ~ 12/(x-x0)^2) the state switches to the
chart g = h(1 + h/3)^{-1}, in which a pole of h is a regular point with
g = 3, g' = 0; its recurrence adds the products g'^2 and
(c + t)^{-3} (3 - g)^2 and the series of g'^2/(3 - g).  A chart event is a
root of |h| - ENTER_G (h-chart) or |h| - EXIT_G (g-chart) on a step's
polynomial, found by bisection; the hysteresis between the thresholds
avoids thrashing.  A pole is refined without further integration: the
REFINE_ORDER-term g-series at the stored step centre nearest the candidate
(one where |3 - g| > G_GAP, since the recurrence divides by 3 - g) is
formed once, and Newton's method runs on its derivative g'.  The module
also carries the coordinate map back to the standard Painleve I variables.

The Poincare map of :mod:`boutroux.cycles` stays fixed-step RK4 on the
shared contour table: moving it onto this stepper changes the pinned map
values of its tests, which then need an independent refined-step
reference first.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .connection import BOREL_S
from .errors import ChartDeadlockError, StepFailureError
from .series import EQP_COEFF, h0_series, level_series

# x^{-4} coefficient of the h-equation right-hand side h'' = h + h^2/2 + ...
EQ4 = float(-EQP_COEFF)
# chart hysteresis: enter the g-chart above |h| = ENTER_G, leave below EXIT_G
ENTER_G = 10.0
EXIT_G = 5.0
MAX_SWITCHES = 400
# the fraction of the distance to the nearest singular point of the
# equation that one Taylor step may cover
DIST_FRAC = 0.5
# terms of the g-series that refines a pole, and the least |3 - g| at its
# centre (the g recurrence divides by 3 - g)
REFINE_ORDER = 40
G_GAP = 0.05


# ---------------------------------------------------------------------------
# Charts


def h_from_g(state):
    g, v = state
    omg = 3.0 - g
    return 3 * g / omg, 9 * v / (omg * omg)


def g_from_h(state):
    h, hp = state
    oph = 3.0 + h
    return 3 * h / oph, 9 * hp / (oph * oph)


# ---------------------------------------------------------------------------
# Taylor series of the charts and the stepper


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


def _series_g(c, g, v, n):
    """Taylor coefficients g_0..g_n at x = c of the g-chart solution through
    (g, g'), from x g'' = x (g + g^2/6) + (EQ4/9) x^{-3} (3 - g)^2 - g'
    - 2 x q with q = g'^2/(3 - g), whose coefficients follow from
    (3 - g) q = g'^2 order by order."""
    a = [complex(g), complex(v)]
    om0 = 3.0 - a[0]
    vs, qs, om2, es = [], [], [], []
    e = EQ4 / (9 * c ** 3)
    F_prev = q_prev = 0j
    for k in range(n - 1):
        vs.append((k + 1) * a[k + 1])
        es.append(e)
        sq = sum(map(mul, a[:k + 1], a[k::-1]))
        om2.append(sq - 6 * a[k] + (9 if k == 0 else 0))
        q = (sum(map(mul, vs, reversed(vs)))
             + sum(map(mul, a[1:k + 1], reversed(qs)))) / om0
        qs.append(q)
        F = a[k] + sq / 6
        w = sum(map(mul, es, reversed(om2)))
        a.append((c * F + F_prev + w - vs[k] - 2 * (c * q + q_prev)
                  - k * (k + 1) * a[k + 1]) / (c * (k + 1) * (k + 2)))
        F_prev, q_prev = F, q
        e *= -(k + 3) / ((k + 1) * c)
    return a


def _horner(cs, t):
    """Value and derivative at t of the polynomial sum cs[k] t^k."""
    y = d = 0j
    for c in reversed(cs):
        d = d * t + y
        y = y * t + c
    return y, d


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


def solve_ivp(series, x0, x1, y0, singular=(0.0,), event=None,
              rtol=1e-15, atol=1e-16):
    """Taylor-series integration of a second-order equation along the
    straight segment x0 -> x1 in complex x.

    ``series(c, y, y', n)`` gives the Taylor coefficients 0..n at c of the
    solution through (y, y').  A step with local tolerance eps = atol +
    rtol |y| takes the order n = ceil(-ln(eps) / 2) + 1 and the length
    min_j (eps / |a_j|)^{1/j} over j = n - 1, n (Jorba and Zou), bounded
    by DIST_FRAC times the distance to the nearest point of ``singular``.
    The integration stops where ``event(y)`` passes from <= 0 to > 0 at
    the end of a step, located by bisection on the step's polynomial.
    Returns (x_end, (y, y') at x_end, steps, hit) with steps a list of
    (centre, end, coefficients).  Raises StepFailureError when a step
    yields non-finite coefficients or underflows.
    """
    x, x1 = complex(x0), complex(x1)
    y, yp = complex(y0[0]), complex(y0[1])
    steps, hit = [], False
    while x != x1 and not hit:
        eps = atol + rtol * abs(y)
        cs = series(x, y, yp, max(4, math.ceil(-0.5 * math.log(eps)) + 1))
        if not all(map(cmath.isfinite, cs)):
            raise StepFailureError("Taylor coefficients overflow near "
                                   "x = %s" % x)
        r = min(_accurate_radius(cs, eps),
                DIST_FRAC * min(abs(x - p) for p in singular))
        dx, end = x1 - x, x1
        if r < abs(dx):
            if r <= 4 * math.ulp(abs(x)):
                raise StepFailureError("step size underflow near x = %s"
                                       % x)
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


def _enter_g(h):
    return abs(h) - ENTER_G


def _exit_g(g):
    # EXIT_G - |h| with h = 3g/(3 - g), times |3 - g|: no division at g = 3
    return EXIT_G * abs(3 - g) - 3 * abs(g)


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


# ---------------------------------------------------------------------------
# Traces


@dataclass
class PoleRecord:
    """A double pole of h found in the g-chart."""

    location: complex
    witness: float = 0.0  # |g - 3| at the refined location


@dataclass
class TraceSegment:
    """One Taylor step x0 -> x1: the chart's (y, y') near the step is
    sum coeffs[k] (x - x0)^k and its derivative."""

    x0: complex
    x1: complex
    chart: str
    coeffs: list

    def __call__(self, x):
        return _horner(self.coeffs, complex(x) - self.x0)


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
        return x, (h_from_g(state) if chart == "g" else state)

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

    ``state`` is (h, h') in the h-chart; ``rtol`` and ``atol`` set the local
    error of a Taylor step (see :func:`solve_ivp`).  The integration
    switches charts with hysteresis: enters the g-chart when |h| exceeds
    ENTER_G and returns when |h| falls below EXIT_G.  A segment through the
    singular point x = 0 raises StepFailureError before anything is
    integrated.  Returns a :class:`SolutionTrace` with a sample at every
    waypoint and chart switch and one dense segment per Taylor step.
    """
    state = complex(state[0]), complex(state[1])
    x0 = complex(x0)
    points = [x0] + [complex(p) for p in path]
    for a, b in zip(points, points[1:]):
        z = a.conjugate() * b  # real and <= 0 when 0 lies on [a, b]
        if z.imag == 0 and z.real <= 0:
            raise StepFailureError("segment %s -> %s passes through the "
                                   "singular point x = 0" % (a, b))
    chart = "h"
    trace = SolutionTrace()
    trace.samples.append((x0, state, chart))
    switches = 0

    for target in points[1:]:
        if target == x0:
            continue
        hit = True
        while hit:
            series, event = ((_series_h, _enter_g) if chart == "h"
                             else (_series_g, _exit_g))
            x0, state, steps, hit = solve_ivp(series, x0, target, state,
                                              event=event, rtol=rtol,
                                              atol=atol)
            trace.segments.extend(TraceSegment(a, b, chart, cs)
                                  for a, b, cs in steps)
            if hit:
                switches += 1
                if switches > MAX_SWITCHES:
                    raise ChartDeadlockError(
                        "more than %d chart switches; integration is "
                        "thrashing near x = %s" % (MAX_SWITCHES, x0))
                if chart == "h":
                    state, chart = g_from_h(state), "g"
                else:
                    state, chart = h_from_g(state), "h"
            trace.samples.append((x0, state, chart))
    return trace


def detect_poles(trace, tol=1e-10):
    """Refine the g = 3 approaches of a trace's g-chart steps to poles of h.

    Samples |g - 3| on the steps' polynomials; each local minimum below 0.8
    is refined by :func:`_refine_pole`, and a refinement is kept when its
    witness |g - 3| is below ``tol``.  Returns deduplicated
    :class:`PoleRecord` entries.
    """
    samples = []
    for seg in (seg for seg in trace.segments if seg.chart == "g"):
        dx = seg.x1 - seg.x0
        m = max(8, int(40 * abs(dx)) + 2)
        samples += [(abs(seg(seg.x0 + dx * j / m)[0] - 3.0),
                     seg.x0 + dx * j / m) for j in range(m)]
    candidates = [samples[i] for i in range(1, len(samples) - 1)
                  if samples[i][0] <= min(samples[i - 1][0],
                                          samples[i + 1][0])
                  and samples[i][0] < 0.8]
    # best candidates first; a near-exact pole passage leaves a wake of
    # spurious g ~ 3 samples behind it, suppressed by the exclusion radius
    candidates.sort(key=lambda c: c[0])
    found = []
    for _, x_c in candidates:
        if any(abs(x_c - p.location) < 1.0 for p in found):
            continue
        rec = _refine_pole(trace, x_c, tol)
        if rec is not None and all(abs(rec.location - p.location) > 1.0
                                   for p in found):
            found.append(rec)
    found.sort(key=lambda p: (p.location.imag, p.location.real))
    trace.poles = found
    return found


def _refine_pole(trace, x_c, tol):
    """Newton on g'(x) = 0 on the local g-series, from the candidate x_c.

    The centre is the stored step start or sample of ``trace`` nearest x_c
    at which |3 - g| > G_GAP; the REFINE_ORDER-term g-series there is
    formed once, and Newton's method runs on its derivative (a simple zero
    at the pole, since g - 3 ~ -(3/4)(x - x0)^2).  Returns None when an
    iterate leaves the radius within which the series' last two terms stay
    below 1e-16 max(1, |g|), or when the witness |g - 3| at the limit
    exceeds ``tol``.
    """
    x_c = complex(x_c)
    states = [(s.x0, s.coeffs[:2], s.chart) for s in trace.segments]
    centres = [(x, g_from_h(st) if chart == "h" else st)
               for x, st, chart in states + trace.samples]
    centres = [(x, gv) for x, gv in centres
               if cmath.isfinite(gv[0]) and abs(3.0 - gv[0]) > G_GAP]
    if not centres:
        return None
    centre, (g, v) = min(centres, key=lambda c: abs(c[0] - x_c))
    cs = _series_g(centre, g, v, REFINE_ORDER)
    radius = _accurate_radius(cs, 1e-16 * max(1.0, abs(g)))
    dcs = [k * c for k, c in enumerate(cs)][1:]
    t = x_c - centre
    for _ in range(40):
        d, dd = _horner(dcs, t)
        if dd == 0:
            return None
        step = -d / dd
        t += step
        if abs(t) > radius:
            return None
        if abs(step) <= 4 * math.ulp(abs(centre + t)):
            break
    witness = abs(_horner(cs, t)[0] - 3.0)
    if witness > tol:
        return None
    return PoleRecord(location=centre + t, witness=witness)


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
    bound of the sums.  Warns when it exceeds 1e-8.

    The Borel-summed transseries is not used as a seed: at the seeds of
    locate_pole (n = 5, 10, 15, C = 1) and 30 digits, sum_transseries needs
    17 levels and 1.2-3.6 s per seed, against 0.2-0.3 ms here, and the two
    agree to 1.2e-15 at n = 5.
    """
    x0 = complex(x0)
    N = int(min(max(abs(x0), 8), SEED_ORDER))
    N -= N % 2
    q = complex(C) * cmath.exp(-x0)
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
    prediction + 0.4 + 0.1i, short of the pole, and refines the pole on the
    local g-series there.  Returns (predicted, record): the four-order
    asymptotic prediction and the refined PoleRecord.
    """
    from .twoscale import predict_pole

    pred = complex(predict_pole(n, C).x_n)
    x0 = pred + 4.0 + 0.3j
    state, _ = far_field_init(C, x0)
    trace = integrate_path(x0, state, [pred + 0.4 + 0.1j])
    rec = _refine_pole(trace, pred, 1e-10)
    if rec is None:
        raise ChartDeadlockError("no pole detected near prediction for "
                                 "n = %d" % n)
    trace.poles = [rec]
    return pred, rec
