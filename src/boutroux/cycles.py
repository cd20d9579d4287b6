"""Cycle integrals, their ODEs, the Poincare map, and the Stokes multiplier.

The energy-like variable s = h'^2 - h^2 - h^3/3 is slow in the pole
sector; with u = h as the angle-like variable and R(u, s) =
sqrt(u^3/3 + u^2 + s) = h' the h-equation becomes

    ds/du = -2 R/x + (784/625) x^-4,    dx/du = 1/R.

The cycle is the circle |u + 2| = 2 through the base point u0 = -4: for
the s of interest it encloses two roots of the cubic and excludes the
third, and it degenerates exactly at s = 0 (a root reaches the contour)
and s = -4/3 (the interior roots collide).  The period integrals

    J(s) = oint R du,    L(s) = oint du/R = 2 J'(s)

satisfy J'' + rho J / 4 = 0 with rho = 5/(3s(3s+4)), which is unchanged
under s -> -4/3 - s.  So with Jhat the solution with Jhat(0) = 0 and
Jhat'(0) = 1 (its Frobenius series continued on this ODE), the period
that vanishes at s = -4/3 is J(s) = sigma pi Jhat(-4/3 - s), and
L(s) = -2 sigma pi Jhat'(-4/3 - s); sigma = +-1 is the sign of
Im sqrt(s - 16/3), R's principal branch at the base node (+1 for real s).
By Abel's identity the Wronskian W = J Jhat' - J' Jhat is constant, and
at s = 0 (Jhat = 0, Jhat' = 1) it is the separatrix period J(0) = -24
sigma/5.  Following h = u once around the cycle on the h-equation's own
flow gives the Poincare map (x_n, s_n) -> (x_{n+1}, s_{n+1}) with the
adiabatic invariants Q = x J(s) and K_shifted = K(s_n) + 2n/(x0 J(s0)),
K = Jhat/(W J).  The Stokes multiplier is mu^2 = J(0)/(4 pi) = -6/(5 pi)
at sigma = +1; the factor 1/(4 pi) and the sign of the root are not
traced here.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCycleError,
    MatchFailureError,
    NoConvergenceError,
    OutsideRegionError,
    StepFailureError,
)
from .odes import (ENTER_G, _exit_fraction, _horner, _open_disc, _series_h,
                   solve_ivp)

U_BASE = -4.0
CYCLE_CENTER = -2.0
CYCLE_RADIUS = 2.0

#: guard radius around the degenerate energies {0, -4/3}, and the least
#: distance of a cubic root from the contour
DEGENERATE_GUARD = 0.05

#: J(0) for sigma = +1, the period of the separatrix h = 0.  At s = 0 the
#: cycle closes on the cut from the root u = -3 to the double root u = 0 of
#: R^2 = u^2 (1 + u/3), so J(0) = 2 int_{-3}^0 u sqrt(1 + u/3) du; with
#: v = 1 + u/3 it is 18 (int_0^1 v^{3/2} dv - int_0^1 v^{1/2} dv)
SEPARATRIX_PERIOD = float(18 * (Fraction(2, 5) - Fraction(2, 3)))


def cubic_roots(s):
    """Roots of u^3/3 + u^2 + s, interior pair first, exterior root last.

    The interior pair is the two roots closest to the cycle center -2.
    With u = v - 1, v^3 - 3v + p = 0, p = 2 + 3s, is solved by v = w + 1/w
    with w^3 the larger root of t^2 + p t + 1 (no cancellation; accuracy
    is lost only near the degenerate energies s = 0, -4/3).
    """
    p = 2.0 + 3.0 * complex(s)
    d = cmath.sqrt(p * p - 4.0)
    w = (-(p + d if abs(p + d) >= abs(p - d) else p - d) / 2.0) ** (1 / 3)
    ws = [w * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    return tuple(sorted((v + 1 / v - 1 for v in ws),
                        key=lambda r: abs(r - CYCLE_CENTER)))


@dataclass(frozen=True)
class Cycle:
    """Closed u-contour: circle through u0 = -4 around the interior pair."""

    center: complex = CYCLE_CENTER
    radius: float = CYCLE_RADIUS

    def validate(self, s):
        """Require the contour to enclose exactly two roots of the cubic
        u^3/3 + u^2 + s, away from the degenerate energies."""
        if min(abs(s), abs(s + 4.0 / 3.0)) < DEGENERATE_GUARD:
            raise DegenerateCycleError(
                "s = %s within guard radius of a degenerate energy" % s)
        dist = [abs(r - self.center) for r in cubic_roots(s)]
        d = min(abs(r - self.radius) for r in dist)
        if d < DEGENERATE_GUARD:
            raise DegenerateCycleError(
                "cubic root within %.3g of the contour at s = %s" % (d, s))
        inside = sum(r < self.radius for r in dist)
        if inside != 2:
            raise DegenerateCycleError(
                "contour encloses %d roots instead of 2 at s = %s"
                % (inside, s))


@functools.lru_cache(maxsize=16)
def _contour(cycle, n):
    """Read-only nodes u_j = u(j/n), j = 0..n, from the base point round
    to the closing node: the targets of the Poincare map's Newton steps."""
    return tuple(cycle.center + cycle.radius
                 * cmath.exp(1j * (math.pi + 2 * math.pi * (j / n)))
                 for j in range(n + 1))


def _sigma(s):
    """The sign of Im sqrt(s - 16/3): R's branch at the base node, by the
    expression :func:`poincare_step` starts h' with."""
    return math.copysign(1.0, cmath.sqrt(U_BASE**3 / 3 + U_BASE**2 + s).imag)


def _reflected_periods(s):
    """(J, L) = (sigma pi Jhat(t), -2 sigma pi Jhat'(t)) at t = -4/3 - s,
    for an s that ``Cycle.validate`` accepts."""
    Cycle().validate(s)
    val, der = jhat_at(-4.0 / 3.0 - complex(s))
    c = _sigma(s) * math.pi
    return c * val, -2.0 * c * der


def cycle_J(s):
    """J(s) = oint R du over the cycle."""
    return _reflected_periods(s)[0]


def cycle_L(s):
    """L(s) = oint du/R over the cycle; equals 2 J'(s)."""
    return _reflected_periods(s)[1]


def rho(s):
    """Coefficient of the period ODE J'' + rho J / 4 = 0."""
    s = complex(s)
    return 5.0 / (3.0 * s * (3.0 * s + 4.0))


_JHAT_BASE = -0.05


def _jhat_series():
    """Frobenius series of the solution vanishing at s = 0 (indicial root
    1), normalized to slope 1: Jhat = sum a_n s^n with a_1 = 1 and
    a_{n+1} = -(36n(n-1) + 5) a_n / (48n(n+1)), from J'' + rho J / 4 = 0
    times 36 s^2 + 48 s; Jhat = s - 5/96 s^2 + 385/27648 s^3 - ...
    Terms are added until the next one is below 1e-17 at the seed point
    s = _JHAT_BASE: ten terms, as they shrink like (3|s|/4)^n."""
    a, n = [Fraction(1)], 1
    while abs(a[-1]) * abs(_JHAT_BASE) ** n >= 1e-17:
        a.append(-(36 * n * (n - 1) + 5) * a[-1] / (48 * n * (n + 1)))
        n += 1
    return tuple(float(c) for c in a[:-1])


_JHAT_SERIES = _jhat_series()


def _jhat_seed(s):
    val = sum(c * s ** (k + 1) for k, c in enumerate(_JHAT_SERIES))
    der = sum((k + 1) * c * s ** k for k, c in enumerate(_JHAT_SERIES))
    return complex(val), complex(der)


def _period_series(c, J, Jp, n):
    """Taylor coefficients J_0..J_n at s = c of the solution through
    (J, J'), from (36 s^2 + 48 s) J'' = -5 J at order t^k, s = c + t:
    P0 (k+1)(k+2) J_{k+2} = -(5 + 36 k(k-1)) J_k - P1 k(k+1) J_{k+1}
    with P0 = 36 c^2 + 48 c and P1 = 72 c + 48."""
    a = [complex(J), complex(Jp)]
    P0, P1 = 36 * c * c + 48 * c, 72 * c + 48
    for k in range(n - 1):
        a.append(-((5 + 36 * k * (k - 1)) * a[k] + P1 * k * (k + 1) * a[k + 1])
                 / (P0 * (k + 1) * (k + 2)))
    return a


def _ode_continue(s0, y0, s1):
    """Continue (J, J') of J'' = -rho J / 4 along the segment s0 -> s1.

    Taylor steps of :func:`boutroux.odes.solve_ivp`, bounded by the
    distance to the singular points s = 0 and s = -4/3 of rho.  A segment
    through one of them raises MatchFailureError before anything is
    integrated.
    """
    # tolerances below double rounding: at rtol 1e-15, L lost 2e-13 near
    # s = 0, as Jhat'(-4/3 - s) grows like log(-s)
    try:
        _, y, _, _ = solve_ivp(_period_series, s0, s1, y0,
                               singular=(0.0, -4.0 / 3.0),
                               rtol=1e-17, atol=1e-18)
    except StepFailureError as exc:
        raise MatchFailureError("period ODE continuation failed: %s" % exc)
    return y


def jhat_at(s):
    """(Jhat(s), Jhat'(s)) by continuation from the Frobenius seed; for
    Re s > 0 the seed is at -_JHAT_BASE, so real s > 0 is reached without
    passing s = 0, where Jhat is analytic."""
    base = _JHAT_BASE if complex(s).real <= 0 else -_JHAT_BASE
    y = _ode_continue(base, _jhat_seed(base), s)
    return complex(y[0]), complex(y[1])


def _check_jhat_cut(s):
    """Raise OutsideRegionError for a real s < -4/3: Jhat's cut, where the
    continuation from -0.05 would run through the singular point -4/3."""
    if s.imag == 0 and s.real < -4.0 / 3.0:
        raise OutsideRegionError("s = %s lies on the cut of Jhat, real "
                                 "s < -4/3" % s)


# ---------------------------------------------------------------------------
# Poincare map


#: contour nodes the map visits in turn: with 16 or 24, Newton's steps can
#: land on another root of h = -4 (from x = 30 e^{-0.3i}, s = -0.1 they do)
MAP_NODES = 32
#: Newton's stopping step at an intermediate node, and its step budget at
#: any node (72 starts over |x| 15..100, four args and six s needed 6); one
#: step per node lands 3 of 141 maps on another root, a stop at 1e-1 lands 1
MAP_NODE_TOL = 1e-3
MAP_NEWTON_MAX = 20
#: the least |x_n| checked against RK4: below it Newton can land on another
#: root of h = -4 (from x_n = 10 e^{-0.3i}, s_n = -0.5 + 0.1i it does)
MAP_MIN_RADIUS = 15.0


def poincare_step(x_n, s_n):
    """One traversal of the cycle: (x_n, s_n) -> (x_{n+1}, s_{n+1}).

    Follows h = u round the cycle on the h-equation's own flow (R = h',
    s = h'^2 - h^2 - h^3/3): from (h, h') = (-4, sqrt(s_n - 16/3)) at x_n
    it visits the MAP_NODES contour nodes u_j in turn by Newton steps
    x <- x + (u_j - h)/h', and leaves a node where the next step would be
    at most MAP_NODE_TOL, or 4 ulps of x at the closing node u = -4.  Each
    iterate is read by Horner's rule off the current Taylor disc of
    :func:`boutroux.odes._open_disc`; a step that leaves the disc opens the
    next one where it crosses the disc's edge, until the iterate lies in a
    disc.  Returns x and s = h'^2 - h^2 - h^3/3 there.  Raises
    OutsideRegionError for |x_n| below MAP_MIN_RADIUS (the map is checked
    against RK4 up to 1,000), DegenerateCycleError for an s_n that
    ``Cycle.validate`` refuses, StepFailureError where |h| exceeds ENTER_G
    (the map has no pole chart) or a disc fails, and NoConvergenceError
    when a node takes more than MAP_NEWTON_MAX steps.
    """
    # a start rounded from |x| = MAP_MIN_RADIUS, as 15 e^{-0.3i}, passes
    if not abs(x_n) >= MAP_MIN_RADIUS * (1 - 1e-12):
        raise OutsideRegionError("the cycle map is checked from |x| = %g; "
                                 "got x = %s" % (MAP_MIN_RADIUS, x_n))
    Cycle().validate(s_n)
    u = _contour(Cycle(), MAP_NODES)
    x, h = complex(x_n), U_BASE
    hp = cmath.sqrt(U_BASE**3 / 3 + U_BASE**2 + s_n)
    c, (cs, r) = x, _open_disc(_series_h, x, h, hp)
    for j in range(1, MAP_NODES + 1):
        closing = j == MAP_NODES
        target = U_BASE if closing else u[j]
        for _ in range(MAP_NEWTON_MAX):
            dx = (target - h) / hp
            if abs(dx) <= (4 * math.ulp(abs(x)) if closing else MAP_NODE_TOL):
                break
            x1 = x + dx
            while x != x1:
                frac = _exit_fraction(x - c, x1 - x, r)
                x = x1 if frac >= 1 else x + frac * (x1 - x)
                h, hp = _horner(cs, x - c)
                if abs(h) > ENTER_G:
                    raise StepFailureError("|h| exceeds ENTER_G at x = %s on "
                                           "the cycle map" % x)
                if x != x1:  # the segment left the disc at x
                    c, (cs, r) = x, _open_disc(_series_h, x, h, hp)
        else:
            raise NoConvergenceError(
                "Newton steps to the cycle node u = %s did not settle from "
                "x = %s" % (target, x))
    return x, hp * hp - h * h - h**3 / 3.0


@dataclass
class CycleState:
    """State after n cycle traversals with the two adiabatic invariants."""

    n: int
    x_n: complex
    s_n: complex
    Q: complex
    K_shifted: complex


def run_cycles(x0, s0, N):
    """Iterate the Poincare map N times, recording Q and K_shifted.

    Terminates early when arg x_n reaches -pi + 0.1 (the last pole
    array).  Q = x_n J(s_n); K_shifted = K(s_n) + 2n/(x0 J(s0)) with
    K = Jhat/(W J) and W = sigma(s0) SEPARATRIX_PERIOD the Wronskian of J
    and Jhat.  Raises OutsideRegionError, before any continuation, for a
    real s0 < -4/3, on the cut of Jhat.
    """
    x0, s0 = complex(x0), complex(s0)
    _check_jhat_cut(s0)
    J0 = cycle_J(s0)
    # rescale Jhat to unit Wronskian so that K' = 1/J^2 exactly; the
    # conserved combination is then K(s_n) + 2n/(x0 J0)
    kappa_raw = _sigma(s0) * SEPARATRIX_PERIOD

    states = []
    x, s = x0, s0
    for n in range(N + 1):
        J = J0 if n == 0 else cycle_J(s)
        states.append(CycleState(
            n=n, x_n=x, s_n=s, Q=x * J,
            K_shifted=jhat_at(s)[0] / (kappa_raw * J) + 2.0 * n / (x0 * J0)))
        if n == N or cmath.phase(x) <= -math.pi + 0.1:
            break
        x, s = poincare_step(x, s)
    return states


def relative_drift(values):
    """max |v - v0| / |v0| over a sequence of invariant values."""
    v = list(values)
    return max(abs(x - v[0]) for x in v) / abs(v[0])


# ---------------------------------------------------------------------------
# Stokes multiplier


#: energies, on both sides of the real axis, of solve_stok2's Abel check
_ABEL_CHECK = (-2.0 / 3.0, -0.3 + 0.2j, -1.1 - 0.4j)


def solve_stok2():
    """The Stokes multiplier mu = sqrt(J(0)/(4 pi)) = i sqrt(6/(5 pi)) from
    the separatrix period J(0) = SEPARATRIX_PERIOD, the root with Im mu > 0.

    The factor 1/(4 pi) and the sign of the root are not derived: tracing
    them needs the matching of the pole-sector dynamics to the first pole
    array (Costin, Costin & Huang).  Returns (mu, residual); the residual
    is Abel's check of the period engine, the largest relative miss
    |sigma(s) W(s) - J(0)|/|J(0)| of the Wronskian W = J Jhat' - (L/2) Jhat
    over _ABEL_CHECK, so an error in Jhat, in the reflection or in rho
    shows in it.
    """
    resid = 0.0
    for s in _ABEL_CHECK:
        J, L = _reflected_periods(s)
        H, Hp = jhat_at(s)
        W = _sigma(s) * (J * Hp - L / 2.0 * H)
        resid = max(resid, abs(W - SEPARATRIX_PERIOD) / abs(SEPARATRIX_PERIOD))
    return cmath.sqrt(SEPARATRIX_PERIOD / (4.0 * math.pi)), resid
