"""Borel-plane engine: convolution equation, Pade continuation, Laplace rays.

The Borel transform H0 of the formal solution satisfies the convolution
equation

    (p^2 - 1) H = -(a4/6) p^3 + int_0^p s H(s) ds + (1/2) H * H

whose Taylor solution is generated here in exact rationals and continued
beyond |p| = 1 with near-diagonal Pade approximants built at high precision.
Laplace integrals along rotated rays then produce actual tronquee solutions,
and Hankel-type loop integrals around the cuts measure the Stokes jump.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath as mp

from .errors import (
    NoConvergenceError,
    NonConvergentSumError,
    QuadratureError,
    RadiusExceededError,
    StokesDirectionError,
)
from .germ import BorelGerm
from .series import EQP_COEFF, borel_transform, level_series

# Precision at which Pade tables are built.  Empirically a 200-coefficient
# germ at 60 digits continues a square-root branch point to |p| ~ 3 on a
# 45-degree ray with error below 1e-22, far under the Laplace weight there.
PADE_DPS = 60
DEFAULT_GERM_ORDER = 200


def convolve_coeffs(a, b, nmax):
    """Taylor coefficients of the Laplace convolution a * b up to p^nmax.

    (p^i) * (p^j) = p^{i+j+1} i! j! / (i+j+1)!.
    """
    out = [Fraction(0)] * (nmax + 1)
    for i, ai in enumerate(a):
        if not ai or i + 1 > nmax:
            continue
        for j, bj in enumerate(b):
            n = i + j + 1
            if n > nmax:
                break
            if bj:
                out[n] += ai * bj * Fraction(factorial(i) * factorial(j),
                                             factorial(n))
    return out


@lru_cache(maxsize=None)
def solve_H0_convolution(N=DEFAULT_GERM_ORDER, eqp_coeff=EQP_COEFF):
    """Solve the convolution equation for H0 = B[h0] term by term.

    Matching p^n coefficients gives  b_n = b_{n-2} - RHS_n  with
    RHS = -(a4/6) p^3 + int_0^p s H ds + H*H/2; the integral term
    contributes b_{n-2}/n at order p^n.  Returns a :class:`BorelGerm` with
    exact rational coefficients b_3..b_N (germ.coeffs[i] is the coefficient
    of p^{3+i}).
    """
    b = [Fraction(0)] * (N + 1)
    for n in range(3, N + 1):
        rhs = Fraction(0)
        if n == 3:
            rhs -= Fraction(eqp_coeff) / 6
        if n >= 2:
            rhs += b[n - 2] * Fraction(1, n)
        for i in range(3, n - 3):
            j = n - 1 - i
            if 3 <= j < N + 1 and b[i] and b[j]:
                rhs += b[i] * b[j] * Fraction(factorial(i) * factorial(j),
                                              2 * factorial(n))
        b[n] = b[n - 2] - rhs
    return BorelGerm(lead2=6, coeffs=tuple(b[3:]))


@lru_cache(maxsize=None)
def germ_Hk(k, N=None):
    """Borel transform of the level-k exponential correction x^{-k/2} t_k."""
    if N is None:
        N = DEFAULT_GERM_ORDER if k <= 3 else (120 if k <= 8 else 60)
    return borel_transform(level_series(k, N))


# ---------------------------------------------------------------------------
# Pade continuation


class GermEvaluator:
    """Continues the analytic part of a germ beyond |p| = 1 via Pade.

    Evaluates only sum coeffs[n] p^n; prefactors p^{lead2/2} with their
    branch bookkeeping are handled by the callers, which know the contour.
    An error estimate comes from comparing against a lower-order table.
    """

    def __init__(self, germ: BorelGerm, dps=PADE_DPS, check_drop=20):
        self.germ = germ
        self.dps = dps
        with mp.workdps(dps):
            cs = germ.numeric_coeffs()
            self._pq = self._build(cs)
            self._pq_check = self._build(cs[:-check_drop]) \
                if len(cs) > check_drop + 10 else None

    @staticmethod
    def _build(cs):
        # degenerate Pade tables (exactly rational germs) make the linear
        # system singular; back off the denominator degree until it solves
        n = len(cs) - 1
        for m in range(n // 2, 0, -1):
            try:
                p, q = mp.pade(cs[:n - n // 2 + m + 1], n - n // 2, m)
                return p[::-1], q[::-1]
            except ZeroDivisionError:
                continue
        return cs, [mp.mpf(1)]

    def __call__(self, p):
        with mp.workdps(self.dps):
            num, den = self._pq
            return mp.polyval(num, p) / mp.polyval(den, p)

    def err_est(self, p):
        """Difference between the two Pade orders at p (0 if no check table)."""
        if self._pq_check is None:
            return mp.mpf(0)
        with mp.workdps(self.dps):
            num, den = self._pq_check
            return abs(self(p) - mp.polyval(num, p) / mp.polyval(den, p))

    def check_ray(self, phi, tmax, decay, tol, samples=8):
        """Guard the ray: Pade error times the Laplace weight must stay
        below ``tol``.  Raises RadiusExceededError otherwise."""
        with mp.workdps(self.dps):
            direction = mp.expj(phi)
            worst = mp.mpf(0)
            for i in range(1, samples + 1):
                t = tmax * i / samples
                worst = max(worst,
                            self.err_est(direction * t) * mp.exp(-decay * t))
        if worst > tol:
            raise RadiusExceededError(
                "weighted Pade continuation error %.3e exceeds tolerance "
                "%.3e on ray arg p = %.4f"
                % (float(worst), float(tol), float(phi)),
                err_est=worst)


@lru_cache(maxsize=None)
def _evaluator(germ):
    return GermEvaluator(germ)


# ---------------------------------------------------------------------------
# Laplace rays

CC_ORDERS = (4, 8, 16, 32, 64, 128, 256)


@lru_cache(maxsize=None)
def _cc_rule(n, prec):
    """Points cos(j pi/n), j = 0..n, and Clenshaw-Curtis weights on [-1, 1].

    Point j of order n is bit-identical to point 2j of order 2n, so nested
    orders share their cached nodes.
    """
    with mp.workprec(prec):
        c = [mp.cospi(mp.mpf(j) / n) for j in range(n + 1)]
        w = []
        for j in range(n + 1):
            ms = [2 * k * j % (2 * n) for k in range(1, n // 2 + 1)]
            acc = 1 - mp.fsum((1 if 2 * k == n else 2) * c[min(m, 2 * n - m)]
                              / (4 * k * k - 1) for k, m in enumerate(ms, 1))
            w.append(acc * (1 if j in (0, n) else 2) / n)
    return c, w


def _interpolate(nodes, values, y):
    """Barycentric interpolation in the points cos(j pi/n)."""
    if y in nodes:
        return values[nodes.index(y)]
    n = len(nodes) - 1
    lams = [(-1) ** j / ((2 if j in (0, n) else 1) * (y - c))
            for j, c in enumerate(nodes)]
    return mp.fdot(lams, values) / mp.fsum(lams)


class LaplaceEngine:
    """Laplace sums of one germ along the ray arg p = phi, for every x.

    The integrand is e^{-p x} G(s) ds with u = e^{i phi} and G = p^{lead2/2}
    Y(p), p = u s for integer germs, or G = s^{lead2+1} Y(p), p = u s^2 for
    half-integer ones.  The ray is cut at the dyadic edges 2^j, j >= -5, of
    s, and each panel carries nested Clenshaw-Curtis rules (the order-n
    nodes contain the order-n/2 ones).  G is cached per node, so a later x
    pays only for its exponentials.  A panel is refined through CC_ORDERS
    until its estimated error is below the working precision times the
    integral of |integrand| over the ray.
    """

    def __init__(self, germ, phi):
        self.evaluator = _evaluator(germ)
        self.lead2 = germ.lead2
        self.u = mp.expj(phi)
        self._g = {}  # node s -> G(s)

    def _p(self, s):
        return self.u * s ** (1 + self.lead2 % 2)

    def _G(self, s):
        if s not in self._g:
            p = self._p(s)
            lead = s ** (self.lead2 + 1) if self.lead2 % 2 \
                else p ** (self.lead2 // 2)
            self._g[s] = lead * self.evaluator(p)
        return self._g[s]

    def _f(self, s, g, x, deriv):
        p = self._p(s)
        return mp.exp(-p * x) * g * (-p if deriv else 1)

    def _rule(self, panel, n, x, deriv, fs_at):
        """Order-n rule on one panel: (value, integral of |integrand|).
        ``fs_at`` holds this x's integrand at the nodes of whole panels."""
        a, b, end = panel
        nodes, weights = _cc_rule(n, mp.mp.prec)
        mid, half = (a + b) / 2, (b - a) / 2
        ss = [mid + half * c for c in nodes]
        if end < b:
            # the panel holding the truncation point: order-n nodes of
            # [a, end], G interpolated from the order-n nodes of [a, b]
            gs = [self._G(s) for s in ss]
            ss = [a + (end - a) * (1 + c) / 2 for c in nodes]
            gs = [_interpolate(nodes, gs, (s - mid) / half) for s in ss]
            half = (end - a) / 2
            fs = [self._f(s, g, x, deriv) for s, g in zip(ss, gs)]
        else:
            # nested orders and adjacent panels share nodes
            for s in ss:
                if s not in fs_at:
                    fs_at[s] = self._f(s, self._G(s), x, deriv)
            fs = [fs_at[s] for s in ss]
        return (mp.fdot(weights, fs) * half,
                mp.fdot(weights, map(abs, fs)) * half)

    def integrate(self, x, tmax, deriv):
        """int_0^tmax e^{-p x} Y(p) p^{lead2/2} dp along the ray (times -p
        for the x-derivative) and its error estimate."""
        # p = u q^2 smooths the endpoint: p^{lead2/2} dp -> q^{lead2+1} dq
        half_int = self.lead2 % 2
        smax = mp.sqrt(tmax) if half_int else tmax
        panels, a, b = [], mp.mpf(0), mp.ldexp(1, -5)
        while a < smax:
            panels.append((a, b, min(b, smax)))
            a, b = b, 2 * b
        fs_at = {}
        rules = [[self._rule(pan, n, x, deriv, fs_at) for n in CC_ORDERS[:3]]
                 for pan in panels]
        target = 16 * mp.eps * sum(r[-1][1] for r in rules)
        for pan, r in zip(panels, rules):
            while _estimate(r) > target and len(r) < len(CC_ORDERS):
                r.append(self._rule(pan, CC_ORDERS[len(r)], x, deriv, fs_at))
        val = sum(r[-1][0] for r in rules)
        val *= 2 * self.u ** (mp.mpf(self.lead2) / 2 + 1) if half_int \
            else self.u
        return val, sum(_estimate(r) for r in rules)


def _estimate(rules):
    """Error of the last of nested rule values: d^2/d_prev bounds it under
    geometric convergence, d (the embedded-rule difference) in any case."""
    d = abs(rules[-1][0] - rules[-2][0])
    d_prev = abs(rules[-2][0] - rules[-3][0])
    return min(d, d * d / d_prev) if d_prev else d


def _singular_direction_margin(phi):
    """Angular distance of the ray arg p = phi from the cut directions 0, pi."""
    phi = mp.mpf(phi)
    d = abs(mp.fmod(phi, mp.pi))
    return min(d, mp.pi - d)


@lru_cache(maxsize=64)
def _engine(germ, phi, prec):
    # cached node values are rounded to the working precision; the bound
    # matters for the default ray -arg(x), one engine per direction of x
    return LaplaceEngine(germ, phi)


def laplace_ray(germ, x, phi=None, tol=None):
    """Laplace integral of the germ along the ray arg p = phi.

    Computes  int_0^{e^{i phi} inf} e^{-p x} Y(p) dp  where Y is the germ
    continued by Pade.  ``phi`` defaults to -arg(x), the ray of steepest
    decay.  Half-integer germs are integrated in the variable q = sqrt(p)
    so the endpoint power p^{k/2-1} becomes smooth.

    Works at the ambient mpmath precision, which the quadrature always
    aims at; ``tol`` defaults to a few ulps of the ambient dps and sets the
    truncation point of the ray and the Pade-degradation guard.
    """
    return _ray_sum(germ, x, phi, tol, deriv=False)


def laplace_ray_derivative(germ, x, phi=None, tol=None):
    """d/dx of the Laplace integral: same ray with an extra factor -p."""
    return _ray_sum(germ, x, phi, tol, deriv=True)


def _ray_sum(germ, x, phi, tol, deriv):
    x = mp.mpmathify(x)
    if phi is None:
        # steepest-decay ray, but kept at least pi/4 off the cuts (same
        # side, so the lateral sum is unchanged); exactly real x is a
        # Stokes direction and needs an explicit side
        theta = mp.arg(x)
        phi = -theta
        if abs(phi) < mp.pi / 4 and theta != 0:
            phi = -mp.sign(theta) * mp.pi / 4
        elif abs(abs(phi) - mp.pi) < mp.pi / 4:
            phi = mp.sign(phi) * 3 * mp.pi / 4
    phi = mp.mpf(phi)
    if _singular_direction_margin(phi) < mp.mpf("1e-9"):
        raise StokesDirectionError(
            "ray arg p = %s runs through Borel singularities" % mp.nstr(phi))
    decay = mp.re(mp.expj(phi) * x)
    if decay <= 0:
        raise QuadratureError(
            "ray arg p = %.4f does not decay for x = %s" %
            (float(phi), mp.nstr(x)))
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    engine = _engine(germ, phi, mp.mp.prec)

    # truncate where the exponential weight alone is below tolerance
    tmax = max(mp.mpf(3), -mp.log(tol * mp.mpf("1e-3")) / decay)
    if not mp.isfinite(tmax):
        raise QuadratureError("ray truncation point is not finite")
    engine.evaluator.check_ray(phi, tmax, decay, tol * 100)

    val, err = engine.integrate(x, tmax, deriv)
    if err > tol * (1 + abs(val)) * 100:
        raise QuadratureError("ray quadrature error %.3e above target"
                              % float(err), err_est=err)
    return val


# ---------------------------------------------------------------------------
# Singularity data from coefficient asymptotics


def estimate_S(germ=None, nmax=None, order=12):
    """Stokes prefactor from the large-n Borel coefficients.

    A square-root singularity  S / sqrt(1 - p)  at p = 1, mirrored at
    p = -1, forces  b_n ~ 2 S Gamma(n + 1/2) / (sqrt(pi) n!)  along the odd
    coefficients, with corrections in integer powers of 1/n.  Fitting
    S + a_1/n + ... + a_J/n^J through the last J+1 normalized values
    extrapolates S; the error estimate compares two fit orders.  Raises
    NoConvergenceError when the normalized sequence is not settling
    (e.g. the actual Borel radius is not 1).
    """
    if germ is None:
        germ = solve_H0_convolution()
    offset = germ.lead2 // 2
    with mp.workdps(50):
        seq = []
        for i, b in enumerate(germ.coeffs):
            n = offset + i
            if n % 2 == 0 or not b:
                continue
            bn = mp.mpf(b.numerator) / b.denominator \
                if isinstance(b, Fraction) else mp.mpmathify(b)
            seq.append((n, bn * mp.sqrt(mp.pi) * mp.factorial(n)
                        / (2 * mp.gamma(n + mp.mpf("0.5")))))
        if nmax is not None:
            seq = [(n, s) for n, s in seq if n <= nmax]
        if len(seq) < order + 4:
            raise NoConvergenceError("too few coefficients for extrapolation")
        drift = abs(seq[-1][1] / seq[-2][1] - 1)
        if drift > mp.mpf("0.01"):
            raise NoConvergenceError(
                "normalized coefficient sequence not settling; nearest "
                "singularity is probably not at |p| = 1",
                diagnostics={"last_ratio_drift": float(drift)})

        def extrapolate(J):
            pts = seq[-(J + 1):]
            A = mp.matrix(J + 1, J + 1)
            v = mp.matrix(J + 1, 1)
            for r, (n, s) in enumerate(pts):
                for c in range(J + 1):
                    A[r, c] = mp.mpf(n) ** (-c)
                v[r] = s
            return mp.lu_solve(A, v)[0]

        val = extrapolate(order)
        err = abs(val - extrapolate(order - 2))
    return val, err


# ---------------------------------------------------------------------------
# Hankel loops around the cuts


def jump_via_hankel(germ, x, dist=0.3, tol=None, negative_cut=False):
    """Loop integral of e^{-px} Y(p) around a Borel cut.

    With ``negative_cut`` false the (counterclockwise) loop hugs [1, inf):
    in from p = T - i*dist, around p = 1, out along p = T + i*dist.  This
    equals the difference of the two lateral Laplace sums across the
    positive Stokes direction.  With ``negative_cut`` true the mirrored
    loop hugs (-inf, -1] (for x near the negative real axis).
    """
    x = mp.mpmathify(x)
    sgn = -1 if negative_cut else 1
    decay = mp.re(sgn * x)
    if decay <= 0:
        raise QuadratureError("loop integrand does not decay for x = %s"
                              % mp.nstr(x))
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    ev = _evaluator(germ)
    d = mp.mpf(dist)
    T = max(mp.mpf(2), 1 + -mp.log(tol * mp.mpf("1e-3")) / decay)
    a = sgn * (1 - d)  # turning abscissa, just shy of the branch point

    def f(p):
        return mp.exp(-p * x) * ev(p) * _power(p, germ.lead2, sgn)

    # three straight legs, counterclockwise around the cut
    corners = [sgn * T - 1j * d * sgn, a - 1j * d * sgn,
               a + 1j * d * sgn, sgn * T + 1j * d * sgn]
    total = mp.mpc(0)
    errs = mp.mpf(0)
    for z0, z1 in zip(corners[:-1], corners[1:]):
        seg, e = mp.quad(lambda s, z0=z0, z1=z1: f(z0 + (z1 - z0) * s)
                         * (z1 - z0), [0, 1], error=True)
        total += seg
        errs += e
    if errs > tol * (1 + abs(total)) * 1e6:
        raise QuadratureError("loop quadrature error %.3e above target"
                              % float(errs), err_est=errs)
    return total


def _power(p, lead2, sgn):
    """p^{lead2/2} continued from the ray arg p = 0 (sgn=+1) or pi (sgn=-1).

    For the mirrored loop the phase is continued through the upper half
    plane, so arg p is taken in (0, 2*pi) when sgn = -1.
    """
    if lead2 % 2 == 0:
        return p ** (lead2 // 2)
    if sgn > 0:
        return p ** (mp.mpf(lead2) / 2)
    theta = mp.arg(p)
    if theta <= 0:
        theta += 2 * mp.pi
    return abs(p) ** (mp.mpf(lead2) / 2) * mp.expj(theta * mp.mpf(lead2) / 2)


# ---------------------------------------------------------------------------
# Transseries summation


@dataclass
class TransseriesSum:
    """Value of a summed transseries with bookkeeping."""

    value: complex
    levels_used: int
    last_term: float
    truncation_estimate: float


def sum_transseries(C, x, K=None, phi=None, tol=None, return_info=False):
    """Laplace-sum the transseries  h = L[H0] + sum_k C^k e^{-kx} L[H_k].

    Levels are added until the term magnitude falls below ``tol`` (or K is
    exhausted).  Raises NonConvergentSumError when terms stop decaying,
    which happens once C e^{-x} x^{-1/2} leaves the convergence domain, or
    when, with K unset, 24 levels do not bring the term below ``tol``.
    """
    x = mp.mpmathify(x)
    C = mp.mpmathify(C)
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    kmax = 24 if K is None else K
    total = laplace_ray(solve_H0_convolution(), x, phi=phi, tol=tol)
    prev = mp.inf
    term = mp.mpf(0)
    k = 0
    for k in range(1, kmax + 1):
        if C == 0:
            k = 0
            break
        prefac = C**k * mp.exp(-k * x)
        # the ray only needs enough accuracy for the level's contribution
        level_tol = tol / min(abs(prefac), mp.mpf(1))
        term = prefac * laplace_ray(germ_Hk(k), x, phi=phi, tol=level_tol)
        total += term
        if abs(term) < tol:
            break
        if abs(term) > 2 * abs(prev):
            raise NonConvergentSumError(
                "transseries terms growing at level %d (|term| = %.3e)"
                % (k, float(abs(term))))
        prev = term
    else:
        if K is None:
            raise NonConvergentSumError(
                "transseries not converged after %d levels (|term| = %.3e)"
                % (kmax, float(abs(term))))
    if return_info:
        return TransseriesSum(value=total, levels_used=k,
                              last_term=float(abs(term)),
                              truncation_estimate=float(abs(term)))
    return total


def sum_transseries_derivative(C, x, K=None, phi=None, tol=None):
    """x-derivative of the summed transseries (for ODE seeding)."""
    x = mp.mpmathify(x)
    C = mp.mpmathify(C)
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    kmax = 24 if K is None else K
    total = laplace_ray_derivative(solve_H0_convolution(), x, phi=phi, tol=tol)
    for k in range(1, kmax + 1):
        if C == 0:
            break
        g = germ_Hk(k)
        prefac = C**k * mp.exp(-k * x)
        level_tol = tol / min(abs(prefac), mp.mpf(1))
        lev = prefac * (
            laplace_ray_derivative(g, x, phi=phi, tol=level_tol)
            - k * laplace_ray(g, x, phi=phi, tol=level_tol))
        total += lev
        if abs(lev) < tol:
            break
    return total


# ---------------------------------------------------------------------------
# Toy fixtures with closed forms, for validating the machinery


def toy_geometric_germ(N=DEFAULT_GERM_ORDER):
    """Germ of 1/(1+p): Laplace sum is exactly e^x E_1(x)."""
    return BorelGerm(lead2=0,
                     coeffs=tuple(Fraction((-1) ** n) for n in range(N)))


def toy_geometric_exact(x):
    return mp.exp(x) * mp.e1(x)


def toy_halfint_germ(N=DEFAULT_GERM_ORDER):
    """Germ of p^{-1/2}/(1+p): Laplace sum is pi e^x erfc(sqrt(x))."""
    return BorelGerm(lead2=-1,
                     coeffs=tuple(Fraction((-1) ** n) for n in range(N)))


def toy_halfint_exact(x):
    return mp.pi * mp.exp(x) * mp.erfc(mp.sqrt(x))


def toy_convolution_fixture(N=40):
    """Taylor solution of the toy equation (1 - p) Y = p + Y*Y.

    Exercises the convolution recurrence on an independent nonlinear
    fixture; Y = p + p^2 + ... with hand-checkable low orders.
    """
    y = [Fraction(0)] * (N + 1)
    y[1] = Fraction(1)
    for n in range(2, N + 1):
        sq = Fraction(0)
        for i in range(1, n - 1):
            j = n - 1 - i
            if j >= 1:
                sq += y[i] * y[j] * Fraction(factorial(i) * factorial(j),
                                             factorial(n))
        y[n] = y[n - 1] + sq
    return tuple(y)
