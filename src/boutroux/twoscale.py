"""Two-scale expansions h ~ sum_n F_n(xi)/x^n with xi = C e^{-x} x^{-1/2}.

The functions F_n are obtained exactly by resumming the transseries in the
second scale xi: the coefficient of xi^k in F_n is the x^{-n} coefficient
of the level-k series t_k, and F_n = P_n(xi) / (xi - 12)^{n+2} with
deg P_n <= 2n+2 (exact Fraction arithmetic, no linear solve).  For the
integrable equation coefficient -392/625 this holds at every order; for
any other coefficient a ln(1 - xi/12) term appears at n = 6, measured by
the integrability witness.  The module also carries the G-chart expansion
of g = 3h/(3+h) (regular at the poles, excluded point xi = -12) and the
four-order pole-location asymptotics.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

import mpmath as mp

from .errors import ObstructionError, OutsideRegionError
from .series import EQP_COEFF, h0_coefficients, transseries_level

#: default region parameters of the fixed-|xi| validity domain
EPSILON = 0.1
DELTA = 0.05
RADIUS = 20.0

# ---------------------------------------------------------------------------
# Exact rational functions of xi; polynomials are coefficient tuples, lowest
# degree first


def _padd(p, q):
    return tuple(a + b for a, b in zip_longest(p, q, fillvalue=0))


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _power(root, n):
    """(xi - root)^n."""
    return tuple(math.comb(n, k) * (-root) ** (n - k) for k in range(n + 1))


def _cancel(num, power, root):
    """Divide (xi - root) out of num up to power times (synthetic division)."""
    while num and power:
        quo = [num[-1]]
        for c in reversed(num[:-1]):
            quo.append(c + root * quo[-1])
        if quo.pop():  # the remainder num(root)
            break
        num, power = tuple(reversed(quo)), power - 1
    return num, power


class _Term:
    """N(xi) / ((xi - 12)^a (xi + 12)^b), exact and in lowest terms."""

    def __init__(self, num, a=0, b=0):
        num = tuple(Fraction(c) for c in num)
        while num and num[-1] == 0:
            num = num[:-1]
        num, a = _cancel(num, a, 12)
        num, b = _cancel(num, b, -12)
        self.num, self.a, self.b = (num, a, b) if num else ((), 0, 0)

    def __add__(self, other):
        other = _as_term(other)
        a, b = max(self.a, other.a), max(self.b, other.b)
        num = [_pmul(t.num, _pmul(_power(12, a - t.a), _power(-12, b - t.b)))
               for t in (self, other)]
        return _Term(_padd(*num), a, b)

    def __mul__(self, other):
        other = _as_term(other)
        return _Term(_pmul(self.num, other.num), self.a + other.a,
                     self.b + other.b)

    def __sub__(self, other):
        return self + _as_term(other) * -1

    def theta(self):
        """xi d/dxi, taken over the denominator times (xi^2 - 144)."""
        a, b = self.a, self.b
        xdN = tuple(k * c for k, c in enumerate(self.num))
        xN = (0,) + self.num
        num = _padd(_pmul(xdN, (-144, 0, 1)),
                    _pmul(xN, (12 * (b - a), -(a + b))))
        return _Term(num, a + 1, b + 1)

    def evaluate(self, xi):
        """Value at an mpmath number xi, by Horner's rule."""
        val = mp.mpf(0)
        for c in reversed(self.num):
            val = val * xi + mp.mpmathify(c)  # c rounded once
        return val / ((xi - 12) ** self.a * (xi + 12) ** self.b)


def _as_term(v):
    return v if isinstance(v, _Term) else _Term((v,))


def level_coefficient(n, k, eqp_coeff=EQP_COEFF):
    """Exact x^{-n} coefficient of t_k (k >= 1) or of h0 (k = 0)."""
    eqp_coeff = Fraction(eqp_coeff)
    if k == 0:
        if n < 4:
            return Fraction(0)
        return h0_coefficients(n, eqp_coeff)[n - 4]
    return transseries_level(k, max(n, 1) + 1, eqp_coeff).coeffs[n]


@lru_cache(maxsize=None)
def _fit_Fn(n, eqp_coeff=EQP_COEFF):
    """F_n = P_n / (xi - 12)^{n+2}, or None if F_n has a logarithm.

    P_n is sum_k f_k xi^k (xi - 12)^{n+2}, f_k = level_coefficient(n, k),
    cut after degree 2n+2.  With the 2n+8 coefficients f_k, k < 2n+8, the
    product's coefficients of degrees 2n+3 .. 2n+7 must vanish.
    """
    series = [level_coefficient(n, k, eqp_coeff) for k in range(2 * n + 8)]
    prod = _pmul(series, _power(12, n + 2))
    if any(prod[2 * n + 3:2 * n + 8]):
        return None
    return _Term(prod[:2 * n + 3], n + 2)


def compute_F(n, eqp_coeff=EQP_COEFF):
    """Exact F_n(xi), a numerator polynomial over (xi - 12)^{n+2}.

    Raises ObstructionError when no rational F_n exists (non-integrable
    equation coefficient, n >= 6); the obstruction coefficient attached
    to the error is the resonance residue from integrability_witness.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    eqp_coeff = Fraction(eqp_coeff)
    F = _fit_Fn(n, eqp_coeff)
    if F is None:
        raise ObstructionError(
            "no log-free two-scale function at order %d" % n,
            coefficient=integrability_witness(eqp_coeff))
    return F


#: F_0(xi) = 144 xi / (xi - 12)^2
F0 = compute_F(0)
#: xi dF_0/dxi, the homogeneous solution of the linearization
H1 = F0.theta()
# 1/(3 + F_0), from 3 + F_0 = 3 (xi + 12)^2 / (xi - 12)^2
_RECIP_3_F0 = _Term(_power(12, 2), 0, 2) * Fraction(1, 3)
_ZERO = _Term(())


def _apply_ddx(levels):
    """One x-derivative on sum_j A_j(xi) x^{-j} with xi' = -xi (1 + 1/2x)."""
    out = {j: _ZERO for j in range(max(levels) + 2)}
    for j, A in levels.items():
        th = A.theta()
        out[j] -= th
        out[j + 1] -= th * Fraction(1, 2) + A * j
    return out


def hierarchy_residuals(c, jmax=6):
    """Orders 0..jmax of the h-equation on the partial sum F_0..F_{jmax-1}.

    Orders 0..jmax-1 vanish identically; order jmax equals
    M F_jmax - R_jmax with F_jmax absent, i.e. -R_jmax.
    """
    c = Fraction(c)
    h = {j: compute_F(j, c) for j in range(jmax)}
    h[jmax] = _ZERO
    h1 = _apply_ddx(h)
    h2 = _apply_ddx(h1)
    E = {}
    for j in range(jmax + 1):
        conv = sum((h[a] * h[j - a] for a in range(j + 1)), _ZERO)
        E[j] = (h2[j] + h1.get(j - 1, _ZERO) - h[j] - conv * Fraction(1, 2)
                + (c if j == 4 else 0))
    return E


def integrability_witness(c):
    """Resonance obstruction of the order-6 two-scale equation.

    The order-6 equation is M F_6 = R_6 with M = Theta^2 - 1 - F_0, which
    admits a solution free of ln(xi - 12) iff the pairing of R_6 with the
    rational homogeneous solution H_1 has no residue at the resonant
    point: witness = Res_{xi=12} H_1(xi) R_6(xi) / xi, the eta^{a-1}
    coefficient of P(12 + eta) for H_1 R_6 / xi = P(xi) / (xi - 12)^a.
    Exact rational in c; zero exactly at c = -392/625.
    """
    pair = H1 * hierarchy_residuals(c, 6)[6] * -1  # H_1 R_6
    assert pair.b == 0 and not any(pair.num[:1])  # H_1 has the factor xi
    P, k = pair.num[1:], pair.a - 1
    return sum((p * math.comb(i, k) * 12 ** (i - k)
                for i, p in enumerate(P) if i >= k >= 0), Fraction(0))


@lru_cache(maxsize=None)
def compute_G(n, eqp_coeff=EQP_COEFF):
    """Exact G_n(xi) of the pole-chart expansion g ~ sum G_n(xi)/x^n.

    From g (3 + h) = 3 h order by order:
    (3 + F_0) G_n = 3 F_n - sum_{a<n} G_a F_{n-a}.
    """
    acc = compute_F(n, eqp_coeff) * 3
    for a in range(n):
        acc -= compute_G(a, eqp_coeff) * compute_F(n - a, eqp_coeff)
    return acc * _RECIP_3_F0


# ---------------------------------------------------------------------------
# Evaluation


def xi_of(x, C):
    """xi = C x^{-1/2} e^{-x}."""
    x = mp.mpc(x)
    return mp.mpc(C) * mp.exp(-x) / mp.sqrt(x)


@lru_cache(maxsize=None)
def _lambdified(n, chart):
    """Horner evaluator of F_n or G_n at the integrable coefficient."""
    return (compute_F(n) if chart == "F" else compute_G(n)).evaluate


def region_ok(xi, chart, epsilon=EPSILON):
    """|xi -+ 12| > epsilon and |xi| < 1/epsilon for the F (G) chart."""
    excl = 12 if chart == "F" else -12
    return abs(xi - excl) > epsilon and abs(xi) < 1 / epsilon


def eval_two_scale(x, C, m=1, chart=None, epsilon=EPSILON):
    """Evaluate sum_{j<=m} F_j(xi)/x^j (or the G-chart analog).

    ``chart`` is "F", "G", or None for automatic selection by maximal
    distance of xi to the chart's excluded point (12 for F, -12 for G).
    Returns (value, chart).  Raises OutsideRegionError when |x| is below
    RADIUS (1 - DELTA) or neither chart's region test passes.
    """
    x = mp.mpc(x)
    if abs(x) < RADIUS * (1 - DELTA):
        raise OutsideRegionError("|x| = %.3f below the validity radius"
                                 % abs(x))
    xi = xi_of(x, C)
    if chart is None:
        chart = "F" if abs(xi - 12) >= abs(xi + 12) else "G"
    if not region_ok(xi, chart, epsilon):
        other = "G" if chart == "F" else "F"
        if region_ok(xi, other, epsilon):
            chart = other
        else:
            raise OutsideRegionError(
                "xi = %s excluded from both charts" % xi)
    val = mp.mpc(0)
    for j in range(m, -1, -1):
        val = val / x + _lambdified(j, chart)(xi)
    return val, chart


# ---------------------------------------------------------------------------
# Pole prediction


@dataclass
class PolePrediction:
    """Four-order asymptotic location of the n-th pole of the first array."""

    n: int
    L: complex
    x_n: complex


def predict_pole(n, C_plus):
    """Asymptotic location of pole n of the first array, four orders.

    x_n = t + L - (109/120 + L/2)/t
          + (4699/2400 + (139/120) L + L^2/4)/t^2
          - (41402111/6480000 + (899/200) L + (77/60) L^2 + L^3/6)/t^3,
    t = 2 n pi i,  L = ln(C+ / (12 t^{1/2})) (principal branch).

    The L-dependence is exactly the inversion of
    xi(x) = 12 + w_1/x + w_2/x^2 + w_3/x^3 (constants w_j fixed by the
    L-free terms), which pins the signs of the t^{-2} and t^{-3}
    L-polynomials used here.
    """
    if n < 1:
        raise ValueError("pole index must be >= 1")
    if C_plus == 0:
        raise ValueError("C+ = 0 solutions have no first pole array")
    t = 2j * math.pi * n
    L = cmath.log(complex(C_plus) / (12 * t ** 0.5))
    x = (t + L - (109 / 120 + L / 2) / t
         + (4699 / 2400 + 139 / 120 * L + L ** 2 / 4) / t ** 2
         - (41402111 / 6480000 + 899 / 200 * L + 77 / 60 * L ** 2
            + L ** 3 / 6) / t ** 3)
    return PolePrediction(n=n, L=L, x_n=x)
