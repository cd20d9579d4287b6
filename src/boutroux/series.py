"""Exact-arithmetic formal series for the normalized equation.

The normalized equation (referred to throughout as the h-equation) is

    h'' + h'/x - h - h^2/2 - (392/625) x^{-4} = 0.

This module generates, in exact rational arithmetic,

* the unique algebraic formal solution  h0 = sum_{k>=4, k even} c_k x^{-k},
* the exponential levels t_k of the transseries
  h = h0 + sum_k C^k e^{-kx} x^{-k/2} t_k(x), with t_1 normalized to
  leading coefficient 1 (so h ~ C x^{-1/2} e^{-x}),
* Borel transforms of such series.

All exponents are tracked in half-integer units (stored doubled as ints) so
x^{-k/2} prefactors need no special casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import mpmath as mp

from .germ import BorelGerm

# Coefficient of x^{-4} in the h-equation.  Everything in this module is
# parametrized by it so the integrability witness can perturb it.
EQP_COEFF = Fraction(-392, 625)


@dataclass(frozen=True)
class FormalSeries:
    """Truncated series sum_i coeffs[i] * x^{lead2/2 - i}.

    Exponents descend from ``lead2/2`` in integer steps; coefficients are
    exact rationals (``Fraction``).
    """

    lead2: int
    coeffs: tuple = field(default_factory=tuple)

    def exponent2(self, i):
        """Doubled exponent of term i."""
        return self.lead2 - 2 * i

    def __call__(self, x):
        """Evaluate with mpmath at complex x (Horner in 1/x)."""
        x = mp.mpmathify(x)
        u = 1 / x
        acc = mp.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * u + mp.mpf(c.numerator) / mp.mpf(c.denominator)
        return acc * x ** (mp.mpf(self.lead2) / 2)

    def differentiate(self):
        """Termwise d/dx."""
        return FormalSeries(
            self.lead2 - 2,
            tuple(
                c * Fraction(self.exponent2(i), 2)
                for i, c in enumerate(self.coeffs)
            ),
        )

    def shift(self, exp2):
        """Multiply by x^{exp2/2}."""
        return FormalSeries(self.lead2 + exp2, self.coeffs)


# The coefficients do not depend on the truncation order, so one exact
# table per a4 (per level and a4) is kept, at the longest order asked for
# so far, and shorter orders get its leading slice.
_H0_TABLES = {}
_LEVEL_TABLES = {}


def h0_coefficients(N, eqp_coeff=EQP_COEFF):
    """Exact c_4..c_N of the algebraic formal solution (c_k = 0 for odd k).

    Order x^{-n} of the h-equation gives
    c_n = (n-2)^2 c_{n-2} - (1/2) sum_{i+j=n} c_i c_j - a4 * [n == 4],
    with a4 the x^{-4} coefficient of the equation.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    a4 = Fraction(eqp_coeff)
    if len(_H0_TABLES.get(a4, ())) < N - 3:
        _H0_TABLES[a4] = _h0_table(N, a4)
    return _H0_TABLES[a4][:N - 3]


def _h0_table(N, eqp_coeff):
    c = {k: Fraction(0) for k in range(N + 1)}
    for n in range(4, N + 1):
        conv = sum((c[i] * c[n - i] for i in range(4, n - 3)), Fraction(0))
        val = (n - 2) ** 2 * c[n - 2] - conv / 2
        if n == 4:
            val += eqp_coeff  # h'' + ... - a4 x^{-4} = 0 forces c_4 = a4
        c[n] = val
    return tuple(c[k] for k in range(4, N + 1))


def h0_series(N):
    """The formal solution h0 truncated at order x^{-N}, exact rationals."""
    return FormalSeries(-8, h0_coefficients(N))


def transseries_level(k, N, eqp_coeff=EQP_COEFF):
    """Exact integer-power series t_k to order x^{-N} (t_k = x^{k/2} h_k).

    Collecting e^{-kx} terms of the h-equation and substituting
    h_k = x^{-k/2} t_k gives the level-k linear recurrence

      (k^2-1) a_n + [2k(n-1) + k^2 - k] a_{n-1}
      + [(n-2)(n-1) + k^2/4 - (1-k)(n-2)] a_{n-2}
      - sum_{j>=4} c_j a_{n-j}  =  R_n

    with R the coefficients of (1/2) sum_{0<i<k} t_i t_{k-i}.  For k = 1 the
    pivot k^2 - 1 vanishes and the order-n relation determines a_{n-1}
    instead, with a_0 = 1 fixing the normalization.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    key = (k, Fraction(eqp_coeff))
    if len(_LEVEL_TABLES.get(key, ())) < N + 1:
        _LEVEL_TABLES[key] = _level_table(k, N, key[1])
    return FormalSeries(0, _LEVEL_TABLES[key][:N + 1])


def _level_table(k, N, eqp_coeff):
    """Coefficients a_0..a_N of t_k by the recurrence above."""
    c = {4 + i: v for i, v in enumerate(h0_coefficients(N + 4, eqp_coeff)) if v}
    # (1/2) sum_{0<i<k} t_i t_{k-i}: each unordered pair once, and only the
    # middle square t_{k/2}^2 halved
    rhs = [Fraction(0)] * (N + 3)
    for i in range(1, k // 2 + 1):
        ti = transseries_level(i, N, eqp_coeff)
        tj = transseries_level(k - i, N, eqp_coeff)
        for a in range(min(len(ti.coeffs), N + 3)):
            ca = ti.coeffs[a]
            if not ca:
                continue
            if 2 * i == k:
                ca /= 2
            for b in range(min(len(tj.coeffs), N + 3 - a)):
                rhs[a + b] += ca * tj.coeffs[b]

    a = [Fraction(0)] * (N + 1)

    def lhs_known(n, upto):
        """LHS terms at order n involving a_m with m <= upto."""
        total = Fraction(0)
        k2 = Fraction(k * k)
        if n <= upto:
            total += (k2 - 1) * a[n]
        if 0 <= n - 1 <= upto:
            total += (2 * k * (n - 1) + k * k - k) * a[n - 1]
        if 0 <= n - 2 <= upto:
            total += ((n - 2) * (n - 1) + k2 / 4 - (1 - k) * (n - 2)) * a[n - 2]
        for j, cj in c.items():
            if 0 <= n - j <= upto:
                total -= cj * a[n - j]
        return total

    if k == 1:
        a[0] = Fraction(1)
        for n in range(2, N + 2):
            # order-n relation; unknown is a_{n-1} with pivot 2(n-1)
            if n - 1 > N:
                break
            known = lhs_known(n, n - 2)
            r = rhs[n] if n < len(rhs) else Fraction(0)
            a[n - 1] = (r - known) / (2 * (n - 1))
    else:
        for n in range(0, N + 1):
            known = lhs_known(n, n - 1)
            r = rhs[n] if n < len(rhs) else Fraction(0)
            a[n] = (r - known) / (k * k - 1)
    return tuple(a)


def level_series(k, N):
    """h_k = x^{-k/2} t_k as a half-integer-exponent series."""
    return transseries_level(k, N).shift(-k)


def borel_transform(s: FormalSeries, alpha=None) -> BorelGerm:
    """Borel transform of x^{-alpha} sum c_n x^{-n} -> germ at p = 0.

    Maps c_n to c_n p^{n+alpha-1} / Gamma(n+alpha).  ``alpha`` defaults to
    minus the leading exponent of ``s`` and must be positive.  For
    half-integer alpha the rational part of 1/Gamma is kept exact and the
    common 1/sqrt(pi) factor is recorded on the germ.
    """
    alpha2 = -s.lead2 if alpha is None else int(2 * Fraction(alpha))
    if alpha2 != -s.lead2:
        raise ValueError("alpha must match the leading exponent of the series")
    if alpha2 <= 0:
        raise ValueError("alpha must be positive")
    half = bool(alpha2 % 2)
    out = []
    for n, cn in enumerate(s.coeffs):
        g = _gamma_rational(alpha2 + 2 * n)  # Gamma(n + alpha) [/sqrt(pi)]
        out.append(cn / g)
    return BorelGerm(lead2=alpha2 - 2, coeffs=tuple(out), sqrtpi=half)


def _gamma_rational(m2):
    """Gamma(m2/2) as a Fraction; for odd m2 the sqrt(pi) factor is dropped.

    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!).
    """
    if m2 % 2 == 0:
        return Fraction(factorial(m2 // 2 - 1))
    n = (m2 - 1) // 2
    if n >= 0:
        return Fraction(factorial(2 * n), 4 ** n * factorial(n))
    # Gamma(-1/2) etc. via reflection; not needed for alpha > 0 germs
    raise ValueError("negative half-integer Gamma not supported")
