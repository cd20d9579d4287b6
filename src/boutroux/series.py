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

The recurrences run on integers: a table is its numerators over one common
denominator, the lcm of its coefficients' (see :func:`_append`).  A Cauchy
product is then an integer dot product, and a new coefficient is one
reduced ``Fraction``, one gcd instead of one per arithmetic operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm

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
# so far, and shorter orders get its leading slice.  An entry is
# (coefficients, numerators, den): the Fraction tuple and the same
# coefficients as integers over their common denominator den.
_H0_TABLES = {}
_LEVEL_TABLES = {}


def _append(fracs, nums, den, f):
    """Append the Fraction f to ``fracs`` and its numerator over ``den`` to
    ``nums``; returns the common denominator, rescaled (with every entry of
    ``nums``) to lcm(den, f.denominator) when f's does not divide it."""
    s = f.denominator // gcd(den, f.denominator)
    if s > 1:
        nums[:] = [v * s for v in nums]
        den *= s
    fracs.append(f)
    nums.append(f.numerator * (den // f.denominator))
    return den


def h0_coefficients(N, eqp_coeff=EQP_COEFF):
    """Exact c_4..c_N of the algebraic formal solution (c_k = 0 for odd k).

    Order x^{-n} of the h-equation gives
    c_n = (n-2)^2 c_{n-2} - (1/2) sum_{i+j=n} c_i c_j - a4 * [n == 4],
    with a4 the x^{-4} coefficient of the equation.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    return _h0_entry(N, Fraction(eqp_coeff))[0][:N - 3]


def _h0_entry(N, a4):
    if len(_H0_TABLES.get(a4, ((),))[0]) < N - 3:
        _H0_TABLES[a4] = _h0_table(N, a4)
    return _H0_TABLES[a4]


def _h0_table(N, eqp_coeff):
    # c_{4+i} = nums[i] / den; h'' + ... - a4 x^{-4} = 0 forces c_4 = a4
    fracs, nums = [], []
    den = _append(fracs, nums, 1, eqp_coeff)
    for n in range(5, N + 1):
        conv = sum(nums[i] * nums[n - 8 - i] for i in range(n - 7))
        prev = nums[n - 6] if n >= 6 else 0
        den = _append(fracs, nums, den, Fraction(
            2 * den * (n - 2) ** 2 * prev - conv, 2 * den * den))
    return tuple(fracs), tuple(nums), den


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
    return FormalSeries(0, _level_entry(k, N, Fraction(eqp_coeff))[0][:N + 1])


def _level_entry(k, N, a4):
    key = (k, a4)
    if len(_LEVEL_TABLES.get(key, ((),))[0]) < N + 1:
        _LEVEL_TABLES[key] = _level_table(k, N, a4)
    return _LEVEL_TABLES[key]


def _level_table(k, N, eqp_coeff):
    """Coefficients a_0..a_N of t_k by the recurrence above.

    With c_{4+i} = C[i]/E, a_m = A[m]/D and R_n = rhs[n]/R, the order-n
    relation is one integer numerator over 4 R E D times the pivot."""
    _, C, E = _h0_entry(N + 4, eqp_coeff)
    # (1/2) sum_{0<i<k} t_i t_{k-i}: each unordered pair once, and only the
    # middle square t_{k/2}^2 halved
    pairs = []
    for i in range(1, k // 2 + 1):
        (_, ti, di), (_, tj, dj) = (_level_entry(j, N, eqp_coeff)
                                    for j in (i, k - i))
        pairs.append((ti, tj, di * dj * (2 if 2 * i == k else 1)))
    R = lcm(*(d for _, _, d in pairs))
    rhs = [sum(R // d * _cauchy(ti, tj, n) for ti, tj, d in pairs)
           for n in range(N + 1)]

    fracs, A, D = [], [], 1
    if k == 1:
        D = _append(fracs, A, D, Fraction(1))
    for m in range(len(A), N + 1):
        n = m + (k == 1)  # the order-n relation fixes a_m
        # 4 times the a_{n-1} and a_{n-2} terms, over 4 D
        lin = (4 * (n - 2) * (n - 1) + k * k - 4 * (1 - k) * (n - 2)) \
            * A[n - 2] if n >= 2 else 0
        if k > 1 and n >= 1:
            lin += 4 * (2 * k * (n - 1) + k * k - k) * A[n - 1]
        cA = sum(C[i] * A[n - 4 - i] for i in range(n - 3))  # over E D
        num = 4 * R * cA - R * E * lin + (4 * E * D * rhs[n] if k > 1 else 0)
        pivot = k * k - 1 if k > 1 else 2 * m
        D = _append(fracs, A, D, Fraction(num, 4 * R * E * D * pivot))
    return tuple(fracs), tuple(A), D


def _cauchy(ti, tj, n):
    """sum_{a=0}^n ti[a] tj[n-a]; for the middle square (ti is tj, the one
    cached table of t_{k/2}) each product with a != n-a is formed once."""
    if ti is not tj:
        return sum(ti[a] * tj[n - a] for a in range(n + 1))
    half = sum(ti[a] * ti[n - a] for a in range((n + 1) // 2))
    return 2 * half + (ti[n // 2] ** 2 if n % 2 == 0 else 0)


def level_series(k, N):
    """h_k = x^{-k/2} t_k as a half-integer-exponent series."""
    return transseries_level(k, N).shift(-k)


def borel_transform(s: FormalSeries) -> BorelGerm:
    """Borel transform of x^{-alpha} sum c_n x^{-n} -> germ at p = 0.

    Maps c_n to c_n p^{n+alpha-1} / Gamma(n+alpha), where alpha, minus the
    leading exponent of ``s``, must be positive.  For half-integer alpha
    the rational part of 1/Gamma is kept exact and the common 1/sqrt(pi)
    factor is recorded on the germ.
    """
    alpha2 = -s.lead2
    if alpha2 <= 0:
        raise ValueError("alpha must be positive")
    out = []
    for n, cn in enumerate(s.coeffs):
        g = _gamma_rational(alpha2 + 2 * n)  # Gamma(n + alpha) [/sqrt(pi)]
        out.append(cn / g)
    return BorelGerm(lead2=alpha2 - 2, coeffs=tuple(out),
                     sqrtpi=bool(alpha2 % 2))


def _gamma_rational(m2):
    """Gamma(m2/2) for m2 >= 1 as a Fraction; for odd m2 the sqrt(pi)
    factor is dropped: Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)."""
    if m2 % 2 == 0:
        return Fraction(factorial(m2 // 2 - 1))
    n = (m2 - 1) // 2
    return Fraction(factorial(2 * n), 4 ** n * factorial(n))
