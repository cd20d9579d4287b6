"""Exact-series layer: recurrences checked against independent oracles.

The oracle for every recurrence here is direct substitution into the
h-equation with sympy, which shares no code with the production recurrences.
"""

import hashlib
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from boutroux import series
from boutroux.borel import germ_Hk, solve_H0_convolution
from boutroux.series import (
    EQP_COEFF,
    FormalSeries,
    borel_transform,
    h0_coefficients,
    h0_series,
    level_series,
    transseries_level,
)

X = sp.Symbol("x")
A4 = sp.Rational(-392, 625)


def equation_residual(h):
    """The h-equation applied to a sympy expression."""
    return sp.diff(h, X, 2) + sp.diff(h, X) / X - h - h**2 / 2 + A4 * X**-4


def poly_orders(expr, nmax):
    """Coefficients of x^{-n}, n = 0..nmax, of a Laurent-type expression."""
    u = sp.Symbol("u")
    ser = sp.series(expr.subs(X, 1 / u), u, 0, nmax + 1).removeO()
    p = sp.Poly(sp.expand(ser), u)
    return [p.coeff_monomial(u**n) for n in range(nmax + 1)]


class TestH0:
    def test_leading_coefficients(self):
        c = h0_coefficients(10)
        assert c[0] == Fraction(-392, 625)
        assert c[1] == 0
        assert c[2] == 16 * Fraction(-392, 625)

    def test_odd_coefficients_vanish(self):
        c = h0_coefficients(41)
        for i, v in enumerate(c):
            if (4 + i) % 2 == 1:
                assert v == 0

    def test_residual_oracle(self):
        """Substituting the truncation into the equation leaves only tail terms."""
        N = 16
        h = sum(sp.Rational(v) * X ** -(4 + i)
                for i, v in enumerate(h0_coefficients(N)))
        res = poly_orders(equation_residual(h), N)
        assert all(r == 0 for r in res)

    def test_gevrey_one_growth(self):
        """|c_k|^{1/k}/k stays bounded: factorial, not worse, divergence."""
        c = h0_coefficients(80)
        vals = [abs(c[k - 4]) ** (1.0 / k) / k
                for k in range(40, 81, 2)]
        assert max(vals) < 1.0
        assert min(vals) > 0.05
        # c_m / c_{m-2} -> (m - 3/2)(m - 5/2): Gamma(m - 1/2) growth,
        # i.e. Borel radius exactly 1
        m = 80
        r = float(c[m - 4] / c[m - 6]) / ((m - 1.5) * (m - 2.5))
        assert abs(r - 1) < 0.01

    def test_series_evaluation(self):
        with mp.workdps(40):
            s = h0_series(12)
            x = mp.mpf(10)
            direct = sum(mp.mpf(v.numerator) / v.denominator * x ** -(4 + i)
                         for i, v in enumerate(h0_coefficients(12)))
            assert abs(s(x) - direct) < 1e-30


class TestTransseriesLevels:
    def test_level1_known_values(self):
        t1 = transseries_level(1, 6)
        assert t1.coeffs[0] == 1
        assert t1.coeffs[1] == Fraction(-1, 8)
        assert t1.coeffs[2] == Fraction(9, 128)

    def test_level2_leading(self):
        t2 = transseries_level(2, 4)
        assert t2.coeffs[0] == Fraction(1, 6)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_linearized_residual_oracle(self, k):
        """Order-eps^k terms of the substituted transseries cancel.

        Substitute h = h0 + sum_j eps^j e^{-jx} x^{-j/2} t_j into the
        h-equation with sympy and check the coefficient of eps^k e^{-kx}
        vanishes through the truncation order.
        """
        N = 8
        eps = sp.Symbol("epsilon")
        h = sum(sp.Rational(v) * X ** -(4 + i)
                for i, v in enumerate(h0_coefficients(N + 4)))
        for j in range(1, k + 1):
            tj = sp.Add(*[sp.Rational(a) * X**-i
                          for i, a in enumerate(transseries_level(j, N).coeffs)])
            h += eps**j * sp.exp(-j * X) * X ** sp.Rational(-j, 2) * tj
        res = equation_residual(h).expand()
        lvl = res.coeff(eps, k).coeff(sp.exp(-k * X))
        lvl = sp.expand(lvl * X ** sp.Rational(k, 2))
        # residual orders x^0 .. x^{-(N-1)} must cancel exactly
        for n in range(N):
            assert sp.simplify(lvl.coeff(X, -n)) == 0, (k, n)

    def test_level_series_exponent(self):
        s = level_series(3, 5)
        assert s.lead2 == -3


class TestExactTables:
    def test_orders_share_one_table(self, monkeypatch):
        """One exact table per level and a4: a shorter order is its leading
        slice, equal to a fresh computation at that order, and positional
        and keyword a4 read the same table without rebuilding it."""
        a4s = (EQP_COEFF, EQP_COEFF + Fraction(1, 10))
        levels, orders = range(1, 6), (3, 16, 40)
        fresh = {}
        for a4 in a4s:
            for N in orders:
                with monkeypatch.context() as m:
                    m.setattr(series, "_H0_TABLES", {})
                    m.setattr(series, "_LEVEL_TABLES", {})
                    fresh[a4, N] = (h0_coefficients(N + 4, a4),
                                    [transseries_level(k, N, a4).coeffs
                                     for k in levels])
            for k in levels:
                transseries_level(k, max(orders), eqp_coeff=a4)

        def rebuild(*args):
            raise AssertionError("table rebuilt for %r" % (args,))

        monkeypatch.setattr(series, "_h0_table", rebuild)
        monkeypatch.setattr(series, "_level_table", rebuild)
        for (a4, N), (h0, ts) in fresh.items():
            assert h0_coefficients(N + 4, a4) == h0
            assert h0_coefficients(N + 4, eqp_coeff=a4) == h0
            for k, t in zip(levels, ts):
                assert transseries_level(k, N, a4).coeffs == t
                assert transseries_level(k, N, eqp_coeff=a4).coeffs == t


    def test_tables_bit_identical(self):
        """SHA-256 of repr of the exact tables: H0 to p^200, h0 to x^-204,
        the 24 level germs and six levels of a perturbed a4.  Any change to
        a recurrence that moves one coefficient fails here."""
        def digest(obj):
            return hashlib.sha256(repr(obj).encode()).hexdigest()

        a4 = EQP_COEFF + Fraction(1, 10)
        assert digest(solve_H0_convolution(200).coeffs) == \
            "30d549dd61833448aa97677cae2430b227b341069f2af7e1e1f6d5cd29023e32"
        assert digest(h0_coefficients(204)) == \
            "2eae2fc85e6ac49667abaead7679c062c5953fc81db8e603f75e1816ceaf2ce9"
        assert digest(tuple(germ_Hk(k).coeffs for k in range(1, 25))) == \
            "84aa5c89cff4ec73a71f216ca875eda8f79bc4862df2e29800212e51bb32de53"
        assert digest(tuple(transseries_level(k, 40, a4).coeffs
                            for k in range(1, 7))) == \
            "c7201746b3d4ee3d95f6530184c1ad38bb92b59eac6c0c599f24517ba4bfed35"

    @given(st.fractions(min_value=-2, max_value=2, max_denominator=50),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_tables_match_fraction_recurrences(self, a4, N):
        """The integer tables equal the recurrences of h0_coefficients and
        transseries_level transcribed in plain Fraction arithmetic."""
        c, ts = fraction_recurrences(a4, N, 4)
        assert h0_coefficients(N + 4, a4) == tuple(c[4:])
        for k, t in enumerate(ts, 1):
            assert transseries_level(k, N, a4).coeffs == tuple(t)

    def test_H0_convolution_matches_fraction_recurrence(self):
        """b_3..b_N of solve_H0_convolution equal the convolution equation
        solved one Fraction operation at a time; below N = 3 there are
        none."""
        for N in range(16):
            b = [Fraction(0)] * (N + 1)
            for n in range(3, N + 1):
                rhs = b[n - 2] / n - (EQP_COEFF / 6 if n == 3 else 0)
                for i in range(3, n - 3):
                    j = n - 1 - i
                    rhs += b[i] * b[j] * Fraction(
                        factorial(i) * factorial(j), 2 * factorial(n))
                b[n] = b[n - 2] - rhs
            assert solve_H0_convolution(N).coeffs == tuple(b[3:])


def fraction_recurrences(a4, N, K):
    """c_0..c_{N+4} of h0 and a_0..a_N of t_1..t_K, one Fraction operation
    at a time, as the docstrings of h0_coefficients and transseries_level
    state the recurrences."""
    c = [Fraction(0)] * (N + 5)
    for n in range(4, N + 5):
        conv = sum((c[i] * c[n - i] for i in range(4, n - 3)), Fraction(0))
        c[n] = (n - 2) ** 2 * c[n - 2] - conv / 2 + (a4 if n == 4 else 0)
    ts = []
    for k in range(1, K + 1):
        a = [Fraction(1 if k == 1 else 0)] + [Fraction(0)] * N

        def at(i):
            return a[i] if i >= 0 else 0

        for m in range(k == 1, N + 1):
            n = m + (k == 1)  # for k = 1 the order-n relation fixes a_{n-1}
            r = sum((ts[i - 1][j] * ts[k - i - 1][n - j]
                     for i in range(1, k) for j in range(n + 1)),
                    Fraction(0)) / 2
            known = (2 * k * (n - 1) + k * k - k) * at(n - 1) if k > 1 else 0
            known += ((n - 2) * (n - 1) + Fraction(k * k, 4)
                      - (1 - k) * (n - 2)) * at(n - 2)
            known -= sum(c[j] * at(n - j) for j in range(4, n + 1))
            a[m] = (r - known) / (k * k - 1 if k > 1 else 2 * m)
        ts.append(a)
    return c, ts


class TestFormalSeriesAlgebra:
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=20)

    @given(st.lists(fracs, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_derivative_matches_sympy(self, a):
        fs = FormalSeries(-2, tuple(a)).differentiate()
        expr = sp.diff(sum(sp.Rational(v) * X ** (-1 - i)
                           for i, v in enumerate(a)), X)
        for i, c in enumerate(fs.coeffs):
            assert sp.Rational(c) == expr.coeff(X, fs.exponent2(i) // 2)


class TestBorelTransform:
    def test_h0_leading(self):
        g = borel_transform(h0_series(10))
        assert g.lead2 == 6  # germ starts at p^3
        assert g.coeffs[0] == Fraction(-196, 1875)
        assert not g.sqrtpi

    def test_level1_half_integer(self):
        g = borel_transform(level_series(1, 6))
        assert g.lead2 == -1  # p^{-1/2}
        assert g.sqrtpi
        assert g.coeffs[0] == 1
        assert g.coeffs[1] == Fraction(-1, 4)
        assert g.coeffs[2] == Fraction(3, 32)

    def test_inverts_factorials(self):
        """b_{m} relates to c_{m+1} by 1/Gamma(m+1) for the integer germ."""
        from math import factorial

        c = h0_coefficients(20)
        g = borel_transform(h0_series(20))
        for i, b in enumerate(g.coeffs):
            m = g.lead2 // 2 + i  # power of p
            assert b == c[i] / factorial(m)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=12),
           st.fractions(min_value=-3, max_value=3, max_denominator=12))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, u, v):
        s1 = h0_series(14)
        s2 = FormalSeries(-8, tuple(Fraction(i + 1, 3) for i in range(11)))
        comb = FormalSeries(-8, tuple(u * a + v * b for a, b in
                                      zip(s1.coeffs, s2.coeffs)))
        g = borel_transform(comb)
        g1 = borel_transform(s1)
        g2 = borel_transform(s2)
        for i in range(len(g.coeffs)):
            want = Fraction(0)
            if i < len(g1.coeffs):
                want += u * g1.coeffs[i]
            if i < len(g2.coeffs):
                want += v * g2.coeffs[i]
            assert g.coeffs[i] == want

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            borel_transform(FormalSeries(2, (Fraction(1),)))


def test_eqp_coefficient_is_paper_value():
    assert EQP_COEFF == Fraction(-392, 625)
