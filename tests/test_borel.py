"""Borel engine: convolution solution, Laplace rays, singularity data.

Oracles: the direct factorially-divided Borel transform (independent of the
convolution recurrence), closed-form Laplace integrals for toy germs, and
the closed-form Stokes constant sqrt(6/(5 pi)).
"""

from fractions import Fraction

import mpmath as mp
import pytest

from boutroux import borel
from boutroux.borel import (
    germ_Hk,
    estimate_S,
    jump_via_hankel,
    laplace_ray,
    laplace_ray_derivative,
    solve_H0_convolution,
    sum_transseries,
    sum_transseries_derivative,
    toy_convolution_fixture,
    toy_geometric_exact,
    toy_geometric_germ,
    toy_halfint_exact,
    toy_halfint_germ,
)
from boutroux.errors import (
    NonConvergentSumError,
    QuadratureError,
    RadiusExceededError,
    StokesDirectionError,
)
from boutroux.series import borel_transform, h0_series, level_series

MU_ABS = None  # set in setup


def mu():
    return 1j * mp.sqrt(mp.mpf(6) / (5 * mp.pi))


class TestConvolutionEquation:
    def test_matches_direct_transform(self):
        """Two independent routes to the same germ coefficients."""
        g1 = solve_H0_convolution(80)
        g2 = borel_transform(h0_series(81))
        assert g1.lead2 == g2.lead2 == 6
        for a, b in zip(g1.coeffs, g2.coeffs):
            assert a == b

    def test_hand_computed_low_orders(self):
        g = solve_H0_convolution(7)
        assert g.coeffs[0] == Fraction(-196, 1875)   # b_3 = c_4 / 3!
        assert g.coeffs[1] == 0
        assert g.coeffs[2] == Fraction(-784, 9375)   # b_5 = (4/5) b_3

    def test_toy_fixture_low_orders(self):
        """(1-p)Y = p + Y*Y by hand: y_3 = 1 + 1/6, y_4 = y_3 + 2/4!."""
        y = toy_convolution_fixture(5)
        assert y[1] == 1 and y[2] == 1
        assert y[3] == Fraction(7, 6)
        assert y[4] == Fraction(4, 3)


class TestLaplaceRay:
    def setup_method(self):
        self._dps = mp.mp.dps
        mp.mp.dps = 30

    def teardown_method(self):
        mp.mp.dps = self._dps

    def test_toy_geometric_closed_form(self):
        x = mp.mpc(12, 5)
        v = laplace_ray(toy_geometric_germ(), x)
        assert abs(v - toy_geometric_exact(x)) < 1e-28

    def test_toy_halfint_closed_form(self):
        x = mp.mpc(12, 5)
        v = laplace_ray(toy_halfint_germ(), x)
        assert abs(v - toy_halfint_exact(x)) < 1e-27

    def test_derivative_matches_finite_difference(self):
        g = solve_H0_convolution()
        x = mp.mpc(14, 6)
        d = laplace_ray_derivative(g, x)
        h = mp.mpf("1e-8")
        fd = (laplace_ray(g, x + h) - laplace_ray(g, x - h)) / (2 * h)
        assert abs(d - fd) < 1e-14

    def test_singular_direction_raises(self):
        g = solve_H0_convolution()
        with pytest.raises(StokesDirectionError):
            laplace_ray(g, mp.mpf(10), phi=0)
        with pytest.raises(StokesDirectionError):
            laplace_ray(g, mp.mpc(-10, 1), phi=mp.pi)

    def test_nondecaying_ray_raises(self):
        g = solve_H0_convolution()
        with pytest.raises(QuadratureError):
            laplace_ray(g, mp.mpf(10), phi=2.0)
        # tol = 0 would need an infinite ray
        with pytest.raises(QuadratureError):
            laplace_ray(g, mp.mpf(10), phi=mp.pi / 4, tol=0)

    def test_ray_deformation_invariance(self):
        """Within a singularity-free sector the ray angle must not matter."""
        g = solve_H0_convolution()
        x = mp.mpc(10, 4)
        v1 = laplace_ray(g, x)
        v2 = laplace_ray(g, x, phi=-mp.arg(x) - mp.mpf("0.25"))
        assert abs(v1 - v2) < 1e-24

    def test_values_independent_of_call_order(self):
        """Cached nodes must not make a value depend on earlier calls."""
        g = solve_H0_convolution()
        xs = [mp.mpf(9), mp.mpf("10.25"), mp.mpf("11.5")]
        for phi in (mp.pi / 4, -mp.pi / 4):
            borel._engine.cache_clear()
            fwd = [laplace_ray(g, x, phi=phi) for x in xs]
            borel._engine.cache_clear()
            rev = [laplace_ray(g, x, phi=phi) for x in reversed(xs)][::-1]
            fresh = []
            for x in xs:
                borel._engine.cache_clear()
                fresh.append(laplace_ray(g, x, phi=phi))
            assert fwd == rev == fresh

    def test_second_x_reuses_nodes(self, monkeypatch):
        """A later x on the same ray evaluates the germ only in the guard."""
        g = solve_H0_convolution()
        calls = []
        call = borel.GermEvaluator.__call__

        def counting(self, p):
            calls.append(p)
            return call(self, p)

        monkeypatch.setattr(borel.GermEvaluator, "__call__", counting)
        borel._engine.cache_clear()
        laplace_ray(g, mp.mpf(9), phi=mp.pi / 4)
        first = len(calls)
        del calls[:]
        laplace_ray(g, mp.mpf("10.25"), phi=mp.pi / 4)
        guard_samples = 8
        assert first > guard_samples
        assert len(calls) == guard_samples

    def test_pade_guard_raises(self):
        """Near the cut with slow decay the ray reaches |p| where the
        weighted Pade error exceeds the tolerance."""
        g = solve_H0_convolution()
        with pytest.raises(RadiusExceededError):
            laplace_ray(g, mp.mpf(1), phi=mp.mpf("0.05"))


class TestStokesData:
    def test_estimate_S_closed_form(self):
        """|S| = sqrt(6/(5 pi)) / (2 sqrt(pi)) to extrapolation accuracy."""
        S, err = estimate_S()
        target = mp.sqrt(mp.mpf(6) / (5 * mp.pi)) / (2 * mp.sqrt(mp.pi))
        assert abs(abs(S) - target) < 1e-15
        assert err < 1e-12
        # relation S = mu / (2 i sqrt(pi)) up to overall sign convention
        assert abs(abs(S) - abs(mu() / (2j * mp.sqrt(mp.pi)))) < 1e-15

    def test_estimate_S_detects_wrong_radius(self):
        """A germ with radius 1/2 must be refused, not silently fitted."""
        from boutroux.errors import NoConvergenceError
        from boutroux.germ import BorelGerm

        g = BorelGerm(lead2=6,
                      coeffs=tuple(Fraction(2**n, n + 1) for n in range(120)))
        with pytest.raises(NoConvergenceError):
            estimate_S(g)

    def test_jump_equals_lateral_difference(self):
        """Hankel loop == difference of the two lateral sums (exact identity)."""
        mp.mp.dps = 30
        try:
            g = solve_H0_convolution()
            x = mp.mpf(9)
            jump = jump_via_hankel(g, x)
            lateral = (laplace_ray(g, x, phi=mp.pi / 4)
                       - laplace_ray(g, x, phi=-mp.pi / 4))
            assert abs(jump - lateral) < 1e-24 * abs(jump) + 1e-40
        finally:
            mp.mp.dps = 15

    def test_jump_leading_asymptotics(self):
        """Loop integral ~ -mu e^{-x} x^{-1/2} with O(1/x) relative error."""
        mp.mp.dps = 30
        try:
            g = solve_H0_convolution()
            devs = []
            for x in (mp.mpf(9), mp.mpf(18)):
                pred = -mu() * mp.exp(-x) / mp.sqrt(x)
                devs.append(abs(jump_via_hankel(g, x) - pred) / abs(pred))
            assert devs[0] < 0.25 / 9
            assert devs[1] < 0.25 / 18
            # halving like 1/x, not slower
            assert devs[1] < 0.7 * devs[0]
        finally:
            mp.mp.dps = 15


class TestTransseriesSum:
    def setup_method(self):
        self._dps = mp.mp.dps
        mp.mp.dps = 25

    def teardown_method(self):
        mp.mp.dps = self._dps

    def test_zero_C_is_h0_sum(self):
        x = mp.mpc(10, 4)
        assert sum_transseries(0, x) == laplace_ray(solve_H0_convolution(), x)

    def test_level_term_matches_series(self):
        """One-level sum at large x agrees with the truncated formal series."""
        x = mp.mpf(30)
        C = mp.mpf("0.1")
        full = sum_transseries(C, x, phi=-mp.pi / 4)
        h0_only = sum_transseries(0, x, phi=-mp.pi / 4)
        t1 = level_series(1, 12)
        pred = C * mp.exp(-x) * t1(x)
        # agreement limited by the formal-series truncation, ~ x^{-12}
        assert abs((full - h0_only) - pred) < 1e-10 * abs(pred)

    def test_info_reports_levels(self):
        info = sum_transseries(mp.mpf("0.5"), mp.mpc(9, 3), return_info=True)
        assert info.levels_used >= 2
        assert info.last_term < 1e-20

    def test_nonconvergent_raises(self):
        # xi = C e^{-x} x^{-1/2} ~ 2.3: levels decay only like (xi/12)^k,
        # 12 being the pole of F0 = 144 xi/(xi - 12)^2, so 24 levels end
        # far above tol and summation must refuse
        with pytest.raises(NonConvergentSumError):
            sum_transseries(mp.mpf(1.6e5), mp.mpf(10), phi=-mp.pi / 4)

    def test_growing_levels_raise(self):
        # xi ~ 36 lies beyond |xi| = 12: levels grow from the start
        with pytest.raises(NonConvergentSumError, match="growing"):
            sum_transseries(mp.mpf(2.5e6), mp.mpf(10), phi=-mp.pi / 4)

    def test_derivative_consistency(self):
        C = mp.mpf("0.4")
        x = mp.mpc(11, 2)
        d = sum_transseries_derivative(C, x)
        h = mp.mpf("1e-7")
        fd = (sum_transseries(C, x + h) - sum_transseries(C, x - h)) / (2 * h)
        assert abs(d - fd) < 1e-12


class TestLevelGerms:
    def test_level1_leading(self):
        g = germ_Hk(1)
        assert g.lead2 == -1
        assert g.sqrtpi
        assert g.coeffs[0] == 1

    def test_level2_leading(self):
        g = germ_Hk(2)
        assert g.lead2 == 0
        assert g.coeffs[0] == Fraction(1, 6)
