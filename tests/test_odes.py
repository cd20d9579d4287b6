"""ODE engine: series, coordinate maps, path integration, poles, seeding.

Oracles: the h-equation's right-hand side for the Taylor and Laurent
series, Painleve I itself for the coordinate maps, detours that keep away
from a pole for passages through it, the Borel-summed transseries for
far-field values, and a 32-digit Taylor run for pole locations.
"""

import cmath
import functools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boutroux
from boutroux.errors import StepFailureError
from boutroux.odes import (
    EQ4,
    FAR_FIELD_LEVELS,
    _series_h,
    _series_pole,
    arc_path,
    continue_around,
    detect_poles,
    far_field_init,
    integrate_path,
    locate_pole,
    single_valuedness_residual,
)

cnum = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                          allow_nan=False, allow_infinity=False)


# Reference right-hand side of the h-equation, and the coordinate map to
# the standard Painleve I variables with its inverse.  The package
# integrates through the series recurrences _series_h and _series_pole,
# which the tests below check against these.


def rhs_h(x, state):
    """(h, h') -> (h', h'') for  h'' = h + h^2/2 + EQ4/x^4 - h'/x."""
    if x == 0:
        raise ValueError("the equation is singular at x = 0")
    h, hp = state
    return np.array([hp, h + h * h / 2 + EQ4 / x**4 - hp / x])


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


class TestRightHandSides:
    def test_rhs_h_example(self):
        # h'' = h + h^2/2 + eq4/x^4 - h'/x at x=1, h=h'=0
        hp, hpp = rhs_h(1.0, np.array([0.0, 0.0]))
        assert hp == 0.0
        assert abs(hpp - 392.0 / 625.0) < 1e-15

    def test_rhs_h_against_series(self):
        """The truncated formal solution nearly annihilates rhs_h."""
        from boutroux.series import h0_series

        with mp.workdps(30):
            s = h0_series(10)
            x = mp.mpf(20)
            state = np.array([complex(s(x)), complex(s.differentiate()(x))])
            hp, hpp = rhs_h(20.0, state)
            d2 = complex(s.differentiate().differentiate()(x))
            # residual limited by the first omitted series term ~ c_24 x^{-24}
            assert abs(hpp - d2) < 1e-9

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            rhs_h(0.0, np.array([1.0, 1.0]))


class TestTaylorSeries:
    """The Taylor and Laurent recurrences against the right-hand side."""

    X, H, HP = 6.0 + 9.0j, 0.4 - 0.3j, -0.2 + 0.5j

    def test_h_series_second_coefficient_is_half_rhs(self):
        cs = _series_h(self.X, self.H, self.HP, 6)
        assert cs[:2] == [self.H, self.HP]
        hpp = rhs_h(self.X, [self.H, self.HP])[1]
        assert abs(2 * cs[2] - hpp) < 1e-14 * abs(hpp)

    def test_laurent_series_solves_the_h_equation(self):
        """h = sum b_n t^n about a pole, t = x - x0, gives the h'' of the
        right-hand side at points around the pole, with the free b_4 at a
        value far from that of any pole of the truncated solutions."""
        x0, beta = 8.0 + 30.0j, 0.3 - 0.2j
        cs, _ = _series_pole(x0, beta, 60)
        assert cs[:2] == [12.0, -2.4 / x0] and cs[6] == beta
        for t in (0.5, 0.8j, -0.6 - 0.6j):
            p, dp, ddp = (sum(c * math.perm(k, m) * t ** (k - m)
                              for k, c in enumerate(cs) if k >= m)
                          for m in (0, 1, 2))
            h = p / t ** 2
            hp = dp / t ** 2 - 2 * p / t ** 3
            hpp = ddp / t ** 2 - 4 * dp / t ** 3 + 6 * p / t ** 4
            want = rhs_h(x0 + t, [h, hp])[1]
            assert abs(hpp - want) < 1e-13 * abs(want)

    def test_resonance_residual_is_the_integrability_witness(self,
                                                             monkeypatch):
        """At n = 4 the Laurent recurrence leaves a residual instead of
        b_4.  It vanishes to rounding at EQ4 = 392/625, the Painleve
        value, and away from it grows linearly in the shift, like the
        exact witness of twoscale."""
        from boutroux import odes
        from boutroux.twoscale import predict_pole

        x0s = [complex(predict_pole(n, 1.0).x_n) for n in (5, 10, 15)]
        for x0 in x0s:
            assert abs(_series_pole(x0, 0, 6)[1]) < 1e-15
        per_shift = []
        for shift in (0.1, 0.5 - 392 / 625):
            monkeypatch.setattr(odes, "EQ4", 392 / 625 + shift)
            per_shift.append([_series_pole(x0, 0, 6)[1] / shift
                              for x0 in x0s])
        for a, b in zip(*per_shift):
            assert abs(a) > 1e-10
            assert abs(a - b) < 1e-4 * abs(a)

    def test_step_bounded_by_distance_to_singular_point(self):
        """With a loose tolerance the coefficient rule alone would cover
        the segment; DIST_FRAC of the distance to x = 0 bounds each step."""
        from boutroux.odes import DIST_FRAC, solve_ivp

        x0, x1 = 4.0 + 0j, 4.0 + 6j
        _, _, steps, _ = solve_ivp(_series_h, x0, x1, (1e-3, 1e-4),
                                   rtol=1e-3, atol=1e-3)
        for c, end, _ in steps:
            assert abs(end - c) <= DIST_FRAC * abs(c) * (1 + 1e-15)
        assert len(steps) > 1


class TestCoordinateMaps:
    @given(st.floats(5, 50), st.floats(-2.8, 2.8), cnum, cnum)
    @settings(max_examples=50, deadline=None)
    def test_z_round_trip(self, r, th, h, hp):
        x = r * cmath.exp(1j * th)
        z, y, dy = map_x_to_z(x, h, hp)
        x2, h2, hp2 = map_z_to_x(z, y, dy)
        assert abs(x2 - x) < 1e-9 * abs(x)
        assert abs(h2 - h) < 1e-8 * max(1.0, abs(h))
        assert abs(hp2 - hp) < 1e-8 * max(1.0, abs(hp))

    def test_z_scaling(self):
        z1, _, _ = map_x_to_z(10.0, 0.0, 0.0)
        z2, _, _ = map_x_to_z(20.0, 0.0, 0.0)
        assert abs(abs(z2 / z1) - 2 ** 0.8) < 1e-12

    def test_y_solves_painleve_I(self):
        """(x, h, h') on the h-equation maps to y'' = 6y^2 + z.

        Uses the truncated formal solution as a nearly exact h-state and
        checks the P_I residual by finite differences in z.
        """
        from boutroux.series import h0_series

        with mp.workdps(40):
            s = h0_series(30)
            sp_ = s.differentiate()

            def y_of_z(z):
                # invert z -> x, evaluate h exactly, map forward
                x, _, _ = map_z_to_x(z, 0.0, 0.0)
                xm = mp.mpc(x)
                _, y, _ = map_x_to_z(x, complex(s(xm)), complex(sp_(xm)))
                return y

            z0, _, _ = map_x_to_z(25.0, 0.0, 0.0)
            dz = 1e-3 * abs(z0)
            ys = [y_of_z(z0 + k * dz) for k in (-2, -1, 0, 1, 2)]
            ypp = (-ys[0] + 16 * ys[1] - 30 * ys[2] + 16 * ys[3] - ys[4]) / (
                12 * dz * dz)
            res = ypp - 6 * ys[2] ** 2 - z0
            assert abs(res) < 1e-5 * abs(z0)


class TestIntegratePath:
    def test_zero_length_path(self):
        tr = integrate_path(10.0, [0.1, 0.0], [10.0])
        x, s = tr.endpoint
        assert x == 10.0 and s[0] == 0.1

    def test_path_through_origin_refused(self, monkeypatch):
        """A segment through the singular point x = 0 is refused before a
        step is taken on it."""
        centres = []

        def series(c, *args):
            centres.append(c)
            return _series_h(c, *args)

        monkeypatch.setattr("boutroux.odes._series_h", series)
        for x0, path in ((1.0, [-1.0]), (2.0 + 1j, [1j, -1j, 3.0]),
                         (1.0, [0.0])):
            centres.clear()
            with pytest.raises(StepFailureError, match="x = 0"):
                integrate_path(x0, (0.1, 0), path)
            # only the segment 2 + i -> i before the refused one is stepped
            assert all(c.imag == 1 and c.real > 0 for c in centres)

    def test_non_finite_state_refused(self):
        from boutroux.odes import solve_ivp

        for state in ((math.nan, 0.0), (0.1, complex(math.inf, 0))):
            with pytest.raises(StepFailureError, match="non-finite state"):
                solve_ivp(_series_h, 10.0, 12.0, state)

    def test_path_beside_origin_ends(self):
        """A segment that passes 1e-6 from the singular point x = 0 ends
        (returns or raises StepFailureError) instead of grinding: the
        steps shrink with the distance to x = 0.  Run in a subprocess so a
        regression fails on the timeout instead of hanging the suite."""
        code = ("from boutroux.errors import StepFailureError\n"
                "from boutroux.odes import integrate_path\n"
                "try:\n"
                "    integrate_path(1.0, (0.1, 0), [-1.0 + 2e-6j])\n"
                "except StepFailureError:\n"
                "    pass\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(boutroux.__path__[0])]
            + [p for p in [env.get("PYTHONPATH")] if p])
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=20)

    def test_against_far_field(self):
        """Integrating outward tracks the formal solution."""
        x0, x1 = 20.0 + 8j, 26.0 + 8j
        s0, e0 = far_field_init(0.0, x0)
        tr = integrate_path(x0, s0, [x1])
        s1, e1 = far_field_init(0.0, x1)
        _, end = tr.endpoint
        # limited by the series truncation error of the two seeds
        assert abs(end[0] - s1[0]) < 10 * (e0 + e1) + 1e-12

    def test_energy_drift_bound(self):
        """s = h'^2 - h^2 - h^3/3 drifts by O(1/x) per unit length."""
        x0 = 20.0 + 8j
        s0, _ = far_field_init(1.0, x0)
        path = [x0 - 6.0]
        tr = integrate_path(x0, s0, path)

        def energy(state):
            h, hp = state
            return hp * hp - h * h - h**3 / 3

        _, e0, _ = tr.samples[0]
        _, e1 = tr.endpoint
        drift = abs(energy(e1) - energy(e0))
        assert drift < 5 * 6.0 / 14.0  # K * length / min|x|, generous K

    def test_straight_passage_matches_detours(self):
        """From the n = 5 pole p, straight paths p + 3 + id -> p - 3 + id,
        down to d = 0 straight through the pole, end where three detours
        that stay at least 2 from p end, to 1e-12 relative."""
        _, rec = locate_pole(5, 1.0)
        p = rec.location
        x0 = p + 4.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        for d in (0.5, 0.3, 0.1, 0.01, 0.001, 0.0):
            a, b = p + 3 + 1j * d, p - 3 + 1j * d
            _, sa = integrate_path(x0, s0, [a]).endpoint
            straight = integrate_path(a, sa, [b])
            assert [c for _, _, c in straight.samples] == [
                "h", "pole", "h", "h"]
            for off in (2.5j, -2.5j, 3.5j):
                _, want = integrate_path(a, sa, [a + off, b + off, b]
                                         ).endpoint
                for got, ref in zip(straight.endpoint[1], want):
                    assert abs(got - ref) < 1e-12 * abs(ref)

    def test_tolerance_halving(self):
        """Tighter tolerances reduce endpoint error at least 2x."""
        x0, x1 = 25.0 * cmath.exp(0.25j * cmath.pi), 15.0 + 10j
        s0, _ = far_field_init(0.0, x0)
        ref = integrate_path(x0, s0, [x1], rtol=1e-13, atol=1e-15).endpoint[1]
        e = []
        for rt in (1e-6, 1e-8):
            end = integrate_path(x0, s0, [x1], rtol=rt, atol=rt * 1e-2
                                 ).endpoint[1]
            e.append(abs(end[0] - ref[0]))
        assert e[1] < 0.5 * e[0]


class TestPoleDetection:
    def test_first_array_pole(self):
        """The n=5 pole of the C=1 array, found and refined."""
        xp = -4.19749734 + 30.59176666j  # four-order prediction refined
        x0 = xp + 4.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        tr = integrate_path(x0, s0, [xp - 1.0 + 0.3j],
                            rtol=1e-11, atol=1e-13)
        poles = detect_poles(tr)
        assert len(poles) >= 1
        best = min(poles, key=lambda p: abs(p.location - xp))
        assert abs(best.location - xp) < 1e-6
        assert best.witness < 1e-10

    def test_pole_laurent_structure(self):
        """h ~ 12/(x-x0)^2 in a +-0.2 window around the detected pole."""
        xp = -4.19749734 + 30.59176666j
        x0 = xp + 4.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        tr = integrate_path(x0, s0, [xp - 1.0 + 0.3j],
                            rtol=1e-11, atol=1e-13)
        loc = min(detect_poles(tr), key=lambda p: abs(p.location - xp)
                  ).location
        # integrate to points at distance ~0.2 and compare with 12/d^2
        for ang in (0.3, 2.1, 4.0):
            d = 0.2 * cmath.exp(1j * ang)
            tr2 = integrate_path(x0, s0, [loc + 1.5, loc + d],
                                 rtol=1e-11, atol=1e-13)
            _, s = tr2.endpoint
            assert abs(s[0] - 12 / d ** 2) < 0.15 * abs(12 / d ** 2)

    def test_there_and_back_ends_at_the_seed(self):
        """Across the n = 5 pole and back again, with a fit on each
        passage, the path ends at its seed state."""
        from boutroux.twoscale import predict_pole

        pred = complex(predict_pole(5, 1.0).x_n)
        x0 = pred + 4.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        tr = integrate_path(x0, s0, [pred - 3.0 + 0.3j, x0])
        x, s = tr.endpoint
        assert x == x0
        for got, want in zip(s, s0):
            assert abs(got - want) < 1e-10 * abs(want)
        first, back = (p.location for p in tr.poles)
        assert abs(first - back) < 1e-12 * abs(first)

    def test_no_poles_on_quiet_path(self):
        x0 = 25.0 * cmath.exp(0.25j * cmath.pi)
        s0, _ = far_field_init(0.0, x0)
        tr = integrate_path(x0, s0, [15.0 + 12j])
        assert detect_poles(tr) == []


def _mp_conv(p, q, k):
    return mp.fdot(p[:k + 1], q[k::-1])


def _mp_horner(cs, t):
    y = d = 0
    for c in reversed(cs):
        d = d * t + y
        y = y * t + c
    return y, d


def _mp_series_h(c, h, hp, n, eq4):
    """Taylor coefficients at c of h'' = h + h^2/2 + eq4 x^-4 - h'/x, with
    the series of 1/x and x^-4 (the package multiplies by x instead)."""
    inv = [(-1) ** k / c ** (k + 1) for k in range(n)]
    inv4 = [(-1) ** k * (k + 1) * (k + 2) * (k + 3) / (6 * c ** (k + 4))
            for k in range(n)]
    a, d1 = [h, hp], [hp]
    for k in range(n - 1):
        rhs = (a[k] + _mp_conv(a, a, k) / 2 + eq4 * inv4[k]
               - _mp_conv(inv, d1, k))
        a.append(rhs / ((k + 1) * (k + 2)))
        d1.append((k + 2) * a[k + 2])
    return a


def _mp_series_g(c, g, v, n, eq4):
    """Taylor coefficients at c of the g-chart equation multiplied by
    x (3 - g): P g'' = P (g + g^2/6) + (eq4/9) x^-3 (3 - g)^3 - (3 - g) g'
    - 2 x g'^2 with P = x (3 - g) (the package divides by 3 - g)."""
    inv3 = [(-1) ** k * (k + 1) * (k + 2) / (2 * c ** (k + 3))
            for k in range(n)]
    a = [g, v]
    om, om2, om3, d1, d1sq, F, P, d2 = ([] for _ in range(8))
    for k in range(n - 1):
        om.append(3 - a[0] if k == 0 else -a[k])
        om2.append(_mp_conv(om, om, k))
        om3.append(_mp_conv(om2, om, k))
        d1.append((k + 1) * a[k + 1])
        d1sq.append(_mp_conv(d1, d1, k))
        F.append(a[k] + _mp_conv(a, a, k) / 6)
        P.append(c * om[k] + (om[k - 1] if k else 0))
        rhs = (_mp_conv(P, F, k) + eq4 / 9 * _mp_conv(inv3, om3, k)
               - _mp_conv(om, d1, k)
               - 2 * (c * d1sq[k] + (d1sq[k - 1] if k else 0)))
        rest = mp.fdot(P[1:k + 1], d2[::-1]) if k else 0
        d2.append((rhs - rest) / P[0])
        a.append(d2[k] / ((k + 1) * (k + 2)))
    return a


def taylor_pole_reference(n, C=1.0, dps=32, order=50):
    """Pole n of the first array by an independent 32-digit Taylor run:
    the far-field seed at prediction + 8 + 0.3i, h-chart steps of local
    error 10^-dps to prediction + 0.7 + 0.1i, then Newton on g' of the
    g-series there."""
    from boutroux.twoscale import predict_pole

    with mp.workdps(dps):
        pred = complex(predict_pole(n, C).x_n)
        (h, hp), _ = far_field_init(C, pred + 8 + 0.3j)
        x, h, hp = mp.mpc(pred + 8 + 0.3j), mp.mpc(h), mp.mpc(hp)
        x1, eq4 = mp.mpc(pred + 0.7 + 0.1j), mp.mpf(392) / 625
        eps = mp.mpf(10) ** -dps
        while x != x1:
            cs = _mp_series_h(x, h, hp, order, eq4)
            r = min((eps / abs(cs[j])) ** (mp.mpf(1) / j)
                    for j in (order - 1, order))
            step = x1 - x
            if r < abs(step):
                step *= r / abs(step)
            h, hp = _mp_horner(cs, step)
            x = x1 if step == x1 - x else x + step
        cs = _mp_series_g(x, 3 * h / (3 + h), 9 * hp / (3 + h) ** 2, order,
                          eq4)
        dcs = [k * c for k, c in enumerate(cs)][1:]
        t = mp.mpc(pred) - x
        for _ in range(50):
            d, dd = _mp_horner(dcs, t)
            t -= d / dd
        return complex(x + t)


class TestLocatePoleAccuracy:
    @pytest.mark.parametrize("n", [5, 15])
    def test_against_32_digit_taylor(self, n):
        _, rec = locate_pole(n, 1.0)
        ref = taylor_pole_reference(n)
        assert abs(rec.location - ref) <= 1e-11 * abs(ref)


def borel_derivative(C, x, step=mp.mpf("1e-7")):
    """Centered difference of the Borel-summed transseries at x."""
    from boutroux.borel import sum_transseries

    return (sum_transseries(C, x + step) - sum_transseries(C, x - step)) \
        / (2 * step)


def seed_reference(C, x0):
    """The truncated transseries of far_field_init, (h, h') summed at 40
    digits by FormalSeries: h0 and FAR_FIELD_LEVELS levels, each with its
    integer-power part to order N ~ |x0|."""
    from boutroux.series import h0_series, level_series

    N = int(min(max(abs(x0), 8), 60))
    N -= N % 2
    with mp.workdps(40):
        x = mp.mpc(x0)
        s = h0_series(N)
        h, hp = s(x), s.differentiate()(x)
        for k in range(1, FAR_FIELD_LEVELS + 1 if C else 1):
            t = level_series(k, N)
            pref = mp.mpc(C) ** k * mp.exp(-k * x)
            tk = t(x)
            h += pref * tk
            hp += pref * (t.differentiate()(x) - k * tk)
        return complex(h), complex(hp)


@functools.lru_cache(maxsize=None)
def borel_seed_value(C, x0):
    """The Borel-summed transseries h at x0, at 30 digits."""
    from boutroux.borel import sum_transseries

    with mp.workdps(30):
        return complex(sum_transseries(C, mp.mpc(x0)))


class TestFarFieldInit:
    def test_zero_C_matches_borel(self):
        from boutroux.borel import laplace_ray, solve_H0_convolution

        with mp.workdps(30):
            x = mp.mpc(20, 20)
            s, err = far_field_init(0.0, complex(x))
            exact = laplace_ray(solve_H0_convolution(), x)
            assert abs(s[0] - complex(exact)) < 1e-13
            # estimate includes the e^{-Re x} optimal-truncation floor
            assert abs(s[0] - complex(exact)) < err < 1e-8
            assert abs(s[1] - complex(borel_derivative(0, x))) < 1e-13

    def test_transseries_C_matches_borel(self):
        from boutroux.borel import sum_transseries

        with mp.workdps(30):
            x = mp.mpc(21, 21)
            s, err = far_field_init(1.0, complex(x))
            exact = sum_transseries(1, x)
            assert abs(s[0] - complex(exact)) < 1e-11
            assert abs(s[1] - complex(borel_derivative(1, x))) < 1e-13

    def test_independent_of_ambient_precision(self):
        from boutroux import odes

        x0 = 21.0 + 21.0j
        seen = []
        for dps in (15, 50):
            odes._seed_series.cache_clear()
            with mp.workdps(dps):
                state, err = far_field_init(1.0, x0)
            seen.append((list(state), err))
        assert seen[0] == seen[1]

    def test_matches_40_digit_sum(self):
        """Complex-double Horner moves the seed by rounding only: within
        1e-15 relative of the same truncated sum at 40 digits, at the seeds
        of locate_pole, continue_around and criterion 5."""
        from boutroux.twoscale import predict_pole

        x45 = 30 * cmath.exp(1j * math.pi / 4)
        seeds = [(1.0, complex(predict_pole(n, 1.0).x_n) + 4.0 + 0.3j)
                 for n in (5, 10, 15)] + [(0.0, x45), (1.0, x45)]
        for C, x0 in seeds:
            state, err = far_field_init(C, x0)
            for got, ref in zip(state, seed_reference(C, x0)):
                assert abs(got - ref) <= 1e-15 * abs(ref)
            # the rounding bound of the Horner sums is part of the estimate
            assert err > 1e-16 * abs(state[0])

    def test_error_estimate_covers_locate_pole_seed(self):
        """err_est covers the distance to the 30-digit Borel-summed
        transseries at the seeds of locate_pole (n = 5, 10, 15; at n = 5
        the level series carry most of h) and at continue_around's
        30 e^{i pi/4} for C = 0 and C = 1."""
        from boutroux.twoscale import predict_pole

        x45 = 30 * cmath.exp(1j * math.pi / 4)
        seeds = [(1.0, complex(predict_pole(n, 1.0).x_n) + 4.0 + 0.3j)
                 for n in (5, 10, 15)] + [(0.0, x45), (1.0, x45)]
        for C, x0 in seeds:
            state, err = far_field_init(C, x0)
            assert err >= abs(state[0] - borel_seed_value(C, x0))

    def test_levels_cut_at_their_least_term(self):
        """Every level is summed only to order ~ |x0|, like h0, so the
        n = 5 seed of locate_pole, where the levels carry most of h, is
        within 1e-14 of the 30-digit Borel sum, and so is the pole."""
        from boutroux.twoscale import predict_pole

        x0 = complex(predict_pole(5, 1.0).x_n) + 4.0 + 0.3j
        state, _ = far_field_init(1.0, x0)
        assert abs(state[0] - borel_seed_value(1.0, x0)) < 1e-14
        _, rec = locate_pole(5, 1.0)
        ref = taylor_pole_reference(5)
        assert abs(rec.location - ref) < 1e-14 * abs(ref)

    def test_warns_when_too_close(self):
        with pytest.warns(UserWarning):
            far_field_init(1.0, 5.0 + 0j)


class TestSingleValuedness:
    @pytest.mark.parametrize("R", [12.0, 20.0, 25.0])
    def test_residual_vanishes(self, R):
        """h(R e^{3i pi/2}) + h(R e^{-i pi}) + 2 = 0 for the tritronquee;
        its residual is the continuation error, not a leftover
        8/(25 R^2) (0.8e-3 at R = 20)."""
        trace_ccw, trace_cw = continue_around(R)
        assert abs(single_valuedness_residual(trace_ccw, trace_cw)) < 1e-6


class TestTraceExport:
    def test_json_schema(self):
        import json

        x0 = 20.0 + 8j
        s0, _ = far_field_init(0.0, x0)
        tr = integrate_path(x0, s0, [22.0 + 8j])
        d = json.loads(tr.to_json())
        assert {"samples", "poles"} <= set(d)
        s = d["samples"][0]
        assert s["chart"] in ("h", "pole")
        assert len(s["x"]) == 2 and len(s["state"]) == 4


class TestArcPath:
    def test_endpoints_and_chords(self):
        pts = arc_path(10.0, 0.0, math.pi / 2)
        assert abs(pts[-1] - 10j) < 1e-12
        prev = 10.0
        for p in pts:
            assert abs(p - prev) <= 1.5 + 1e-9
            assert abs(abs(p) - 10.0) < 1e-12
            prev = p
