"""ODE engine: charts, coordinate maps, path integration, poles, seeding.

Oracles: the chain rule through g = 3h/(3+h) for the chart right-hand
sides, Painleve I itself for the coordinate maps, the Borel-summed
transseries for far-field values, and the four-order pole-location
asymptotics cross-checked against detected poles.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boutroux.errors import ChartDeadlockError, StepFailureError
from boutroux.odes import (
    EQ4,
    FAR_FIELD_LEVELS,
    arc_path,
    detect_poles,
    far_field_init,
    g_from_h,
    h_from_g,
    integrate_path,
    map_x_to_z,
    map_z_to_x,
    rhs_g,
    rhs_h,
)

cnum = st.complex_numbers(min_magnitude=0.01, max_magnitude=3.0,
                          allow_nan=False, allow_infinity=False)


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

    @given(cnum, cnum, cnum)
    @settings(max_examples=50, deadline=None)
    def test_g_chart_chain_rule(self, x, g, v):
        """rhs_g is the h-equation pushed through g = 3h/(3+h).

        Map (g, v) to (h, h'), apply rhs_h, and map the second derivative
        back: h' = 9v/(3-g)^2 gives
        g'' = (3-g)^2 h''/9 - 2 v^2/(3-g) ... checked numerically.
        """
        if abs(3.0 - g) < 0.3 or abs(x) < 0.3:
            return
        h, hp = h_from_g([g, v])
        if abs(3.0 + h) < 0.3:
            return
        hpp = rhs_h(x, [h, hp])[1]
        # differentiate g = 3h/(3+h) twice: g'' = 9 h''/(3+h)^2 - 18 h'^2/(3+h)^3
        gpp_expected = 9 * hpp / (3 + h) ** 2 - 18 * hp * hp / (3 + h) ** 3
        gpp = rhs_g(x, [g, v])[1]
        scale = max(1.0, abs(gpp_expected))
        assert abs(gpp - gpp_expected) < 1e-9 * scale

    @given(cnum, cnum)
    @settings(max_examples=50, deadline=None)
    def test_chart_round_trip(self, h, hp):
        if abs(3.0 + h) < 0.2:
            return
        g, v = g_from_h([h, hp])
        h2, hp2 = h_from_g([g, v])
        assert abs(h2 - h) < 1e-10 * max(1.0, abs(h))
        assert abs(hp2 - hp) < 1e-10 * max(1.0, abs(hp))

    def test_singular_at_origin(self):
        with pytest.raises(ValueError):
            rhs_h(0.0, np.array([1.0, 1.0]))


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
        """A segment through the singular point x = 0 is refused before
        any segment is integrated."""
        def no_solve(*args, **kwargs):
            raise AssertionError("integration started")

        monkeypatch.setattr("boutroux.odes.solve_ivp", no_solve)
        for x0, path in ((1.0, [-1.0]), (2.0 + 1j, [1j, -1j, 3.0]),
                         (1.0, [0.0])):
            with pytest.raises(StepFailureError, match="x = 0"):
                integrate_path(x0, (0.1, 0), path)

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

        _, e0 = tr.state_h(0)
        _, e1 = tr.state_h(-1)
        drift = abs(energy(e1) - energy(e0))
        assert drift < 5 * 6.0 / 14.0  # K * length / min|x|, generous K

    def test_chart_switch_consistency(self):
        """h reconstructed from the g-chart matches at switch samples."""
        # a path that passes near a pole of the C=1 array
        xp = -4.1975 + 30.5918j
        x0 = xp + 4.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        tr = integrate_path(x0, s0, [xp - 1.0 + 0.3j])
        charts = [c for _, _, c in tr.samples]
        assert "g" in charts  # actually exercised the pole chart
        for i in range(1, len(tr.samples)):
            if tr.samples[i][2] != tr.samples[i - 1][2]:
                x_a, sw = tr.state_h(i - 1)
                x_b, sw2 = tr.state_h(i)
                if x_a == x_b:
                    assert abs(sw[0] - sw2[0]) < 1e-10 * max(1, abs(sw[0]))

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

    def test_chart_thrashing_raises(self, monkeypatch):
        """Crossing the n = 5 pole there, back and there again switches
        charts three times, one more than the patched limit allows."""
        from boutroux.twoscale import predict_pole

        monkeypatch.setattr("boutroux.odes.MAX_SWITCHES", 2)
        pred = complex(predict_pole(5, 1.0).x_n)
        x0, a = pred + 4.0 + 0.3j, pred - 1.0 + 0.3j
        s0, _ = far_field_init(1.0, x0)
        with pytest.raises(ChartDeadlockError,
                           match="more than 2 chart switches"):
            integrate_path(x0, s0, [a, x0, a], rtol=1e-11, atol=1e-13)

    def test_no_poles_on_quiet_path(self):
        x0 = 25.0 * cmath.exp(0.25j * cmath.pi)
        s0, _ = far_field_init(0.0, x0)
        tr = integrate_path(x0, s0, [15.0 + 12j])
        assert detect_poles(tr) == []


def borel_derivative(C, x, step=mp.mpf("1e-7")):
    """Centered difference of the Borel-summed transseries at x."""
    from boutroux.borel import sum_transseries

    return (sum_transseries(C, x + step) - sum_transseries(C, x - step)) \
        / (2 * step)


def seed_reference(C, x0):
    """The truncated transseries of far_field_init, (h, h') summed at 40
    digits by FormalSeries: h0 to order N ~ |x0| and FAR_FIELD_LEVELS
    levels to order min(N + 20, 60)."""
    from boutroux.series import h0_series, level_series

    N = int(min(max(abs(x0), 8), 60))
    N -= N % 2
    with mp.workdps(40):
        x = mp.mpc(x0)
        s = h0_series(N)
        h, hp = s(x), s.differentiate()(x)
        for k in range(1, FAR_FIELD_LEVELS + 1 if C else 1):
            t = level_series(k, min(N + 20, 60))
            pref = mp.mpc(C) ** k * mp.exp(-k * x)
            tk = t(x)
            h += pref * tk
            hp += pref * (t.differentiate()(x) - k * tk)
        return complex(h), complex(hp)


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
            seen.append((state.tolist(), err))
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

    def test_warns_when_too_close(self):
        with pytest.warns(UserWarning):
            far_field_init(1.0, 5.0 + 0j)


class TestTraceExport:
    def test_json_schema(self):
        import json

        x0 = 20.0 + 8j
        s0, _ = far_field_init(0.0, x0)
        tr = integrate_path(x0, s0, [22.0 + 8j])
        d = json.loads(tr.to_json())
        assert {"samples", "poles"} <= set(d)
        s = d["samples"][0]
        assert s["chart"] in ("h", "g")
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
