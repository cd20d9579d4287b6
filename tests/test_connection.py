"""Connection data: constant extraction, Stokes multiplier measurement.

Oracles: the closed form mu = i sqrt(6/(5 pi)), self-consistency of the
transseries representation (extracting a constant that was put in), and
the lateral-frame relation C+ - C- = -mu.
"""

import math

import mpmath as mp
import pytest

from boutroux.borel import (
    laplace_ray,
    solve_H0_convolution,
    sum_transseries,
)
from boutroux.connection import (
    default_schedule,
    extract_constant,
    measure_mu,
    mu_closed_form,
    verify_second_stokes_line,
)
from boutroux.errors import FitDegenerateError, NoConvergenceError


def setup_module():
    mp.mp.dps = 30


def teardown_module():
    mp.mp.dps = 15


def tritronquee(x):
    """The C+ = 0 solution: lateral sum from below, continued across arg 0.

    The ray phi = -pi/8 passes near the Borel cut, so the guard tolerance
    is set to the accuracy the extraction actually needs (~1e-18 absolute,
    far above the ~1e-22 weighted continuation error on this ray).
    """
    return laplace_ray(solve_H0_convolution(), x, phi=-mp.pi / 8, tol=1e-20)


class TestExtractConstant:
    def test_zero_constant(self):
        """Borel sum of the bare series carries no exponential."""
        c = extract_constant(tritronquee, math.pi / 4)
        assert abs(c) < 1e-6

    def test_recovers_unit_constant(self):
        """sum_transseries(C=1) must extract to 1 (self-consistency)."""
        ev = lambda x: sum_transseries(1, x, phi=-mp.pi / 8, tol=1e-18)
        c = extract_constant(ev, math.pi / 4)
        assert abs(c - 1) < 1e-6

    def test_lower_lateral_constant_is_mu(self):
        """The same function seen from below carries C- = +mu."""
        c = extract_constant(tritronquee, -math.pi / 4)
        assert abs(c - complex(mu_closed_form())) < 1e-6

    def test_lateral_relation(self):
        """C+ - C- = -mu across the arg x = 0 Stokes line."""
        cp = extract_constant(tritronquee, math.pi / 4)
        cm = extract_constant(tritronquee, -math.pi / 4)
        mu = complex(mu_closed_form())
        assert abs(cp - cm + mu) < 2e-6

    def test_stokes_direction_two_sided(self):
        """theta = 0 returns the two-sided average (C+ + C-)/2."""
        c, info = extract_constant(tritronquee, 0.0, return_info=True)
        assert info["two_sided"]
        assert abs(c - complex(mu_closed_form()) / 2) < 2e-6

    def test_truncation_rule_robustness(self):
        """Shifting the schedule by -1 does not move the limit."""
        sched = default_schedule()
        c1 = extract_constant(tritronquee, math.pi / 4, schedule=sched)
        shifted = [r - 1.0 for r in sched]
        c2 = extract_constant(tritronquee, math.pi / 4, schedule=shifted)
        assert abs(c1 - c2) < 1e-6

    def test_six_point_schedule(self):
        """Six points are enough for the six-parameter fit."""
        ev = lambda x: sum_transseries(1, x, phi=-mp.pi / 8, tol=1e-18)
        sched = [20.5 + 2.0 * k for k in range(6)]
        c = extract_constant(ev, math.pi / 4, schedule=sched)
        assert abs(c - 1) < 1e-6

    def test_short_schedule_rejected(self):
        with pytest.raises(ValueError):
            extract_constant(tritronquee, math.pi / 4, schedule=[17.5, 20.5])

    def test_nonconvergent_diagnostics(self):
        """A wrong evaluator (off by a power) must not settle silently."""
        bad = lambda x: tritronquee(x) + 0.01 / x
        with pytest.raises(NoConvergenceError) as ei:
            # 0.01/x times e^x sqrt(x) explodes along the schedule
            extract_constant(bad, math.pi / 4)
        assert "C_fit" in ei.value.diagnostics


class TestMeasureMu:
    def test_closed_form(self):
        g = solve_H0_convolution()
        hp = lambda x: laplace_ray(g, x, phi=mp.pi / 4)
        hm = lambda x: laplace_ray(g, x, phi=-mp.pi / 4)
        mu, resid = measure_mu(hp, hm)
        target = complex(mu_closed_form())
        assert abs(mu - target) < 1e-3 * abs(target)
        assert abs(mu.real) < 1e-4  # purely imaginary
        assert resid < 1e-8

    def test_short_grid_degenerate(self):
        g = solve_H0_convolution()
        hp = lambda x: laplace_ray(g, x, phi=mp.pi / 4)
        hm = lambda x: laplace_ray(g, x, phi=-mp.pi / 4)
        with pytest.raises(FitDegenerateError):
            measure_mu(hp, hm, grid=[10.0, 10.5, 11.0])


class TestSecondStokesLine:
    @staticmethod
    def _laterals():
        g = solve_H0_convolution()
        # lateral sums on either side of the second cut direction phi = pi
        above = lambda x: laplace_ray(g, x, phi=mp.pi + mp.pi / 8, tol=1e-20)
        below = lambda x: laplace_ray(g, x, phi=mp.pi - mp.pi / 8, tol=1e-20)
        return above, below

    def test_jump_is_plus_mu(self):
        above, below = self._laterals()
        resid, fit_err = verify_second_stokes_line(above, below)
        assert abs(resid) < 1e-3
        assert fit_err < 1e-8

    def test_swapped_arguments_detected(self):
        above, below = self._laterals()
        with pytest.raises(FitDegenerateError):
            verify_second_stokes_line(below, above)
