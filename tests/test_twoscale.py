"""Two-scale functions F_n, G_n, obstruction witness, pole asymptotics.

Oracles: exact ODE-substitution residuals of the hierarchy and the
closed forms of F_0, F_1, G_0, G_1, both checked in sympy (the package's
exact terms are converted to sympy expressions here, so sympy shares no
arithmetic with the package), transseries summation at order-one xi, and a
pole location measured independently by path integration.
"""

import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from boutroux.errors import ObstructionError, OutsideRegionError
from boutroux.series import EQP_COEFF
from boutroux.twoscale import (
    F0,
    H1,
    compute_F,
    compute_G,
    eval_two_scale,
    hierarchy_residuals,
    integrability_witness,
    predict_pole,
    xi_of,
)

SHIFTED = EQP_COEFF + Fraction(1, 10)
XI = sp.Symbol("xi")


def expr(term):
    """A package term N(xi) / ((xi-12)^a (xi+12)^b) as a sympy expression."""
    num = sum(sp.Rational(c.numerator, c.denominator) * XI**i
              for i, c in enumerate(term.num))
    return num / ((XI - 12) ** term.a * (XI + 12) ** term.b)


class TestClosedForms:
    def test_F1(self):
        F1 = -XI * (XI**3 - 180 * XI**2 - 12600 * XI - 12960) \
            / (60 * (XI - 12) ** 3)
        assert sp.simplify(expr(compute_F(1)) - F1) == 0

    def test_G0(self):
        G0 = 144 * XI / (XI + 12) ** 2
        assert sp.simplify(expr(compute_G(0)) - G0) == 0

    def test_G1(self):
        G1 = -XI * (XI - 12) * (XI**3 - 180 * XI**2 - 12600 * XI - 12960) \
            / (60 * (XI + 12) ** 4)
        assert sp.simplify(expr(compute_G(1)) - G1) == 0

    def test_H1_is_homogeneous_solution(self):
        """M H1 = 0 with M = Theta^2 - 1 - F0."""
        th = lambda e: XI * sp.diff(e, XI)
        res = th(th(expr(H1))) - (1 + expr(F0)) * expr(H1)
        assert sp.simplify(res) == 0

    def test_F0_value_preimages(self):
        """The two xi with F0(xi) = 3 have product 144."""
        roots = sp.solve(sp.Eq(expr(F0), 3), XI)
        assert len(roots) == 2
        assert sp.simplify(roots[0] * roots[1] - 144) == 0


class TestStructure:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_denominator_and_degree(self, n):
        Fn = sp.cancel(expr(compute_F(n)))
        num, den = sp.fraction(Fn)
        quo, rem = sp.div(den, (XI - 12) ** (n + 2), XI)
        assert rem == 0 and quo.is_number
        assert sp.degree(num, XI) <= 2 * n + 2

    def test_value_at_zero_is_series_coefficient(self):
        """F_n(0) is the plain power-series coefficient c_n."""
        assert expr(compute_F(3)).subs(XI, 0) == 0
        assert expr(compute_F(4)).subs(XI, 0) == sp.Rational(-392, 625)

    def test_G_chart_regular_at_12(self):
        for n in (0, 1, 2):
            val = sp.cancel(expr(compute_G(n))).subs(XI, 12)
            assert val.is_finite


class TestHierarchy:
    def test_residuals_vanish_integrable(self):
        E = hierarchy_residuals(EQP_COEFF, 6)
        for j in range(6):
            assert sp.simplify(expr(E[j])) == 0

    def test_residuals_vanish_shifted(self):
        E = hierarchy_residuals(SHIFTED, 4)
        for j in range(4):
            assert sp.simplify(expr(E[j])) == 0


class TestObstruction:
    def test_zero_at_integrable_coefficient(self):
        assert integrability_witness(EQP_COEFF) == 0

    def test_nonzero_at_shifted_coefficient(self):
        assert integrability_witness(SHIFTED) == Fraction(384, 25)

    def test_witness_shrinks_with_the_shift(self):
        """The witness is linear in the shift: w(c* + delta) = 768/5 delta."""
        deltas = (Fraction(1, 10), Fraction(1, 20), Fraction(1, 40))
        w1, w2, w3 = (integrability_witness(EQP_COEFF + d) for d in deltas)
        assert [w1, w2, w3] == [Fraction(768, 5) * d for d in deltas]
        assert abs(w1) > abs(w2) > abs(w3) > 0

    def test_compute_F6_integrable_ok(self):
        F6 = expr(compute_F(6))
        num, den = sp.fraction(sp.cancel(F6))
        assert sp.degree(num, XI) <= 14

    def test_compute_F6_shifted_raises(self):
        with pytest.raises(ObstructionError) as ei:
            compute_F(6, SHIFTED)
        assert ei.value.coefficient == Fraction(384, 25)


class TestEvaluation:
    def setup_method(self):
        mp.mp.dps = 30

    def teardown_method(self):
        mp.mp.dps = 15

    @staticmethod
    def _x_for_xi(xi0, k):
        """x on branch k with xi(x) = xi0 exactly (C = 1)."""
        f = lambda x: x + mp.log(xi0) + 0.5 * mp.log(x) - 2j * mp.pi * k
        return mp.findroot(f, 2j * mp.pi * k + 0.1)

    @staticmethod
    def _eval_h(x, C, m, **kw):
        v, chart = eval_two_scale(x, C, m=m, **kw)
        return 3 * v / (3 - v) if chart == "G" else v

    def test_xi_scaling(self):
        x = mp.mpc(3, 25)
        assert abs(xi_of(x, 2.5) - 2.5 * xi_of(x, 1)) < 1e-25

    def test_matches_transseries_sum(self):
        from boutroux.borel import sum_transseries

        x = self._x_for_xi(mp.mpf(1), 5)
        ref = sum_transseries(1, x, phi=-mp.pi / 8, tol=1e-15)
        errs = [abs(self._eval_h(x, 1.0, m) - ref) for m in (0, 1, 2)]
        assert errs[0] < 2e-2
        assert errs[1] < errs[0] / 5
        assert errs[2] < errs[1] / 5

    def test_error_slope_order_one(self):
        """Truncation after F_1 converges like x^{-2} at fixed xi."""
        from boutroux.borel import sum_transseries

        errs, rads = [], []
        for k in (4, 8, 12):
            x = self._x_for_xi(mp.mpf(1), k)
            ref = sum_transseries(1, x, phi=-mp.pi / 8, tol=1e-15)
            errs.append(float(abs(self._eval_h(x, 1.0, 1) - ref)))
            rads.append(float(abs(x)))
        slope = np.polyfit(np.log(rads), np.log(errs), 1)[0]
        assert slope <= -1.8

    def test_small_x_rejected(self):
        with pytest.raises(OutsideRegionError):
            eval_two_scale(mp.mpc(5, 5), 1.0)

    def test_chart_switch_near_excluded_point(self):
        """xi near 12 forces the G chart even when F was requested.

        Needs epsilon < 1/12 so the size bound |xi| < 1/epsilon admits
        the pole region at all (the default 0.1 does not).
        """
        x = self._x_for_xi(mp.mpf(12), 5)  # xi = 12 exactly
        _, chart = eval_two_scale(x, 1.0, m=1, chart="F", epsilon=0.05)
        assert chart == "G"

    def test_large_xi_rejected_by_both_charts(self):
        x = mp.mpc(-6, 18)  # |xi| = e^6 / sqrt(|x|) approx 92
        with pytest.raises(OutsideRegionError):
            eval_two_scale(x, 1.0)


class TestPolePrediction:
    # location of pole n = 5 (C+ = 1) measured by path integration and
    # Newton refinement in the pole chart (see test_odes)
    MEASURED_POLE_5 = complex(-4.19749734, 30.59176666)

    def test_matches_measured_pole(self):
        p = predict_pole(5, 1.0)
        assert abs(complex(p.x_n) - self.MEASURED_POLE_5) < 1e-4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            predict_pole(0, 1.0)
        with pytest.raises(ValueError):
            predict_pole(3, 0.0)

    def test_locations_near_2pi_spacing(self):
        a = predict_pole(9, 1.0).x_n
        b = predict_pole(10, 1.0).x_n
        assert abs((b - a) - 2j * np.pi) < 0.2


class TestNoSympy:
    def test_package_runs_without_sympy(self):
        """Every module imports, and the exact layer runs, without sympy."""
        import boutroux

        code = "\n".join([
            "import importlib, pkgutil, sys",
            "import mpmath as mp",
            "import boutroux",
            "for m in pkgutil.iter_modules(boutroux.__path__):",
            "    importlib.import_module('boutroux.' + m.name)",
            "from boutroux.series import EQP_COEFF",
            "from boutroux.twoscale import eval_two_scale, "
            "integrability_witness",
            "assert integrability_witness(EQP_COEFF) == 0",
            "mp.mp.dps = 30",
            "v, chart = eval_two_scale(mp.mpc(-3.6, 21.1), 1.0)",
            "assert chart == 'F' and mp.isfinite(v)",
            "assert 'sympy' not in sys.modules, 'sympy was imported'",
        ])
        src = os.path.dirname(os.path.dirname(boutroux.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
