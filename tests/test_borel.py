"""Borel engine: convolution solution, Laplace rays, singularity data.

Oracles: the direct factorially-divided Borel transform (independent of the
convolution recurrence), closed-form Laplace integrals for toy germs, and
the closed-form Stokes constant sqrt(6/(5 pi)).
"""

import decimal
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from boutroux import borel
from boutroux.borel import (
    DEFAULT_GERM_ORDER,
    germ_Hk,
    estimate_S,
    laplace_ray,
    solve_H0_convolution,
    sum_transseries,
)
from boutroux.errors import (
    NonConvergentSumError,
    QuadratureError,
    RadiusExceededError,
    StokesDirectionError,
)
from boutroux.germ import BorelGerm
from boutroux.series import borel_transform, h0_series, level_series

MU_ABS = None  # set in setup


def mu():
    return 1j * mp.sqrt(mp.mpf(6) / (5 * mp.pi))


def mp_panel_sum(f, smax):
    """int_0^b f(s) ds and its error estimate in mpmath, b the first of the
    dyadic edges 2^j, j >= -5, at or above ``smax``: the panels, nested
    Clenshaw-Curtis rules and refinement of borel._panel_sum, on mpmath
    values of an arbitrary integrand."""
    panels, a, b = [], mp.mpf(0), mp.ldexp(1, -5)
    while a < smax:
        panels.append((a, b))
        a, b = b, 2 * b
    fs = {}  # node s -> f(s)

    def rule(panel, n, absolute=False):  # int of f, or |f|, over one panel
        a, b = panel
        nodes, weights = borel._cc_rule(n, mp.mp.prec)
        mid, half = (a + b) / 2, (b - a) / 2
        ss = [mid + half * c for c in nodes]
        fs.update((s, f(s)) for s in ss if s not in fs)
        vals = [fs[s] for s in ss]
        return mp.fdot(weights, map(abs, vals) if absolute else vals) * half

    def estimate(r):
        d, d_prev = abs(r[-1] - r[-2]), abs(r[-2] - r[-3])
        return min(d, d * d / d_prev) if d_prev else d

    orders = borel.CC_ORDERS
    rules = [[rule(pan, n) for n in orders[:3]] for pan in panels]
    target = 16 * mp.eps * sum(rule(pan, orders[2], absolute=True)
                               for pan in panels)
    for pan, r in zip(panels, rules):
        while estimate(r) > target and len(r) < len(orders):
            r.append(rule(pan, orders[len(r)]))
    return sum(r[-1] for r in rules), sum(estimate(r) for r in rules)


def jump_via_hankel(germ, x):
    """Loop integral of e^{-px} Y(p) around the Borel cut [1, inf): a
    second route to the Stokes jump that criterion 4a measures by lateral
    sums, on an mpmath panel sum.

    The loop comes in along Im p = -d, turns on Re p = a = 1 - d and goes
    out along Im p = d.  This equals the lateral Laplace sum above the
    positive Stokes direction less the one below it.  Each leg is a panel
    sum cut from its end nearest p = 1: the vertical one as two halves
    from p = a, which end exactly at a -+ i d because d = 1/4 is a dyadic
    edge, the horizontal ones past T, where e^{-px} is below tol 1e-3.
    """
    x = mp.mpmathify(x)
    decay = mp.re(x)
    if decay <= 0:
        raise QuadratureError("loop integrand does not decay for x = %s"
                              % mp.nstr(x))
    tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    ev = borel._evaluator(germ)
    d = mp.mpf(1) / 4
    T = max(mp.mpf(2), 1 + -mp.log(tol * mp.mpf("1e-3")) / decay)
    a = 1 - d  # turning abscissa, just shy of the branch point
    lead = germ.lead2 // 2 if germ.lead2 % 2 == 0 else mp.mpf(germ.lead2) / 2

    def f(p):
        return mp.exp(-p * x) * ev(p) * p ** lead

    # (start, direction, length, sign): the legs below the cut run inward
    legs = ((mp.mpc(a, d), 1, T - a, 1), (a, 1j, d, 1),
            (a, -1j, d, -1), (mp.mpc(a, -d), 1, T - a, -1))
    total, errs = mp.mpc(0), mp.mpf(0)
    for z0, v, length, sign in legs:
        seg, e = mp_panel_sum(lambda s: f(z0 + v * s) * v, length)
        total += sign * seg
        errs += e
    if errs > tol * (1 + abs(total)) * 1e6:
        raise QuadratureError("loop quadrature error %.3e above target"
                              % float(errs), err_est=errs)
    return total


def toy_geometric_germ():
    """Germ of 1/(1+p): Laplace sum is exactly e^x E_1(x)."""
    return BorelGerm(lead2=0, coeffs=tuple(
        Fraction((-1) ** n) for n in range(DEFAULT_GERM_ORDER)))


def toy_geometric_exact(x):
    return mp.exp(x) * mp.e1(x)


def toy_halfint_germ():
    """Germ of p^{-1/2}/(1+p): Laplace sum is pi e^x erfc(sqrt(x))."""
    return BorelGerm(lead2=-1, coeffs=tuple(
        Fraction((-1) ** n) for n in range(DEFAULT_GERM_ORDER)))


def toy_halfint_exact(x):
    return mp.pi * mp.exp(x) * mp.erfc(mp.sqrt(x))


def elimination_solve(cs, L, m):
    """Denominator 1, q_1..q_m of the [L/m] Pade approximant of ``cs``:
    sum_{j=1}^m cs[L+i-j] q_j = -cs[L+i], i = 1..m, by Gaussian elimination
    with partial pivoting in the current decimal context.  The reference
    for borel._toeplitz_solve."""
    rows = [[cs[L + i - j] for j in range(1, m + 1)] + [-cs[L + i]]
            for i in range(1, m + 1)]
    for j in range(m):
        k = max(range(j, m), key=lambda r: abs(rows[r][j]))
        rows[j], rows[k] = rows[k], rows[j]
        pivot = rows[j]
        for r in rows[j + 1:]:
            f = r[j] / pivot[j]
            if f:
                r[j + 1:] = [a - f * b
                             for a, b in zip(r[j + 1:], pivot[j + 1:])]
    q = [Decimal(0)] * m
    for j in reversed(range(m)):
        r = rows[j]
        q[j] = (r[m] - sum(r[k] * q[k] for k in range(j + 1, m))) / r[j]
    return [Decimal(1)] + q


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


class TestPadeTables:
    def test_pade_table_is_exact(self):
        """The table equals mp.pade at 200 digits on the same exact data,
        and does not depend on the ambient precision."""
        pts = [2 * mp.expj(mp.pi / 4), 3 * mp.expj(-mp.pi / 8),
               5 * mp.expj(mp.pi / 4), mp.mpf("-0.5"), 2 * mp.expj(0.05)]
        for germ in (solve_H0_convolution(80),
                     borel_transform(level_series(1, 80))):
            ev = borel.GermEvaluator(germ)
            num, den, _, stride = ev._pq
            L, M = stride * (len(num) - 1), stride * (len(den) - 1)
            with mp.workdps(200):
                fac = 1 / mp.sqrt(mp.pi) if germ.sqrtpi else 1
                cs = [fac * mp.mpf(c.numerator) / c.denominator
                      for c in germ.coeffs[:L + M + 1]]
                p, q = mp.pade(cs, L, M)
                for z in pts:
                    ref = mp.polyval(p[::-1], z) / mp.polyval(q[::-1], z)
                    assert abs(ev(z) - ref) <= 1e-45 * abs(ref)
            tables = []
            for dps in (15, 50):
                with mp.workdps(dps):
                    e = borel.GermEvaluator(germ)
                tables.append((e._pq, e._pq_check))
            assert tables[0] == tables[1]

    def test_fixed_point_kernel(self):
        """The integer Horner kernel matches a 120-digit polyval of the same
        table, and neither value nor error estimate depends on the ambient
        precision."""
        args = [mp.pi / 4, -mp.pi / 8, 3 * mp.pi / 4, mp.mpf("0.05")]
        with mp.workdps(30):
            pts = [r * mp.expj(a) for a in args
                   for r in (mp.mpf("0.5"), 2, 5, 9, 14)]
        for germ in (solve_H0_convolution(), germ_Hk(1), germ_Hk(2),
                     germ_Hk(5), germ_Hk(12)):
            ev = borel._evaluator(germ)
            num, den, e, stride = ev._pq
            with mp.workdps(120):
                nums = [mp.mpf(c) for c in num]
                dens = [mp.mpf(c) for c in den]
                for z in pts:
                    w = z ** stride
                    ref = mp.ldexp(1, e) * mp.polyval(nums, w) \
                        / mp.polyval(dens, w)
                    assert abs(ev(z) - ref) <= 1e-40 * abs(ref)
            seen = []
            for dps in (15, 30, 50):
                with mp.workdps(dps):
                    seen.append([(ev(z), ev.err_est(z)) for z in pts])
            assert seen[0] == seen[1] == seen[2]

    def test_kernel_bits_on_shortened_node(self):
        """Horner on the node with its common power of two divided out, by
        three products a step, gives the bits of the full-width four-product
        rule; p = 0 and even integers hit the bounds of that power.  H0's
        even tables run in w = p^2, formed from the full-width node and
        truncated to FIX_BITS: bit for bit the four-product rule in that w,
        and within 1e-40 of the rule in p."""
        from mpmath.libmp import to_fixed
        bits = borel.FIX_BITS

        def four_products(cs, zr, zi):
            ar, ai = cs[0], 0
            for c in cs[1:]:
                ar, ai = (((ar * zr - ai * zi) >> bits) + c,
                          (ar * zi + ai * zr) >> bits)
            return ar, ai

        def quotient(num, den, e, zr, zi):
            nr, ni = four_products(num, zr, zi)
            dr, di = four_products(den, zr, zi)
            with mp.workdps(borel.PADE_DPS):
                return mp.mpc(mp.mpf((nr, e)), mp.mpf((ni, e))) \
                    / mp.mpc(dr, di)

        with mp.workdps(30):
            pts = [mp.mpf(0), mp.mpf(4), mp.mpc(2, -6), mp.mpc("0.3", "-2.7"),
                   mp.expj(-mp.pi / 4) * mp.mpf("1.37")]
        with mp.workdps(60):
            pts.append(mp.expj(mp.pi / 4) * mp.pi)
        def in_p(cs, stride):
            # a table in w = p^2 spread back onto the powers of p
            return cs if stride == 1 else [c for a in cs for c in (0, a)][1:]

        for germ in (solve_H0_convolution(), germ_Hk(1)):
            table = borel._evaluator(germ)._pq
            num, den, e, stride = table
            assert stride == (2 if germ.lead2 == 6 else 1)
            for z in pts:
                zr, zi = (to_fixed(v._mpf_, bits)
                          for v in (mp.re(z), mp.im(z)))
                ref = quotient(in_p(num, stride), in_p(den, stride), e,
                               zr, zi)
                value = borel._pade_value(table, z)
                if stride == 1:
                    assert value == ref
                    continue
                wr, wi = (zr * zr - zi * zi) >> bits, (2 * zr * zi) >> bits
                assert value == quotient(num, den, e, wr, wi)
                assert abs(value - ref) <= 1e-40 * abs(ref)

    def test_taylor_fallback_order(self):
        """When no denominator degree solves, the table is the Taylor
        polynomial, highest degree first."""
        ev = borel.GermEvaluator(BorelGerm(0, (1, 2) + (0,) * 38))
        assert abs(ev(mp.mpf("0.5")) - 2) < 1e-50

    @pytest.mark.parametrize("bases, N", [((2, 3), 60), ((2, 3, -5), 80)])
    def test_rational_germ_keeps_its_degree(self, bases, N):
        """c_k = sum_b b^-k is rational of degree len(bases): every larger
        leading minor of the Toeplitz system is singular, so the back-off
        must reach that degree in both tables, which are then exact."""
        germ = BorelGerm(0, tuple(sum(Fraction(1, b ** k) for b in bases)
                                  for k in range(N)))
        ev = borel.GermEvaluator(germ)
        with mp.workdps(80):
            p = mp.mpf("1.5")
            exact = sum(1 / (1 - p / b) for b in bases)
            for table in (ev._pq, ev._pq_check):
                assert len(table[1]) - 1 == len(bases)
                value = borel._pade_value(table, p)
                assert abs(value - exact) <= 1e-45 * abs(exact)

    # degrees in p of the main and check tables' polynomials, (L, M) as the
    # elimination solve built them: the denominator back-off must not move
    # them.  H0's tables are even, kept in w = p^2, so the zero top
    # coefficient of each numerator, at the odd L, is not stored.
    DEGREES = {0: ((98, 98), (88, 88)), 1: ((100, 100), (90, 90)),
               2: ((100, 100), (90, 90)), 5: ((60, 60), (50, 50)),
               12: ((30, 30), (20, 20)), 24: ((30, 30), (20, 20))}

    @pytest.mark.parametrize("k", sorted(DEGREES))
    def test_table_degrees(self, k):
        germ = solve_H0_convolution() if k == 0 else germ_Hk(k)
        ev = borel._evaluator(germ)
        assert tuple((stride * (len(num) - 1), stride * (len(den) - 1))
                     for num, den, _, stride in (ev._pq, ev._pq_check)) \
            == self.DEGREES[k]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_denominator_matches_elimination(self, k):
        """q of both tables, solved at SOLVE_DIGITS, against Gaussian
        elimination of the same Toeplitz system at 250 digits."""
        def solve(solver, digits, coeffs):
            ctx = decimal.Context(prec=digits)
            cs = [ctx.divide(c.numerator, c.denominator) for c in coeffs]
            n = len(cs) - 1
            with decimal.localcontext(ctx):
                return solver(cs, n - n // 2, n // 2)

        germ = solve_H0_convolution() if k == 0 else germ_Hk(k)
        for drop in (0, borel.CHECK_DROP):
            coeffs = germ.coeffs[:len(germ.coeffs) - drop]
            q = solve(borel._toeplitz_solve, borel.SOLVE_DIGITS, coeffs)
            ref = solve(elimination_solve, 250, coeffs)
            assert max(abs(a - b) for a, b in zip(q, ref)) \
                <= Decimal("1e-20") * max(map(abs, ref))


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
        """Cached nodes and remembered sums must not make a value depend on
        earlier calls, also when the two lateral rays are interleaved."""
        g = solve_H0_convolution()
        calls = [(x, phi) for x in (mp.mpf(9), mp.mpf("10.25"),
                                    mp.mpc("11.5", "0.5"))
                 for phi in (mp.pi / 4, -mp.pi / 4)]
        fresh = []
        for x, phi in calls:
            borel._engine.cache_clear()
            fresh.append(laplace_ray(g, x, phi=phi))
        # interleaved, reversed, and one ray after the other
        for order in (calls, calls[::-1], calls[::2] + calls[1::2]):
            borel._engine.cache_clear()
            seen = {c: laplace_ray(g, c[0], phi=c[1]) for c in order}
            assert [seen[c] for c in calls] == fresh

    MIRROR_GERMS = {"H0": solve_H0_convolution, "H1": lambda: germ_Hk(1),
                    "H2": lambda: germ_Hk(2),
                    "geometric": toy_geometric_germ,
                    "halfint": toy_halfint_germ}

    @pytest.mark.parametrize("name", sorted(MIRROR_GERMS))
    def test_mirror_identity(self, name):
        """A ray phi < 0 is summed on its mirror: laplace_ray(g, x, -phi)
        is conj laplace_ray(g, conj x, phi), and agrees with an engine on
        the ray -phi itself to its error estimate."""
        g = self.MIRROR_GERMS[name]()
        for x in (mp.mpc(10, 4), mp.mpc(20, -7)):
            for phi in (mp.pi / 4, mp.pi / 8):
                mirrored = laplace_ray(g, x, phi=-phi, tol=1e-20)
                assert mirrored == mp.conj(
                    laplace_ray(g, mp.conj(x), phi=phi, tol=1e-20))
                tmax = -mp.log(mp.mpf("1e-33")) / mp.re(mp.expj(-phi) * x)
                direct, err = borel.LaplaceEngine(g, -phi).integrate(
                    x, tmax)
                up, err_up = borel.LaplaceEngine(g, phi).integrate(
                    mp.conj(x), tmax)
                assert abs(direct - mp.conj(up)) \
                    <= err + err_up + 1e-29 * abs(direct)
                assert abs(direct - mirrored) <= 1e-20 * abs(direct)

    def test_error_bounds_the_integer_sum(self, monkeypatch):
        """The integer panel sum at 30 digits is within its error bound
        (quadrature estimate and rounding) of the same sum at 45 digits.
        Rounding u x to the working precision before the fixed-point
        exponentials broke this 7,700-fold at x = 12.5."""
        sums = []
        panel_sum = borel._panel_sum

        def keep(*args):
            sums.append(panel_sum(*args))
            return sums[-1]

        monkeypatch.setattr(borel, "_panel_sum", keep)
        g = solve_H0_convolution()
        for x, phi in ((mp.mpf("12.5"), mp.pi / 8),
                       (mp.mpc(4, 20), mp.mpf("-0.9"))):
            tmax = -mp.log(mp.mpf("1e-30")) / mp.re(mp.expj(phi) * x)
            for dps in (30, 45):
                with mp.workdps(dps):
                    borel.LaplaceEngine(g, phi).integrate(x, tmax)
            (re, im, err, e), (re45, im45, _, e45) = sums[-2:]
            with mp.workdps(60):
                diff = mp.mpc(mp.ldexp(re, e) - mp.ldexp(re45, e45),
                              mp.ldexp(im, e) - mp.ldexp(im45, e45))
                assert 0 < abs(diff) <= mp.ldexp(err, e)

    def count_germ_calls(self, monkeypatch):
        calls = []
        call = borel.GermEvaluator.__call__

        def counting(self, p):
            calls.append(p)
            return call(self, p)

        monkeypatch.setattr(borel.GermEvaluator, "__call__", counting)
        borel._engine.cache_clear()
        return calls

    def test_mirrored_pair_costs_one_sum(self, monkeypatch):
        """The ray -phi right after phi is summed on its mirror's nodes
        and guarded by their recorded errors, so it evaluates the germ 0
        times; at real x it also reuses the mirror's sum."""
        g = solve_H0_convolution()
        calls = self.count_germ_calls(monkeypatch)
        for x in (mp.mpf(9), mp.mpc(9, 1)):
            up = laplace_ray(g, x, phi=mp.pi / 4)
            assert calls
            del calls[:]
            down = laplace_ray(g, x, phi=-mp.pi / 4)
            assert not calls
            if not mp.im(x):
                assert down == mp.conj(up)

    def test_non_finite_input_raises(self):
        g = solve_H0_convolution()
        for x in (mp.nan, mp.inf, mp.mpc(5, mp.inf), mp.mpc(mp.nan, 1)):
            with pytest.raises(QuadratureError, match="not finite"):
                laplace_ray(g, x)
            with pytest.raises(QuadratureError, match="not finite"):
                laplace_ray(g, x, phi=-mp.pi / 4)

    def test_second_x_reuses_nodes(self, monkeypatch):
        """A later x on the same ray, guard included, evaluates no germ."""
        g = solve_H0_convolution()
        calls = self.count_germ_calls(monkeypatch)
        laplace_ray(g, mp.mpf(9), phi=mp.pi / 4)
        assert calls
        del calls[:]
        laplace_ray(g, mp.mpf("10.25"), phi=mp.pi / 4)
        assert not calls

    @staticmethod
    def eight_point_guard(ev, phi, tmax, decay):
        """The Pade guard as it was before it read the engine's nodes: the
        weighted error at 8 points t = tmax i/8 of the ray."""
        with mp.workdps(borel.PADE_DPS):
            u = mp.expj(phi)
            return max(ev.err_est(u * t) * mp.exp(-decay * t)
                       for t in (tmax * i / 8 for i in range(1, 9)))

    def test_guard_against_dense_reference(self):
        """The node guard is at least 0.9 of the weighted Pade error at a
        dense set of points on (0, tmax], unless that lies 1e-6 below the
        limit, where the guard's walk may end, and it refuses every case
        that the 8-point guard refuses.  The points are one grid
        per (germ, ray) with spacing max(t, 3)/64, at most tmax/64 on
        (0, tmax], so each (0, tmax] holds at least 64 of them, and tmax
        itself."""
        for germ in (solve_H0_convolution(), germ_Hk(1)):
            ev = borel._evaluator(germ)
            for phi in (mp.pi / 4, mp.pi / 8, mp.mpf("0.05")):
                u = mp.expj(phi)
                cases = []
                for r in (1, 8, 20):
                    for x in (mp.mpf(r), r * mp.expj(mp.mpf("0.3"))):
                        decay = mp.re(u * x)
                        for tol in (mp.mpf("1e-18"), mp.mpf("1e-27")):
                            tmax = max(mp.mpf(3), -mp.log(tol / 1000) / decay)
                            cases.append((decay, tmax, 100 * tol))
                grid, t = [], mp.mpf(0)
                while t < max(c[1] for c in cases):
                    t += max(t, 3) / 64
                    grid.append(t)

                def log_err(t):
                    with mp.workdps(borel.PADE_DPS):
                        return t, mp.log(ev.err_est(u * t))

                logs = [log_err(t) for t in grid]
                engine = borel.LaplaceEngine(germ, phi)
                for decay, tmax, limit in cases:
                    dense = max(y - decay * t for t, y
                                in logs + [log_err(tmax)] if t <= tmax)
                    try:
                        new = engine.guard(tmax, decay, limit)
                    except RadiusExceededError as exc:
                        new = exc.err_est
                    floor = max(new, limit * 1e-6)
                    assert mp.log(floor) >= mp.log(0.9) + dense
                    old = self.eight_point_guard(ev, phi, tmax, decay)
                    assert new > limit or old <= limit

    def test_guard_walks_outer_panels(self):
        """On a cold ray the guard records errors on the outer panels only,
        down to the first whose errors all lie 1e-6 below the limit;
        further in, the errors at a dense set of points are below that
        level too."""
        g = solve_H0_convolution()
        ev = borel._evaluator(g)
        phi, limit = mp.pi / 4, mp.mpf("1e-8")
        decay = 9 * mp.cos(phi)
        tmax = -mp.log(limit / 1e5) / decay
        engine = borel.LaplaceEngine(g, phi)
        engine.guard(tmax, decay, limit)
        panels = engine._panels(tmax)
        walked = sorted(engine._err)
        assert walked == list(range(panels - len(walked), panels))
        assert 1 < len(walked) < panels
        inner, outer = (engine._err[i][1] for i in walked[:2])
        assert inner < mp.log(limit * 1e-6) <= outer
        edge = engine._err[walked[0]][0][0][0]
        with mp.workdps(borel.PADE_DPS):
            u = mp.expj(phi)
            for i in range(1, 65):
                err = ev.err_est(u * edge * i / 64)
                assert err < limit * 1e-6

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

    def test_estimate_S_covers_its_error_at_order_800(self):
        """The working precision grows with the germ's order: at 50 digits
        the extrapolation's rounding (2.5e-26 relative at order 800) was
        above its estimate (1.5e-27)."""
        S, err = estimate_S(solve_H0_convolution(800))
        with mp.workdps(60):
            target = mp.sqrt(mp.mpf(6) / (5 * mp.pi)) / (2 * mp.sqrt(mp.pi))
            assert abs(abs(S) - target) <= err < 1e-25

    def test_estimate_S_detects_wrong_radius(self):
        """A germ with radius 1/2 must be refused, not silently fitted."""
        from boutroux.errors import NoConvergenceError
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

    def test_jump_to_working_precision(self):
        """The loop and the lateral difference agree to the working
        precision of the lateral sums, not just to the 1e-24 above."""
        mp.mp.dps = 30
        try:
            g = solve_H0_convolution()
            for x in (mp.mpf(9), mp.mpf(18)):
                upper = laplace_ray(g, x, phi=mp.pi / 4)
                lateral = upper - laplace_ray(g, x, phi=-mp.pi / 4)
                assert abs(jump_via_hankel(g, x) - lateral) \
                    <= 1e-29 * abs(upper)
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

    def test_non_finite_input_raises(self):
        with pytest.raises(QuadratureError, match="not finite"):
            sum_transseries(1, mp.nan)
        for C in (mp.nan, mp.inf, mp.mpc(1, mp.inf)):
            with pytest.raises(NonConvergentSumError, match="not finite"):
                sum_transseries(C, mp.mpf(10))

    def test_growing_levels_raise(self):
        # xi ~ 36 lies beyond |xi| = 12: levels grow from the start
        with pytest.raises(NonConvergentSumError, match="growing"):
            sum_transseries(mp.mpf(2.5e6), mp.mpf(10), phi=-mp.pi / 4)


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
