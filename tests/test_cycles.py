"""Cycle integrals, period ODEs, Poincare map, and the Stokes multiplier.

Oracles: a trapezoid quadrature of the periods on the contour, finite
differences of the period values against the exact second-order ODEs,
Cauchy-theorem contour invariance, a refined-step RK4 reference for the
Poincare map, Abel's identity for the Wronskian, and the closed form
mu = i sqrt(6/(5 pi)).
"""

import cmath
import functools
import math
from operator import mul, truediv

import numpy as np
import pytest

from boutroux import cycles, odes
from boutroux.cycles import (
    SEPARATRIX_PERIOD,
    U_BASE,
    Cycle,
    _contour,
    _ode_continue,
    cubic_roots,
    cycle_J,
    cycle_L,
    jhat_at,
    poincare_step,
    relative_drift,
    rho,
    run_cycles,
    solve_stok2,
)
from boutroux.errors import (
    DegenerateCycleError,
    MatchFailureError,
    NoConvergenceError,
    OutsideRegionError,
    StepFailureError,
)
from boutroux.odes import EQ4, _series_h, integrate_path

S_GRID = np.linspace(-1.25, -0.15, 20)
# the x^-4 coefficient 784/625 of ds/du = -2R/x + S_SOURCE x^-4
S_SOURCE = 2 * EQ4
#: trapezoid nodes of the reference period quadrature
NPTS = 512


@functools.lru_cache(maxsize=16)
def _contour_speed(cycle, n):
    """The n + 1 contour nodes u_j of ``cycles._contour`` and du/dt at
    each, for t = j/n."""
    u = _contour(cycle, n)
    return u, tuple(2j * math.pi * (uj - cycle.center) for uj in u)


def _R_track(u_vals, s):
    """sqrt(u^3/3 + u^2 + s) branch-tracked continuously along u_vals."""
    s = complex(s)
    vals = [cmath.sqrt(u**3 / 3.0 + u**2 + s) for u in u_vals]
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[i - 1]) > abs(vals[i] + vals[i - 1]):
            vals[i] = -vals[i]
    return vals


def _fsum(zs):
    """Correctly rounded complex sum, by math.fsum on each part: the
    period sums need it, a plain sum fails criterion 10."""
    zs = list(zs)
    return complex(math.fsum(z.real for z in zs),
                   math.fsum(z.imag for z in zs))


def _periods(s, cycle=None):
    """Reference (J, J_err, L, L_err) by the trapezoid rule on the NPTS
    contour nodes, tracked in one pass up to the closing node, which must
    restore the base node's branch; the errors compare with the even
    nodes' sums."""
    cycle = cycle or Cycle()
    cycle.validate(s)
    u, dudt = _contour_speed(cycle, NPTS)
    R = _R_track(u, s)
    if abs(R[-1] - R[0]) > 1e-8 * abs(R[0]):
        raise DegenerateCycleError(
            "R is not single-valued on the contour at s = %s" % s)
    du = [d / NPTS for d in dudt[:-1]]
    # every k-th node: k = 1 the sums, k = 2 the even nodes' check sums
    J, J2 = (k * _fsum(map(mul, R[:-1:k], du[::k])) for k in (1, 2))
    L, L2 = (k * _fsum(map(truediv, du[::k], R[:-1:k])) for k in (1, 2))
    return J, abs(J - J2), L, abs(L - L2)


def rk4_map(x_n, s_n, nsteps):
    """Reference Poincare map: fixed-step RK4 on the (x, s) system
    dx/du = 1/R, ds/du = -2R/x + S_SOURCE x^-4 over the 2 nsteps contour
    nodes (step i at nodes 2i, 2i+1, 2i+2), with R tracked by continuity
    from sqrt(u^3/3 + u^2 + s_n) at u = -4.  Its error falls like nsteps^-4:
    8.5e-11 relative in x at 1,024 steps."""
    u_tab, du_tab = _contour_speed(Cycle(), 2 * nsteps)
    x, s = complex(x_n), complex(s_n)
    R_ref = cmath.sqrt(U_BASE**3 / 3.0 + U_BASE**2 + s)

    def rhs(j, x, s, R_prev):
        u, du = u_tab[j], du_tab[j]
        R = cmath.sqrt(u**3 / 3.0 + u**2 + s)
        if abs(R - R_prev) > abs(R + R_prev):
            R = -R
        return du / R, du * (-2.0 * R / x + S_SOURCE / x ** 4), R

    h = 1.0 / nsteps
    for j in range(0, 2 * nsteps, 2):
        k1x, k1s, R_ref = rhs(j, x, s, R_ref)
        k2x, k2s, _ = rhs(j + 1, x + h * k1x / 2, s + h * k1s / 2, R_ref)
        k3x, k3s, _ = rhs(j + 1, x + h * k2x / 2, s + h * k2s / 2, R_ref)
        k4x, k4s, _ = rhs(j + 2, x + h * k3x, s + h * k3s, R_ref)
        x = x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        s = s + h * (k1s + 2 * k2s + 2 * k3s + k4s) / 6.0
    return x, s


def assert_near_reference(got, ref, tol):
    """x relative, s absolute, as the map's accuracy is stated."""
    assert abs(got[0] - ref[0]) <= tol * abs(ref[0])
    assert abs(got[1] - ref[1]) <= tol


class TestCubic:
    def test_roots_solve_cubic(self):
        for s in (-0.5, -0.1 + 0.2j):
            for r in cubic_roots(s):
                assert abs(r**3 / 3 + r**2 + s) < 1e-12

    def test_interior_exterior_split(self):
        d = np.abs(np.asarray(cubic_roots(-0.5)) - (-2.0))
        assert d[0] < 2.0 and d[1] < 2.0 and d[2] > 2.0

    def test_root_continuity_along_path(self):
        """Tracked roots move Lipschitz-continuously in s."""
        path = np.linspace(-0.9, -0.2, 80)
        prev = np.asarray(cubic_roots(path[0]))
        step = path[1] - path[0]
        for s in path[1:]:
            cur = np.asarray(cubic_roots(s))
            jump = np.max(np.abs(cur - prev))
            assert jump < 60 * abs(step)
            prev = cur

    def test_matches_numpy_roots(self):
        """The closed form against np.roots, compared as sets (for real
        s > 0 the conjugate pair ties in distance to -2, so the order is
        not fixed), on an s grid away from the guard around 0 and -4/3."""
        grid = [complex(a, b) for a in (-3.0, -1.7, -1.0, -0.6, -0.2, 0.3,
                                        1.5, 20.0) for b in (-0.8, 0.0, 0.4)]
        for s in grid:
            got = cubic_roots(s)
            ref = np.roots([1.0 / 3.0, 1.0, 0.0, s])
            dist = np.abs(np.subtract.outer(got, ref))
            assert sorted(dist.argmin(axis=1)) == [0, 1, 2]
            assert dist.min(axis=1).max() < 1e-12 * max(1.0, abs(ref).max())
            d = [abs(r + 2.0) for r in got]
            assert d == sorted(d)

    def test_degenerate_energies_guarded(self):
        for s in (0.01, -4.0 / 3.0 + 0.01):
            with pytest.raises(DegenerateCycleError):
                cycle_J(s)


class TestCycleIntegrals:
    def test_J_error_estimate(self):
        """The reference quadrature's own error estimate."""
        J, err, _, _ = _periods(-0.5)
        assert err < 1e-10
        assert abs(J.imag) < 1e-12  # real s, symmetric contour

    def test_contour_deformation_invariance(self):
        """Homotopic contours give equal J (Cauchy's theorem)."""
        a = _periods(-0.5)[0]
        b = _periods(-0.5, cycle=Cycle(center=-2.0, radius=1.8))[0]
        assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("s", list(S_GRID) + [
        -0.3 + 0.3j, -0.3 - 0.3j, -0.9 + 0.2j, -0.9 - 0.2j, -1.2 + 0.05j,
        -1.2 - 0.05j, -0.1 + 0.5j, -0.1 - 0.5j, -0.5 + 1e-9j, -0.5 - 1e-9j,
        -0.06, -2.0, -3.0 + 0.4j])
    def test_reflection_matches_quadrature(self, s):
        """J = sigma pi Jhat(-4/3 - s) and L = -2 sigma pi Jhat'(-4/3 - s)
        against the trapezoid reference, on criterion 10's grid, on both
        sides of the real axis, near s = 0, where Jhat' grows like
        log(s + 4/3) at -4/3 - s, and at s below -4/3, where the Frobenius
        seed is taken at +0.05."""
        J, _, L, _ = _periods(s)
        assert abs(cycle_J(s) - J) <= 1e-13 * abs(J)
        assert abs(cycle_L(s) - L) <= 1e-13 * abs(L)

    def test_sign_flips_across_real_axis(self):
        """sigma follows the principal root at u0 = -4, which flips where
        s - 16/3 crosses the negative real axis."""
        above, below = cycle_J(-0.5 + 1e-9j), cycle_J(-0.5 - 1e-9j)
        assert abs(above + 2.7705) < 1e-4 and abs(below - 2.7705) < 1e-4

    @pytest.mark.parametrize("s, sigma", [
        (-0.3 + 0.2j, 1), (-0.3 - 0.2j, -1), (-1.1 + 0.4j, 1),
        (-1.1 - 0.4j, -1), (-0.6 + 1e-9j, 1), (-0.6 - 1e-9j, -1)])
    def test_wronskian_exact(self, s, sigma):
        """J Jhat' - (L/2) Jhat = -24 sigma/5 on both sides of the axis,
        and sigma times it is the derived separatrix period J(0)."""
        assert cycles._sigma(complex(s)) == sigma
        J, L = cycle_J(s), cycle_L(s)
        H, Hp = jhat_at(s)
        W = J * Hp - L / 2 * H
        assert abs(W - (-24 * sigma / 5)) <= 1e-13 * 4.8
        assert abs(sigma * W - SEPARATRIX_PERIOD) <= 1e-13 * 4.8

    @pytest.mark.parametrize("s0, sigma", [
        (-0.1, 1), (-0.5 + 0.3j, 1), (-0.5 - 0.3j, -1)])
    def test_run_cycles_kappa_is_exact(self, s0, sigma):
        """run_cycles' Wronskian is the constant -24 sigma(s0)/5, read back
        from K_shifted = Jhat/(kappa J) at n = 0; pole_sector's start
        s0 = -0.1 (imaginary part +0.0) has sigma = +1."""
        assert cycles._sigma(complex(s0)) == sigma
        (st,) = run_cycles(50 * cmath.exp(-1j * math.pi / 2 * 1.05), s0, 0)
        kappa = jhat_at(s0)[0] / (cycle_J(s0) * st.K_shifted)
        assert abs(kappa - (-24 * sigma / 5)) <= 1e-13 * 4.8

    def test_L_is_2_J_prime(self):
        h = 1e-5
        for s in (-0.5, -0.9):
            Jp = (cycle_J(s + h) - cycle_J(s - h)) / (2 * h)
            assert abs(cycle_L(s) - 2 * Jp) < 1e-8

    def test_J_ode_residual_on_grid(self):
        h = 1e-4
        for s in S_GRID:
            J = cycle_J(s)
            Jpp = (cycle_J(s + h) - 2 * J + cycle_J(s - h)) / h**2
            assert abs(Jpp + rho(s) * J / 4) < 1e-6

    def test_L_ode_residual_on_grid(self):
        h = 1e-4
        for s in S_GRID[::4]:
            L = cycle_L(s)
            Lp = (cycle_L(s + h) - cycle_L(s - h)) / (2 * h)
            Lpp = (cycle_L(s + h) - 2 * L + cycle_L(s - h)) / h**2
            dlnrho = -(6 * s + 4) / (s * (3 * s + 4))
            assert abs(Lpp - dlnrho * Lp + rho(s) * L / 4) < 1e-6


def _wronskian(s):
    """W = J Jhat' - J' Jhat from the period engine, with J' = L/2."""
    H, Hp = jhat_at(s)
    return cycle_J(s) * Hp - cycle_L(s) / 2 * H


class TestPeriodTable:
    def test_wronskian_constant(self):
        w = np.asarray([_wronskian(s) for s in S_GRID])
        assert np.max(np.abs(w - w.mean())) < 1e-9

    def test_jhat_vanishes_at_origin(self):
        val, der = jhat_at(-0.01)
        assert abs(val + 0.01) < 1e-4  # Jhat(s) = s + O(s^2)
        assert abs(der - 1.0) < 0.01

    def test_jhat_matches_hypergeometric_closed_form(self):
        """Jhat(s) = s 2F1(1/6, 5/6; 2; -3s/4), the solution of
        s(3s + 4) J'' + (5/12) J = 0 with Jhat(0) = 0, Jhat'(0) = 1; value
        and slope to the ODE floor, on real and complex s."""
        import mpmath as mp

        def closed(s):
            return s * mp.hyp2f1(mp.mpf(1) / 6, mp.mpf(5) / 6, 2, -3 * s / 4)

        with mp.workdps(30):
            for s in (-0.1, -0.3, -0.2 - 0.05j, -0.6 + 0.15j, -1.0 - 0.1j):
                val, der = jhat_at(s)
                ref, dref = (complex(f(mp.mpc(s))) for f in
                             (closed, lambda z: mp.diff(closed, z)))
                assert abs(val - ref) <= 1e-11 * abs(ref)
                assert abs(der - dref) <= 1e-11 * abs(dref)

    def test_K_well_defined_near_zero(self):
        K = [jhat_at(s)[0] / cycle_J(s) for s in np.linspace(-0.5, -0.1, 5)]
        assert np.all(np.isfinite(K))

    def test_continuation_through_singular_point_fails(self):
        """The segments -0.5 -> -1.5 and -0.5 -> 0.5 run through rho's
        poles s = -4/3 and s = 0."""
        y0 = jhat_at(-0.5)
        for s1 in (-1.5, 0.5):
            with pytest.raises(MatchFailureError,
                               match="period ODE continuation failed"):
                _ode_continue(-0.5, y0, s1)


class TestPoincareMap:
    X0 = 50 * cmath.exp(-1j * math.pi / 2 * 1.05)

    def test_leading_behavior(self):
        x1, s1 = poincare_step(self.X0, -0.1)
        J, L = cycle_J(-0.1), cycle_L(-0.1)
        assert np.isfinite(x1) and np.isfinite(s1)
        assert abs(abs(x1 - self.X0) - abs(L)) < 0.05 * abs(L) + 0.1
        assert abs((s1 + 0.1) - (-2 * J / self.X0)) < 0.5 * abs(2 * J / self.X0)

    @pytest.mark.parametrize("r, arg, s0", [
        (r, arg, -0.1) for r in (15, 30, 100)
        for arg in (-0.3, -1.05 * math.pi / 2, -2.5)
    ] + [(30, -0.3, -0.5 + 0.1j), (30, -1.0, -0.9 - 0.1j),
         (100, -2.5, -0.3 + 0.01j), (15, -1.0, -0.2 + 0.3j),
         (300, -0.3, -0.5 + 0.1j), (1000, -1.05 * math.pi / 2, -0.1)])
    def test_matches_rk4_reference(self, r, arg, s0):
        """The map against RK4 at 4,096 steps (about 3e-13 from its own
        limit) on a sweep of starts over the checked range |x| 15..1,000;
        with 16 or 24 contour nodes in place of 32 the start r = 30,
        arg -0.3, s0 = -0.1 fails."""
        x0 = r * cmath.exp(1j * arg)
        assert_near_reference(poincare_step(x0, s0), rk4_map(x0, s0, 4096),
                              1e-11)

    def test_pinned_values(self):
        """One step and a 25-cycle run reproduce recorded map values, so a
        change of the stepper shows; the pins lie within 1e-11 of the RK4
        reference at 4,096 steps."""
        x1, s1 = poincare_step(self.X0, -0.1)
        x_ref = -12.47002933400747 - 50.80748212990004j
        s_ref = -0.1395204672187198 + 0.161185337662768j
        assert abs(x1 - x_ref) <= 1e-14 * abs(x_ref)
        assert abs(s1 - s_ref) <= 1e-14 * abs(s_ref)
        assert_near_reference((x_ref, s_ref), rk4_map(self.X0, -0.1, 4096),
                              1e-11)
        states = run_cycles(self.X0, -0.1, 25)
        assert len(states) == 26
        x_ref = -170.83682812639188 - 62.7548557178372j
        s_ref = -1.1693650960924948 + 0.34275616935370296j
        assert abs(states[-1].x_n - x_ref) <= 1e-13 * abs(x_ref)
        assert abs(states[-1].s_n - s_ref) <= 1e-13 * abs(s_ref)
        x, s = self.X0, -0.1
        for _ in range(25):
            x, s = rk4_map(x, s, 4096)
        assert_near_reference((x_ref, s_ref), (x, s), 1e-11)

    def test_map_reads_its_discs(self, monkeypatch):
        """One map from X0 opens at most 40 Taylor discs (80 series when
        every Newton step was an integrate_path segment of its own) and
        integrates no path: the Newton iterates are read off the discs."""
        opened, paths = [], []

        def series(*args):
            opened.append(args[0])
            return _series_h(*args)

        def path(*args, **kwargs):
            paths.append(args[0])
            return integrate_path(*args, **kwargs)

        for mod in (odes, cycles):
            monkeypatch.setattr(mod, "_series_h", series, raising=False)
            monkeypatch.setattr(mod, "integrate_path", path, raising=False)
        poincare_step(self.X0, -0.1)
        assert 0 < len(opened) <= 40
        assert paths == []

    @pytest.mark.parametrize("x_n", [10 * cmath.exp(-0.3j), 14.99, 1e-3])
    def test_start_below_checked_radius_raises(self, x_n):
        """Below |x| = MAP_MIN_RADIUS = 15, the least start checked against
        RK4, Newton can land on another root of h = -4 (from
        x = 10 e^{-0.3i}, s = -0.5 + 0.1i it lands 6.5 off), so the map
        refuses the start; a start rounded from |x| = 15 is mapped."""
        assert cycles.MAP_MIN_RADIUS == 15
        with pytest.raises(OutsideRegionError, match="checked from"):
            poincare_step(x_n, -0.5 + 0.1j)
        with pytest.raises(OutsideRegionError):
            run_cycles(x_n, -0.5 + 0.1j, 1)
        x1, s1 = poincare_step(15 * cmath.exp(-0.3j), -0.5 + 0.1j)
        assert cmath.isfinite(x1) and cmath.isfinite(s1)

    def test_pole_side_raises(self, monkeypatch):
        """The map has no pole chart: a value with |h| above ENTER_G
        raises StepFailureError.  With ENTER_G lowered below |u_1| = 3.98,
        the first iterate toward node 1 does."""
        monkeypatch.setattr(cycles, "ENTER_G", 3.9)
        with pytest.raises(StepFailureError, match="ENTER_G"):
            poincare_step(self.X0, -0.1)

    def test_start_on_jhat_cut_raises(self, monkeypatch):
        """A real s0 < -4/3 lies on the cut of Jhat: run_cycles refuses it
        before any period continuation or map step."""
        calls = []
        for name in ("_ode_continue", "poincare_step"):
            monkeypatch.setattr(cycles, name, lambda *a: calls.append(a))
        for s0 in (-2.0, -1.5 + 0j, -3):
            with pytest.raises(OutsideRegionError, match="cut of Jhat"):
                run_cycles(self.X0, s0, 3)
        assert calls == []

    def test_degenerate_start_raises(self):
        """s0 = 16/3 puts R = 0 at the base node u = -4: the cubic has a
        root on the contour, and the map refuses the start as run_cycles
        does."""
        with pytest.raises(DegenerateCycleError):
            poincare_step(self.X0, 16 / 3)
        with pytest.raises(DegenerateCycleError):
            run_cycles(self.X0, 16 / 3, 1)

    def test_unsettled_newton_raises(self, monkeypatch):
        """One Newton step cannot reach the first node from the base
        point, so a budget of one step ends in NoConvergenceError."""
        monkeypatch.setattr(cycles, "MAP_NEWTON_MAX", 1)
        with pytest.raises(NoConvergenceError, match="did not settle"):
            poincare_step(self.X0, -0.1)


class TestRunCycles:
    @staticmethod
    def _drifts(r):
        x0 = r * cmath.exp(-1j * math.pi / 2 * 1.05)
        states = run_cycles(x0, -0.1, int(r / 2))
        dQ = relative_drift([st.Q for st in states])
        ks = [st.K_shifted for st in states]
        raw = [k - 2.0 * st.n / (x0 * states[0].Q / x0)
               for k, st in zip(ks, states)]
        rng = max(abs(a - b) for a in raw for b in raw)
        dK = max(abs(k - ks[0]) for k in ks) / rng
        return dQ, dK, states

    def test_invariants_drift_slowly(self):
        dQ, dK, states = self._drifts(50)
        assert len(states) >= 10
        assert dQ <= 0.10
        assert dK <= 0.10

    def test_drift_improves_with_radius(self):
        dQ50, dK50, _ = self._drifts(50)
        dQ100, dK100, _ = self._drifts(100)
        assert dQ100 < dQ50
        assert dK100 < dK50

    def test_continuum_limit_xJ_stationary(self):
        """x J(s) varies much more slowly than x itself along the run."""
        _, _, states = self._drifts(50)
        xs = [st.x_n for st in states]
        qs = [st.Q for st in states]
        x_var = max(abs(x - xs[0]) for x in xs) / abs(xs[0])
        q_var = max(abs(q - qs[0]) for q in qs) / abs(qs[0])
        assert q_var < x_var / 5


class TestStok2:
    def test_closed_form_value(self):
        mu, resid = solve_stok2()
        target = 1j * math.sqrt(6.0 / (5.0 * math.pi))
        assert abs(mu - target) < 1e-12
        assert abs(abs(mu) - math.sqrt(6.0 / (5.0 * math.pi))) < 1e-12
        assert abs(cmath.phase(mu) - math.pi / 2) < 1e-12
        assert resid < 1e-12

    def test_residual_sees_the_period_engine(self, monkeypatch):
        """The residual is Abel's check of the engine: a relative error of
        1e-9 in Jhat shows in it, which a rearranged identity would not."""
        assert solve_stok2()[1] < 1e-12
        scale = 1 + 1e-9
        monkeypatch.setattr(cycles, "jhat_at", lambda s: tuple(
            scale * v for v in jhat_at(s)))
        assert solve_stok2()[1] >= 1e-10
