"""Borel-plane engine: convolution equation, Pade continuation, Laplace rays.

The Borel transform H0 of the formal solution satisfies the convolution
equation

    (p^2 - 1) H = -(a4/6) p^3 + int_0^p s H(s) ds + (1/2) H * H

whose Taylor solution is generated here in exact rationals.  Germs are
continued beyond |p| = 1 by near-diagonal Pade approximants: the exact
coefficients are rounded once to SOLVE_DIGITS-digit ``decimal`` numbers,
the Toeplitz system of the denominator is solved by the Levinson-Trench
recursion in O(m^2) (an even germ as a function of p^2), and both
polynomials are rounded once to Python integers, fixed-point numbers with
FIX_BITS fractional bits.  A table is evaluated by Horner's rule on those
integers, an even germ's (H0's) in w = p^2; only the final division of
numerator by denominator runs in mpmath, at PADE_DPS digits.  Laplace
integrals along rotated rays then produce actual tronquee solutions.  Rays
are integrated by one panel sum, nested Clenshaw-Curtis rules on whole
dyadic panels (:func:`_panel_sum`).  The Pade guard reads the difference to
a lower-order table, recorded once at each node of the panels' order-16
rules, from the outermost panel inward until the difference is negligible.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, frexp, inf, isqrt, log2, log10
from operator import mul

import mpmath as mp
from mpmath.libmp import fzero, ln2_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .connection import neville
from .errors import (
    NoConvergenceError,
    NonConvergentSumError,
    QuadratureError,
    RadiusExceededError,
    StokesDirectionError,
)
from .germ import BorelGerm
from .series import EQP_COEFF, _append, borel_transform, level_series

# Precision of a Pade table value: the final division of numerator by
# denominator runs at PADE_DPS digits.  Empirically a 200-coefficient germ
# continues a square-root branch point to |p| ~ 3 on a 45-degree ray with
# error below 1e-22, far under the Laplace weight there.
PADE_DPS = 60
# Fractional bits of the fixed-point tables: PADE_DPS digits plus a 40-bit
# margin for the growth of Horner's rounding errors with |p| (at 200 bits
# the H0-H2 values were off by up to 1.4e-31 relative for |p| <= 14, at 240
# by 1.6e-43).
FIX_BITS = ceil(PADE_DPS * log2(10)) + 40
# Digits of the decimal solve behind a table.  The Toeplitz systems of the
# 200-coefficient germs lose up to 60 digits to conditioning on the ray
# arg p = pi/4 and up to 74 at arg p = 0.05: against a 250-digit solve, the
# H0-H2 tables of a solve at PADE_DPS + 3 digits are off by up to 2e-5 at
# |p| = 12 on arg p = pi/4, those of one at PADE_DPS + 40 by up to 6e-31
# (1e-26 at arg p = 0.05).
SOLVE_DIGITS = PADE_DPS + 40
DEFAULT_GERM_ORDER = 200
# the Pade table behind the error estimate leaves out this many of the
# last coefficients
CHECK_DROP = 20
# levels after which a transseries sum that is still above tol is refused
KMAX = 24
# number of 1/n corrections fitted by estimate_S
EXTRAPOLATION_ORDER = 12


@lru_cache(maxsize=None)
def solve_H0_convolution(N=DEFAULT_GERM_ORDER):
    """Solve the convolution equation for H0 = B[h0] term by term.

    Matching p^n coefficients gives  b_n = b_{n-2} - RHS_n  with
    RHS = -(a4/6) p^3 + int_0^p s H ds + H*H/2; the integral term
    contributes b_{n-2}/n at order p^n.  Returns a :class:`BorelGerm` with
    exact rational coefficients b_3..b_N (germ.coeffs[i] is the coefficient
    of p^{3+i}).

    The recurrence runs on beta_i = i! b_i, kept as integer numerators over
    one common denominator den (rescaled when a new beta's denominator does
    not divide it).  The factorial weights of H*H/2 then drop out:
    n! b_n = (n-1)^2 beta_{n-2} - sum_{i+j=n-1} beta_i beta_j / 2 is one
    integer dot product over 2 den^2, and b_n = beta_n / n!.
    """
    beta, nums = [], []  # beta_{3+i} = nums[i] / den
    den = _append(beta, nums, 1, EQP_COEFF)  # 3! a4 / 6
    for n in range(4, N + 1):
        conv = sum(nums[i] * nums[n - 7 - i] for i in range(n - 6))
        prev = nums[n - 5] if n >= 5 else 0
        den = _append(beta, nums, den, Fraction(
            2 * den * (n - 1) ** 2 * prev - conv, 2 * den * den))
    return BorelGerm(lead2=6, coeffs=tuple(
        f / factorial(3 + i) for i, f in enumerate(beta[:max(N - 2, 0)])))


@lru_cache(maxsize=None)
def germ_Hk(k):
    """Borel transform of the level-k exponential correction x^{-k/2} t_k."""
    N = DEFAULT_GERM_ORDER if k <= 3 else (120 if k <= 8 else 60)
    return borel_transform(level_series(k, N))


# ---------------------------------------------------------------------------
# Pade continuation


class GermEvaluator:
    """Continues the analytic part of a germ beyond |p| = 1 via Pade.

    Evaluates only sum coeffs[n] p^n; prefactors p^{lead2/2} with their
    branch bookkeeping are handled by the callers, which know the contour.
    An error estimate comes from comparing against a lower-order table.

    A table is (num, den, e, stride): both polynomials as integers in
    w = p^stride, highest degree first, den scaled by 2^FIX_BITS and num by
    2^(FIX_BITS - e), where 2^e just exceeds the largest Taylor
    coefficient; the value is 2^e num(w)/den(w).  The stride is 2 for an
    even germ (H0's), whose tables hold only even powers of p, else 1.
    Re p and Im p are truncated to multiples of 2^-FIX_BITS, both
    polynomials are evaluated by Horner's rule on the (re, im) integer pair
    of w, and only the quotient is formed in mpmath, at PADE_DPS digits, so
    a value does not depend on the ambient precision.
    """

    def __init__(self, germ: BorelGerm):
        ctx = decimal.Context(prec=SOLVE_DIGITS)
        cs = [ctx.divide(Decimal(c.numerator), Decimal(c.denominator))
              for c in map(Fraction, germ.coeffs)]
        scale = Decimal(1)
        if germ.sqrtpi:
            with mp.workdps(SOLVE_DIGITS + 10):
                scale = Decimal(str(1 / mp.sqrt(mp.pi)))
        with decimal.localcontext(ctx):
            self._pq = self._build(cs, scale)
            self._pq_check = self._build(cs[:-CHECK_DROP], scale) \
                if len(cs) > CHECK_DROP + 10 else None

    @staticmethod
    def _build(cs, scale):
        """Near-diagonal Pade table of the Taylor data ``cs`` (Decimals, in
        the caller's decimal context), numerator times ``scale``, rounded
        once to the fixed-point table described on the class."""
        n = len(cs) - 1
        L = n - n // 2
        # degenerate Pade tables (exactly rational germs) make the linear
        # system singular; back off the denominator degree until it solves
        for m in range(n // 2, 0, -1):
            q = _toeplitz_solve(cs, L, m)
            if q is not None:
                p = [sum(q[j] * cs[i - j] for j in range(min(m, i) + 1))
                     for i in range(L + 1)]
                break
        else:
            p, q = cs, [Decimal(1)]  # the Taylor polynomial
        # q_0 = 1 sets the scale of the denominator, the largest Taylor
        # coefficient that of the numerator: a table's relative precision
        # then does not depend on the germ's magnitude (the level-24 germ's
        # coefficients peak near 1e-31)
        e = frexp(float(scale * max(map(abs, cs))))[1]
        unit = scale * Decimal(2) ** (FIX_BITS - e)
        # an even germ has even tables, kept as tables in w = p^2
        stride = 1 if any(cs[1::2]) else 2
        return ([round(c * unit) for c in reversed(p[::stride])],
                [round(c * 2 ** FIX_BITS) for c in reversed(q[::stride])],
                e, stride)

    def __call__(self, p):
        return _pade_value(self._pq, p)

    def err_est(self, p, value=None):
        """Difference between the two Pade orders at p (0 if no check
        table); ``value`` is this table's value at p, when already known."""
        if self._pq_check is None:
            return mp.mpf(0)
        if value is None:
            value = self(p)
        with mp.workdps(PADE_DPS):
            return abs(value - _pade_value(self._pq_check, p))

    def check_ray(self, phi, nodes, decay, tol):
        """Guard the ray: Pade error times the Laplace weight e^{-decay t}
        must stay below ``tol``.  ``nodes`` are (t, log err_est) at
        increasing t = |p|; between them, the parabola of log(err weight)
        through three consecutive nodes is maximized.  Raises
        RadiusExceededError otherwise, and returns that weighted error."""
        decay = float(decay)
        ys = [(t, y - decay * t) for t, y in nodes]
        top = max((y for _, y in ys), default=-inf)
        for (t0, y0), (t1, y1), (t2, y2) in zip(ys, ys[1:], ys[2:]):
            if -inf in (y0, y1, y2):
                continue
            d1 = (y1 - y0) / (t1 - t0)
            a = ((y2 - y1) / (t2 - t1) - d1) / (t2 - t0)
            if a < 0:  # concave: its vertex, if inside [t0, t2]
                tv = (t0 + t1) / 2 - d1 / (2 * a)
                if t0 < tv < t2:
                    top = max(top, y0 + (tv - t0) * (d1 + a * (tv - t1)))
        worst = mp.exp(top)
        if worst > tol:
            raise RadiusExceededError(
                "weighted Pade continuation error %.3e exceeds tolerance "
                "%.3e on ray arg p = %.4f"
                % (float(worst), float(tol), float(phi)),
                err_est=worst)
        return worst


def _toeplitz_solve(cs, L, m):
    """Denominator 1, q_1..q_m of the [L/m] Pade approximant of ``cs``.

    Solves sum_{j=1}^m cs[L+i-j] q_j = -cs[L+i], i = 1..m (L >= m), a
    Toeplitz system, by the non-symmetric Levinson recursion (Levinson
    1947; Trench 1964) in O(m^2) operations of the current decimal
    context.  Step n extends the solutions f, b of T_n f = e_1 and
    T_n b = e_n, and that of the first n equations, to n + 1.  The pivots
    of T's LU factors are cs[L] and, at step n, the previous pivot times
    1 - eps_f eps_b; None when one is at most max |cs[L+k]| times
    10^{-(digits-10)} (a near-singular leading minor, as of an exactly
    rational germ).

    An even germ (every odd coefficient 0, so cs[L] = 0 for odd L) has
    an even table: that of the coefficients in w = p^2, of degrees
    [L//2 / m//2], with q spread back onto the even powers of p.
    """
    if m > 1 and not any(cs[1::2]):
        q = _toeplitz_solve(cs[::2], L // 2, m // 2)
        return None if q is None else \
            [c for a in q for c in (a, Decimal(0))][:m + 1]
    tol = max(map(abs, cs[L - m + 1:L + m])).scaleb(
        10 - decimal.getcontext().prec)
    pivot = cs[L]
    if abs(pivot) <= tol:
        return None
    f = b = [1 / pivot]
    x = [-cs[L + 1] / pivot]
    for n in range(1, m):
        row = cs[L + n:L:-1]          # cs[L+n-j], j = 0..n-1
        ef = sum(map(mul, row, f))    # T_{n+1} (f, 0) = (1, 0.., ef)
        eb = sum(map(mul, reversed(cs[L - n:L]), b))  # (0, b) -> (eb, 0.., 1)
        d = 1 - ef * eb
        pivot *= d
        if abs(pivot) <= tol:
            return None
        r = 1 / d
        fb = list(zip(f + [0], [0] + b))
        f = [(u - ef * v) * r for u, v in fb]
        b = [(v - eb * u) * r for u, v in fb]
        e = -cs[L + 1 + n] - sum(map(mul, row, x))
        x = [u + e * v for u, v in zip(x + [0], b)]
    return [Decimal(1)] + x


def _horner(cs, zr, zi, bits):
    """sum cs[k] z^(n-k) for z = (zr + i zi) 2^-bits, on integers; a step
    takes three products, k = zr (ar + ai): Re = k - ai (zr + zi) and
    Im = k + ar (zi - zr)."""
    s, d = zr + zi, zi - zr
    ar, ai = cs[0], 0
    for c in cs[1:]:
        k = zr * (ar + ai)
        ar, ai = ((k - ai * s) >> bits) + c, (k + ar * d) >> bits
    return ar, ai


def _pade_value(table, p):
    """2^e num(p)/den(p) of a fixed-point table (num, den, e, stride), whose
    polynomials are in w = p^stride."""
    num, den, e, stride = table
    p = mp.mpmathify(p)
    re, im = p._mpc_ if hasattr(p, "_mpc_") else (p._mpf_, fzero)
    zr, zi = to_fixed(re, FIX_BITS), to_fixed(im, FIX_BITS)
    # dividing out the power of two common to zr and zi (p's mantissa is
    # short) shortens every product and leaves Horner's integers unchanged
    low = zr | zi
    t = min((low & -low).bit_length() - 1, FIX_BITS) if low else 0
    zr, zi, bits = zr >> t, zi >> t, FIX_BITS - t
    if stride == 2:
        # w = p^2 exact at 2 bits fractional bits, truncated to FIX_BITS
        # when longer
        sh = max(2 * bits - FIX_BITS, 0)
        zr, zi = (zr * zr - zi * zi) >> sh, (2 * zr * zi) >> sh
        bits = 2 * bits - sh
    nr, ni = _horner(num, zr, zi, bits)
    dr, di = _horner(den, zr, zi, bits)
    with mp.workdps(PADE_DPS):
        return mp.mpc(mp.mpf((nr, e)), mp.mpf((ni, e))) / mp.mpc(dr, di)


@lru_cache(maxsize=None)
def _evaluator(germ):
    return GermEvaluator(germ)


# ---------------------------------------------------------------------------
# Panel sums and Laplace rays

CC_ORDERS = (4, 8, 16, 32, 64, 128, 256)
CC_TOP = CC_ORDERS[-1]
# fractional bits of the fixed-point integrand above the working precision
GUARD_BITS = 32
# grid-index step of the order-16 rule, whose nodes carry the Pade guard
RULE16_STEP = CC_TOP // CC_ORDERS[2]
# the Pade guard walks a ray's panels inward until one whose errors all lie
# this factor below its tolerance
GUARD_QUIET = 1e-6


@lru_cache(maxsize=None)
def _cc_rule(n, prec):
    """Points cos(j pi/n), j = 0..n, and Clenshaw-Curtis weights on [-1, 1].

    Weight n - j sums the same terms as weight j (2k(n - j) = -2kj mod 2n),
    so only j <= n/2 are summed."""
    with mp.workprec(prec):
        c = [mp.cospi(mp.mpf(j) / n) for j in range(n + 1)]
        w = []
        for j in range(n // 2 + 1):
            ms = [2 * k * j % (2 * n) for k in range(1, n // 2 + 1)]
            acc = 1 - mp.fsum((1 if 2 * k == n else 2) * c[min(m, 2 * n - m)]
                              / (4 * k * k - 1) for k, m in enumerate(ms, 1))
            w.append(acc * (1 if j == 0 else 2) / n)
    return c, w + w[n - len(w)::-1]


@lru_cache(maxsize=None)
def _cc_grid(bits):
    """cos(k pi/CC_TOP), k = 0..CC_TOP, as integers scaled by 2^bits, each
    within one unit.  Node j of order n is grid node j CC_TOP/n, so nested
    orders share their nodes."""
    with mp.workprec(bits + 16):
        return [to_fixed(mp.cospi(mp.mpf(k) / CC_TOP)._mpf_, bits)
                for k in range(CC_TOP + 1)]


@lru_cache(maxsize=None)
def _cc_weights(n, bits):
    """The weights of :func:`_cc_rule` likewise."""
    return [to_fixed(w._mpf_, bits) for w in _cc_rule(n, bits + 16)[1]]


def _ceil_abs(re, im):
    n = re * re + im * im
    r = isqrt(n)
    return r + (r * r < n)


def _panel_sum(f, panels, prec, rel):
    """int_0^b f(s) ds over the first ``panels`` dyadic panels, in integers.

    Panel 0 is [0, 2^-5] and panel i >= 1 is [2^(i-6), 2^(i-5)], so
    b = 2^(panels-6).  f(i, k) is the integrand at grid node k of panel i,
    s = mid + half cos(k pi/CC_TOP), as (re, im, e) for (re + i im) 2^e,
    within 2^-rel of its modulus.  Adjacent panels share an end node and
    f is called once per node.  Each panel carries nested Clenshaw-Curtis
    rules and is refined through CC_ORDERS until its estimated error is
    below 16 ulps of ``prec`` bits times int_0^b |f|.

    Node values are put on one block scale 2^B, set so that the largest
    order-16 value holds rel + 1 bits, and a rule is an integer dot
    product with weights of prec + GUARD_BITS fractional bits.  Returns
    (re, im, err, e): the integral (re + i im) 2^e and err 2^e, the sum
    over panels of the quadrature estimate and of a bound on the rounding
    of the last rule (node errors, values shifted below 2^B, truncated
    weights).
    """
    wbits = prec + GUARD_BITS
    raw = {}  # (panel, grid index) -> f

    def key(i, k):
        return (i - 1, 0) if k == CC_TOP and i else (i, k)

    for i in range(panels):
        for k in range(0, CC_TOP + 1, RULE16_STEP):
            kk = key(i, k)
            if kk not in raw:
                raw[kk] = f(*kk)
    B = max((e + max(abs(re), abs(im)).bit_length()
             for re, im, e in raw.values() if re or im), default=0) - rel
    fs = {}  # (panel, grid index) -> (re, im, |.|) in units of 2^B

    def values(i, n):
        out = []
        for j in range(0, CC_TOP + 1, CC_TOP // n):
            kk = key(i, j)
            if kk not in fs:
                re, im, e = raw.pop(kk) if kk in raw else f(*kk)
                sh = e - B
                re, im = (re << sh, im << sh) if sh >= 0 \
                    else (re >> -sh, im >> -sh)
                fs[kk] = (re, im, _ceil_abs(re, im))
            out.append(fs[kk])
        return out

    # rule values carry the unit 2^(B - wbits) times the half-width of
    # panels 0 and 1, 2^-6
    def dot(i, n, part):
        parts = (v[part] for v in values(i, n))
        return sum(map(mul, _cc_weights(n, wbits), parts)) << max(i - 1, 0)

    def rule(i, n):
        return dot(i, n, 0), dot(i, n, 1)

    def rounding(i, n):
        mods = sum(v[2] for v in values(i, n)) << max(i - 1, 0)
        return (dot(i, n, 2) >> rel) + 1 \
            + (sum(_cc_weights(n, wbits)) << max(i - 1, 0)) + 2 * mods

    rules = [[rule(i, n) for n in CC_ORDERS[:3]] for i in range(panels)]
    # 16 ulps of int |f| by the order-16 rules, whose nodes are all known
    target = sum(dot(i, CC_ORDERS[2], 2) for i in range(panels)) \
        >> (prec - 5)
    err = 0
    for i, r in enumerate(rules):
        while _estimate(r) > target and len(r) < len(CC_ORDERS):
            r.append(rule(i, CC_ORDERS[len(r)]))
        err += _estimate(r) + rounding(i, CC_ORDERS[len(r) - 1])
    return (sum(r[-1][0] for r in rules), sum(r[-1][1] for r in rules),
            err, B - wbits - 6)


def _estimate(rules):
    """Error of the last of nested rule values (integer pairs): d^2/d_prev
    bounds it under geometric convergence, d (the embedded-rule
    difference) in any case."""
    r0, r1, r2 = rules[-3:]
    d = _ceil_abs(r2[0] - r1[0], r2[1] - r1[1])
    d_prev = _ceil_abs(r1[0] - r0[0], r1[1] - r0[1])
    return min(d, -(-d * d // d_prev)) if d_prev else d


def _to_gauss(z, bits):
    """(re, im, e) with z ~ (re + i im) 2^e, the larger part below 2^bits,
    each truncated toward 0."""
    parts = mp.mpc(z)._mpc_
    e = max((v[2] + v[3] for v in parts if v[1]), default=bits) - bits
    return to_fixed(parts[0], -e), to_fixed(parts[1], -e), e


class LaplaceEngine:
    """Laplace sums of one germ along the ray arg p = phi, for every x.

    The integrand is e^{-p x} G(s) ds with u = e^{i phi} and G = p^{lead2/2}
    Y(p), p = u s for integer germs, or G = s^{lead2+1} Y(p), p = u s^2 for
    half-integer ones.  Every x integrates whole panels of
    :func:`_panel_sum`, so all x on the ray share their nodes up to the
    shorter truncation edge.  G is cached per node, keyed on (panel, grid
    index), and a later x pays only for its exponentials and sums, which
    run on integers: s^k, G and e^{-px} = e^{-s^k u x} are fixed-point at
    the working precision plus GUARD_BITS, the exponentials from libmp's
    exp_fixed and cos_sin_fixed.  The Pade guard reads err_est of Y at
    the nodes of the order-16 rules, which every panel sum evaluates: a
    panel's (t, log err_est), t = s^k, is recorded once, with one
    check-table evaluation a node, when a guard first walks through it, so
    a later x on the ray evaluates no table at all.  The engine remembers
    its last sum, so a repeated (x, panel edge) costs nothing.
    """

    def __init__(self, germ, phi):
        self.evaluator = _evaluator(germ)
        self.lead2 = germ.lead2
        self.phi = phi
        self.bits = mp.mp.prec + GUARD_BITS
        with mp.workprec(self.bits):
            self.u = mp.expj(phi)
        self._g = {}  # (panel, grid index) -> (s^k 2^bits, G as (re, im, e))
        self._err = {}  # panel -> order-16 (t, log err_est), their max
        self._last = (None, None)

    def _node(self, i, j, errs=None):
        """(s^k 2^bits, G as (re, im, e)) at node (i, j), cached; a list
        ``errs`` also gets (t, log err_est) there, Y evaluated again if the
        node is cached."""
        if (i, j) not in self._g or errs is not None:
            W, k = self.bits, 1 + self.lead2 % 2
            h = -6 if i == 0 else i - 7  # log2 half-width of panel i
            s = ((1 if i == 0 else 3) << W) + _cc_grid(W)[j]
            s = s << h if h >= 0 else s >> -h
            with mp.workprec(max(W, s.bit_length())):
                q = mp.mpf((s, -W))  # exactly
                p = self.u * q ** k
                lead = q ** (self.lead2 + 1) if k == 2 \
                    else p ** (self.lead2 // 2)
                y = self.evaluator(p)
                g = _to_gauss(lead * y, W)
                sk = s if k == 1 else s * s >> W
                if errs is not None:
                    err = self.evaluator.err_est(p, y)
                    errs.append((sk / (1 << W),
                                 float(mp.log(err)) if err else -inf))
            self._g[i, j] = (sk,) + g
        return self._g[i, j]

    def _panels(self, tmax):
        """Number of panels up to the first edge at or past tmax."""
        smax = mp.sqrt(tmax) if self.lead2 % 2 else tmax
        panels = 1
        while mp.ldexp(1, panels - 6) < smax:
            panels += 1
        return panels

    def guard(self, tmax, decay, tol):
        """:meth:`GermEvaluator.check_ray` on the order-16 nodes of the
        panels up to the edge at or past tmax (the integral up to tmax
        evaluates the same nodes), walked inward from that edge.

        Inside the disc where the Taylor data converge, the error falls by
        orders of magnitude from one panel to the next one inward (on the
        H0 ray pi/4, 1e-11, 1e-17, 1e-30, then 1e-60, the tables' own
        precision).  So the walk ends at a panel whose errors, recorded now
        or before, all lie GUARD_QUIET below tol: the weight e^{-decay t}
        is at most 1, and the errors further in are smaller still."""
        quiet = float(mp.log(tol * GUARD_QUIET))
        panels = self._panels(tmax)
        bound = min((top for i, (_, top) in self._err.items()
                     if i >= panels), default=inf)
        nodes = []
        for i in reversed(range(panels)):
            if bound < quiet:
                break
            if i not in self._err:
                errs = []
                for j in range(CC_TOP - RULE16_STEP * (i > 0), -1,
                               -RULE16_STEP):
                    self._node(i, j, errs)
                self._err[i] = (errs, max(y for _, y in errs))
            errs, top = self._err[i]
            nodes[:0] = errs
            bound = min(bound, top)
        return self.evaluator.check_ray(self.phi, nodes, decay, tol)

    def integrate(self, x, tmax):
        """int e^{-p x} Y(p) p^{lead2/2} dp along the ray, up to the panel
        edge at or past tmax, and its error estimate."""
        panels = self._panels(tmax)
        if self._last[0] != (x, panels):
            val, err = self._sum(x, panels)
            # p = u q^2 smooths the endpoint: p^{lead2/2} dp -> q^{lead2+1} dq
            val *= 2 * self.u ** (mp.mpf(self.lead2) / 2 + 1) \
                if self.lead2 % 2 else self.u
            self._last = ((x, panels), (val, err))
        return self._last[1]

    def _sum(self, x, panels):
        W, k = self.bits, 1 + self.lead2 % 2
        with mp.workprec(W + 8):
            zr, zi = (to_fixed(v, W) for v in mp.mpc(self.u * x)._mpc_)
        ln2, pi2 = ln2_fixed(W), pi_fixed(W - 1)

        def f(i, j):
            sk, gr, gi, ge = self._node(i, j)
            # e^{-s^k z} = 2^n e^t (cos b - i sin b), -a = n ln 2 + t
            n, t = divmod(-(sk * zr >> W), ln2)
            m = exp_fixed(t, W, ln2)
            c, sn = cos_sin_fixed(sk * zi >> W, W, pi2)
            er, ei = m * c >> W, -(m * sn) >> W
            return er * gr - ei * gi, er * gi + ei * gr, n - W + ge

        # relative error of a value: the roundings of s^k, z and G, and
        # the kernels' last bits, magnified by |z| and s^k <= 2^(k(panels-6))
        zmax = (abs(zr) + abs(zi) >> W) + 2
        amp = 4 * zmax * (2 << k * max(panels - 6, 0)) + 16
        re, im, err, e = _panel_sum(f, panels, mp.mp.prec,
                                    W - amp.bit_length())
        return mp.mpc(mp.mpf((re, e)), mp.mpf((im, e))), mp.mpf((err, e))


def _singular_direction_margin(phi):
    """Angular distance of the ray arg p = phi from the cut directions 0, pi."""
    phi = mp.mpf(phi)
    d = abs(mp.fmod(phi, mp.pi))
    return min(d, mp.pi - d)


@lru_cache(maxsize=64)
def _engine(germ, phi, prec):
    # cached node values are rounded to the working precision; the bound
    # matters for the default ray -arg(x), one engine per direction of x
    return LaplaceEngine(germ, phi)


def laplace_ray(germ, x, phi=None, tol=None):
    """Laplace integral of the germ along the ray arg p = phi.

    Computes  int_0^{e^{i phi} inf} e^{-p x} Y(p) dp  where Y is the germ
    continued by Pade.  ``phi`` defaults to -arg(x), the ray of steepest
    decay.  Half-integer germs are integrated in the variable q = sqrt(p)
    so the endpoint power p^{k/2-1} becomes smooth.  Germ coefficients
    are rational (the Pade tables are built from Fractions), so by Schwarz
    reflection the sum on a ray phi < 0 is conj of the one at
    (-phi, conj x), and one engine serves both rays.

    Works at the ambient mpmath precision, which the quadrature always
    aims at; ``tol`` defaults to a few ulps of the ambient dps and sets the
    truncation point of the ray and the Pade-degradation guard.
    """
    x = mp.mpmathify(x)
    if not mp.isfinite(x):
        raise QuadratureError("x = %s is not finite" % mp.nstr(x))
    if phi is None:
        # steepest-decay ray, but kept at least pi/4 off the cuts (same
        # side, so the lateral sum is unchanged); exactly real x is a
        # Stokes direction and needs an explicit side
        theta = mp.arg(x)
        phi = -theta
        if abs(phi) < mp.pi / 4 and theta != 0:
            phi = -mp.sign(theta) * mp.pi / 4
        elif abs(abs(phi) - mp.pi) < mp.pi / 4:
            phi = mp.sign(phi) * 3 * mp.pi / 4
    phi = mp.mpf(phi)
    if _singular_direction_margin(phi) < mp.mpf("1e-9"):
        raise StokesDirectionError(
            "ray arg p = %s runs through Borel singularities" % mp.nstr(phi))
    decay = mp.re(mp.expj(phi) * x)
    if decay <= 0:
        raise QuadratureError(
            "ray arg p = %.4f does not decay for x = %s" %
            (float(phi), mp.nstr(x)))
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    mirror = phi < 0
    if mirror:
        phi, x = -phi, mp.conj(x)
    engine = _engine(germ, phi, mp.mp.prec)

    # truncate where the exponential weight alone is below tolerance
    tmax = max(mp.mpf(3), -mp.log(tol * mp.mpf("1e-3")) / decay)
    if not mp.isfinite(tmax):
        raise QuadratureError("ray truncation point is not finite")
    engine.guard(tmax, decay, tol * 100)

    val, err = engine.integrate(x, tmax)
    if err > tol * (1 + abs(val)) * 100:
        raise QuadratureError("ray quadrature error %.3e above target"
                              % float(err), err_est=err)
    return mp.conj(val) if mirror else val


# ---------------------------------------------------------------------------
# Singularity data from coefficient asymptotics


def estimate_S(germ=None):
    """Stokes prefactor from the large-n Borel coefficients.

    A square-root singularity  S / sqrt(1 - p)  at p = 1, mirrored at
    p = -1, forces  b_n ~ 2 S Gamma(n + 1/2) / (sqrt(pi) n!)  along the odd
    coefficients, with corrections in integer powers of 1/n.  The
    polynomial S + a_1/n + ... + a_J/n^J through the last J+1 normalized
    values, evaluated at 1/n = 0 by Neville's algorithm, extrapolates S;
    the error estimate compares two orders J.  Raises
    NoConvergenceError when the normalized sequence is not settling
    (e.g. the actual Borel radius is not 1).
    """
    if germ is None:
        germ = solve_H0_convolution()
    offset = germ.lead2 // 2
    # Neville's extrapolation to 1/n = 0 from J + 1 nodes about 2/n^2
    # apart magnifies rounding by about n^J / J!; keep 30 digits past that
    J = EXTRAPOLATION_ORDER
    dps = 30 + ceil(J * log10(max(offset + len(germ.coeffs), 2))
                    - log10(factorial(J)))
    odd = [(n, b) for n, b in enumerate(germ.coeffs, offset)
           if n % 2 and b]
    if len(odd) < J + 4:
        raise NoConvergenceError("too few coefficients for extrapolation")
    with mp.workdps(dps):
        # only the last J + 1 values are read, by the drift test too
        seq = [(n, mp.mpf(b.numerator) / b.denominator * mp.sqrt(mp.pi)
                * mp.factorial(n) / (2 * mp.gamma(n + mp.mpf("0.5"))))
               for n, b in odd[-(J + 1):]]
        drift = abs(seq[-1][1] / seq[-2][1] - 1)
        if drift > mp.mpf("0.01"):
            raise NoConvergenceError(
                "normalized coefficient sequence not settling; nearest "
                "singularity is probably not at |p| = 1",
                diagnostics={"last_ratio_drift": float(drift)})

        def extrapolate(order):
            ns, vals = zip(*seq[-(order + 1):])
            return neville([1 / mp.mpf(n) for n in ns], vals)

        val = extrapolate(J)
        err = abs(val - extrapolate(J - 2))
    return val, err


# ---------------------------------------------------------------------------
# Transseries summation


@dataclass
class TransseriesSum:
    """Value of a summed transseries with bookkeeping."""

    value: complex
    levels_used: int
    last_term: float


def sum_transseries(C, x, phi=None, tol=None, return_info=False):
    """Laplace-sum the transseries  h = L[H0] + sum_k C^k e^{-kx} L[H_k].

    Levels are added until the term magnitude falls below ``tol``.  Raises
    NonConvergentSumError when terms stop decaying, which happens once
    C e^{-x} x^{-1/2} leaves the convergence domain, or when KMAX levels
    do not bring the term below ``tol``.
    """
    x = mp.mpmathify(x)
    C = mp.mpmathify(C)
    if not mp.isfinite(C):
        raise NonConvergentSumError("C = %s is not finite" % mp.nstr(C))
    if tol is None:
        tol = mp.mpf(10) ** (-(mp.mp.dps - 3))
    total = laplace_ray(solve_H0_convolution(), x, phi=phi, tol=tol)
    prev = mp.inf
    term = mp.mpf(0)
    k = 0
    for k in range(1, KMAX + 1):
        if C == 0:
            k = 0
            break
        g = germ_Hk(k)
        prefac = C**k * mp.exp(-k * x)
        # the ray only needs enough accuracy for the level's contribution
        level_tol = tol / min(abs(prefac), mp.mpf(1))
        term = prefac * laplace_ray(g, x, phi=phi, tol=level_tol)
        total += term
        if abs(term) < tol:
            break
        if abs(term) > 2 * abs(prev):
            raise NonConvergentSumError(
                "transseries terms growing at level %d (|term| = %.3e)"
                % (k, float(abs(term))))
        prev = term
    else:
        raise NonConvergentSumError(
            "transseries not converged after %d levels (|term| = %.3e)"
            % (KMAX, float(abs(term))))
    info = TransseriesSum(value=total, levels_used=k,
                          last_term=float(abs(term)))
    return info if return_info else info.value

