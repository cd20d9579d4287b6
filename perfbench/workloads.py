"""The four benchmark workloads: seeded inputs, tasks and output checks.

Each workload has a ``setup`` (the lazy state a cold interpreter builds
before its first task) and a ``round`` (the task list, one round of
inputs drawn from ``random.Random``).  A task returns the digits its
checked outputs reach against their references; it fails when an output
misses its tolerance (that of the acceptance criterion it mirrors, where
there is one), or when the package raises a ``BoutrouxError``.

References are the paper's closed forms, or values in ``refs.json``
computed once from the package at raised precision by ``make_refs.py``.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from fractions import Fraction

import mpmath as mp

DIGITS_CAP = 30.0  # an exact match counts as the working precision
C_STAR = Fraction(-392, 625)
MU_IM = math.sqrt(6.0 / (5.0 * math.pi))
with mp.workdps(50):
    MU_REF = mp.mpc(0, mp.sqrt(mp.mpf(6) / (5 * mp.pi)))
    S_REF = abs(MU_REF) / (2 * mp.sqrt(mp.pi))     # |mu| = 2 sqrt(pi) S


class CheckFailed(Exception):
    """An output missed its acceptance tolerance."""


def load_refs():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "refs.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cplx(pair):
    """A stored complex reference: floats, or decimal strings kept exact."""
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def digits(value, ref, scale=None):
    """Correct significant digits of ``value``: -log10(|err| / scale)."""
    with mp.workdps(60):
        err = abs(mp.mpc(value) - mp.mpc(ref))
        scale = abs(mp.mpc(ref)) if scale is None else scale
        if err == 0:
            return DIGITS_CAP
        return min(DIGITS_CAP, float(-mp.log10(err / scale)))


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# stokes: measure_mu and the tritronquee constant on the H0 germ


def setup_stokes(bx, refs):
    bx.borel._evaluator(bx.borel.solve_H0_convolution())


def round_stokes(bx, rng, refs, index):
    borel, connection = bx.borel, bx.connection
    germ = borel.solve_H0_convolution()
    # three points spanning 2.5 > ln 10 in x, i.e. over a decade of e^{-x}
    a = 8.0 + 2.0 * rng.random()
    grid = [a, a + 1.25, a + 2.5]
    s0 = 20.5 + 6.0 * rng.random()
    schedule = [s0 + 2.0 * k for k in range(6)]

    def mu_task():
        hp = lambda x: borel.laplace_ray(germ, x, phi=mp.pi / 4)
        hm = lambda x: borel.laplace_ray(germ, x, phi=-mp.pi / 4)
        mu, _ = connection.measure_mu(hp, hm, grid=grid)
        require(abs(mu - 1j * MU_IM) < 1e-3, "mu off closed form by %.3e"
                % abs(mu - 1j * MU_IM))                  # criterion 4a
        return [digits(mu, MU_REF)]

    def tritronquee_task():
        trit = lambda x: borel.laplace_ray(germ, x, phi=-mp.pi / 8,
                                           tol=1e-20)
        c = connection.extract_constant(trit, math.pi / 4, schedule=schedule)
        require(abs(c) < 1e-6, "C+ = %.3e, not 0" % abs(c))  # criterion 6
        return [digits(c, 0.0, scale=1.0)]

    def singularity_task():
        S, _ = borel.estimate_S(germ)
        require(abs(abs(S) - S_REF) / S_REF < 1e-3,
                "|S| off closed form")                    # criterion 3
        return [digits(abs(S), S_REF)]

    def closed_form_task():
        mu, resid = bx.cycles.solve_stok2()
        require(abs(mu - 1j * MU_IM) < 1e-12 and resid < 1e-12,
                "closed-form mu")                         # criterion 4c
        return [digits(mu, MU_REF)]

    return [("measure_mu", mu_task), ("tritronquee_C_plus", tritronquee_task),
            ("estimate_S", singularity_task), ("solve_stok2", closed_form_task)]


# ---------------------------------------------------------------------------
# transseries: sum_transseries with C != 0 in the lateral sector


def setup_transseries(bx, refs):
    borel = bx.borel
    borel._evaluator(borel.solve_H0_convolution())
    for k in range(1, refs["transseries"]["levels"] + 1):
        borel._evaluator(borel.germ_Hk(k))


def round_transseries(bx, rng, refs, index):
    pt = rng.choice(refs["transseries"]["points"])

    def task():
        C = mp.mpc(*pt["C"])
        x = mp.mpf(pt["abs_x"]) * mp.expj(mp.mpf(pt["arg_x"]))
        h = bx.borel.sum_transseries(C, x)
        ref = cplx(pt["h"])
        # criterion 5 holds the sum to 1e-6 of the ODE solution; the
        # stored reference is far tighter, so the same bound applies
        require(abs(h - ref) < 1e-6, "sum off reference")
        return [digits(h, ref)]
    return [("sum_transseries", task)]


# ---------------------------------------------------------------------------
# pole_sector: locate_pole, continuation, cycle dynamics


def setup_pole_sector(bx, refs):
    # exact recurrences behind far_field_init (N <= 60, K = 14 levels)
    bx.series.h0_coefficients(62)
    for k in range(1, 15):
        bx.series.transseries_level(k, 60)


def _pole_ref(refs, n):
    return cplx(refs["pole_sector"]["poles"][str(n)])


def round_pole_sector(bx, rng, refs, index):
    odes, cycles = bx.odes, bx.cycles
    C = refs["pole_sector"]["C"]
    tasks = []
    for n in range(5, 16):
        def locate(n=n):
            pred, rec = odes.locate_pole(n, C)
            ref = _pole_ref(refs, n)
            require(abs(rec.location - pred) / abs(pred) < 1e-2,
                    "pole %d far from prediction" % n)    # criterion 7
            return [digits(rec.location, ref)]
        tasks.append(("locate_pole", locate))

    def continuation():
        ccw, cw = odes.continue_around(R_target=20.0)
        resid = odes.single_valuedness_residual(ccw, cw)
        require(abs(resid) < 1e-3, "single-valuedness residual %.3e"
                % abs(resid))                             # criterion 12
        require(any(cmath.phase(x) < -4 * math.pi / 5 + 1e-12
                    for x, _, _ in cw.samples), "pole sector not reached")
        return []
    tasks.append(("continue_around", continuation))

    # run_cycles makes int(r / 2) cycles: 25 and 50 for every seed
    radii = (50.0 + 1.9 * rng.random(), 100.0 + 1.9 * rng.random())

    def invariants():
        drifts = []
        for r in radii:
            x0 = r * cmath.exp(-1j * math.pi / 2 * 1.05)
            states = cycles.run_cycles(x0, -0.1, int(r / 2))
            dQ = cycles.relative_drift([st.Q for st in states])
            ks = [st.K_shifted for st in states]
            raw = [k - 2.0 * st.n / states[0].Q for k, st in zip(ks, states)]
            rng_ = max(abs(p - q) for p in raw for q in raw)
            dK = max(abs(k - ks[0]) for k in ks) / rng_
            drifts.append((dQ, dK))
        (dQ1, dK1), (dQ2, dK2) = drifts                   # criterion 11
        require(max(dQ1, dK1, dQ2, dK2) <= 0.10, "invariant drift > 0.1")
        require(dQ2 < dQ1 and dK2 < dK1, "drift does not fall with radius")
        return []
    tasks.append(("run_cycles", invariants))
    return tasks


# ---------------------------------------------------------------------------
# twoscale: exact witnesses, uniform evaluation, pole prediction


def setup_twoscale(bx, refs):
    # eval_two_scale's lambdified F_0, F_1, G_0, G_1
    for chart in ("F", "G"):
        for n in (0, 1):
            bx.twoscale._lambdified(n, chart)


def predict_pole_mp(n, C):
    """The four-order pole formula evaluated in mpmath (the reference)."""
    t = 2j * mp.pi * n
    L = mp.log(mp.mpc(C) / (12 * mp.sqrt(t)))
    F = mp.mpf
    return (t + L - (F(109) / 120 + L / 2) / t
            + (F(4699) / 2400 + F(139) / 120 * L + L ** 2 / 4) / t ** 2
            - (F(41402111) / 6480000 + F(899) / 200 * L + F(77) / 60 * L ** 2
               + L ** 3 / 6) / t ** 3)


def round_twoscale(bx, rng, refs, index):
    ts = bx.twoscale
    # a witness costs 5 to 11 s depending on c, so every seed's round 0
    # uses criterion 9's c* + 1/10; later rounds take fresh c so the
    # package's caches cannot turn them into lookups
    perts = refs["twoscale"]["perturbations"]
    entry = perts[index % len(perts)]
    c = Fraction(entry["c"])
    tasks = []

    def witness_star():
        w = ts.integrability_witness(C_STAR)
        require(w == 0, "witness(c*) = %s" % w)         # criterion 9
        return [DIGITS_CAP]

    def witness_c():
        w = ts.integrability_witness(c)
        require(w != 0 and w == Fraction(entry["witness"]),
                "witness(%s) = %s" % (c, w))
        return [DIGITS_CAP]

    tasks += [("witness_c_star", witness_star), ("witness_c", witness_c)]

    pool = refs["twoscale"]["eval_points"]
    picks = (rng.sample([p for p in pool if p["chart"] == "F"], 2)
             + rng.sample([p for p in pool if p["chart"] == "G"], 2))
    for pt in picks:
        def evaluate(pt=pt):
            x = mp.mpc(*pt["x"])
            v, chart = ts.eval_two_scale(x, 1.0, m=1)
            require(chart == pt["chart"], "chart %s, expected %s"
                    % (chart, pt["chart"]))
            ref = cplx(pt["value"])
            require(abs(v - ref) < 1e-12 * abs(ref),
                    "two-scale value off reference")
            return [digits(v, ref)]
        tasks.append(("eval_two_scale", evaluate))

    phase = 2 * math.pi * rng.random()
    C = cmath.exp(1j * phase)

    def predict():
        out = []
        for n in range(5, 16):
            x = ts.predict_pole(n, C).x_n
            ref = predict_pole_mp(n, C)
            require(abs(x - ref) < 1e-9 * abs(ref), "pole formula n = %d" % n)
            out.append(digits(x, ref))
        return out
    tasks.append(("predict_pole", predict))
    return tasks


# task kinds kept by a smoke run (the first task of each)
SMOKE = {
    "stokes": {"estimate_S", "solve_stok2"},
    "transseries": {"sum_transseries"},
    "pole_sector": {"locate_pole", "continue_around"},
    "twoscale": {"eval_two_scale", "predict_pole"},
}

WORKLOADS = {
    "stokes": (setup_stokes, round_stokes),
    "transseries": (setup_transseries, round_transseries),
    "pole_sector": (setup_pole_sector, round_pole_sector),
    "twoscale": (setup_twoscale, round_twoscale),
}
