"""Recompute the stored references in refs.json (the recipe).

    PYTHONPATH=src python3 perfbench/make_refs.py --part transseries
    PYTHONPATH=src python3 perfbench/make_refs.py --part pole_sector
    PYTHONPATH=src python3 perfbench/make_refs.py --part twoscale

Each part merges its entry into refs.json.  The parts are independent and
take minutes each; run them one at a time on a small machine.
"""

import argparse
import json
import math
import os
from fractions import Fraction

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def mp_pair(z):
    """Full-precision decimal strings of an mpmath complex value."""
    z = mp.mpc(z)
    return [mp.nstr(z.real, mp.mp.dps), mp.nstr(z.imag, mp.mp.dps)]


def part_transseries():
    from boutroux.borel import sum_transseries

    # |C| = 1 and one |x|: every point needs the same 2 levels and the
    # same 1779 germ evaluations (arg x = 0.15 would need 2029), so the
    # work is alike from seed to seed
    points, levels, r = [], 0, 34
    for alpha in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        C = (math.cos(alpha), math.sin(alpha))
        for a in (0.2, 0.25, 0.3):
            mp.mp.dps = 30
            x = mp.mpf(r) * mp.expj(mp.mpf(a))
            info = sum_transseries(mp.mpc(*C), x, return_info=True)
            levels = max(levels, info.levels_used)
            mp.mp.dps = 45
            x = mp.mpf(r) * mp.expj(mp.mpf(a))
            ref = sum_transseries(mp.mpc(*C), x)
            points.append({"C": list(C), "abs_x": r, "arg_x": a,
                           "h": mp_pair(ref)})
            print(r, a, C, info.levels_used, flush=True)
    mp.mp.dps = 30
    return {
        "recipe": "sum_transseries(C, x) with the default K, phi and tol "
                  "at mp.dps = 45 (tol 1e-42); the benchmark runs at "
                  "dps 30 (tol 1e-27).  At these |x| the Laplace weight "
                  "is below 1e-40 where the Pade continuation degrades, "
                  "so the dps-45 sum is the more accurate value.",
        "levels": levels,
        "points": points,
    }


def part_pole_sector():
    from boutroux.odes import detect_poles, far_field_init, integrate_path
    from boutroux.twoscale import predict_pole

    mp.mp.dps = 30
    C = 1.0
    poles = {}
    for n in range(5, 16):
        pred = complex(predict_pole(n, C).x_n)
        x0 = pred + 8.0 + 0.3j
        state, _ = far_field_init(C, x0)
        trace = integrate_path(x0, state, [pred - 1.0 + 0.3j],
                               rtol=1e-13, atol=1e-15)
        found = detect_poles(trace, tol=1e-13)
        best = min(found, key=lambda p: abs(p.location - pred))
        poles[str(n)] = pair(best.location)
        print(n, best.location, flush=True)
    return {
        "recipe": "pole n of the first array at C = 1: far_field_init at "
                  "predict_pole(n) + 8 + 0.3i (locate_pole seeds at +4), "
                  "integrate_path to prediction - 1 + 0.3i with "
                  "rtol 1e-13, atol 1e-15 (locate_pole: 1e-11, 1e-13), "
                  "detect_poles with tol 1e-13 (default 1e-10)",
        "C": C,
        "poles": poles,
    }


def part_twoscale():
    from boutroux.twoscale import eval_two_scale, integrability_witness

    mp.mp.dps = 30
    c_star = Fraction(-392, 625)
    perts = []
    for d in (Fraction(1, 10), Fraction(1, 7), Fraction(-1, 9),
              Fraction(2, 11), Fraction(1, 13), Fraction(-1, 8)):
        c = c_star + d
        w = integrability_witness(c)
        perts.append({"c": str(c), "witness": str(w)})
        print(c, w, flush=True)

    pts = []
    for xi in (-8, -3, 3, 8):
        for k in (4, 5, 6, 7):
            mp.mp.dps = 50
            f = lambda x: (x + mp.log(mp.mpf(xi)) + mp.log(x) / 2
                           - 2j * mp.pi * k)
            x = mp.findroot(f, 2j * mp.pi * k + 0.1)
            x = mp.mpc(complex(x))   # the input is the double-rounded x
            ref, chart = eval_two_scale(x, 1.0, m=1)
            entry = {"x": pair(x), "xi": xi, "branch": k, "chart": chart,
                     "value": mp_pair(ref)}
            mp.mp.dps = 30
            _, chart30 = eval_two_scale(mp.mpc(complex(x)), 1.0, m=1)
            assert chart == chart30
            pts.append(entry)
    mp.mp.dps = 30
    return {
        "recipe": "witness exact (sympy, as in the package) at "
                  "c = -392/625 + d; eval_two_scale(x, C=1, m=1) at "
                  "mp.dps = 50 for x on branch k with xi(x) = xi "
                  "(findroot at dps 50, rounded to complex128)",
        "perturbations": perts,
        "eval_points": pts,
    }


PARTS = {"transseries": part_transseries, "pole_sector": part_pole_sector,
         "twoscale": part_twoscale}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--part", choices=sorted(PARTS), required=True)
    args = ap.parse_args()
    entry = PARTS[args.part]()
    refs = {}
    if os.path.exists(REFS):
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    refs[args.part] = entry
    refs["stokes"] = {
        "recipe": "closed forms only: mu = i sqrt(6/(5 pi)), "
                  "S = |mu| / (2 sqrt(pi)), C+ = 0 for the tritronquee"}
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
