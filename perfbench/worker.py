"""One benchmark process: cold set-up, then (for role ``solve``) rounds.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``;
prints one JSON object on its last stdout line.  Set-up time runs from
the top of this file, before the package and its dependencies import.

Shared machines run a process at a speed that drifts by a factor of two
over seconds to minutes, so a wall time alone does not repeat.  A timer
signal therefore runs a fixed probe every 0.1 s in this (single)
thread: Horner's rule on 400 binary floats of 200 bits with mpmath's
low-level arithmetic, which slows down with the machine the way the
package's interpreted numerics do.  Each phase reports its wall time
and its time at a fixed reference speed (``ref_time``).
"""

import signal
import time

T_START = time.perf_counter()

from mpmath import libmp  # noqa: E402

PROBE = []  # (start, duration) of each probe
# the probe's duration on an unloaded core of the reference machine
# (2-core Xeon VM, Python 3.11, mpmath 1.3); times are reported at that
# speed
PROBE_REF_S = 0.0008
_PROBE_X = libmp.from_rational(3, 7, 200)
_PROBE_COEFFS = [libmp.from_rational(7 * i + 1, 3 * i + 2, 200)
                 for i in range(400)]


def _probe(signum, frame):
    t0 = time.perf_counter()
    acc = libmp.fzero
    for c in _PROBE_COEFFS:
        acc = libmp.mpf_add(libmp.mpf_mul(acc, _PROBE_X, 200), c, 200)
    PROBE.append((t0, time.perf_counter() - t0))


signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import types  # noqa: E402


def import_package():
    import mpmath as mp

    # pinned to the command-line default so no ambient precision leaks in
    mp.mp.dps = 30
    import boutroux
    from boutroux import (borel, connection, cycles, errors, odes, series,
                         twoscale)
    return types.SimpleNamespace(
        pkg=boutroux, borel=borel, connection=connection, cycles=cycles,
        errors=errors, odes=odes, series=series, twoscale=twoscale)


def ref_time(t0, t1):
    """The interval [t0, t1] in seconds at the reference speed.

    Each stretch between probes counts at the speed its probe measured,
    smoothed as the median of five neighbouring probes:
    dt * PROBE_REF_S / probe.  Under five probes inside, the whole
    interval counts at the median speed of all probes so far.
    """
    import statistics

    pts = [(t, d) for t, d in PROBE if t0 <= t <= t1]
    if len(pts) < 5:
        return (t1 - t0) * PROBE_REF_S / statistics.median(
            d for _, d in PROBE)
    ds = [d for _, d in pts]
    edges = [t0] + [(a + b) / 2 for (a, _), (b, _) in zip(pts, pts[1:])] \
        + [t1]
    return sum((edges[i + 1] - edges[i]) * PROBE_REF_S
               / statistics.median(ds[max(0, i - 2):i + 3])
               for i in range(len(pts)))


def run_round(bx, workload, seed, index, refs, checks, smoke=False):
    """Run one round of tasks; returns (attempted, failed, digits, wall,
    time at reference speed)."""
    from workloads import SMOKE, WORKLOADS, CheckFailed

    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    tasks = WORKLOADS[workload][1](bx, rng, refs, index)
    if smoke:
        # the first task of each cheap kind
        seen = set()
        tasks = [t for t in tasks if t[0] in SMOKE[workload]
                 and not (t[0] in seen or seen.add(t[0]))]
    failed, digs = 0, []
    t0 = time.perf_counter()
    for name, task in tasks:
        try:
            digs.extend(task())
        except (bx.errors.BoutrouxError, CheckFailed) as exc:
            failed += 1
            checks.append("%s: %s: %s" % (name, type(exc).__name__, exc))
    t1 = time.perf_counter()
    return len(tasks), failed, digs, t1 - t0, ref_time(t0, t1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "solve", "trace"),
                    required=True)
    ap.add_argument("--spans", default=None,
                    help="trace role: file to write the spans to")
    ap.add_argument("--smoke", action="store_true",
                    help="one round of a few cheap tasks (self-tests)")
    args = ap.parse_args()

    from workloads import WORKLOADS, load_refs

    refs = load_refs()
    bx = import_package()
    tracer = None
    if args.role == "trace":
        from tracing import COUNTED_CALLS, Tracer

        tracer = Tracer()
        tracer.install(bx.pkg)
    checks, rounds = [], []
    try:
        WORKLOADS[args.workload][0](bx, refs)
        t_setup = time.perf_counter()
        out = {"setup_s": t_setup - T_START,
               "setup_ref_s": ref_time(T_START, t_setup)}
        if args.role == "setup":
            print(json.dumps(out))
            return
        if tracer is None:
            # whole rounds until the measuring time is spent, at least one
            t_end = time.perf_counter() + args.seconds
            index = 0
            while index == 0 or (time.perf_counter() < t_end
                                 and not args.smoke):
                rounds.append(run_round(bx, args.workload, args.seed, index,
                                        refs, checks, args.smoke))
                index += 1
        else:
            # set-up traced too; round 0 has the inputs of an untraced run
            mark, setup_counts = len(tracer.spans), dict(tracer.counters)
            t0 = time.perf_counter()
            rounds.append(run_round(bx, args.workload, args.seed, 0, refs,
                                    checks, args.smoke))
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is not None:
        if args.spans:
            tracer.dump(args.spans, t0, mark)
        n = len(tracer.spans)
        out["self_s"] = tracer.self_times(mark, n)
        out["setup_self_s"] = tracer.self_times(0, mark)
        out["layer_calls"] = tracer.layer_calls(mark, n)
        out["counters"] = {k: v - setup_counts.get(k, 0)
                           for k, v in tracer.counters.items()}
        out["setup_counters"] = setup_counts
        out["span_count"] = n - mark
        span_cost, count_cost = Tracer.calibrate()
        counted = sum(out["counters"].get(k, 0) for k in COUNTED_CALLS)
        out["overhead_est_s"] = (n - mark) * span_cost + counted * count_cost

    out["rounds"] = [{"attempted": a, "failed": f, "digits": d, "wall_s": w,
                      "ref_s": r} for a, f, d, w, r in rounds]
    out["checks"] = checks
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    finally:
        # an alarm during interpreter shutdown would kill the process
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
