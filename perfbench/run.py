"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload stokes --seed 1 --seconds 5 --trace 0

Run from the repository root.  Every process of the measurement is a
fresh interpreter (``worker.py``) with ``src`` on its path, BLAS pinned
to one thread and mpmath at 30 digits, so no cache or ambient precision
leaks between workloads.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs set-up and round 0 traced, prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  Its
``traced_solve_s`` less the ``solve_s`` of ``--trace 0`` at the same seed
(the same round) is the measured tracing overhead; ``trace_overhead_s``
is the calibrated estimate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("stokes", "transseries", "pole_sector", "twoscale")
# cold set-ups per run (one of them is the solving process's own); the
# Pade tables (stokes 6 s, transseries 20 s) and the far-field
# recurrences (pole_sector 6 s) fit the run budget only once
SETUP_SAMPLES = {"stokes": 1, "transseries": 1, "pole_sector": 1,
                 "twoscale": 3}
DEADLINE_S = 170.0
LAYERS = ("series", "borel", "germ", "connection", "odes", "twoscale",
          "cycles")
COUNTERS = ("germ_evals", "pade_builds", "laplace_rays", "transseries_sums",
            "path_integrations", "chart_switches", "pole_refinements",
            "newton_steps", "ivp_solves", "rhs_g_calls", "rhs_h_calls",
            "poincare_steps", "witnesses")


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, role, deadline, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--role", role] + list(extra)
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for the %s process" % role)
    # run() kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise WorkerError("%s process exited %d:\n%s"
                          % (role, proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine():
    import importlib.metadata as md

    def ver(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import mpmath.libmp
        backend = mpmath.libmp.BACKEND
    except ImportError:
        backend = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "mpmath_backend": backend,
            "versions": {p: ver(p) for p in ("numpy", "scipy", "sympy",
                                              "mpmath")},
            "blas_threads": 1}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = [run_worker(args, "setup", deadline)
              for _ in range(SETUP_SAMPLES[args.workload] - 1)]
    res = run_worker(args, "solve", deadline)
    setups.append(res)
    rounds = res["rounds"]
    print(json.dumps({"wall_s": {
        "setup": [r["setup_s"] for r in setups],
        "solve": [r["wall_s"] for r in rounds]}}))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digs = [d for r in rounds for d in r["digits"]]
    metrics = {
        "setup_s": metric(statistics.median(r["setup_ref_s"] for r in setups),
                          "s"),
        "solve_s": metric(statistics.median(r["ref_s"] for r in rounds), "s"),
        "digits_min": metric(min(digs) if digs else 0.0, "digits"),
        "pass_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "tasks": metric(rounds[0]["attempted"], "count"),
    }
    return res, attempted, failed, metrics


def per_layer(args, deadline):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-%d.json" % (args.workload, args.seed))
    res = run_worker(args, "trace", deadline, ["--spans", spans])
    traced = res["rounds"][0]
    attempted, failed = traced["attempted"], traced["failed"]
    metrics = {}
    self_total = 0.0
    for layer in LAYERS:
        self_total += res["self_s"][layer]
        metrics[layer + "_self_s"] = metric(res["self_s"][layer], "s")
        metrics[layer + "_calls"] = metric(res["layer_calls"][layer],
                                           "count")
    metrics["harness_self_s"] = metric(traced["wall_s"] - self_total, "s")
    for layer in ("series", "germ", "twoscale"):
        metrics["setup_%s_self_s" % layer] = metric(
            res["setup_self_s"][layer], "s")
    metrics["setup_pade_builds"] = metric(
        res["setup_counters"].get("pade_builds", 0), "count")
    for key in COUNTERS:
        metrics[key] = metric(res["counters"].get(key, 0), "count")
    metrics["span_count"] = metric(res["span_count"], "count")
    metrics["traced_solve_s"] = metric(traced["ref_s"], "s")
    metrics["trace_overhead_s"] = metric(res["overhead_est_s"], "s")
    return res, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few cheap tasks per workload (self-tests)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "boutroux", "__init__.py")):
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    print(json.dumps({"machine": machine()}))
    try:
        run = per_layer if args.trace else end_to_end
        res, attempted, failed, metrics = run(args, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 3
    for line in res["checks"]:
        print("check failed: %s" % line, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
