"""Alternating parent/change benchmark pairs, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py --rev HEAD~1 --out bench.json \
        --pairs 4 --seeds 1,2,3 --workloads stokes,transseries

Run from the repository root.  The parent revision ``--rev`` is exported
with ``git archive`` into a temporary directory (removed afterwards); the
change side is the working tree.  For every workload, seed and pair the
unmodified ``perfbench/run.py`` of each side runs once, for the
``run_seconds`` of BENCHMARK.json, in alternating order (the parent first
in even pairs, the change first in odd ones), so a drift of the machine's
speed touches both sides alike.

Every run is kept with its exit code: a run that exits 3 (the benchmark's
own failure) is counted in ``exit_codes`` and has no metrics, it is not
dropped.  For each end-to-end metric of BENCHMARK.json and the wall time
of round 0, the file gives per side the median and quartiles over the
runs that printed metrics, and ``change_wins``: the pairs in which the
change is strictly better, out of ``pairs_compared``, the pairs in which
both sides printed metrics.

``--cli`` also times cold CLI commands (a fresh interpreter each) on both
sides alternately, ``--cli-repeats`` times each: wall and CPU time.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
DEFAULT_CLI = ("stokes", "sum --C 0.5,0.2 --arg-x 0.3 --grid 20:34:8",
               "sum --C 0.3 --arg-x -0.2 --grid 12:30:7")


def git(*args):
    return subprocess.run(("git",) + args, cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, dest):
    """The tree of ``rev`` as plain files under ``dest``."""
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev],
                   cwd=ROOT, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    os.remove(archive)
    return tree


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` process: its exit code, machine line,
    metrics (None unless it printed them) and per-round walls."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out = {"exit": proc.returncode, "machine": None, "metrics": None,
           "wall_s": None}
    for line in proc.stdout.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if "machine" in rec:
            out["machine"] = rec["machine"]
        elif "wall_s" in rec:
            out["wall_s"] = rec["wall_s"]
        elif "metrics" in rec:
            out["metrics"] = {k: v["value"] for k, v in
                              rec["metrics"].items()}
    if proc.returncode not in (0, 1):
        out["stderr_tail"] = proc.stderr[-600:]
    return out


def summary(values):
    if not values:
        return {"n": 0}
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def compare(runs, metrics):
    """Per metric: each side's summary and the change's pair wins."""
    out = {}
    for name, better in metrics.items():
        sides = {side: [r["value"][name] for r in runs
                        if r["side"] == side and name in r["value"]]
                 for side in SIDES}
        pairs = {}
        for r in runs:
            if name in r["value"]:
                pairs.setdefault((r["seed"], r["pair"]), {})[r["side"]] = \
                    r["value"][name]
        both = [p for p in pairs.values() if len(p) == 2]
        sign = -1 if better == "lower" else 1
        out[name] = dict(
            better=better,
            **{side: summary(v) for side, v in sides.items()},
            pairs_compared=len(both),
            change_wins=sum(sign * (p["change"] - p["parent"]) > 0
                            for p in both))
    return out


def bench_workload(trees, workload, seeds, pairs, seconds, metrics, log):
    runs, codes = [], {side: {} for side in SIDES}
    machine = None
    for seed in seeds:
        for k in range(pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                res = run_once(trees[side], workload, seed, seconds)
                codes[side][str(res["exit"])] = \
                    codes[side].get(str(res["exit"]), 0) + 1
                machine = machine or res["machine"]
                value = dict(res["metrics"] or {})
                if res["metrics"] is not None and res["wall_s"]:
                    value["round0_wall_s"] = res["wall_s"]["solve"][0]
                run = {"side": side, "seed": seed, "pair": k,
                       "exit": res["exit"], "value": value}
                if "stderr_tail" in res:
                    run["stderr_tail"] = res["stderr_tail"]
                runs.append(run)
                log("%s seed %d pair %d %s: exit %d solve_s %s"
                    % (workload, seed, k, side, res["exit"],
                       value.get("solve_s")))
    return {"machine": machine, "exit_codes": codes,
            "metrics": compare(runs, metrics), "runs": runs}


def cpu_s():
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def time_cli(trees, commands, repeats, log):
    """Cold wall and CPU time of each CLI command, sides alternating; the
    CPU time of a process is less disturbed by other load on the host."""
    out = {}
    for cmd in commands:
        runs = {side: {"walls": [], "cpu": [], "exits": []} for side in SIDES}
        for k in range(repeats):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                env = dict(os.environ,
                           PYTHONPATH=os.path.join(trees[side], "src"))
                t0, c0 = time.perf_counter(), cpu_s()
                proc = subprocess.run(
                    [sys.executable, "-m", "boutroux.cli"] + cmd.split(),
                    cwd=trees[side], env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                runs[side]["walls"].append(time.perf_counter() - t0)
                runs[side]["cpu"].append(cpu_s() - c0)
                runs[side]["exits"].append(proc.returncode)
        out[cmd] = {side: dict(r, wall=summary(r["walls"]),
                               cpu_s=summary(r["cpu"]))
                    for side, r in runs.items()}
        log("cli %r: wall parent %.3f s, change %.3f s; cpu parent %.3f s, "
            "change %.3f s" % ((cmd,) + tuple(
                out[cmd][side][key]["median"]
                for key in ("wall", "cpu_s") for side in SIDES)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="parent revision")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--workloads",
                    default="stokes,transseries,pole_sector,twoscale",
                    help="comma-separated; empty for CLI timings only")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--pairs", type=int, default=3,
                    help="pairs per workload and seed")
    ap.add_argument("--cli", action="store_true",
                    help="also time cold CLI commands")
    ap.add_argument("--cli-repeats", type=int, default=3)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    metrics["round0_wall_s"] = "lower"
    seeds = [int(s) for s in args.seeds.split(",")]

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    tmp = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        trees = {"parent": export(args.rev, tmp), "change": ROOT}
        result = {
            "parent": git("rev-parse", args.rev),
            "change": {"base": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain"))},
            "settings": {"pairs": args.pairs, "seeds": seeds,
                         "seconds": seconds},
            "workloads": {w: bench_workload(trees, w, seeds, args.pairs,
                                            seconds, metrics, log)
                          for w in args.workloads.split(",") if w},
        }
        if args.cli:
            result["cli"] = time_cli(trees, DEFAULT_CLI, args.cli_repeats,
                                     log)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
