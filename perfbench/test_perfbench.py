"""Self-tests of the benchmark at smoke size (a few minutes in all).

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs with ``--smoke`` (one round of its cheapest tasks,
after the full cold set-up) untraced once and traced twice.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spans = None
    if trace:
        path = os.path.join(HERE, "out", "spans-%s-%d.json"
                            % (workload, SEED))
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
    return result["metrics"], spans


def check_names_and_units(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    metrics, _ = bench(workload, 0)
    check_names_and_units(metrics, SPEC["end_to_end"])
    for name, m in metrics.items():
        assert m["value"] > 0, name

    first, spans = bench(workload, 1)
    check_names_and_units(first, SPEC["per_layer"])

    # spans nest: no span's children outlast it, and the layers' self
    # times fit inside the traced round
    rows = spans["spans"]
    child = [0.0] * len(rows)
    for name, layer, t0, t1, parent in rows:
        assert t1 >= t0
        if parent >= 0:
            p = rows[parent]
            assert p[2] <= t0 and t1 <= p[3] + 1e-6
            child[parent] += t1 - t0
    for i, (name, layer, t0, t1, parent) in enumerate(rows):
        assert (t1 - t0) - child[i] >= -1e-6, name
    # harness_self_s is the round's wall time less the layers' self times
    for name, m in first.items():
        if name.endswith("_self_s") and name != "harness_self_s":
            assert m["value"] >= -1e-6, name
    assert first["harness_self_s"]["value"] >= -1e-6

    # exact counts repeat between two traced runs of the same seed
    second, _ = bench(workload, 1)
    for name, m in first.items():
        if m["unit"] == "count":
            assert second[name]["value"] == m["value"], name
