"""Checks of the benchmark itself; run with ``python3 -m pytest bench``.

They run real workloads (a few minutes in all) and are not part of the
simulator's own test suite.
"""

import json
import subprocess
import sys

import pytest

import run as bench

bench.import_simulator()
workloads = bench.workloads_mod

EXACT_COUNTERS = (
    "problems.calls_per_round",
    "problems.true_h_calls_per_row",
    "schedules.calls_per_round",
    "topology.roots_calls",
    "algorithms.mix_bytes_per_round",
    "metrics.rows",
    "records.bytes_written",
)
# Derived from the code: ab_dscsc_step and dscgd_step make one inner-pair and
# one gradient call; collect_row calls true_h at x* and at each of n agents;
# build_weight_pair calls roots() 4 times, and config.build_weights adds the
# 2 calls of check_assumption2.
AGENTS = {"convex-fixture": 10, "large-network": 500, "covariance-study": 3, "logistic-sweep": 10}
ROOTS_CALLS = {"convex-fixture": 4, "large-network": 4, "covariance-study": 4, "logistic-sweep": 6}


def traced(name, seed):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=bench.ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench.SPEC["per_layer"]}
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_exact_counters_repeat_and_match_the_code(name):
    first, second = traced(name, 0), traced(name, 0)
    assert {k: first[k] for k in EXACT_COUNTERS} == {k: second[k] for k in EXACT_COUNTERS}
    assert first["problems.calls_per_round"] == 2.0
    assert first["topology.roots_calls"] == ROOTS_CALLS[name]
    if first["metrics.rows"]:
        assert first["problems.true_h_calls_per_row"] == AGENTS[name] + 1


def test_parallel_sweep_aggregate_is_byte_equal_to_serial():
    sweep = workloads.all_workloads(bench.OUT, bench.NPROC)["logistic-sweep"]
    ctx = sweep.setup(0)
    for algorithm, _, _ in sweep.methods:
        outputs = {}
        for jobs in (1, bench.NPROC):
            code, out = sweep.sweep(algorithm, ctx, jobs)
            assert code == 0
            outputs[jobs] = {
                p.name: [ln for ln in p.read_text().splitlines() if "wall_seconds" not in ln]
                for p in out.glob("*.csv")
            }
            outputs[jobs]["aggregate.csv"] = (out / "aggregate.csv").read_bytes()
        assert outputs[1] == outputs[bench.NPROC]
