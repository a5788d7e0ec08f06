"""Write ``BASELINE.json``: environment, workload definitions and the first measured numbers.

    python3 bench/baseline.py [seed]

For each workload it makes one timed run and one traced run with the given
workload seed (default 0), records the layer shares of the traced run, and
compares the numbers against the ROADMAP baseline.  A comparison is flagged
when the two differ by more than the bound the benchmark fixes for the
matching end-to-end metric.  Comparisons that no workload measures any more
are carried over from the previous file: the ROADMAP's n=1000 figures were
compared when ``large-network`` ran at n=1000.
"""

import json
import platform
import subprocess
import sys

import run as bench

# (quantity, ROADMAP value, workload, how to read the measured value, unit)
ROADMAP_BASELINE = (
    ("n=10 round at stride 100", 85.0, "convex-fixture", lambda e, p: 1e6 / e["rounds_per_s"], "us"),
    ("n=10 round without metrics (traced step)", 65.0, "convex-fixture",
     lambda e, p: p["algorithms.step_us_p50"], "us"),
    ("covariance round (n=3, d=2)", 72.0, "covariance-study", lambda e, p: 1e6 / e["rounds_per_s"], "us"),
)


def environment():
    import numpy as np
    import scipy

    def blas(cfg):
        info = cfg["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": bench.NPROC,
        "cpu": cpu,
        "blas_threads": {var: bench.BLAS_THREADS for var in bench.BLAS_THREAD_VARS},
        "sweep_jobs": bench.NPROC,
        "sweep_processes_x_blas_threads": bench.NPROC * bench.BLAS_THREADS,
    }


def run_once(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: {name} failed its output checks")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main(seed):
    bench.import_simulator()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = bench.workloads_mod.all_workloads(bench.OUT, bench.NPROC)
    path = bench.BENCH_DIR / "BASELINE.json"
    previous = json.loads(path.read_text())["roadmap_comparison"] if path.exists() else []
    current = {quantity for quantity, *_ in ROADMAP_BASELINE}
    doc = {"environment": environment(), "seed": seed, "workloads": {},
           "roadmap_comparison": [e for e in previous if e["quantity"] not in current]}
    measured = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        e2e = run_once(name, seed, spec["run_seconds"], 0)
        per_layer = run_once(name, seed, spec["run_seconds"], 1)
        trace_file = bench.OUT / f"trace-{name}-seed{seed}.json"
        shares = json.loads(trace_file.read_text())["layer_shares"]
        measured[name] = (e2e, per_layer)
        doc["workloads"][name] = {
            "why": entry["why"],
            "shape": workloads[name].shape,
            "instance": seed % bench.workloads_mod.VARIANTS,
            "end_to_end": e2e,
            "layer_shares": shares,
            "per_layer": per_layer,
        }
        print(f"{name}: done", flush=True)
    for quantity, roadmap, name, read, unit in ROADMAP_BASELINE:
        value = read(*measured[name])
        bound = bounds["setup_s" if quantity.endswith("build_weight_pair") else "rounds_per_s"]
        doc["roadmap_comparison"].append({
            "quantity": quantity,
            "unit": unit,
            "roadmap": roadmap,
            "measured": value,
            "ratio": value / roadmap,
            "beyond_bound": abs(value / roadmap - 1.0) > bound,
        })
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
