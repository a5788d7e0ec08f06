"""dscosim benchmark: time experiment workloads end to end, or trace them layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload convex-fixture --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` repeats the workload's experiment (set-up, then every seed-run or
replication) until ``--seconds`` have passed, at least ``MIN_REPS`` times, and
reports mean times scaled to a reference host speed (see ``measure``).
``--trace 1`` runs the experiment once untraced and once traced, checks that
both give the same bits, and reports per-layer metrics.
Every operation's output is checked against ``bench/reference.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
output matched.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread per process, set before numpy loads and inherited by sweep
# workers: workers x BLAS threads stays within nproc, and the outputs do not
# depend on the core count (at n=500 two BLAS threads change the bits).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
NPROC = len(os.sched_getaffinity(0))
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
MIN_REPS = 3
IMPORT_SAMPLES = 8
# Times are reported at the host speed where the calibration loop takes
# CALIBRATION_REF_S, about the mean it took on a 2-vCPU Xeon VM of a shared host.
CALIBRATION_ITERS = 60_000
CALIBRATION_REF_S = 0.35
# What a fresh interpreter spends on the imports that precede set-up.
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
    "import tracing, workloads; print(time.perf_counter() - start)"
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_simulator():
    """Import dscosim from this checkout's ``src/``; returns the import time from START."""
    if not (SRC / "dscosim" / "__init__.py").is_file():
        sys.exit(f"error: no dscosim source tree at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    global tracing, workloads_mod
    import tracing  # noqa: F401  (also imports numpy)
    import workloads as workloads_mod

    import dscosim

    if Path(dscosim.__file__).resolve().parent != SRC / "dscosim":
        sys.exit(f"error: imported dscosim from {dscosim.__file__}, not from {SRC}")
    return time.perf_counter() - START


def peak_rss_mb():
    """Largest resident set of this process or any of its waited-for children.

    This process's own peak is VmHWM, which starts afresh at exec: its
    ru_maxrss would also hold the peak of the process that started it.
    """
    with open("/proc/self/status") as status:
        self_kb = next(int(ln.split()[1]) for ln in status if ln.startswith("VmHWM:"))
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def load_reference(workload, variant):
    refs = json.loads(REFERENCE.read_text())
    return refs[workload][str(variant)]


def import_sample():
    """Import time of a fresh interpreter, measured as this process measures its own."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH_DIR)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def one_rep(workload, variant, tracer=None):
    """Set up, run the experiment, and return (setup_s, experiment_s, ctx, outputs)."""
    t0 = time.perf_counter()
    ctx = workload.setup(variant)
    t1 = time.perf_counter()
    outputs = workload.experiment(ctx, tracer)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, ctx, outputs


def failed_ops(outputs, ctx, expected, drift_ok=True):
    """Operations whose output mismatches, or all of them if an invariant fails."""
    if not (workloads_mod.weight_pair_ok(ctx["weights"]) and drift_ok):
        return set(outputs.ops)
    return outputs.failed(expected)


def calibrate():
    """Time a fixed loop of small numpy products, the mix of work a round does."""
    import numpy as np

    a = np.arange(25.0).reshape(5, 5) / 25.0
    y = np.ones(5)
    start = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        y = a @ y
        y = y / np.abs(y).sum()
    return time.perf_counter() - start


def measure(workload, variant, seconds, import_s):
    """Repeat the experiment for ``seconds``; mean times at the reference host speed.

    The vCPU of a shared host switches between speeds up to 2x apart within
    seconds, and the share of time at each drifts over minutes, so ten runs'
    raw times of the same code spread by 0.1 to 0.4 of their median.  A fixed
    calibration loop, which runs no dscosim code, is timed before the first
    repetition and after each one.  Mean times are scaled by
    ``CALIBRATION_REF_S`` over the mean calibration of the same run: both means
    move alike with the host's share of fast time, so the host's drift cancels
    and the program's own cost remains.
    """
    expected = load_reference(workload.name, variant)
    imports, setups, walls, attempted, failed = [import_s], [], [], 0, 0
    cals = [calibrate()]
    deadline = time.perf_counter() + seconds
    last_rep_s = 0.0
    # stop when the next repetition would end past the deadline
    while len(walls) < MIN_REPS or time.perf_counter() + last_rep_s < deadline:
        rep_start = time.perf_counter()
        setup_s, exp_s, ctx, outputs = one_rep(workload, variant)
        setups.append(setup_s)
        walls.append(exp_s if workload.setup_in_experiment else setup_s + exp_s)
        attempted += len(outputs.ops)
        failed += len(failed_ops(outputs, ctx, expected))
        # imports happen once per process, so more samples come from fresh interpreters,
        # spread over the run like the repetitions
        if len(imports) < IMPORT_SAMPLES:
            imports.append(import_sample())
        cals.append(calibrate())
        last_rep_s = time.perf_counter() - rep_start
    round_times = [w - s for w, s in zip(walls, setups)]
    for name, samples in (("calibration", cals), ("import", imports), ("setup", setups),
                          ("wall", walls), ("rounds", round_times)):
        print(f"{workload.name} raw {name} times (s): {' '.join(f'{x:.6g}' for x in samples)}")
    scale = CALIBRATION_REF_S / statistics.fmean(cals)
    import_s = statistics.fmean(imports)
    metrics = {
        "wall_s": scale * (import_s + statistics.fmean(walls)),
        "setup_s": scale * (import_s + statistics.fmean(setups)),
        "rounds_per_s": workload.rounds / (scale * statistics.fmean(round_times)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return attempted, failed, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def trace(workload, variant, seed):
    """Untraced, then traced experiment: bitwise-equal outputs and per-layer metrics."""
    expected = load_reference(workload.name, variant)
    setup_u, exp_u, ctx_u, out_u = one_rep(workload, variant)
    worker_dir = OUT / "trace-workers"
    if worker_dir.exists():
        for f in worker_dir.iterdir():
            f.unlink()
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(worker_dir=str(worker_dir))
    patches = tracing.Instrumentation(tracer)
    try:
        setup_t, exp_t, ctx_t, out_t = one_rep(workload, variant, tracer)
    finally:
        patches.restore()
    tracer.merge_worker_files()

    drift_ok = all(drift < tracing.CONSERVATION_TOL for _, drift in tracer.checks)
    failed = failed_ops(out_u, ctx_u, expected) | failed_ops(out_t, ctx_t, expected, drift_ok)
    if out_t.to_json() != out_u.to_json():  # tracing must not perturb the simulation
        failed |= set(out_t.ops)
    traced_wall = exp_t + (0.0 if workload.setup_in_experiment else setup_t)
    untraced_wall = exp_u + (0.0 if workload.setup_in_experiment else setup_u)
    info = {
        "weights": ctx_t["weights"],
        "dim": workload.shape["dim"],
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "jobs": workload.processes if workload.setup_in_experiment else 0,
        "sweep_wall_s": ctx_u.get("sweep_wall_s", 0.0),
        "seed_wall_seconds": ctx_u.get("seed_wall_seconds", []),
    }
    metrics = tracing.layer_metrics(tracer, info)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "spans": tracer.spans,
        "checks": tracer.checks,
        "layer_shares": tracing.layer_shares(tracer, traced_wall * workload.processes),
    }))
    attempted = len(out_u.ops) + len(out_t.ops)
    return attempted, len(failed), {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def run_all(args):
    """Run every workload in its own process and print a table of their metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        print(f"{name:<18} {'failed_frac':<30} {frac:>14.6g} ratio")
        for metric, m in res["metrics"].items():
            print(f"{name:<18} {metric:<30} {m['value']:>14.6g} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_s = import_simulator()
    workload = workloads_mod.all_workloads(OUT, NPROC)[args.workload]
    variant = args.seed % workloads_mod.VARIANTS
    if args.trace:
        attempted, failed, metrics = trace(workload, variant, args.seed)
    else:
        attempted, failed, metrics = measure(workload, variant, args.seconds, import_s)
    print(f"{workload.name}: instance {variant}, {attempted} operations, "
          f"failed_frac = {failed / attempted:.6g}")
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
