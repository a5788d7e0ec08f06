"""Span tracing from outside the simulator, and the per-layer metrics built on it.

Nothing under ``src/`` is edited.  A traced run gets its spans from

* a forwarding proxy around the problem oracle and one around the schedule,
  both handed to ``run``/``collect_delta`` in place of the real objects;
* wrappers installed at runtime around public functions that the simulator
  looks up in its module namespaces at call time (``collect_row``, the step
  functions, ``DirectedGraph.roots``, the ``records`` functions, ...).

Every wrapper only forwards its arguments and return value, so a traced run
consumes the same draws in the same order as an untraced one.

A span is ``(pid, id, name, start, end, parent, run_id)``.  Spans stay in
memory and are written when the benchmark ends.  Sweep workers are forked
from the traced process, inherit the wrappers, and append their spans to a
per-process file at the end of each seed-run.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

ORACLE_METHODS = (
    "sample_inner_pair_all",
    "sample_grad_all",
    "true_g",
    "true_h",
    "true_grad_h",
    "optimum",
    "true_inner_jacobian_t",
    "normality_data",
)
SAMPLING = ("problems.sample_inner_pair_all", "problems.sample_grad_all")
STEPS = ("algorithms.ab_dscsc_step", "algorithms.dscgd_step")
CONSERVATION_TOL = 1e-10


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, worker_dir=None):
        self.main_pid = os.getpid()
        self.worker_dir = worker_dir
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.run_id = None
        self.last_state = None
        self.checks = []  # (run_id, relative tracker drift) of final states
        self.csv_bytes = 0

    def in_process(self):
        """Start afresh in a forked worker, which inherits the parent's spans."""
        if os.getpid() != self.pid:
            self._reset()

    def call(self, name, fn, *args, **kwargs):
        self.in_process()
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((self.pid, sid, name, start, end, parent, self.run_id))

    def end_run(self):
        """Check tracker conservation on the last state of the run that just ended."""
        state, self.last_state = self.last_state, None
        y = getattr(state, "y", None)
        if y is None:
            return
        h = state.h_prev if hasattr(state, "h_prev") else state.g_prev
        total_h = h.sum(axis=0)
        drift = np.linalg.norm(y.sum(axis=0) - total_h) / max(np.linalg.norm(total_h), 1e-30)
        self.checks.append((self.run_id, float(drift)))

    def flush_worker(self):
        """Append this worker's spans and checks to its own file and clear them."""
        path = os.path.join(self.worker_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(["span", *span]) + "\n")
            for check in self.checks:
                fh.write(json.dumps(["check", *check]) + "\n")
            fh.write(json.dumps(["csv_bytes", self.csv_bytes]) + "\n")
        self.spans, self.checks, self.csv_bytes = [], [], 0

    def merge_worker_files(self):
        for fname in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, fname), encoding="utf-8") as fh:
                for line in fh:
                    kind, *rest = json.loads(line)
                    if kind == "span":
                        self.spans.append(tuple(rest))
                    elif kind == "check":
                        self.checks.append(tuple(rest))
                    else:
                        self.csv_bytes += rest[0]


class OracleProxy:
    """Forwards every attribute to the wrapped oracle; times the oracle methods."""

    def __init__(self, inner, tracer):
        self._inner = inner
        for name in ORACLE_METHODS:
            setattr(self, name, functools.partial(tracer.call, f"problems.{name}", getattr(inner, name)))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ScheduleProxy:
    """Forwards every attribute to the wrapped schedule; times alpha and beta_of."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self.alpha = functools.partial(tracer.call, "schedules.alpha", inner.alpha)
        self.beta_of = functools.partial(tracer.call, "schedules.beta_of", inner.beta_of)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Instrumentation:
    """Installs timing wrappers into the simulator's modules; undone by ``restore``."""

    def __init__(self, tracer):
        import dscosim.algorithms as algorithms
        import dscosim.cli as cli
        import dscosim.config as config
        import dscosim.normality as normality
        import dscosim.topology as topology

        self.saved = []
        t = tracer

        def timed(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return t.call(name, fn, *args, **kwargs)

            return wrapper

        def step_wrapper(name, fn):
            @functools.wraps(fn)
            def step(*args, **kwargs):
                t.last_state = t.call(name, fn, *args, **kwargs)
                return t.last_state

            return step

        def run_wrapper(fn):
            @functools.wraps(fn)
            def traced_run(algorithm, problem, schedule, K, **kwargs):
                t.in_process()
                t.run_id = kwargs.get("seed", 0)
                problem = problem if isinstance(problem, OracleProxy) else OracleProxy(problem, t)
                schedule = schedule if isinstance(schedule, ScheduleProxy) else ScheduleProxy(schedule, t)
                try:
                    return t.call("algorithms.run", fn, algorithm, problem, schedule, K, **kwargs)
                finally:
                    t.end_run()

            return traced_run

        def replication_init(fn):
            @functools.wraps(fn)
            def init(*args, **kwargs):
                t.end_run()
                t.run_id = t.run_id + 1 if isinstance(t.run_id, int) else 0
                return t.call("algorithms.ab_dscsc_init", fn, *args, **kwargs)

            return init

        def to_csv(fn):
            @functools.wraps(fn)
            def record_to_csv(record):
                text = t.call("records.to_csv", fn, record)
                t.csv_bytes += len(text.encode())
                if os.getpid() != t.main_pid:
                    t.flush_worker()
                return text

            return record_to_csv

        patches = [
            (algorithms, "run", run_wrapper(algorithms.run)),
            (cli, "run", run_wrapper(cli.run)),
            (algorithms, "ab_dscsc_step", step_wrapper("algorithms.ab_dscsc_step", algorithms.ab_dscsc_step)),
            (algorithms, "dscgd_step", step_wrapper("algorithms.dscgd_step", algorithms.dscgd_step)),
            (normality, "ab_dscsc_step", step_wrapper("algorithms.ab_dscsc_step", normality.ab_dscsc_step)),
            (normality, "ab_dscsc_init", replication_init(normality.ab_dscsc_init)),
            (algorithms, "collect_row", timed("metrics.collect_row", algorithms.collect_row)),
            (algorithms, "underlying_metropolis", timed("topology.metropolis", algorithms.underlying_metropolis)),
            (topology.DirectedGraph, "roots", timed("topology.roots", topology.DirectedGraph.roots)),
            (topology, "contraction_factor", timed("topology.contraction_factor", topology.contraction_factor)),
            (topology, "build_weight_pair", timed("topology.build_weight_pair", topology.build_weight_pair)),
            (config, "build_weight_pair", timed("topology.build_weight_pair", config.build_weight_pair)),
            (topology, "generate_ring_plus_random", timed("topology.generate", topology.generate_ring_plus_random)),
            (config, "generate_ring_plus_random", timed("topology.generate", config.generate_ring_plus_random)),
            (cli, "record_to_csv", to_csv(cli.record_to_csv)),
            (cli, "aggregate_mean_rows", timed("records.aggregate", cli.aggregate_mean_rows)),
        ]
        for owner, attr, wrapper in patches:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved = []


# -- per-layer metrics --------------------------------------------------------


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, info):
    """Per-layer metrics from the spans of one traced experiment.

    ``info`` carries what the spans cannot see: the experiment's wall time
    traced and untraced, the weight pair, and the sweep timings.
    """
    spans = tracer.spans
    key = {(s[0], s[1]): s for s in spans}
    dur = {(s[0], s[1]): s[4] - s[3] for s in spans}
    children = {}
    for s in spans:
        if s[5] is not None:
            children.setdefault((s[0], s[5]), []).append((s[0], s[1]))

    def self_time(k):
        return dur[k] - sum(dur[c] for c in children.get(k, ()))

    def parent_name(s):
        parent = key.get((s[0], s[5])) if s[5] is not None else None
        return parent[2] if parent else None

    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def count(name, under=None):
        return sum(1 for s in by_name.get(name, ()) if under is None or parent_name(s) in under)

    steps = [s for name in STEPS for s in by_name.get(name, ())]
    n_steps = len(steps)
    rows = count("metrics.collect_row")
    weight_builds = count("topology.build_weight_pair")
    in_rounds = set(STEPS)
    sched_calls = count("schedules.alpha") + count("schedules.beta_of")
    sched_time = sum(durations("schedules.alpha")) + sum(durations("schedules.beta_of"))

    optimum_per_run = {}
    for s in by_name.get("problems.optimum", ()):
        k = (s[0], s[6])
        optimum_per_run[k] = max(optimum_per_run.get(k, 0.0), s[4] - s[3])

    delta = by_name.get("normality.collect_delta", [])
    normality_steps = sum(
        1 for s in steps if parent_name(s) == "normality.collect_delta"
    )
    normality_self = sum(self_time((s[0], s[1])) for s in delta)
    true_g_outside_rows = sum(
        1 for s in by_name.get("problems.true_g", ()) if parent_name(s) != "metrics.collect_row"
    )

    row_time = sum(durations("metrics.collect_row"))
    run_time = sum(durations("algorithms.run"))

    A, B = info["weights"].A, info["weights"].B
    n, d = A.shape[0], info["dim"]

    def stored_bytes(M):
        if hasattr(M, "nnz"):
            return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
        return M.nbytes

    def nnz(M):
        return M.nnz if hasattr(M, "nnz") else int(np.count_nonzero(M))

    jobs = info.get("jobs", 0)
    sweep_wall = info.get("sweep_wall_s", 0.0)
    seed_walls = info.get("seed_wall_seconds", [])
    return {
        "topology.generate_s": _median(durations("topology.generate")),
        "topology.roots_s": _median(durations("topology.roots")),
        "topology.roots_calls": count("topology.roots") / weight_builds if weight_builds else 0.0,
        "topology.build_weight_pair_s": _median(durations("topology.build_weight_pair")),
        "topology.contraction_factor_s": _median(durations("topology.contraction_factor")),
        "topology.metropolis_s": _median(durations("topology.metropolis")),
        "algorithms.step_us_p50": 1e6 * _pct([s[4] - s[3] for s in steps], 50),
        "algorithms.step_us_p99": 1e6 * _pct([s[4] - s[3] for s in steps], 99),
        "algorithms.step_self_us_p50": 1e6 * _median([self_time((s[0], s[1])) for s in steps]),
        "algorithms.mix_bytes_per_round": float(stored_bytes(A) + stored_bytes(B) + 4 * n * d * 8),
        "algorithms.mix_useful_frac": (nnz(A) + nnz(B)) / (2.0 * n * n),
        "problems.inner_pair_us_p50": 1e6 * _median(durations("problems.sample_inner_pair_all")),
        "problems.grad_us_p50": 1e6 * _median(durations("problems.sample_grad_all")),
        "problems.calls_per_round": (
            sum(count(name, in_rounds) for name in SAMPLING) / n_steps if n_steps else 0.0
        ),
        "problems.true_h_calls_per_row": count("problems.true_h", {"metrics.collect_row"}) / rows if rows else 0.0,
        "problems.optimum_calls_per_row": (
            count("problems.optimum", {"metrics.collect_row"}) / rows if rows else 0.0
        ),
        "problems.true_g_calls_per_step": true_g_outside_rows / n_steps if n_steps else 0.0,
        "problems.optimum_s": _median(list(optimum_per_run.values())),
        "schedules.calls_per_round": sched_calls / n_steps if n_steps else 0.0,
        "schedules.us_per_round": 1e6 * sched_time / n_steps if n_steps else 0.0,
        "metrics.collect_row_us_p50": 1e6 * _pct(durations("metrics.collect_row"), 50),
        "metrics.collect_row_us_p99": 1e6 * _pct(durations("metrics.collect_row"), 99),
        "metrics.rows": float(rows),
        "metrics.share": row_time / run_time if run_time else 0.0,
        "normality.self_us_per_step": 1e6 * normality_self / normality_steps if normality_steps else 0.0,
        "normality.compare_s": _median(durations("normality.compare_covariance")),
        "records.to_csv_s": _median(durations("records.to_csv")),
        "records.bytes_written": float(tracer.csv_bytes),
        "records.aggregate_s": _median(durations("records.aggregate")),
        "cli.parallel_eff": sum(seed_walls) / (jobs * sweep_wall) if jobs else 0.0,
        "cli.seed_overhead_s": (
            (jobs * sweep_wall - sum(seed_walls)) / len(seed_walls) if seed_walls else 0.0
        ),
        "trace.overhead_frac": info["traced_wall_s"] / info["untraced_wall_s"] - 1.0,
    }


def layer_shares(tracer, wall_s):
    """Self time of each layer as a share of the traced experiment's wall time."""
    dur = {(s[0], s[1]): s[4] - s[3] for s in tracer.spans}
    covered = {}
    for s in tracer.spans:
        if s[5] is not None:
            covered[(s[0], s[5])] = covered.get((s[0], s[5]), 0.0) + s[4] - s[3]
    shares = {}
    for s in tracer.spans:
        layer = s[2].split(".")[0]
        k = (s[0], s[1])
        shares[layer] = shares.get(layer, 0.0) + dur[k] - covered.get(k, 0.0)
    return {layer: t / wall_s for layer, t in sorted(shares.items())}
