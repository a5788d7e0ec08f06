"""The benchmark's workloads: each is a set-up plus an experiment with checked outputs.

A workload seed selects one of ``VARIANTS`` instances (``seed % VARIANTS``).
The problem seed, the topology seed and the run seeds all derive from that
instance, and ``reference.json`` holds the outputs of every instance as
recorded at the commit that defined the benchmark.

The simulator is driven only through its public API: ``run``,
``collect_delta``/``compare_covariance``, the click ``main`` (for ``sweep``),
``build_weight_pair`` and the problem factories.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

import numpy as np

import dscosim.algorithms as algorithms
import dscosim.normality as normality
import dscosim.topology as topology
from dscosim.cli import main as cli_main
from dscosim.config import load_config
from dscosim.errors import DivergenceError
from dscosim.problems import make_quadratic
from dscosim.records import rows_from_csv
from dscosim.schedules import Polynomial, StepSchedule
from tracing import OracleProxy, ScheduleProxy

VARIANTS = 10
STOCHASTIC_TOL = 1e-12
PERRON_TOL = 1e-9


def run_seed(variant, j):
    return 100 * variant + j


class Outputs:
    """Checked outputs of one experiment.

    ``ops`` maps each operation (one seed-run or one replication) to its
    output; ``summaries`` maps each whole-experiment output to its value and
    the operations it was computed from, which all fail if it mismatches.
    """

    def __init__(self):
        self.ops = {}
        self.summaries = {}

    def to_json(self):
        return {"ops": self.ops, "summaries": {k: v for k, (v, _) in self.summaries.items()}}

    def failed(self, expected):
        bad = {k for k, v in self.ops.items() if v is None or v != expected["ops"].get(k)}
        for key, (value, covers) in self.summaries.items():
            if value is None or value != expected["summaries"].get(key):
                bad.update(covers)
        return bad


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def rows_output(rows):
    """Final metric row, plus a digest of every row so that all of them are checked."""
    return [rows[-1].values(), sha256(repr([r.values() for r in rows]).encode())]


def weight_pair_ok(wp):
    """A row-stochastic, B column-stochastic, u^T 1 = 1^T v = n."""
    n = wp.n
    ones = np.ones(n)
    return bool(
        np.max(np.abs(wp.A @ ones - 1.0)) < STOCHASTIC_TOL
        and np.max(np.abs(ones @ wp.B - 1.0)) < STOCHASTIC_TOL
        and abs(wp.u.sum() - n) < PERRON_TOL * n
        and abs(wp.v.sum() - n) < PERRON_TOL * n
    )


def strongly_convex_schedule(problem, wp):
    """The schedule of the strongly convex acceptance fixture.

    a just above 2n / (u'v mu), and beta*a = 1 + b so that 1 < beta*a <= 1 + b.
    """
    a = 1.05 * 2 * problem.n / ((wp.u @ wp.v) * problem.strong_convexity)
    L = float(np.linalg.eigvalsh(problem.normality_data().H).max()) / problem.n
    b = 2.0 * a * L
    return StepSchedule(Polynomial(a, b, 1.0), beta=(1 + b) / a)


class QuadraticRuns:
    """AB-DSCSC seed-runs through ``run()``, serially, on one quadratic instance."""

    setup_in_experiment = False
    processes = 1

    def __init__(self, name, n, extra, d, K, seeds, stride):
        self.name = name
        self.n, self.extra, self.d, self.K, self.seeds, self.stride = n, extra, d, K, seeds, stride
        self.rounds = K * seeds
        self.shape = {
            "problem": "quadratic", "agents": n, "dim": d, "topology": f"ring + {extra} edges",
            "algorithm": "ab-dscsc", "iterations": K, "seeds_per_experiment": seeds,
            "metric_stride": stride, "schedule": "strongly convex fixture",
        }

    def setup(self, variant):
        problem = make_quadratic(self.n, self.d, variant, noise_inner=0.1, noise_outer=0.1)
        graph = topology.generate_ring_plus_random(self.n, self.extra, variant)
        wp = topology.build_weight_pair(graph, graph)
        schedule = strongly_convex_schedule(problem, wp)
        problem.optimum()
        return {"variant": variant, "problem": problem, "weights": wp, "schedule": schedule}

    def experiment(self, ctx, tracer=None):
        out = Outputs()
        for j in range(self.seeds):
            seed = run_seed(ctx["variant"], j)
            try:
                record = algorithms.run(
                    "ab-dscsc", ctx["problem"], ctx["schedule"], self.K,
                    weights=ctx["weights"], seed=seed, metric_stride=self.stride,
                )
                out.ops[f"seed{seed}"] = rows_output(record.rows)
            except DivergenceError:
                out.ops[f"seed{seed}"] = None
        return out


class CovarianceStudy:
    """``collect_delta`` replications on a 3-agent quadratic, then ``compare_covariance``."""

    setup_in_experiment = False
    processes = 1

    def __init__(self, replications, k):
        self.name = "covariance-study"
        self.replications, self.k = replications, k
        self.rounds = replications * (k - 1)
        self.shape = {
            "problem": "quadratic", "agents": 3, "dim": 2, "topology": "ring + 1 edge",
            "algorithm": "ab-dscsc (collect_delta)", "replications": replications,
            "normality_k": k, "schedule": "Polynomial(0.5, 5.0, 0.7), beta 1.0 proportional",
        }

    def setup(self, variant):
        problem = make_quadratic(3, 2, variant, noise_inner=0.2, noise_outer=0.2)
        graph = topology.generate_ring_plus_random(3, 1, variant)
        wp = topology.build_weight_pair(graph, graph)
        schedule = StepSchedule(Polynomial(0.5, 5.0, 0.7), beta=1.0)
        problem.optimum()
        theory = normality.theoretical_covariance(problem)
        return {"variant": variant, "problem": problem, "weights": wp, "schedule": schedule,
                "theory": theory}

    def experiment(self, ctx, tracer=None):
        problem, schedule = ctx["problem"], ctx["schedule"]
        base = run_seed(ctx["variant"], 0)
        keys = [f"seed{base + r}" for r in range(self.replications)]
        out = Outputs()
        args = (self.replications, problem, ctx["weights"], schedule, self.k)
        try:
            if tracer is None:
                samples = normality.collect_delta(*args, agent=1, base_seed=base)
                report = normality.compare_covariance(samples, ctx["theory"])
            else:
                tracer.run_id = base - 1
                args = (self.replications, OracleProxy(problem, tracer), ctx["weights"],
                        ScheduleProxy(schedule, tracer), self.k)
                samples = tracer.call("normality.collect_delta", normality.collect_delta,
                                      *args, agent=1, base_seed=base)
                tracer.end_run()
                report = tracer.call("normality.compare_covariance", normality.compare_covariance,
                                     samples, ctx["theory"])
        except DivergenceError:
            out.ops = dict.fromkeys(keys)
            return out
        for s in samples:
            out.ops[f"seed{s.seed}"] = [s.agent_index, s.k, *s.top.tolist(), *s.bottom.tolist()]
        out.summaries["rel_frobenius_error"] = (report.rel_frobenius_error, keys)
        return out


LOGISTIC_CONFIG = """\
problem = logistic
agents = 10
samples_per_agent = 20
dim = 10
feature_scale = 4.0
label_noise = 4.0
topology_extra = 5
problem_seed = {variant}
topology_seed = {variant}
alpha_a = 0.01
alpha_exponent = 0.55
beta = 0.8
beta_rule = polynomial
beta_exponent = 0.6
eta = 0.02
gamma = 1.25
algorithm = {algorithm}
iterations = {iterations}
metric_stride = {stride}
seeds = {base}:{seeds}
"""


class LogisticSweep:
    """``dscosim sweep --jobs <nproc>`` on the logistic comparison, once per method."""

    setup_in_experiment = True

    def __init__(self, out_dir, jobs, seeds, K_ab, K_gt):
        self.name = "logistic-sweep"
        self.out_dir = Path(out_dir)
        self.seeds, self.K_ab, self.K_gt = seeds, K_ab, K_gt
        self.processes = jobs
        self.rounds = seeds * (K_ab + K_gt)
        self.methods = (("ab-dscsc", K_ab, 1), ("gt-dscgd", K_gt, 1000))
        self.shape = {
            "problem": "logistic", "agents": 10, "samples_per_agent": 20, "dim": 10,
            "feature_scale": 4.0, "label_noise": 4.0, "topology": "ring + 5 edges",
            "sweeps": [
                {"algorithm": a, "iterations": k, "metric_stride": s, "seeds": seeds}
                for a, k, s in self.methods
            ],
            "jobs": "nproc",
        }

    def setup(self, variant):
        """Write the configs, then do what each worker does before its first round."""
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        configs = {}
        for algorithm, K, stride in self.methods:
            path = self.out_dir / f"{algorithm}.cfg"
            path.write_text(LOGISTIC_CONFIG.format(
                variant=variant, algorithm=algorithm, iterations=K, stride=stride,
                base=run_seed(variant, 0), seeds=self.seeds,
            ))
            configs[algorithm] = path
        cfg = load_config(configs["ab-dscsc"])
        problem = cfg.build_problem()
        wp = cfg.build_weights()
        cfg.build_schedule()
        problem.optimum()
        return {"variant": variant, "configs": configs, "weights": wp}

    def sweep(self, algorithm, ctx, jobs):
        out = self.out_dir / f"{algorithm}-jobs{jobs}"
        args = ["sweep", "--config", str(ctx["configs"][algorithm]), "--jobs", str(jobs),
                "--out", str(out)]
        try:
            cli_main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
        return code, out

    def experiment(self, ctx, tracer=None):
        out = Outputs()
        ctx["sweep_wall_s"], ctx["seed_wall_seconds"] = 0.0, []
        for algorithm, _, _ in self.methods:
            start = time.perf_counter()
            code, out_path = self.sweep(algorithm, ctx, self.processes)
            ctx["sweep_wall_s"] += time.perf_counter() - start
            keys = []
            for j in range(self.seeds):
                seed = run_seed(ctx["variant"], j)
                key = f"{algorithm}/seed{seed}"
                keys.append(key)
                csv = out_path / f"run_{algorithm}_seed{seed}.csv"
                if code != 0 or not csv.exists():
                    out.ops[key] = None
                    continue
                text = csv.read_text()
                out.ops[key] = rows_output(rows_from_csv(text))
                wall = [ln for ln in text.splitlines() if ln.startswith("# wall_seconds = ")]
                ctx["seed_wall_seconds"].append(float(wall[0].split("=")[1]))
            agg = out_path / "aggregate.csv"
            digest = sha256(agg.read_bytes()) if code == 0 and agg.exists() else None
            out.summaries[f"{algorithm}/aggregate_sha256"] = (digest, keys)
        return out


def all_workloads(out_dir, nproc):
    return {
        w.name: w
        for w in (
            QuadraticRuns(
                "convex-fixture", n=10, extra=5, d=5, K=10_000, seeds=2, stride=100,
            ),
            QuadraticRuns(
                "large-network", n=500, extra=500, d=5, K=500, seeds=1, stride=100,
            ),
            CovarianceStudy(replications=50, k=400),
            LogisticSweep(Path(out_dir) / "logistic-sweep", jobs=nproc, seeds=4, K_ab=1000, K_gt=5000),
        )
    }
