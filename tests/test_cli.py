import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from click.testing import CliRunner

import dscosim
import dscosim.cli as cli
import dscosim.topology as topology
from dscosim.cli import main
from dscosim.config import ExperimentConfig, load_config, parse_config_text
from dscosim.errors import ConfigurationError
from dscosim.records import rows_from_csv


@pytest.fixture
def runner():
    return CliRunner()


BASE = """
problem = quadratic
agents = 3
dim = 2
topology_extra = 1
algorithm = ab-dscsc
alpha_a = 0.05
alpha_exponent = 0.6
beta = 1.0
iterations = 50
metric_stride = 10
seeds = 0:2
"""


def write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_comments_blanks_and_types(self):
        cfg = parse_config_text("# a comment\n\nagents = 4  # trailing\ndim = 3\n")
        assert cfg["agents"] == 4 and cfg["dim"] == 3
        assert isinstance(cfg["alpha_a"], float)

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config_text("stepsize = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config_text("agents = 2\nagents = 3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config_text("agents 2\n")

    def test_seed_list_forms(self):
        assert ExperimentConfig({"seeds": "5:3"}).seed_list() == [5, 6, 7]
        assert ExperimentConfig({"seeds": "4,9,1"}).seed_list() == [4, 9, 1]
        with pytest.raises(ConfigurationError):
            ExperimentConfig({"seeds": "abc"})

    def test_builders(self, tmp_path):
        cfg = parse_config_text(BASE)
        prob = cfg.build_problem()
        assert prob.n == 3 and prob.d == 2
        wp = cfg.build_weights()
        assert wp.A.shape == (3, 3)
        sched = cfg.build_schedule()
        assert sched.alpha(1) == pytest.approx(0.05)

    def test_invalid_values_rejected(self):
        for bad in [
            {"algorithm": "sgd"},
            {"problem": "cubic"},
            {"iterations": 0},
            {"beta_rule": "weird"},
            {"beta_rule": "constant", "beta": 2.0},
            {"agents": "2.5"},
            {"agents": "x"},
            {"eta": "abc"},
            {"seeds": "-1"},
            {"seeds": "-3:2"},
            {"seeds": str(2**64)},
            {"seeds": ","},
            {"seeds": "4:0"},
            {"problem_seed": -2},
            {"topology_seed": -1},
            {"dim": 0},
            {"tasks_per_agent": 0},
            {"inner_dim": -1},
            {"fixed_inner_pool": -1},
            {"agents": 2.5},
            {"iterations": 1e3},
            {"dim": 2.0},
            {"agents": np.float64(3)},
            {"beta": 0.0},
            {"eta": 0.0},
            {"eta": -0.5},
            {"gamma": 0.0},
            {"gamma": -2.0},
        ]:
            with pytest.raises(ConfigurationError):
                ExperimentConfig(bad)

    def test_non_number_names_key_and_value(self):
        with pytest.raises(ConfigurationError, match="agents must be int, got '2.5'"):
            ExperimentConfig({"agents": "2.5"})
        with pytest.raises(ConfigurationError, match="eta must be float, got 'abc'"):
            ExperimentConfig({"eta": "abc"})
        with pytest.raises(ConfigurationError, match="agents must be int, got 2.5"):
            ExperimentConfig({"agents": 2.5})
        for value in (float("nan"), float("inf"), "-inf", np.nan):
            with pytest.raises(ConfigurationError, match="noise_outer must be finite"):
                ExperimentConfig({"noise_outer": value})
        cfg = ExperimentConfig({"agents": np.int64(3), "dim": "4", "eta": 1})
        assert (cfg["agents"], cfg["dim"], cfg["eta"]) == (3, 4, 1.0)


class TestRunCommand:
    def test_writes_per_seed_and_aggregate(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        for s in (0, 1):
            text = (out / f"run_ab-dscsc_seed{s}.csv").read_text()
            rows = rows_from_csv(text)
            assert [r.k for r in rows] == [1, 11, 21, 31, 41, 51]
            assert "# agents = 3" in text
        assert (out / "aggregate.csv").exists()

    def test_seed_override(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        out = tmp_path / "o2"
        res = runner.invoke(main, ["run", "--config", cfg, "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0
        assert (out / "run_ab-dscsc_seed7.csv").exists()
        assert not (out / "run_ab-dscsc_seed0.csv").exists()

    def test_separable_logistic_data_exit_2(self, runner, tmp_path):
        text = "problem = logistic\nagents = 4\nsamples_per_agent = 6\ndim = 3\nproblem_seed = 2\niterations = 5\n"
        res = runner.invoke(main, ["run", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "linearly separable" in res.output

    def test_config_error_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, BASE + "algorithm = sgd\n".replace("algorithm", "problem"))
        res = runner.invoke(main, ["run", "--config", cfg])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "line",
        [
            "agents = 2.5",
            "agents = x",
            "eta = abc",
            "seeds = -1",
            "seeds = ,",
            "problem_seed = -2",
            "topology_seed = -1",
            "dim = 0",
            "problem = maml\ntasks_per_agent = 0",
            "problem = sigmoid\ninner_dim = -1",
            "problem = logistic\nfixed_inner_pool = -1",
            "algorithm = gt-dscgd\neta = -0.5",
            "algorithm = gp-dscgd\ngamma = -2",
            "eta = 0",
            "seeds = 3,3,4",
        ],
    )
    def test_bad_value_exit_2(self, runner, tmp_path, line):
        keys = {ln.split("=")[0].strip() for ln in line.splitlines()}
        base = [ln for ln in BASE.splitlines() if ln.split("=")[0].strip() not in keys]
        cfg = write(tmp_path, "\n".join(base + [line]) + "\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "must" in res.output and "duplicate" not in res.output
        assert not (out / "aggregate.csv").exists()

    @pytest.mark.parametrize("line", ["noise_inner = inf", "alpha_a = nan", "eta = -inf"])
    def test_non_finite_float_exit_2(self, runner, tmp_path, line):
        key = line.split("=")[0].strip()
        base = [ln for ln in BASE.splitlines() if ln.split("=")[0].strip() != key]
        cfg = write(tmp_path, "\n".join(base + [line]) + "\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert f"{key} must be finite" in res.output
        assert not out.exists()

    def test_negative_seed_option_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--config", write(tmp_path, BASE), "--seed", "-1"])
        assert res.exit_code == 2

    def test_divergence_exit_3_with_partial(self, runner, tmp_path):
        cfg = write(tmp_path, BASE.replace("alpha_a = 0.05", "alpha_a = 100.0"))
        out = tmp_path / "o3"
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 3
        # every seed runs, and each diverged one leaves its own partial record
        for seed in (0, 1):
            partial = out / f"run_ab-dscsc_seed{seed}_partial.csv"
            assert "# status = diverged@" in partial.read_text()
        assert not (out / "aggregate.csv").exists()

    def run_rows(self, runner, tmp_path, text):
        """Run ``text`` from the CLI; each seed's rows, after checking exit code 0."""
        out = tmp_path / "o"
        res = runner.invoke(main, ["run", "--config", write(tmp_path, text), "--out", str(out)])
        assert res.exit_code == 0, res.output
        return [rows_from_csv(p.read_text()) for p in sorted(out.glob("run_*.csv"))]

    SHORT = "agents = 3\niterations = 20\nmetric_stride = 10\nseeds = 0:2\n"

    def test_sigmoid_with_its_own_inner_dim(self, runner, tmp_path):
        text = "problem = sigmoid\ndim = 3\ninner_dim = 2\ntopology_extra = 1\n"
        for rows in self.run_rows(runner, tmp_path, text + self.SHORT):
            assert [r.k for r in rows] == [1, 11, 21]
            for r in rows:  # no optimum: the gap and residual cells are empty, the rest are not
                assert r.opt_gap_avg is None and r.residual_avg is None
                assert None not in (r.consensus_err, r.tracking_err, r.grad_norm_sq)

    def test_maml_has_no_closed_form_columns(self, runner, tmp_path):
        text = "problem = maml\ntasks_per_agent = 20\nhidden_width = 2\nalpha_a = 0.001\n"
        for rows in self.run_rows(runner, tmp_path, text + self.SHORT):
            assert [r.k for r in rows] == [1, 11, 21]
            for r in rows:
                assert r.consensus_err is not None
                assert (r.tracking_err, r.grad_norm_sq, r.opt_gap_avg, r.residual_avg) == (None,) * 4

    def test_constant_sqrtk_schedule(self, runner, tmp_path):
        text = BASE.replace("alpha_exponent = 0.6", "alpha_schedule = constant-sqrtk")
        for rows in self.run_rows(runner, tmp_path, text):
            assert {r.alpha_k for r in rows} == {0.05 / 50**0.5}  # a / sqrt(K), K = 50 iterations

    def test_unknown_alpha_schedule_exit_2(self, runner, tmp_path):
        out = tmp_path / "o"
        cfg = write(tmp_path, BASE + "alpha_schedule = cosine\n")
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2
        assert "unknown alpha schedule 'cosine'" in res.output and not out.exists()

    def test_determinism_across_invocations(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            runner.invoke(main, ["run", "--config", cfg, "--seed", "3", "--out", str(out)])
            text = (out / "run_ab-dscsc_seed3.csv").read_text()
            # drop the wall-clock header line before comparing
            texts.append("\n".join(l for l in text.splitlines() if "wall_seconds" not in l))
        assert texts[0] == texts[1]


# of seeds 1 .. 5, seeds 2, 3 and 5 diverge, at k = 15, 16 and 13; seeds 1 and 4 complete
SOME_DIVERGE = BASE.replace("alpha_a = 0.05", "alpha_a = 1.2").replace("seeds = 0:2", "seeds = 1:5")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "2"]])
def test_some_seeds_diverge_each_writes_its_one_seed_csv(runner, tmp_path, command):
    cfg = write(tmp_path, SOME_DIVERGE)
    out = tmp_path / "o"
    res = runner.invoke(main, [*command, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 3
    # the first diverged seed in seed order, not the first to diverge (seed 5, at k=13)
    error = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
    assert error == ["error: gradient tracker non-finite or beyond 1e+06 at k=15, agent 2, seed 2"]
    conf = load_config(cfg)
    written = set()
    for seed in conf.seed_list():
        try:
            record, name = cli.run(
                conf["algorithm"], conf.build_problem(), conf.build_schedule(), conf["iterations"],
                weights=conf.build_weights(), seed=seed, metric_stride=conf["metric_stride"],
                config=conf.values,
            ), f"run_ab-dscsc_seed{seed}.csv"
        except cli.DivergenceError as err:
            record, name = err.record, f"run_ab-dscsc_seed{seed}_partial.csv"
        text = (out / name).read_text()
        assert [l for l in text.splitlines() if "wall_seconds" not in l] == [
            l for l in cli.record_to_csv(record).splitlines() if "wall_seconds" not in l
        ]
        written.add(name)
    assert {p.name for p in out.iterdir()} == written


class TestSweepCommand:
    def test_parallel_matches_serial(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        r1 = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", "1", "--out", str(out1)])
        r2 = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", "2", "--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ("run_ab-dscsc_seed0.csv", "run_ab-dscsc_seed1.csv", "aggregate.csv"):
            a = [l for l in (out1 / name).read_text().splitlines() if "wall_seconds" not in l]
            b = [l for l in (out2 / name).read_text().splitlines() if "wall_seconds" not in l]
            assert a == b

    def test_divergence_exit_3_with_partial(self, runner, tmp_path):
        cfg = write(tmp_path, BASE.replace("alpha_a = 0.05", "alpha_a = 100.0"))
        # every seed runs, and each diverged one leaves its own partial record
        for jobs in ("1", "2"):
            out = tmp_path / f"o3-jobs{jobs}"
            res = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", jobs, "--out", str(out)])
            assert res.exit_code == 3
            for seed in (0, 1):
                partial = out / f"run_ab-dscsc_seed{seed}_partial.csv"
                assert "# status = diverged@" in partial.read_text()

    def test_jobs_below_one_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        res = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", "0", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"]])
def test_config_too_large_for_memory_exit_2(runner, tmp_path, monkeypatch, command):
    # a real giant `dim` would first allocate gigabytes; the build raises as numpy would
    def build_problem(self):
        raise MemoryError("Unable to allocate 2.24 GiB for an array with shape (3, 100000000)")

    monkeypatch.setattr(ExperimentConfig, "build_problem", build_problem)
    cfg = write(tmp_path, BASE.replace("dim = 2", "dim = 100000000"))
    res = runner.invoke(main, [*command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert "do not fit in memory" in res.output and "Traceback" not in res.output


@pytest.mark.parametrize("command", [["run", "--out", "o"], ["validate-topology"]])
def test_perron_iteration_not_converging_exit_2(runner, tmp_path, monkeypatch, command):
    # a real ring of 500 agents takes the full 100,000 power iterations to fail
    monkeypatch.setattr(topology, "POWER_ITER_MAX", 3)
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, BASE.replace("agents = 3", "agents = 10"))
    res = runner.invoke(main, [command[0], "--config", cfg, *command[1:]])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("error:")]
    assert errors == ["error: Perron power iteration did not converge in 3 steps"]
    assert "Traceback" not in res.output


LOGISTIC = """
problem = logistic
agents = 5
dim = 4
samples_per_agent = 20
label_noise = 0.3
topology_extra = 3
iterations = 30
metric_stride = 10
seeds = 0:3
"""


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and runs each task in
    this process, as a single worker would."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for InProcessPool; returns the list of pool sizes made."""
    sizes = []
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        lambda **kwargs: InProcessPool(sizes, **kwargs),
    )
    return sizes


class TestSeedsShareOneInstance:
    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("build_problem", "build_weights", "build_schedule"):
            counted(ExperimentConfig, name)
        counted(scipy.optimize, "linprog")
        counted(scipy.optimize, "minimize")
        return counts

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "2"]])
    def test_one_build_and_one_solve_per_invocation(self, runner, tmp_path, counts, pool_sizes, command):
        cfg = write(tmp_path, LOGISTIC)
        res = runner.invoke(main, [*command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert len(list((tmp_path / "o").glob("run_ab-dscsc_seed*.csv"))) == 3
        assert counts == {
            "build_problem": 1, "build_weights": 1, "build_schedule": 1, "linprog": 1, "minimize": 1,
        }
        assert pool_sizes == ([2] if command[0] == "sweep" else [])

    @pytest.mark.parametrize("text", [BASE, LOGISTIC])
    def test_csvs_equal_a_fresh_build_per_seed(self, runner, tmp_path, text):
        cfg = write(tmp_path, text)
        res = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        conf = load_config(cfg)
        for seed in conf.seed_list():
            record = cli.run(
                conf["algorithm"], conf.build_problem(), conf.build_schedule(), conf["iterations"],
                weights=conf.build_weights(), seed=seed, metric_stride=conf["metric_stride"],
                eta=conf["eta"], gamma=conf["gamma"], config=conf.values,
            )
            text = (tmp_path / "o" / f"run_ab-dscsc_seed{seed}.csv").read_text()
            fresh = cli.record_to_csv(record)
            assert [l for l in text.splitlines() if "wall_seconds" not in l] == [
                l for l in fresh.splitlines() if "wall_seconds" not in l
            ]


class TestSweepWorkers:
    def test_pool_capped_at_seed_count(self, runner, tmp_path, pool_sizes):
        cfg = write(tmp_path, BASE.replace("seeds = 0:2", "seeds = 0:4"))
        res = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", "64", "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert pool_sizes == [4]

    def test_one_seed_runs_serially(self, runner, tmp_path, pool_sizes):
        cfg = write(tmp_path, BASE.replace("seeds = 0:2", "seeds = 7"))
        res = runner.invoke(main, ["sweep", "--config", cfg, "--jobs", "4", "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert pool_sizes == []
        assert (tmp_path / "o" / "run_ab-dscsc_seed7.csv").exists()


def test_cli_import_leaves_multiprocessing_unloaded():
    code = "import sys, dscosim.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dscosim.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_bits_do_not_depend_on_blas_thread_variables(tmp_path):
    # at n = 500 a multithreaded A @ x sums in another order than a one-thread one
    cfg = write(tmp_path, "\n".join([
        "problem = quadratic", "agents = 500", "dim = 5", "topology_extra = 500",
        "alpha_a = 0.5", "alpha_b = 5.0", "alpha_exponent = 1.0", "beta = 1.0",
        "iterations = 200", "metric_stride = 50", "seeds = 3", "",
    ]))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = str(Path(dscosim.__file__).resolve().parents[1])
    texts = []
    for name, env in (("unset", base), ("one", {**base, **dict.fromkeys(BLAS_THREAD_VARS, "1")})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "dscosim.cli", "run", "--config", cfg, "--out", str(out)],
            capture_output=True, check=True, env=env,
        )
        text = (out / "run_ab-dscsc_seed3.csv").read_text()
        texts.append([l for l in text.splitlines() if "wall_seconds" not in l])
    assert texts[0] == texts[1]


class TestValidateTopology:
    def test_ok_topology(self, runner, tmp_path):
        cfg = write(tmp_path, "agents = 3\n")
        res = runner.invoke(main, ["validate-topology", "--config", cfg])
        assert res.exit_code == 0
        assert "tau_A = 0.5" in res.output
        assert "roots = [1, 2, 3]" in res.output

    def test_single_agent(self, runner, tmp_path):
        cfg = write(tmp_path, "agents = 1\n")
        res = runner.invoke(main, ["validate-topology", "--config", cfg])
        assert res.exit_code == 0

    @staticmethod
    def mixes(output, n):
        """``{name: dim}`` of the output's mix lines, each checked to read dense or a split of n."""
        found = {}
        for line in output.splitlines():
            if not line.startswith("mix "):
                continue
            head, plan = line.split(": ", 1)
            _, name, _, _, dim = head.split()
            found[name] = int(dim)
            if plan == "dense":
                continue
            assert plan.startswith("split [")
            blocks = [tuple(map(int, b.strip("[)").split(", "))) for b in plan[len("split ") :].split(") [")]
            assert blocks[0][0] == 0 and blocks[-1][1] == n and len(blocks) > 1
            assert all(a < b for a, b in blocks) and all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
        return found

    def test_reports_each_mix_as_dense_or_split(self, runner, tmp_path):
        cfg = write(tmp_path, "agents = 500\ndim = 5\ntopology_extra = 500\n")
        res = runner.invoke(main, ["validate-topology", "--config", cfg])
        assert res.exit_code == 0
        assert self.mixes(res.output, 500) == {"A": 5, "B": 5}

    @pytest.mark.parametrize(
        "text, mixed",
        [
            # the MAML network's parameters: h² + 4h + 1 = 97 at hidden width 8, not `dim`
            ("problem = maml\nagents = 3\n", {"A": 97, "B": 97}),
            ("algorithm = gt-dscgd\nagents = 500\ndim = 5\ntopology_extra = 500\n", {"W": 5}),
            ("algorithm = gp-dscgd\nagents = 3\n", {"W": 2}),
            ("algorithm = scsc\nagents = 1\n", {}),
        ],
        ids=["maml", "gt-dscgd", "gp-dscgd", "scsc"],
    )
    def test_reports_the_matrices_the_algorithm_mixes_at_the_problem_dim(self, runner, tmp_path, text, mixed):
        cfg = write(tmp_path, text)
        res = runner.invoke(main, ["validate-topology", "--config", cfg])
        assert res.exit_code == 0, res.output
        assert self.mixes(res.output, load_config(cfg)["agents"]) == mixed


class TestNormalityCommand:
    CFG = """
problem = quadratic
agents = 2
dim = 2
noise_inner = 0.2
noise_outer = 0.2
alpha_a = 0.5
alpha_b = 5.0
alpha_exponent = 0.7
beta = 1.0
replications = 60
normality_k = 1500
agent = 1
threshold = 0.9
"""

    def test_runs_and_writes_reports(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG)
        out = tmp_path / "norm"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        samples = (out / "normality_samples.csv").read_text()
        assert samples.splitlines()[0].startswith("seed,agent,k,top_0")
        assert len(samples.strip().splitlines()) == 61
        report = (out / "normality_report.csv").read_text()
        assert "rel_frobenius_error," in report

    @pytest.mark.parametrize("seeds", ["0,5", "0:2"])
    def test_more_than_one_seed_exit_2(self, runner, tmp_path, seeds):
        # the study runs base ... base + R - 1, so a second seed has no run to go to
        cfg = write(tmp_path, self.CFG + f"seeds = {seeds}\n")
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "one base seed" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("seeds,base", [("7", 7), ("3:1", 3)])
    def test_one_base_seed_runs(self, runner, tmp_path, seeds, base):
        # a short study with a loose threshold: only the seeds of its rows are read
        cfg = self.CFG.replace("normality_k = 1500", "normality_k = 20")
        cfg = cfg.replace("threshold = 0.9", "threshold = 1e300")
        out = tmp_path / "norm"
        res = runner.invoke(
            main, ["normality", "--config", write(tmp_path, cfg + f"seeds = {seeds}\n"), "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        rows = (out / "normality_samples.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(base, base + 60))

    def test_too_few_replications_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("replications = 60", "replications = 10"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_last_seed_beyond_uint64_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG + f"seeds = {2**64 - 1}:1\n")
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "must lie in [0, 2**64)" in res.output

    def test_nan_threshold_exit_2(self, runner, tmp_path):
        # a NaN threshold would compare False and pass every study
        cfg = write(tmp_path, self.CFG.replace("threshold = 0.9", "threshold = nan"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "threshold must be finite" in res.output

    @pytest.mark.parametrize("threshold", ["0", "-0.5"])
    def test_threshold_at_or_below_zero_exit_2(self, runner, tmp_path, threshold):
        # no covariance error is below such a threshold; fail before the study runs
        cfg = write(tmp_path, self.CFG.replace("threshold = 0.9", f"threshold = {threshold}"))
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "threshold must be > 0" in res.output
        assert not out.exists()

    def test_unsupported_family_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("problem = quadratic", "problem = sigmoid"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("algorithm", ["scsc", "gt-dscgd"])
    def test_other_algorithm_exit_2(self, runner, tmp_path, algorithm):
        cfg = write(tmp_path, self.CFG + f"algorithm = {algorithm}\n")
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "ab-dscsc only" in res.output
        assert not out.exists()

    def test_zero_k_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("normality_k = 1500", "normality_k = 0"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_non_finite_error_exit_1(self, runner, tmp_path, monkeypatch):
        import dataclasses

        import dscosim.cli as cli

        real = cli.compare_covariance
        monkeypatch.setattr(
            cli,
            "compare_covariance",
            lambda *a: dataclasses.replace(real(*a), rel_frobenius_error=float("nan")),
        )
        cfg = write(tmp_path, self.CFG.replace("normality_k = 1500", "normality_k = 5"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 1

    def test_threshold_failure_exit_1(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("threshold = 0.9", "threshold = 0.0001"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 1
