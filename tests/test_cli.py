import concurrent.futures
import functools
import math
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
import dscosim.config as config
import dscosim.problems as problems
import dscosim.topology as topology
from dscosim.cli import main
from dscosim.config import ExperimentConfig, load_config, parse_config_text
from dscosim.errors import ConfigurationError
from dscosim.records import rows_from_csv
from dscosim.schedules import Polynomial, StepSchedule


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


COMMANDS = (["run"], ["sweep", "--jobs", "1"], ["validate-topology"], ["normality"])


def invoke(runner, command, cfg, out):
    """`command` on the config file `cfg`, writing to `out` where the command writes files."""
    out = [] if command == ["validate-topology"] else ["--out", str(out)]
    return runner.invoke(main, [*command, "--config", cfg, *out])


def errors(res):
    return [line for line in res.output.splitlines() if line.startswith("error:")]


def timeless(csv):
    """A CSV's lines but its `# wall_seconds` header, the one line that a rerun changes."""
    return [line for line in csv.splitlines() if "wall_seconds" not in line]


@pytest.fixture
def built(monkeypatch):
    """The names of the config's builders called; each records its call and builds nothing."""
    calls = []
    for name in ("build_problem", "build_weights", "build_graph"):
        monkeypatch.setattr(ExperimentConfig, name, lambda self, name=name: calls.append(name))
    return calls


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
        # each key's own range is test_each_key_range_checked_at_load's, and a value of the wrong
        # type test_non_number_names_key_and_value's
        for bad in [
            {"beta_rule": "constant", "beta": 2.0},
            {"seeds": "-1"},
            {"seeds": "-3:2"},
            {"seeds": str(2**64)},
            {"seeds": ","},
            {"seeds": "4:0"},
            {"iterations": 1e3},
            {"dim": 2.0},
            {"agents": np.float64(3)},
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


# Every edge value below loads on this config: beta_k = beta, so a tiny alpha_a keeps beta_K > 0,
# and K = 1 makes constant-sqrtk's alpha_1 = alpha_a.  constant-sqrtk reads neither alpha_b nor
# alpha_exponent, and the constant rule not beta_exponent: the table refuses them all the same.
EDGE_BASE = {"alpha_schedule": "constant-sqrtk", "beta_rule": "constant", "iterations": 1}

# the library calls that check a family, topology or step-size key, each given the key by name
quadratic = functools.partial(problems.make_quadratic, 1, 1, 0)
sigmoid = functools.partial(problems.make_sigmoid_quadratic, 1, 1, 0)
logistic = functools.partial(problems.make_logistic_cso, n=1, samples_per_agent=1, d=1, seed=0)
maml = functools.partial(
    problems.make_sinusoid_maml, n=1, tasks_per_agent=1, hidden_width=1, adapt_step=0.0, seed=0
)
schedule = functools.partial(StepSchedule, Polynomial(1.0), beta=1.0)
LIBRARY = {
    "agents": [lambda agents: topology.generate_ring_plus_random(agents, 0, 0)],
    "dim": [lambda dim: logistic(d=dim)],
    "noise_inner": [quadratic, sigmoid], "noise_outer": [quadratic, sigmoid], "conditioning": [quadratic],
    "samples_per_agent": [logistic], "feature_scale": [logistic], "label_noise": [logistic],
    "hidden_width": [maml], "adapt_step": [maml],
    "topology_extra": [lambda topology_extra: topology.generate_ring_plus_random(3, topology_extra, 0)],
    "alpha_a": [lambda alpha_a: Polynomial(alpha_a)],
    "alpha_b": [lambda alpha_b: Polynomial(1.0, alpha_b)],
    "alpha_exponent": [lambda alpha_exponent: Polynomial(1.0, 0.0, alpha_exponent)],
    "beta": [schedule], "beta_exponent": [schedule],
}


def edge_values(key):
    """The last value of `key` outside its range in the key table and the first one inside."""
    default, rule = config._KEYS[key]
    if isinstance(rule, tuple):
        return f"not-{default}", default
    op, bound = rule.split()
    bound = type(default)(bound)
    if isinstance(bound, int):
        below, above = bound - 1, bound + 1
    else:
        below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
    return (below, bound) if op == ">=" else (bound, above)


@pytest.mark.parametrize("key", [key for key, (_, rule) in config._KEYS.items() if rule is not None])
def test_each_key_range_checked_at_load(runner, tmp_path, built, key):
    """The last value outside a key's range exits 2 at load under every command, with nothing
    built and no output directory; the first value inside loads; the library agrees on both."""
    outside, inside = edge_values(key)
    cfg = write(tmp_path, "".join(f"{k} = {v}\n" for k, v in {**EDGE_BASE, key: outside}.items()))
    for command in COMMANDS:
        res = invoke(runner, command, cfg, tmp_path / "o")
        assert res.exit_code == 2, res.output
        assert len(errors(res)) == 1 and errors(res)[0].startswith(f"error: {key} must be ")
    assert built == [] and not (tmp_path / "o").exists()
    ExperimentConfig({**EDGE_BASE, key: inside})
    for build in LIBRARY.get(key, []):
        with pytest.raises(ConfigurationError):
            build(**{key: outside})
        build(**{key: inside})


def test_readme_key_table_is_the_key_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = readme.index("| key | default | range |") + 2
    lines = readme[start:readme.index("", start)]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert [key for key, _, _ in rows] == [f"`{key}`" for key in config._KEYS]
    for (_, default, cell), (value, rule) in zip(rows, config._KEYS.values()):
        assert default == f"`{value}`"
        if rule is not None:
            assert cell == (", ".join(f"`{c}`" for c in rule) if isinstance(rule, tuple) else f"`{rule}`")


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
        assert "alpha_schedule must be one of polynomial, constant-sqrtk, got 'cosine'" in res.output
        assert not out.exists()

    def test_determinism_across_invocations(self, runner, tmp_path):
        cfg = write(tmp_path, BASE)
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            runner.invoke(main, ["run", "--config", cfg, "--seed", "3", "--out", str(out)])
            texts.append(timeless((out / "run_ab-dscsc_seed3.csv").read_text()))
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
    assert errors(res) == ["error: gradient tracker non-finite or beyond 1e+06 at k=15, agent 2, seed 2"]
    conf = load_config(cfg)
    written = set()
    for seed in conf.seed_list():
        try:
            record, name = cli.run(
                conf["algorithm"], conf.build_problem(), conf.build_schedule(), conf["iterations"],
                weights=conf.build_weights(), seed=seed, metric_stride=conf["metric_stride"],
                config={**conf.values, **cli._RETIRED_ECHO},
            ), f"run_ab-dscsc_seed{seed}.csv"
        except cli.DivergenceError as err:
            record, name = err.record, f"run_ab-dscsc_seed{seed}_partial.csv"
        assert timeless((out / name).read_text()) == timeless(cli.record_to_csv(record))
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
            assert timeless((out1 / name).read_text()) == timeless((out2 / name).read_text())

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


@pytest.mark.parametrize(
    "text, limit",
    [
        ("dim = 100000000000000000000\n", "Maximum allowed dimension exceeded"),
        ("agents = 4294967296\ndim = 4294967296\n", "array is too big;"),
        ("problem = maml\nhidden_width = 4294967296\n", "Maximum allowed dimension exceeded"),
    ],
    ids=["dim", "agents-and-dim", "maml-hidden-width"],
)
def test_arrays_beyond_numpys_size_limit_exit_2(runner, tmp_path, text, limit):
    # numpy refuses these shapes before it allocates anything
    cfg = write(tmp_path, text)
    res = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path / "o")])
    assert res.exit_code == 2, res.output
    assert len(errors(res)) == 1
    assert errors(res)[0].startswith(f"error: the config's arrays do not fit in memory ({limit}")
    assert "Traceback" not in res.output and not (tmp_path / "o").exists()


def test_other_value_errors_are_not_relabelled(runner, tmp_path, monkeypatch):
    def build_problem(self):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(ExperimentConfig, "build_problem", build_problem)
    res = runner.invoke(main, ["run", "--config", write(tmp_path, BASE), "--out", str(tmp_path / "o")])
    assert isinstance(res.exception, ValueError) and res.exit_code == 1


@pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"]])
def test_failed_build_leaves_no_output_directory(runner, tmp_path, command):
    cfg = write(tmp_path, BASE.replace("topology_extra = 1", "topology_extra = 100"))
    out = tmp_path / "o"
    res = runner.invoke(main, [*command, "--config", cfg, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "extra=100 exceeds the 3 available non-ring edges" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["validate-topology"]])
def test_perron_iteration_not_converging_exit_2(runner, tmp_path, monkeypatch, command):
    # a real ring of 500 agents takes the full 100,000 power iterations to fail
    monkeypatch.setattr(topology, "POWER_ITER_MAX", 3)
    res = invoke(runner, command, write(tmp_path, BASE.replace("agents = 3", "agents = 10")), tmp_path / "o")
    assert res.exit_code == 2, res.output
    assert errors(res) == ["error: Perron power iteration did not converge in 3 steps"]
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "command, error",
    [
        (["run"], "generated topology violates the network assumption"),
        (["sweep", "--jobs", "1"], "generated topology violates the network assumption"),
        (["validate-topology"], "no spanning tree with a common root"),
    ],
    ids=["command0", "command1", "command2"],
)
def test_topology_without_spanning_tree_exit_1(runner, tmp_path, monkeypatch, command, error):
    # the CLI's ring + random graphs are strongly connected; three agents with no edge are not
    monkeypatch.setattr(config, "generate_ring_plus_random", lambda *args: topology.DirectedGraph(3))
    res = invoke(runner, command, write(tmp_path, BASE), tmp_path / "o")
    assert res.exit_code == 1, res.output
    assert errors(res) == [f"error: {error}"]
    assert not list((tmp_path / "o").glob("*.csv"))


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

        for name in ("build_problem", "build_weights", "build_graph", "build_schedule"):
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
            "build_problem": 1, "build_weights": 1, "build_graph": 1, "build_schedule": 1, "linprog": 1,
            "minimize": 1,
        }
        assert pool_sizes == ([2] if command[0] == "sweep" else [])

    @pytest.mark.parametrize("algorithm", ["scsc", "scgd"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"], ["validate-topology"]])
    def test_single_agent_method_on_a_network_exits_before_the_build(
        self, runner, tmp_path, counts, command, algorithm
    ):
        cfg = write(tmp_path, LOGISTIC + f"algorithm = {algorithm}\n")
        res = invoke(runner, command, cfg, tmp_path / "o")
        assert res.exit_code == 2, res.output
        assert errors(res) == [f"error: {algorithm} is single-agent; problem has n=5"]
        assert counts == {"build_schedule": 1}  # at load; neither the problem nor its optimum was built
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"], ["validate-topology"]])
    def test_bad_step_size_exits_at_load(self, runner, tmp_path, counts, command):
        # 500 agents: the Perron iteration alone takes seconds, and the key is refused before it
        cfg = write(tmp_path, "agents = 500\ntopology_extra = 1\nalpha_a = 0\n")
        res = invoke(runner, command, cfg, tmp_path / "o")
        assert res.exit_code == 2, res.output
        assert errors(res) == ["error: alpha_a must be > 0, got 0.0"]
        assert counts == {} and not (tmp_path / "o").exists()  # refused by the key table, before the schedule

    @pytest.mark.parametrize(
        "text, error",
        [
            ("alpha_exponent = 1000\n", "a step size overflows a float by round k = 1000"),
            ("beta_rule = polynomial\nbeta_exponent = 1000\n", "a step size overflows a float by round k = 1000"),
            ("algorithm = gt-dscgd\nbeta_rule = constant\nbeta = 0.5\n", "gamma*beta_k = 1.5 exceeds 1"),
            ("algorithm = gp-dscgd\nbeta_rule = constant\nbeta = 0.5\n", "gamma*beta_k = 1.5 exceeds 1"),
            ("alpha_a = 5e-324\n", "beta_k underflows to 0 by round k = 1000"),
        ],
        ids=["alpha-overflow", "beta-overflow", "gt-dscgd-gamma-beta", "gp-dscgd-gamma-beta", "beta-underflow"],
    )
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--jobs", "1"], ["validate-topology"]])
    def test_step_sizes_the_rounds_cannot_take_exit_at_load(self, runner, tmp_path, counts, command, text, error):
        # each would fail only in a round: the overflow as a traceback, gamma*beta_1 and beta_K = 0
        # once all is built
        cfg = write(tmp_path, f"agents = 3\niterations = 1000\ngamma = 3\n{text}")
        res = invoke(runner, command, cfg, tmp_path / "o")
        assert res.exit_code == 2, res.output
        assert errors(res) == [f"error: {error}"] and "Traceback" not in res.output
        assert counts == {"build_schedule": 1} and not (tmp_path / "o").exists()

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
                eta=conf["eta"], gamma=conf["gamma"], config={**conf.values, **cli._RETIRED_ECHO},
            )
            text = (tmp_path / "o" / f"run_ab-dscsc_seed{seed}.csv").read_text()
            assert timeless(text) == timeless(cli.record_to_csv(record))


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
        texts.append(timeless((out / "run_ab-dscsc_seed3.csv").read_text()))
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
seeds = 0:60
iterations = 1500
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

    @pytest.mark.parametrize(
        "seeds, error",
        [
            ("0,5", "normality runs the seeds base ... base + R - 1"),
            ("0:2", "normality needs >= 50 seeds, got 2"),
            (",".join(map(str, range(0, 120, 2))), "normality runs the seeds base ... base + R - 1"),
            (",".join(map(str, range(59, -1, -1))), "normality runs the seeds base ... base + R - 1"),
        ],
        ids=["0,5", "0:2", "0,2,...,118", "59,58,...,0"],
    )
    def test_more_than_one_seed_exit_2(self, runner, tmp_path, seeds, error):
        # the study runs base ... base + R - 1 for R >= 50, so no other seed list has a run to go to
        cfg = write(tmp_path, self.CFG.replace("seeds = 0:60", f"seeds = {seeds}"))
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert error in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "seeds,base", [("7:60", 7), (",".join(map(str, range(3, 63))), 3)], ids=["7:60", "3,4,...,62"]
    )
    def test_one_base_seed_runs(self, runner, tmp_path, seeds, base):
        # a short study with a loose threshold: only the seeds of its rows are read
        cfg = self.CFG.replace("iterations = 1500", "iterations = 20")
        cfg = cfg.replace("threshold = 0.9", "threshold = 1e300")
        out = tmp_path / "norm"
        cfg = write(tmp_path, cfg.replace("seeds = 0:60", f"seeds = {seeds}"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = (out / "normality_samples.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == list(range(base, base + 60))

    def test_too_few_replications_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("seeds = 0:60", "seeds = 0:10"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_last_seed_beyond_uint64_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("seeds = 0:60", f"seeds = {2**64 - 59}:60"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "in [0, 2**64)" in res.output

    def test_samples_are_collect_deltas(self, runner, tmp_path):
        # R = 50 seeds from 3 and k = 20: the study is collect_delta on the config's instance
        text = self.CFG.replace("seeds = 0:60", "seeds = 3:50").replace("iterations = 1500", "iterations = 20")
        cfg = write(tmp_path, text.replace("threshold = 0.9", "threshold = 1e300"))
        out = tmp_path / "norm"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        conf = load_config(cfg)
        samples = cli.collect_delta(
            50, conf.build_problem(), conf.build_weights(), conf.schedule, 20, 1, base_seed=3
        )
        assert (out / "normality_samples.csv").read_bytes() == cli.samples_to_csv(samples).encode()

    @pytest.mark.parametrize("line", ["replications = 60", "normality_k = 1500"])
    def test_retired_keys_exit_2(self, runner, tmp_path, line):
        cfg = write(tmp_path, self.CFG + line + "\n")
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        key = line.split(" = ")[0]
        assert f"error: unknown config key {key!r}" in res.output and not out.exists()

    @pytest.mark.parametrize(
        "old, new, error",
        [
            ("problem = quadratic", "problem = sigmoid", "the quadratic family only"),
            ("beta = 1.0", "beta = 1.0\nalgorithm = gt-dscgd", "ab-dscsc only"),
            ("seeds = 0:60", "seeds = 0:49", "normality needs >= 50 seeds, got 49"),
            ("seeds = 0:60", "seeds = 0,5", "normality runs the seeds base ... base + R - 1"),
            ("agent = 1", "agent = 3", "agent must be in [1, 2], got 3"),
            ("alpha_exponent = 0.7", "alpha_exponent = 0.4", "exponent in (1/2, 1)"),
            ("alpha_b = 5.0", "alpha_schedule = constant-sqrtk", "exponent in (1/2, 1)"),
            ("beta = 1.0", "beta = 1.0\nbeta_rule = constant", "beta_k proportional to alpha_k"),
        ],
        ids=["family", "algorithm", "49-seeds", "non-range-seeds", "agent", "exponent", "constant-sqrtk",
             "beta-rule"],
    )
    def test_refusals_exit_before_the_build(self, runner, tmp_path, built, old, new, error):
        assert old in self.CFG
        cfg = write(tmp_path, self.CFG.replace(old, new))
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert len(errors(res)) == 1 and error in errors(res)[0]
        assert built == [] and not out.exists()

    def test_nan_threshold_exit_2(self, runner, tmp_path):
        # a NaN threshold would compare False and pass every study
        cfg = write(tmp_path, self.CFG.replace("threshold = 0.9", "threshold = nan"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert "threshold must be finite" in res.output

    def test_unsupported_family_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("problem = quadratic", "problem = sigmoid"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("algorithm", ["scsc", "gt-dscgd"])
    def test_other_algorithm_exit_2(self, runner, tmp_path, algorithm):
        # one agent, so the load's single-agent rule passes scsc and the study's own refuses it
        cfg = write(tmp_path, self.CFG.replace("agents = 2", "agents = 1") + f"algorithm = {algorithm}\n")
        out = tmp_path / "x"
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 2, res.output
        assert "ab-dscsc only" in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "agent, error",
        [(0, "agent must be >= 1, got 0"), (3, "agent must be in [1, 2], got 3")],
        ids=["0", "3"],
    )
    def test_agent_outside_the_network_exits_before_the_build(self, runner, tmp_path, built, agent, error):
        # only normality reads `agent`, but every command refuses it at load, as it does `threshold`
        cfg = write(tmp_path, self.CFG.replace("agent = 1", f"agent = {agent}"))
        for command in COMMANDS:
            res = invoke(runner, command, cfg, tmp_path / "x")
            assert res.exit_code == 2, res.output
            assert errors(res) == [f"error: {error}"]
        assert built == [] and not (tmp_path / "x").exists()

    def test_zero_k_exit_2(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("iterations = 1500", "iterations = 0"))
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
        cfg = write(tmp_path, self.CFG.replace("iterations = 1500", "iterations = 5"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 1

    def test_threshold_failure_exit_1(self, runner, tmp_path):
        cfg = write(tmp_path, self.CFG.replace("threshold = 0.9", "threshold = 0.0001"))
        res = runner.invoke(main, ["normality", "--config", cfg, "--out", str(tmp_path / "x")])
        assert res.exit_code == 1
