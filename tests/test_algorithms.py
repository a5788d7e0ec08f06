import numpy as np
import pytest

from dscosim.algorithms import (
    ALGORITHMS,
    NetworkState,
    ReplicaStreams,
    _check_finite,
    ab_dscsc_init,
    ab_dscsc_step,
    dscgd_step,
    rounds,
    run,
    run_stream,
    scgd_step,
    scsc_step,
)
from dscosim.errors import ConfigurationError, DivergenceError
from dscosim.metrics import collect_row
from dscosim.problems import (
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
)
from dscosim.records import RunRecord, record_to_csv
from dscosim.schedules import Polynomial, StepSchedule
from dscosim.topology import (
    DirectedGraph,
    build_weight_pair,
    generate_ring_plus_random,
    underlying_metropolis,
)


def ring_weights(n, extra=0, seed=0):
    g = generate_ring_plus_random(n, extra, seed)
    return build_weight_pair(g, g)


def sched(a=0.05, b=0.0, e=0.0, beta=1.0):
    return StepSchedule(Polynomial(a, b, e), beta=beta)


class TestAbStep:
    def test_zero_noise_hand_computed_round(self):
        prob = make_quadratic(3, 2, seed=1, noise_inner=0.0, noise_outer=0.0)
        wp = ring_weights(3)
        rng = run_stream(0)
        x0 = np.random.default_rng(2).normal(size=(3, 2))
        state = ab_dscsc_init(prob, x0, rng)
        # with zero noise: z = Mx, y = exact local gradients
        np.testing.assert_allclose(state.z, prob.true_g(x0))
        alpha, beta = 0.05, 0.3
        nxt = ab_dscsc_step(state, prob, wp, alpha, beta, rng)
        x_exp = wp.A @ (x0 - alpha * state.y)
        np.testing.assert_allclose(nxt.x, x_exp)
        g_new, g_old = prob.true_g(x_exp), prob.true_g(x0)
        z_exp = (1 - beta) * (state.z + g_new - g_old) + beta * g_new
        np.testing.assert_allclose(nxt.z, z_exp)
        h_exp = np.stack(
            [prob.M[i].T @ (prob.Q[i] @ nxt.z[i] + prob.c[i]) for i in range(3)]
        )
        np.testing.assert_allclose(nxt.y, wp.B @ state.y + h_exp - state.h_prev)

    def test_beta_out_of_range(self):
        prob = make_quadratic(2, 2, seed=0)
        wp = ring_weights(2)
        state = ab_dscsc_init(prob, np.zeros((2, 2)), run_stream(0))
        with pytest.raises(ConfigurationError):
            ab_dscsc_step(state, prob, wp, 0.1, 0.0, run_stream(1))
        with pytest.raises(ConfigurationError):
            ab_dscsc_step(state, prob, wp, 0.1, 1.5, run_stream(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6, -2e6])
    def test_guard_names_agent_of_bad_entry(self, bad):
        prob = make_quadratic(5, 2, seed=0)
        x0 = np.ones((5, 2))
        x0[2, 1] = bad
        with pytest.raises(DivergenceError) as err:
            ab_dscsc_init(prob, x0, run_stream(0))
        assert str(err.value) == "initial iterate non-finite or beyond 1e+06 at k=1, agent 3"
        assert err.value.agent == 3 and err.value.k == 1

    @pytest.mark.parametrize("shape", [(4, 3), (4, 3, 2)])
    def test_guard_boundary_values_pass(self, shape):
        arr = np.full(shape, 1e-300)
        arr[0, 0], arr[-1, -1] = 1e6, -0.0
        _check_finite(arr, 5, "iterate", ReplicaStreams([11, 12, 13]))
        _check_finite(-arr, 5, "iterate", ReplicaStreams([11, 12, 13]))

    @pytest.mark.parametrize("bad", [np.nextafter(1e6, np.inf), -np.nextafter(1e6, np.inf), np.nan])
    @pytest.mark.parametrize("batched", [False, True])
    def test_guard_boundary_values_fail(self, bad, batched):
        arr = np.full((4, 3, 2) if batched else (4, 3), 1e-300)
        arr[2, 1] = bad  # agent 3; replica 2 (seed 12) when batched
        rng = ReplicaStreams([11, 12, 13]) if batched else run_stream(0)  # (n, d): one Generator
        with pytest.raises(DivergenceError) as err:
            _check_finite(arr, 5, "iterate", rng)
        suffix = ", seed 12" if batched else ""
        assert str(err.value) == f"iterate non-finite or beyond 1e+06 at k=5, agent 3{suffix}"
        assert (err.value.k, err.value.agent, err.value.seed) == (5, 3, 12 if batched else None)

    @pytest.mark.parametrize("n,extra", [(3, 0), (5, 3), (10, 5)])
    def test_tracker_conservation(self, n, extra):
        # column stochasticity of B keeps sum_i y_i == sum_i h_i for all k
        prob = make_quadratic(n, 3, seed=2, noise_inner=0.2, noise_outer=0.2)
        wp = ring_weights(n, extra, seed=4)
        rng = run_stream(11)
        state = ab_dscsc_init(prob, np.zeros((n, 3)), rng)
        for k in range(1, 101):
            state = ab_dscsc_step(state, prob, wp, 0.02 / k**0.6, min(1.0, 1.0 / k**0.6), rng)
            lhs = state.y.sum(axis=0)
            rhs = state.h_prev.sum(axis=0)
            denom = max(np.linalg.norm(rhs), 1e-30)
            assert np.linalg.norm(lhs - rhs) / denom < 1e-10


class TestSingleAgentSteps:
    @staticmethod
    def state(x, z, y):
        y = np.array([y])
        return NetworkState(k=1, x=np.array([x]), z=np.array([z]), y=y, h_prev=y.copy())

    def test_scgd_step_zero_noise(self):
        prob = make_quadratic(1, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        x, z, y = np.array([0.5, -1.0]), np.zeros(2), np.array([0.3, -0.2])
        nxt = scgd_step(self.state(x, z, y), prob, 0.1, 0.4, run_stream(0))
        np.testing.assert_allclose(nxt.x[0], x - 0.1 * y)
        g = prob.true_g(nxt.x)[0]
        np.testing.assert_allclose(nxt.z[0], 0.6 * z + 0.4 * g)
        grad = prob.M[0].T @ (prob.Q[0] @ nxt.z[0] + prob.c[0])
        np.testing.assert_allclose(nxt.y[0], grad)
        assert nxt.k == 2

    def test_scsc_step_correction_term(self):
        prob = make_quadratic(1, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        x_prev, y = np.array([0.2, 0.3]), np.array([-3.0, 13.0])
        z = np.array([1.0, 1.0])
        nxt = scsc_step(self.state(x_prev, z, y), prob, 0.1, 0.4, run_stream(0))
        x = nxt.x[0]
        np.testing.assert_allclose(x, x_prev - 0.1 * y)
        g_x, g_prev = prob.true_g(nxt.x)[0], prob.true_g(x_prev[None])[0]
        np.testing.assert_allclose(nxt.z[0], 0.6 * (z + g_x - g_prev) + 0.4 * g_x)


class TestDscgd:
    def test_gamma_beta_constraint(self):
        prob = make_quadratic(3, 2, seed=0)
        wp = ring_weights(3)
        W = np.eye(3)
        state = ab_dscsc_init(prob, np.zeros((3, 2)), run_stream(0), track=False)
        assert state.y is None and state.h_prev is None
        with pytest.raises(ConfigurationError):
            dscgd_step(state, prob, W, 0.01, gamma=3.0, beta_k=0.5, rng=run_stream(1), track=False)

    def test_gt_tracker_conservation_doubly_stochastic(self):
        from dscosim.topology import underlying_metropolis

        prob = make_quadratic(4, 2, seed=1, noise_inner=0.1, noise_outer=0.1)
        g = generate_ring_plus_random(4, 2, 0)
        W = underlying_metropolis(g)
        rng = run_stream(0)
        state = ab_dscsc_init(prob, np.zeros((4, 2)), rng, track=True)
        for _ in range(50):
            state = dscgd_step(state, prob, W, 0.02, gamma=2.0, beta_k=0.3, rng=rng, track=True)
            np.testing.assert_allclose(
                state.y.sum(axis=0), state.h_prev.sum(axis=0), rtol=1e-9, atol=1e-12
            )

    def test_weights_graph_pattern(self):
        wp = ring_weights(3)
        g = wp.graph_A
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})


class TestRunDriver:
    def test_bitwise_deterministic_rerun(self):
        prob = make_quadratic(3, 2, seed=5, noise_inner=0.2, noise_outer=0.2)
        wp = ring_weights(3, 1, 2)
        kw = dict(weights=wp, seed=17, metric_stride=10)
        r1 = run("ab-dscsc", prob, sched(0.02, 1.0, 0.6), 200, **kw)
        r2 = run("ab-dscsc", prob, sched(0.02, 1.0, 0.6), 200, **kw)
        assert r1.rows == r2.rows

    def test_seed_changes_trajectory(self):
        prob = make_quadratic(3, 2, seed=5, noise_inner=0.2, noise_outer=0.2)
        wp = ring_weights(3)
        r1 = run("ab-dscsc", prob, sched(0.02, 1.0, 0.6), 50, weights=wp, seed=0)
        r2 = run("ab-dscsc", prob, sched(0.02, 1.0, 0.6), 50, weights=wp, seed=1)
        assert r1.rows != r2.rows

    def test_single_agent_equivalence_short(self):
        # with one agent the networked corrected method IS the single-agent one
        prob = make_quadratic(1, 2, seed=9, noise_inner=0.3, noise_outer=0.3)
        wp = build_weight_pair(DirectedGraph(1), DirectedGraph(1))
        s = sched(0.05, 1.0, 0.6, beta=1.0)
        r_ab = run("ab-dscsc", prob, s, 200, weights=wp, seed=3)
        r_sc = run("scsc", prob, s, 200, seed=3)
        assert r_ab.rows == r_sc.rows  # bitwise

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rounds_yields_the_start_then_each_round(self, algorithm):
        n = 1 if algorithm in ("scsc", "scgd") else 3
        prob = make_quadratic(n, 2, seed=5, noise_inner=0.2, noise_outer=0.2)
        wp = ring_weights(3) if n > 1 else build_weight_pair(DirectedGraph(1), DirectedGraph(1))
        for K in (0, 1, 4):
            states = list(rounds(algorithm, prob, sched(), K, wp, ReplicaStreams([3, 4])))
            assert [s.k for s in states] == list(range(1, K + 2))
            assert all(s.x.shape == (n, 2, 2) for s in states)

    def test_zero_noise_converges_to_optimum(self):
        prob = make_quadratic(3, 2, seed=5, noise_inner=0.0, noise_outer=0.0)
        wp = ring_weights(3)
        rec = run("ab-dscsc", prob, sched(0.05), 4000, weights=wp, seed=0, metric_stride=500)
        assert rec.rows[-1].opt_gap_avg < 1e-20
        assert rec.rows[-1].consensus_err < 1e-20

    def test_scgd_rejects_multi_agent(self):
        prob = make_quadratic(2, 2, seed=0)
        with pytest.raises(ConfigurationError):
            run("scgd", prob, sched(), 10)

    def test_unknown_algorithm(self):
        prob = make_quadratic(1, 2, seed=0)
        with pytest.raises(ConfigurationError):
            run("sgd", prob, sched(), 10)

    def test_missing_weights(self):
        prob = make_quadratic(2, 2, seed=0)
        with pytest.raises(ConfigurationError):
            run("ab-dscsc", prob, sched(), 10)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_bad_metric_stride(self, stride):
        prob = make_quadratic(3, 2, seed=0)
        with pytest.raises(ConfigurationError, match="metric_stride"):
            run("ab-dscsc", prob, sched(), 10, weights=ring_weights(3), metric_stride=stride)

    def test_divergence_raises_with_partial_record(self):
        prob = make_quadratic(3, 2, seed=5, noise_inner=0.1, noise_outer=0.1)
        wp = ring_weights(3)
        with pytest.raises(DivergenceError) as exc:
            run("ab-dscsc", prob, sched(a=50.0), 500, weights=wp, seed=0)
        err = exc.value
        assert err.k is not None and err.agent is not None
        assert err.seed == 0 and str(err).endswith(", seed 0")
        assert err.record.status.startswith("diverged@")
        assert len(err.record.rows) >= 1

    def test_metric_stride(self):
        prob = make_quadratic(2, 2, seed=0, noise_inner=0.0, noise_outer=0.0)
        wp = ring_weights(2)
        rec = run("ab-dscsc", prob, sched(0.01), 100, weights=wp, seed=0, metric_stride=25)
        assert [r.k for r in rec.rows] == [1, 26, 51, 76, 101]

    @pytest.mark.parametrize("alg", ["gp-dscgd", "gt-dscgd"])
    def test_dscgd_converges_noisy(self, alg):
        prob = make_quadratic(3, 2, seed=6, noise_inner=0.1, noise_outer=0.1)
        wp = ring_weights(3)
        s = StepSchedule(Polynomial(1.0, 0.0, 0.6), beta=0.25)
        rec = run(alg, prob, s, 3000, weights=wp, seed=0, metric_stride=500, eta=0.05, gamma=2.0)
        assert rec.rows[-1].opt_gap_avg < 0.05

    def test_nonconvex_family_runs_and_descends(self):
        prob = make_sigmoid_quadratic(4, 3, seed=0, noise_inner=0.05, noise_outer=0.05)
        wp = ring_weights(4, 2, 1)
        rec = run("ab-dscsc", prob, sched(0.2, 0.0, 0.5), 2000, weights=wp, seed=0, metric_stride=100)
        assert rec.rows[-1].grad_norm_sq < 0.1 * rec.rows[0].grad_norm_sq


def serial_run(algorithm, problem, schedule, K, wp, seed, stride, eta=0.03, gamma=3.0):
    """One seed on an (n, d) state with a plain Generator: the seed-at-a-time loop
    that ``run`` replaced, kept as the reference for its bits.  Returns the record
    and the DivergenceError, if any."""
    rng = run_stream(seed)
    if hasattr(problem, "init_params"):
        x0 = np.tile(problem.init_params(rng), (problem.n, 1))
    else:
        x0 = np.zeros((problem.n, problem.d))
    W = underlying_metropolis(wp.graph_A)
    dscgd = algorithm.endswith("dscgd")
    u = wp.u if algorithm == "ab-dscsc" else np.ones(problem.n)
    steps = {
        "ab-dscsc": lambda st, k: ab_dscsc_step(st, problem, wp, schedule.alpha(k), schedule.beta_of(k), rng),
        "gp-dscgd": lambda st, k: dscgd_step(st, problem, W, eta, gamma, schedule.beta_of(k), rng, False),
        "gt-dscgd": lambda st, k: dscgd_step(st, problem, W, eta, gamma, schedule.beta_of(k), rng, True),
        "scsc": lambda st, k: scsc_step(st, problem, schedule.alpha(k), schedule.beta_of(k), rng),
        "scgd": lambda st, k: scgd_step(st, problem, schedule.alpha(k), schedule.beta_of(k), rng),
    }
    record = RunRecord(config={}, seed=seed)

    def note(st, k):
        alpha_k = eta if dscgd else schedule.alpha(k)
        record.rows.append(collect_row(st.k, alpha_k, schedule.beta_of(k), st.x, st.z, problem, u))

    try:
        state = ab_dscsc_init(problem, x0, rng, track=algorithm != "gp-dscgd")
        note(state, 1)
        for k in range(1, K + 1):
            state = steps[algorithm](state, k)
            if k % stride == 0:
                note(state, k)
    except DivergenceError as err:
        record.status = f"diverged@{err.k}"
        return record, err
    return record, None


def csv_lines(record):
    return [ln for ln in record_to_csv(record).splitlines() if "wall_seconds" not in ln]


BATCH_FAMILIES = {
    "quadratic": lambda n: make_quadratic(n, 3, seed=1, noise_inner=0.2, noise_outer=0.2),
    "quadratic-d5": lambda n: make_quadratic(n, 5, seed=2, noise_inner=0.2, noise_outer=0.2),
    "logistic": lambda n: make_logistic_cso(n, 20, 3, seed=2),
    "logistic-pool": lambda n: make_logistic_cso(n, 12, 4, seed=3, fixed_inner_pool=5, label_noise=2.0),
    "sigmoid": lambda n: make_sigmoid_quadratic(n, 3, seed=3, p=2),
    "maml": lambda n: make_sinusoid_maml(n, 20, 2, 0.01, seed=4),
}


class TestSeedBatches:
    """``run`` over a seed list gives each seed the CSV bytes of its own serial run."""

    @staticmethod
    def check(problem, schedule, K, seeds):
        n = problem.n
        g = generate_ring_plus_random(n, n // 2, 0) if n > 1 else DirectedGraph(1)
        wp = build_weight_pair(g, g)
        algorithms = ["ab-dscsc", "gp-dscgd", "gt-dscgd"] + (["scsc", "scgd"] if n == 1 else [])
        diverged = set()
        for algorithm in algorithms:
            results = run(algorithm, problem, schedule, K, weights=wp, seeds=seeds, metric_stride=3)
            for seed, result in zip(seeds, results):
                expected, err = serial_run(algorithm, problem, schedule, K, wp, seed, 3)
                if err is None:
                    assert csv_lines(result) == csv_lines(expected)
                    continue
                diverged.add(seed)
                assert csv_lines(result.record) == csv_lines(expected)
                assert str(result) == f"{err}, seed {seed}"
                assert (result.k, result.agent, result.seed) == (err.k, err.agent, seed)
        return diverged

    @pytest.mark.parametrize("n", [1, 10, 60, 100])
    @pytest.mark.parametrize("family", sorted(BATCH_FAMILIES))
    def test_each_seed_equals_its_serial_run(self, family, n):
        schedule = StepSchedule(Polynomial(0.02 if family == "maml" else 0.1, 1.0, 0.6), beta=1.0)
        self.check(BATCH_FAMILIES[family](n), schedule, 9, [5, 6])

    def test_diverged_seeds_keep_their_serial_partial_records(self):
        schedule = StepSchedule(Polynomial(0.3, 1.0, 0.3), beta=1.0)
        problem = make_sinusoid_maml(10, 20, 4, 0.01, seed=4)
        assert self.check(problem, schedule, 20, [5, 6, 7, 8, 9]) == {5, 8, 9}

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run("ab-dscsc", make_quadratic(3, 2, seed=5), sched(), 5, weights=ring_weights(3), seeds=[])

    def test_wall_seconds_share_the_batch_time(self):
        prob = make_quadratic(3, 2, seed=5)
        records = run("ab-dscsc", prob, sched(), 50, weights=ring_weights(3), seeds=[1, 2, 3, 4])
        assert len({r.wall_seconds for r in records}) == 1 and records[0].wall_seconds > 0
