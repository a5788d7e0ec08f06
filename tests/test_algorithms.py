import pickle
import time
import warnings

import numpy as np
import pytest

from dscosim import algorithms
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
from dscosim.problems.base import per_agent
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


def step_functions(problem, wp, W, schedule, rng, eta=0.03, gamma=3.0, plans=(None, None)):
    """Each algorithm's library step as ``step(state, k)``, with the schedule's k-th values
    and the mix plans ``plans``: A's and B's, or W's first."""
    return {
        "ab-dscsc": lambda st, k: ab_dscsc_step(st, problem, wp, schedule.alpha(k), schedule.beta_of(k), rng, plans),
        "gp-dscgd": lambda st, k: dscgd_step(st, problem, W, eta, gamma, schedule.beta_of(k), rng, False, plans[0]),
        "gt-dscgd": lambda st, k: dscgd_step(st, problem, W, eta, gamma, schedule.beta_of(k), rng, True, plans[0]),
        "scsc": lambda st, k: scsc_step(st, problem, schedule.alpha(k), schedule.beta_of(k), rng),
        "scgd": lambda st, k: scgd_step(st, problem, schedule.alpha(k), schedule.beta_of(k), rng),
    }


class OutOfPlaceQuadratic:
    """The quadratic oracle's draws as out-of-place expressions, every product through
    ``np.einsum``: the reference for the bits of its in-place sampling."""

    def __init__(self, problem):
        self.p = problem

    def sample_inner_pair_all(self, X_new, X_old, rng):
        p = self.p
        phi = rng.normal(size=(p.n, p.d)) * p.sigma_phi
        old = np.einsum("nij,n...j->n...i", p.M, X_old)
        return np.einsum("nij,n...j->n...i", p.M, X_new) + phi, old + phi

    def sample_grad_all(self, X, Z, rng):
        p = self.p
        zeta = per_agent(p.c, Z) + rng.normal(size=(p.n, p.d)) * p.sigma_zeta
        inner = np.einsum("nij,n...j->n...i", p.Q, Z) + zeta
        return np.einsum("nji,n...j->n...i", p.M, inner)


def out_of_place_mix(W, x):
    """``W @ x``, replica by replica for an ``(n, R, d)`` x."""
    return np.stack([W @ x[:, r] for r in range(x.shape[1])], axis=1)


def out_of_place_round(algorithm, state, oracle, wp, W, alpha, beta, rng, eta=0.03, gamma=3.0):
    """One round of ``algorithm`` as out-of-place expressions: the reference for the bits
    of the in-place steps.  ``state`` and the result are tuples (x, z, y, h_prev)."""
    x, z, y, h = state

    def corrected_z(g_new, g_old, beta):
        return (1.0 - beta) * (z + g_new - g_old) + beta * g_new

    if algorithm in ("ab-dscsc", "scsc", "scgd"):
        x_new = x - alpha * y
        if algorithm == "ab-dscsc":
            x_new = out_of_place_mix(wp.A, x_new)
        if algorithm == "scgd":
            g_new, _ = oracle.sample_inner_pair_all(x_new, x_new, rng)
            z_new = corrected_z(g_new, g_new, beta)
        else:
            g_new, g_old = oracle.sample_inner_pair_all(x_new, x, rng)
            z_new = corrected_z(g_new, g_old, beta)
        h_new = oracle.sample_grad_all(x_new, z_new, rng)
        if algorithm == "ab-dscsc":
            return x_new, z_new, (out_of_place_mix(wp.B, y) - h) + h_new, h_new
        return x_new, z_new, h_new, h_new
    track = algorithm == "gt-dscgd"
    g_inner, _ = oracle.sample_inner_pair_all(x, x, rng)
    z_new = corrected_z(g_inner, g_inner, gamma * beta)
    g = oracle.sample_grad_all(x, z_new, rng)
    y_new = out_of_place_mix(W, y) + g - h if track else None
    x_tilde = out_of_place_mix(W, x) - eta * (y_new if track else g)
    return x + beta * (x_tilde - x), z_new, y_new, g if track else None


# (algorithm, (n, R, d)); n is 1 for scsc and scgd.  At n = 500 the mix is split at its
# matrix's K blocks.
IN_PLACE_CASES = [
    (algorithm, shape) for algorithm in ALGORITHMS for shape in [(10, 1, 5), (3, 50, 2), (10, 2, 10)]
] + [(algorithm, (500, R, 5)) for algorithm in ("ab-dscsc", "gt-dscgd") for R in (1, 2)]


class TestAbStep:
    @pytest.mark.parametrize(
        "algorithm, shape", IN_PLACE_CASES, ids=[f"{a}-{'x'.join(map(str, s))}" for a, s in IN_PLACE_CASES]
    )
    def test_in_place_rounds_keep_the_out_of_place_bytes(self, monkeypatch, algorithm, shape):
        n, R, d = shape
        n = 1 if algorithm in ("scsc", "scgd") else n
        problem = make_quadratic(n, d, seed=n + d, noise_inner=0.2, noise_outer=0.2)
        g = generate_ring_plus_random(n, n // 2, 0) if n > 1 else DirectedGraph(1)
        wp = build_weight_pair(g, g)
        # the matrices and plans rounds() hands the steps: A and B, or the pair's own W
        mixed = list(algorithms.mixers(algorithm, wp, d))
        W = mixed[0][1] if algorithm.endswith("dscgd") else None
        plans = [plan for _, _, plan in mixed]
        splits = []
        split_mix = algorithms._split_mix
        monkeypatch.setattr(algorithms, "_split_mix", lambda *a: splits.append(a[-1]) or split_mix(*a))
        schedule = StepSchedule(Polynomial(0.1, 1.0, 0.6), beta=2.0)
        x0 = np.random.default_rng(1).normal(size=(n, R, d))
        streams = [ReplicaStreams(range(R)) for _ in "ab"]
        track = algorithm != "gp-dscgd"

        state = ab_dscsc_init(problem, x0, streams[0], track=track)
        step = step_functions(problem, wp, W, schedule, streams[0], plans=plans)[algorithm]
        oracle, rng = OutOfPlaceQuadratic(problem), streams[1]
        z, _ = oracle.sample_inner_pair_all(x0, x0, rng)
        y = oracle.sample_grad_all(x0, z, rng) if track else None
        expected = x0, z, y, None if y is None else y.copy()
        for k in range(1, 6):
            state = step(state, k)
            expected = out_of_place_round(
                algorithm, expected, oracle, wp, W, schedule.alpha(k), schedule.beta_of(k), rng
            )
        for got, want in zip((state.x, state.z, state.y, state.h_prev), expected):
            if want is None:
                assert got is None
                continue
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if n == 500:  # the case covers the split mix: every mix of the steps took its plan
            assert None not in plans and splits and all(plan in plans for plan in splits)
        else:
            assert splits == []

    def test_zero_noise_hand_computed_round(self):
        prob = make_quadratic(3, 2, seed=1, noise_inner=0.0, noise_outer=0.0)
        wp = ring_weights(3)
        rng = ReplicaStreams([0])
        x0 = np.random.default_rng(2).normal(size=(3, 2))
        state = ab_dscsc_init(prob, x0[:, None], rng)
        one = lambda a: a[:, 0]  # the one replica's (n, d) array
        # with zero noise: z = Mx, y = exact local gradients
        np.testing.assert_allclose(one(state.z), prob.true_g(x0))
        alpha, beta = 0.05, 0.3
        nxt = ab_dscsc_step(state, prob, wp, alpha, beta, rng)
        x_exp = wp.A @ (x0 - alpha * one(state.y))
        np.testing.assert_allclose(one(nxt.x), x_exp)
        g_new, g_old = prob.true_g(x_exp), prob.true_g(x0)
        z_exp = (1 - beta) * (one(state.z) + g_new - g_old) + beta * g_new
        np.testing.assert_allclose(one(nxt.z), z_exp)
        h_exp = np.stack(
            [prob.M[i].T @ (prob.Q[i] @ nxt.z[i, 0] + prob.c[i]) for i in range(3)]
        )
        np.testing.assert_allclose(one(nxt.y), wp.B @ one(state.y) + h_exp - one(state.h_prev))

    def test_beta_out_of_range(self):
        prob = make_quadratic(2, 2, seed=0)
        wp = ring_weights(2)
        rng = ReplicaStreams([0])
        state = ab_dscsc_init(prob, np.zeros((2, 1, 2)), rng)
        with pytest.raises(ConfigurationError):
            ab_dscsc_step(state, prob, wp, 0.1, 0.0, rng)
        with pytest.raises(ConfigurationError):
            ab_dscsc_step(state, prob, wp, 0.1, 1.5, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6, -2e6])
    def test_guard_names_agent_of_bad_entry(self, bad):
        prob = make_quadratic(5, 2, seed=0)
        x0 = np.ones((5, 1, 2))
        x0[2, 0, 1] = bad
        rng = ReplicaStreams([0])
        ab_dscsc_init(prob, x0, rng)
        [err] = rng.diverged
        assert str(err) == "initial iterate non-finite or beyond 1e+06 at k=1, agent 3, seed 0"
        assert (err.agent, err.k, err.seed) == (3, 1, 0)

    @pytest.mark.parametrize("shape", [(4, 1, 2), (4, 3, 2)])
    def test_guard_boundary_values_pass(self, shape):
        arr = np.full(shape, 1e-300)
        arr[0, 0], arr[-1, -1] = 1e6, -0.0
        seeds = [11, 12, 13][: shape[1]]
        for a in (arr, -arr):
            rng = ReplicaStreams(seeds)
            _check_finite(a, 5, "iterate", rng)
            assert not rng.diverged

    def test_guard_passes_entries_whose_squares_sum_beyond_the_limit(self):
        # every entry is within 1e6, but the squares sum to 2.0e15 > 1e12: the per-entry
        # test decides, and flags nothing
        rng, arr = ReplicaStreams([11]), np.full((500, 1, 5), 9e5)
        _check_finite(arr, 5, "iterate", rng)
        assert not rng.diverged and (arr == 9e5).all()

    # 1e200 squares to inf, so the sum of squares overflows
    @pytest.mark.parametrize(
        "bad", [np.nextafter(1e6, np.inf), -np.nextafter(1e6, np.inf), np.nan, 1e200]
    )
    @pytest.mark.parametrize("batched", [False, True])  # seed 12 alone, or among three
    def test_guard_boundary_values_fail(self, bad, batched):
        seeds = [11, 12, 13] if batched else [12]
        r = seeds.index(12)
        arr = np.full((4, len(seeds), 2), 1e-300)
        arr[2, r, 1] = bad  # agent 3 of seed 12
        # the guard flags the replica and zeroes its entries; the others keep theirs
        rng, before = ReplicaStreams(seeds), arr.copy()
        _check_finite(arr, 5, "iterate", rng)
        [err] = rng.diverged
        assert str(err) == "iterate non-finite or beyond 1e+06 at k=5, agent 3, seed 12"
        assert (err.k, err.agent, err.seed) == (5, 3, 12)
        assert arr[:, r].tobytes() == np.zeros((4, 2)).tobytes()
        others = [q for q in range(len(seeds)) if q != r]
        assert arr[:, others].tobytes() == before[:, others].tobytes()

    def test_init_flags_a_bad_replica_of_a_read_only_start(self):
        prob = make_quadratic(4, 2, seed=0)
        x0 = np.ones((4, 3, 2))
        x0[1, 2, 0] = np.inf  # agent 2 of replica 2 (seed 13)
        x0.flags.writeable = False
        rng = ReplicaStreams([11, 12, 13])
        state = ab_dscsc_init(prob, x0, rng)
        [err] = rng.diverged
        assert str(err) == "initial iterate non-finite or beyond 1e+06 at k=1, agent 2, seed 13"
        assert x0[1, 2, 0] == np.inf and not state.x[:, 2].any() and (state.x[:, :2] == 1.0).all()

    @pytest.mark.parametrize("n,extra", [(3, 0), (5, 3), (10, 5)])
    def test_tracker_conservation(self, n, extra):
        # column stochasticity of B keeps sum_i y_i == sum_i h_i for all k
        prob = make_quadratic(n, 3, seed=2, noise_inner=0.2, noise_outer=0.2)
        wp = ring_weights(n, extra, seed=4)
        rng = ReplicaStreams([11])
        state = ab_dscsc_init(prob, np.zeros((n, 1, 3)), rng)
        for k in range(1, 101):
            state = ab_dscsc_step(state, prob, wp, 0.02 / k**0.6, min(1.0, 1.0 / k**0.6), rng)
            lhs = state.y.sum(axis=0)
            rhs = state.h_prev.sum(axis=0)
            denom = max(np.linalg.norm(rhs), 1e-30)
            assert np.linalg.norm(lhs - rhs) / denom < 1e-10


def mix_matrix(n, seed):
    """A row-stochastic ring + about n random edges, with an all-zero row and, in row 0,
    a dense one, whose terms every K split of the dense product cuts."""
    rng = np.random.default_rng(seed)
    W = np.eye(n) + np.eye(n, k=-1) + (rng.random((n, n)) < 1.0 / n)
    W[n // 2] = 0.0
    W[0] = 1.0
    return W / np.maximum(W.sum(1, keepdims=True), 1.0)


def mix_input(shape, seed):
    """Normals with -0.0 and subnormal entries and an all-(-0.0) agent row."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    picked = rng.permutation(flat.size)
    flat[picked[: flat.size // 8]] = -0.0
    flat[picked[flat.size // 8 : flat.size // 4]] *= 2.0**-1060
    x[-1] = -0.0
    return x


class TestMixPlan:
    """``_mix`` against the plain stacked product, byte for byte, on the dense or split path,
    with the plan a weight pair certifies for its matrix (``_certify``, through ``mixers``)."""

    @pytest.mark.parametrize("n", [1, 3, 10, 100, 400, 450, 500, 600, 1000])
    def test_mix_equals_the_stacked_product(self, n):
        start = time.perf_counter()
        W = mix_matrix(n, n)
        for d in (1, 2, 4, 5, 6, 10):
            plan = algorithms._certify(W, d)
            for R in (1, 2, 3):
                x = mix_input((n, R, d), seed=7 * d + R)
                assert algorithms._mix(W, x, plan).tobytes() == out_of_place_mix(W, x).tobytes(), (d, R)
            print(f"n={n} d={d}: {plan[0] if plan else 'dense'}")
        print(f"n={n}: {time.perf_counter() - start:.2f} s")

    def test_certification_refuses_a_split_the_dense_product_does_not_take(self, monkeypatch):
        # One-thread OpenBLAS GEMM cuts 500 columns at 256 (unroll 16), threaded GEMM
        # at 250, and neither at 255.
        A = ring_weights(500, 500).A
        x = np.random.default_rng(1).standard_normal((500, 1, 5))
        certified = {}
        for bounds in [(0, 255, 500), (0, 250, 500), (0, 256, 500)]:
            monkeypatch.setattr(algorithms, "_k_candidates", lambda n, bounds=bounds: [bounds])
            plan = algorithms._certify(A, 5)
            assert algorithms._mix(A, x, plan).tobytes() == out_of_place_mix(A, x).tobytes()
            certified[bounds] = plan and plan[0]
            assert certified[bounds] in (None, bounds)
        assert certified[(0, 255, 500)] is None
        assert None in (certified[(0, 250, 500)], certified[(0, 256, 500)])

    @pytest.mark.parametrize("n, d", [(500, 1), (500, 2), (500, 4), (1000, 1)])
    def test_a_no_pack_product_is_not_planned(self, monkeypatch, n, d):
        # n²·d <= 100³: the dense product is a no-pack product, and no split is tried for it
        monkeypatch.setattr(algorithms, "_k_candidates", lambda n: pytest.fail("a split was tried"))
        W = mix_matrix(n, n)
        assert algorithms._certify(W, d) is None
        for R in (1, 3):
            x = mix_input((n, R, d), seed=R)
            assert algorithms._mix(W, x).tobytes() == out_of_place_mix(W, x).tobytes()

    def test_the_plan_is_the_first_split_that_certifies(self, monkeypatch):
        # (0, 255, 500) is refused (see above); the next candidate is the dense product's
        # own split, (0, 256, 500) under one-thread SkylakeX GEMM, and it is the plan
        # without a clock being read
        A = ring_weights(500, 500).A
        taken = algorithms._certify(A, 5)
        assert taken is not None and taken[0] != (0, 255, 500)
        monkeypatch.setattr(algorithms, "_k_candidates", lambda n: [(0, 255, 500), taken[0]])

        def no_clock():
            raise AssertionError("planning read the clock")

        with monkeypatch.context() as m:
            m.setattr(time, "perf_counter", no_clock)
            assert algorithms._certify(A, 5) == taken

    def test_a_pair_certifies_each_matrix_once(self, monkeypatch):
        # gt-dscgd mixes with W, ab-dscsc with A and B: three plans for five runs
        certified = []
        certify = algorithms._certify
        monkeypatch.setattr(algorithms, "_certify", lambda M, d: certified.append(M) or certify(M, d))
        problem = make_quadratic(500, 5, seed=0, noise_inner=0.1, noise_outer=0.1)
        wp = ring_weights(500, 500)
        for algorithm in ["gt-dscgd"] * 3 + ["ab-dscsc"] * 2:
            run(algorithm, problem, sched(), 1, weights=wp, seed=3)
        mixed = (wp.mixing["W"], wp.A, wp.B)
        assert len(certified) == 3 and all(a is b for a, b in zip(certified, mixed))

    def test_the_pair_matrices_are_read_only(self):
        wp = ring_weights(10, 5)
        [(_, W, _)] = algorithms.mixers("gt-dscgd", wp, 2)
        for M in (wp.A, wp.B, W):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 0.5

    def test_a_pickled_pair_arrives_without_plans(self):
        wp = ring_weights(500, 500)
        for algorithm in ("ab-dscsc", "gt-dscgd"):
            list(algorithms.mixers(algorithm, wp, 5))
        tau_A, table = wp.tau_A, dict(wp.mixing)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            sent = pickle.loads(pickle.dumps(wp, protocol))
            for name in "ABuv":
                assert getattr(sent, name).tobytes() == getattr(wp, name).tobytes()
            assert not sent.A.flags.writeable and not sent.B.flags.writeable
            assert sent.mixing == {} and vars(sent)["tau_A"] == tau_A  # cached, not recomputed
        assert wp.mixing == table  # the sender keeps its plans

    @pytest.mark.parametrize("algorithm", ["ab-dscsc", "gt-dscgd"])
    def test_planning_draws_nothing(self, monkeypatch, algorithm):
        problem = make_quadratic(500, 5, seed=0, noise_inner=0.1, noise_outer=0.1)
        wp = ring_weights(500, 500)
        planned = csv_lines(run(algorithm, problem, sched(), 10, weights=wp, seed=3, metric_stride=5))
        # the x-mixing matrix's plan, kept on the pair
        assert next(algorithms.mixers(algorithm, wp, 5))[2] is not None
        monkeypatch.setattr(algorithms, "_k_candidates", lambda n: [])
        dense = pickle.loads(pickle.dumps(wp))  # the same pair with an empty table
        assert csv_lines(run(algorithm, problem, sched(), 10, weights=dense, seed=3, metric_stride=5)) == planned
        assert all(plan is None for _, _, plan in algorithms.mixers(algorithm, dense, 5))


class TestSingleAgentSteps:
    @staticmethod
    def state(x, z, y):
        """The one agent's state, one replica: (1, 1, d) arrays."""
        y = np.array([[y]])
        return NetworkState(k=1, x=np.array([[x]]), z=np.array([[z]]), y=y, h_prev=y.copy())

    def test_scgd_step_zero_noise(self):
        prob = make_quadratic(1, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        x, z, y = np.array([0.5, -1.0]), np.zeros(2), np.array([0.3, -0.2])
        nxt = scgd_step(self.state(x, z, y), prob, 0.1, 0.4, ReplicaStreams([0]))
        np.testing.assert_allclose(nxt.x[0, 0], x - 0.1 * y)
        g = prob.true_g(nxt.x)[0, 0]
        np.testing.assert_allclose(nxt.z[0, 0], 0.6 * z + 0.4 * g)
        grad = prob.M[0].T @ (prob.Q[0] @ nxt.z[0, 0] + prob.c[0])
        np.testing.assert_allclose(nxt.y[0, 0], grad)
        assert nxt.k == 2

    @pytest.mark.parametrize("step", [scsc_step, scgd_step])
    def test_a_runaway_gradient_is_flagged_as_the_tracker(self, step):
        # a finite iterate whose new gradient, the one agent's tracker, is beyond the limit
        prob = make_quadratic(1, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        rng = ReplicaStreams([0])
        nxt = step(self.state(np.zeros(2), np.full(2, 1e8), np.zeros(2)), prob, 0.1, 0.4, rng)
        assert [str(e) for e in rng.diverged] == [
            "gradient tracker non-finite or beyond 1e+06 at k=2, agent 1, seed 0"
        ]
        assert not nxt.y.any() and nxt.h_prev is nxt.y

    def test_scsc_step_correction_term(self):
        prob = make_quadratic(1, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        x_prev, y = np.array([0.2, 0.3]), np.array([-3.0, 13.0])
        z = np.array([1.0, 1.0])
        nxt = scsc_step(self.state(x_prev, z, y), prob, 0.1, 0.4, ReplicaStreams([0]))
        x = nxt.x[0, 0]
        np.testing.assert_allclose(x, x_prev - 0.1 * y)
        g_x, g_prev = prob.true_g(nxt.x)[0, 0], prob.true_g(x_prev[None])[0]
        np.testing.assert_allclose(nxt.z[0, 0], 0.6 * (z + g_x - g_prev) + 0.4 * g_x)


class TestDscgd:
    def test_gamma_beta_constraint(self):
        prob = make_quadratic(3, 2, seed=0)
        wp = ring_weights(3)
        W = np.eye(3)
        rng = ReplicaStreams([0])
        state = ab_dscsc_init(prob, np.zeros((3, 1, 2)), rng, track=False)
        assert state.y is None and state.h_prev is None
        with pytest.raises(ConfigurationError):
            dscgd_step(state, prob, W, 0.01, gamma=3.0, beta_k=0.5, rng=rng, track=False)

    def test_gt_tracker_conservation_doubly_stochastic(self):
        from dscosim.topology import underlying_metropolis

        prob = make_quadratic(4, 2, seed=1, noise_inner=0.1, noise_outer=0.1)
        g = generate_ring_plus_random(4, 2, 0)
        W = underlying_metropolis(g)
        rng = ReplicaStreams([0])
        state = ab_dscsc_init(prob, np.zeros((4, 1, 2)), rng, track=True)
        for _ in range(50):
            state = dscgd_step(state, prob, W, 0.02, gamma=2.0, beta_k=0.3, rng=rng, track=True)
            np.testing.assert_allclose(
                state.y.sum(axis=0), state.h_prev.sum(axis=0), rtol=1e-9, atol=1e-12
            )

    def test_weights_graph_pattern(self):
        wp = ring_weights(3)
        g = wp.graph_A
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})


# n = 1 instances; the logistic data are noisy enough to have an optimum
SINGLE_AGENT_FAMILIES = {
    "quadratic-d2": lambda: make_quadratic(1, 2, seed=9, noise_inner=0.3, noise_outer=0.3),
    "quadratic-d3": lambda: make_quadratic(1, 3, seed=9, noise_inner=0.3, noise_outer=0.3),
    "logistic": lambda: make_logistic_cso(1, 20, 4, seed=2, feature_scale=4.0, label_noise=4.0),
    "logistic-pool": lambda: make_logistic_cso(
        1, 20, 4, seed=2, fixed_inner_pool=5, feature_scale=4.0, label_noise=4.0
    ),
    "sigmoid": lambda: make_sigmoid_quadratic(1, 3, seed=3, p=2),
    "maml": lambda: make_sinusoid_maml(1, 20, 2, 0.01, seed=4),
}
# R = 20 at d = 2 puts both methods on the quadratic's two-multiply products.  Seed 4 of the
# MAML batch diverges: at n = 1 the AB tracker y is the fresh gradient, and both methods
# guard it as the gradient tracker, so both stop at k = 2.
SINGLE_AGENT_CASES = [(f, R) for f in sorted(SINGLE_AGENT_FAMILIES) for R in (1, 3)] + [("quadratic-d2", 20)]


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

    @pytest.mark.parametrize("family, R", SINGLE_AGENT_CASES)
    def test_single_agent_equivalence_short(self, family, R):
        # with one agent the networked corrected method IS the single-agent one, bit for bit:
        # the same rows, the same error for a seed that diverges, and every state
        prob = SINGLE_AGENT_FAMILIES[family]()
        wp = build_weight_pair(DirectedGraph(1), DirectedGraph(1))
        s = sched(0.02 if family == "maml" else 0.05, 1.0, 0.6, beta=1.0)
        seeds = list(range(3, 3 + R))

        def outcome(result):
            if isinstance(result, DivergenceError):
                return csv_lines(result.record), str(result)
            return csv_lines(result), None

        r_ab = run("ab-dscsc", prob, s, 300, weights=wp, seeds=seeds)
        r_sc = run("scsc", prob, s, 300, seeds=seeds)
        assert [outcome(r) for r in r_ab] == [outcome(r) for r in r_sc]
        states = zip(
            rounds("ab-dscsc", prob, s, 300, wp, ReplicaStreams(seeds)),
            rounds("scsc", prob, s, 300, wp, ReplicaStreams(seeds)),
            strict=True,
        )
        for a, b in states:
            assert [v.tobytes() for v in (a.x, a.z, a.y)] == [v.tobytes() for v in (b.x, b.z, b.y)], a.k

    @pytest.mark.parametrize(
        "shape, make_rng",
        [((3, 2), lambda: ReplicaStreams([0])), ((3, 2, 2), lambda: ReplicaStreams([0])),
         ((3, 1, 2), lambda: run_stream(0))],
        ids=["2-D x0", "R not the seed count", "plain Generator"],
    )
    def test_init_refuses_another_layout(self, shape, make_rng):
        # a plain Generator would draw (n, d) arrays and run silently on some families
        prob = make_logistic_cso(3, 20, 2, seed=0, label_noise=4.0)
        with pytest.raises(ConfigurationError, match="ReplicaStreams|x0 must have shape"):
            ab_dscsc_init(prob, np.zeros(shape), make_rng())

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

    @pytest.mark.parametrize(
        "seeds,match",
        [
            ({"seed": -1}, r"must lie in \[0, 2\*\*64\)"),
            ({"seeds": [0, 2**64]}, r"must lie in \[0, 2\*\*64\)"),
            ({"seed": 1.5}, r"must lie in \[0, 2\*\*64\)"),
            ({"seeds": [2, np.float64(3)]}, r"must lie in \[0, 2\*\*64\)"),
            ({"seeds": [4, 2, 4]}, r"seeds must be distinct, got \[4, 2, 4\]"),
        ],
        ids=["minus-one", "2**64", "one-and-a-half", "float64", "repeated"],
    )
    def test_seed_not_a_uint64_rejected(self, seeds, match):
        # each seed is a Philox key: -1 and 2**64 overflowed it, and 1.5 ran seed 1's stream;
        # records and flagged replicas are keyed by seed, so a seed is given once
        prob = make_quadratic(3, 2, seed=0)
        with pytest.raises(ConfigurationError, match=match):
            run("ab-dscsc", prob, sched(), 10, weights=ring_weights(3), **seeds)

    def test_seed_bounds_accepted(self):
        prob = make_quadratic(3, 2, seed=0)
        records = run("ab-dscsc", prob, sched(), 3, weights=ring_weights(3), seeds=[0, 2**64 - 1])
        assert [r.seed for r in records] == [0, 2**64 - 1]

    def test_replica_streams_need_a_seed(self):
        # the buffer block is sized per seed, so no seed is refused before that division
        with pytest.raises(ConfigurationError, match="seeds must hold at least one seed"):
            ReplicaStreams([])

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


WRAPPER_FREE_FAMILIES = {
    "quadratic-1": (lambda: make_quadratic(10, 5, seed=0), 1),
    "quadratic-20": (lambda: make_quadratic(10, 5, seed=0), 20),
    "logistic": (lambda: make_logistic_cso(4, 20, 3, 0, label_noise=4.0), 3),
    "logistic-pool": (lambda: make_logistic_cso(4, 20, 3, 0, fixed_inner_pool=5, label_noise=4.0), 3),
    "sigmoid": (lambda: make_sigmoid_quadratic(5, 4, seed=0, p=3), 3),
}


@pytest.mark.parametrize("family", sorted(WRAPPER_FREE_FAMILIES))
def test_rounds_and_rows_skip_the_einsum_wrapper(monkeypatch, family):
    """Every product of a round and of a metric row calls numpy's C einsum directly."""
    make, R = WRAPPER_FREE_FAMILIES[family]
    problem = make()
    if problem.has_optimum:  # solved before the first round, as the CLI does (scipy calls np.einsum)
        problem.optimum()
    wp = ring_weights(problem.n, extra=2)

    def wrapper(*args, **kwargs):
        raise AssertionError("np.einsum's Python wrapper was called")

    monkeypatch.setattr(np, "einsum", wrapper)
    states = list(rounds("ab-dscsc", problem, sched(), 5, wp, ReplicaStreams(range(R))))
    state = states[-1]
    rows = collect_row([state.k] * R, [0.05] * R, [1.0] * R, state.x.swapaxes(0, 1), state.z, problem, wp.u)
    assert state.k == 6 and [row.k for row in rows] == [6] * R


READ_ONLY_FAMILIES = {
    "quadratic": lambda n: make_quadratic(n, 3, seed=1, noise_inner=0.2, noise_outer=0.2),
    "sigmoid": lambda n: make_sigmoid_quadratic(n, 3, seed=3, p=2),
}


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("family", sorted(READ_ONLY_FAMILIES))
def test_steps_write_only_their_own_arrays(family, R):
    """Every step runs from a state whose arrays are all read-only, and the kept inner-map
    image is read-only: a write into it would change the next round's old point."""
    for algorithm in ALGORITHMS:
        n = 1 if algorithm in ("scsc", "scgd") else 4
        problem = READ_ONLY_FAMILIES[family](n)
        g = generate_ring_plus_random(n, 2, 0) if n > 1 else DirectedGraph(1)
        for state in rounds(algorithm, problem, sched(), 3, build_weight_pair(g, g), ReplicaStreams(range(R))):
            for a in (state.x, state.z, state.y, state.h_prev):
                if a is not None:
                    a.flags.writeable = False
        assert state.k == 4
        image = problem._cache["mapped"][1]
        with pytest.raises(ValueError, match="read-only"):
            image += 1.0


def serial_run(algorithm, problem, schedule, K, wp, seed, stride, eta=0.03, gamma=3.0):
    """One seed on an (n, 1, d) state, stepped and rowed one point at a time: the
    seed-at-a-time loop that ``run`` replaced, kept as the reference for its bits.
    Returns the record and the DivergenceError, if any."""
    rng = ReplicaStreams([seed])
    if hasattr(problem, "init_params"):
        x0 = np.tile(problem.init_params(rng.streams[0]), (problem.n, 1, 1))
    else:
        x0 = np.zeros((problem.n, 1, problem.d))
    W = underlying_metropolis(wp.graph_A)
    dscgd = algorithm.endswith("dscgd")
    u = wp.u if algorithm == "ab-dscsc" else np.ones(problem.n)
    step = step_functions(problem, wp, W, schedule, rng, eta, gamma)[algorithm]
    record = RunRecord(config={}, seed=seed)

    def note(st, k):
        alpha_k = eta if dscgd else schedule.alpha(k)
        [row] = collect_row([st.k], [alpha_k], [schedule.beta_of(k)], st.x.swapaxes(0, 1), st.z, problem, u)
        record.rows.append(row)

    state = ab_dscsc_init(problem, x0, rng, track=algorithm != "gp-dscgd")
    for k in range(K + 1):
        if k:
            state = step(state, k)
        if rng.diverged:
            [err] = rng.diverged
            record.status = f"diverged@{err.k}"
            return record, err
        if k % stride == 0:
            note(state, max(k, 1))
    return record, None


def csv_lines(record):
    return [ln for ln in record_to_csv(record).splitlines() if "wall_seconds" not in ln]


def assert_serial_bytes(algorithm, make, schedule, K, wp, seeds, results, stride=3):
    """Assert that each seed's entry of ``run``'s ``results`` has the CSV bytes and the
    error of its serial run on a fresh ``make()``; return the seeds that diverged."""
    diverged = set()
    for seed, result in zip(seeds, results):
        expected, err = serial_run(algorithm, make(), schedule, K, wp, seed, stride)
        if err is None:
            assert csv_lines(result) == csv_lines(expected)
            continue
        diverged.add(seed)
        assert csv_lines(result.record) == csv_lines(expected)
        assert str(result) == str(err)
        assert (result.k, result.agent, result.seed) == (err.k, err.agent, err.seed) and err.seed == seed
    return diverged


class PlannedDivergence:
    """A 4-agent quadratic whose stochastic gradient is 1 % of the quadratic's, except
    that seed s's replica takes the value ``plan[s][1]`` at its ``plan[s][0]``-th
    ``sample_grad_all`` call (call 0 at the start, call k in round k).  Under a stepsize
    of 2, a value of 6e5 passes the tracker guard and sends the next round's iterate
    beyond 1e6; inf fails the tracker guard at once.  An instance serves one run."""

    def __init__(self, plan):
        self.base = make_quadratic(4, 2, seed=1, noise_inner=0.2, noise_outer=0.2)
        self.plan, self.calls = plan, 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def sample_grad_all(self, X, Z, rng):
        h = 0.01 * self.base.sample_grad_all(X, Z, rng)
        for r, seed in enumerate(rng.seeds):
            call, value = self.plan.get(seed, (None, None))
            if call == self.calls:
                h[:, r] = value
        self.calls += 1
        return h


ONCE_PER_ROUND = {  # make, stepsize, methods, K, seeds, {seed: (check, k) or None}
    # the MAML batch of test_diverged_seeds_keep_their_serial_partial_records
    "maml": (
        lambda: make_sinusoid_maml(10, 20, 4, 0.01, seed=4),
        Polynomial(0.3, 1.0, 0.3),
        ["ab-dscsc", "gp-dscgd", "gt-dscgd"], 20, [5, 6, 7, 8, 9],
        {5: None, 8: None, 9: None},
    ),
    # seed 7 in round 1; in round 4 seed 4 crosses the iterate guard, then seed 6 the tracker's
    "planned": (
        lambda: PlannedDivergence({4: (3, 6e5), 6: (4, np.inf), 7: (1, np.inf)}),
        Polynomial(2.0, 0.0, 0.0),
        ["ab-dscsc"], 8, [3, 4, 5, 6, 7],
        {4: ("iterate", 5), 6: ("gradient tracker", 5), 7: ("gradient tracker", 2)},
    ),
    # every seed diverges, the last in round K (its state K + 1)
    "all-diverge": (
        lambda: PlannedDivergence({3: (2, np.inf), 4: (4, 6e5), 5: (6, np.inf)}),
        Polynomial(2.0, 0.0, 0.0),
        ["ab-dscsc"], 6, [3, 4, 5],
        {3: ("gradient tracker", 3), 4: ("iterate", 6), 5: ("gradient tracker", 7)},
    ),
}


HELD_BATCHES = {  # make, stepsize, methods, K, seeds, ROW_BATCH_BYTES, collect_row stack sizes
    # a row every round; x and z of a point take 640 B at R = 5, so a batch holds 4 points,
    # then 5 at R = 4 and 10 at R = 2: seed 7's drop after the start flushes that one point,
    # and the drop of seeds 4 and 6 in round 4 flushes rounds 1-3, three points of five
    "drop-inside-a-batch": (
        ONCE_PER_ROUND["planned"][0], Polynomial(2.0, 0.0, 0.0), ["ab-dscsc"], 8, [3, 4, 5, 6, 7],
        4 * 640, [5, 12, 10],
    ),
    # 11 rows in batches of 4 points (192 B each at R = 2)
    "partial-last-batch": (
        lambda: make_quadratic(3, 2, seed=5, noise_inner=0.2, noise_outer=0.2), Polynomial(0.1, 1.0, 0.6),
        ["ab-dscsc", "gp-dscgd", "gt-dscgd"], 10, [1, 2], 4 * 192, [8, 8, 6],
    ),
    # every point alone
    "one-point-batches": (
        lambda: make_quadratic(3, 2, seed=5, noise_inner=0.2, noise_outer=0.2), Polynomial(0.1, 1.0, 0.6),
        ["ab-dscsc", "gp-dscgd", "gt-dscgd"], 4, [1, 2], 1, [2] * 5,
    ),
}


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
        methods = ["ab-dscsc", "gp-dscgd", "gt-dscgd"] + (["scsc", "scgd"] if n == 1 else [])
        diverged = set()
        for algorithm in methods:
            results = run(algorithm, problem, schedule, K, weights=wp, seeds=seeds, metric_stride=3)
            diverged |= assert_serial_bytes(algorithm, lambda: problem, schedule, K, wp, seeds, results)
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

    @pytest.mark.parametrize("batch", sorted(ONCE_PER_ROUND))
    def test_every_round_runs_once(self, monkeypatch, batch):
        """A diverged seed leaves the batch where it stands: the batch takes each of its K
        rounds once, and every seed keeps the bytes and the error of its serial run."""
        make, rule, methods, K, seeds, diverged = ONCE_PER_ROUND[batch]
        schedule = StepSchedule(rule, beta=1.0)
        n = make().n
        wp = ring_weights(n, n // 2)
        steps = []  # patched by name, as the benchmark's tracer patches them
        for name in ("ab_dscsc_step", "dscgd_step"):
            step = getattr(algorithms, name)
            monkeypatch.setattr(algorithms, name, lambda *args, step=step: steps.append(1) or step(*args))
        found = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for algorithm in methods:
                steps.clear()
                results = run(algorithm, make(), schedule, K, weights=wp, seeds=seeds, metric_stride=3)
                assert len(steps) == K
                found |= assert_serial_bytes(algorithm, make, schedule, K, wp, seeds, results)
                for err in results:
                    if isinstance(err, DivergenceError) and diverged[err.seed] is not None:
                        what, k = diverged[err.seed]
                        assert str(err).startswith(f"{what} non-finite or beyond 1e+06 at k={k},")
        assert found == set(diverged)

    @pytest.mark.parametrize("batch", sorted(HELD_BATCHES))
    def test_held_rows_equal_serial_rows(self, monkeypatch, batch):
        """``run`` holds its row points and evaluates them in stacks of ``ROW_BATCH_BYTES``:
        a drop flushes the points held before it, the last batch may be short, and a
        batch may hold one point; every seed keeps the bytes and the error of its serial run."""
        make, rule, methods, K, seeds, batch_bytes, sizes = HELD_BATCHES[batch]
        monkeypatch.setattr(algorithms, "ROW_BATCH_BYTES", batch_bytes)
        stacks = []  # patched by name, as the benchmark's tracer patches it
        monkeypatch.setattr(algorithms, "collect_row", lambda *args: stacks.append(len(args[3])) or collect_row(*args))
        schedule = StepSchedule(rule, beta=1.0)
        wp = ring_weights(make().n, make().n // 2)
        for algorithm in methods:
            stacks.clear()
            results = run(algorithm, make(), schedule, K, weights=wp, seeds=seeds, metric_stride=1)
            assert stacks == sizes
            assert_serial_bytes(algorithm, make, schedule, K, wp, seeds, results, stride=1)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run("ab-dscsc", make_quadratic(3, 2, seed=5), sched(), 5, weights=ring_weights(3), seeds=[])

    def test_wall_seconds_share_the_batch_time(self):
        prob = make_quadratic(3, 2, seed=5)
        records = run("ab-dscsc", prob, sched(), 50, weights=ring_weights(3), seeds=[1, 2, 3, 4])
        assert len({r.wall_seconds for r in records}) == 1 and records[0].wall_seconds > 0
