import dataclasses

import numpy as np
import pytest

from dscosim.algorithms import ReplicaStreams, rounds, run_stream
from dscosim.errors import CapabilityError, ConfigurationError
from dscosim.problems import (
    LogisticProblem,
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
    monte_carlo_grad_h,
)
from dscosim.problems import base, quadratic
from dscosim.problems.maml import MlpRegressor
from dscosim.problems.quadratic import QuadraticProblem
from dscosim.problems.sigmoid import SigmoidQuadraticProblem
from dscosim.schedules import Polynomial, StepSchedule
from dscosim.topology import build_weight_pair, generate_ring_plus_random


def finite_diff_grad(fn, x, eps=1e-6):
    g = np.empty_like(x)
    for t in range(x.size):
        e = np.zeros_like(x)
        e[t] = eps
        g[t] = (fn(x + e) - fn(x - e)) / (2 * eps)
    return g


FAMILIES = {
    "quadratic": lambda: make_quadratic(3, 4, seed=1, noise_inner=0.2, noise_outer=0.3),
    "logistic": lambda: make_logistic_cso(3, 6, 4, seed=2),
    "logistic-pool": lambda: make_logistic_cso(3, 6, 4, seed=2, fixed_inner_pool=5),
    "sigmoid": lambda: make_sigmoid_quadratic(3, 4, seed=3, noise_inner=0.2, noise_outer=0.3),
}


@pytest.fixture(params=sorted(FAMILIES))
def family(request):
    return FAMILIES[request.param]()


class TestOracleContract:
    def test_shared_inner_sample(self, family):
        # both evaluations of a pair must use one common inner draw per agent:
        # with equal arguments they are bitwise identical
        rng = np.random.default_rng(0)
        X = rng.normal(size=(family.n, 1, family.d))
        a, b = family.sample_inner_pair_all(X, X, ReplicaStreams([7]))
        np.testing.assert_array_equal(a, b)

    def test_stacked_draw_order(self, family):
        # one stacked draw per call, row i for agent i, shared by both points
        rng = np.random.default_rng(5)
        X_new = rng.normal(size=(family.n, 1, family.d))
        X_old = 0.5 * X_new
        new, old = family.sample_inner_pair_all(X_new, X_old, ReplicaStreams([9]))
        ref = run_stream(9)  # the one replica's stream
        if isinstance(family, LogisticProblem):
            if family.pool is not None:
                phi = family.pool[ref.integers(0, len(family.pool), size=family.n)]
            else:
                phi = ref.normal(size=(family.n, family.d))
            for X, out in ((X_new, new), (X_old, old)):
                expected = -family.b * np.einsum("nmd,nd->nm", family.a + phi[:, None, :], X[:, 0])
                assert out.shape == (family.n, 1, family.m)
                np.testing.assert_allclose(out[:, 0], expected, rtol=1e-13, atol=1e-13)
        else:
            noise = family.sigma_phi * ref.normal(size=(family.n, new.shape[-1]))
            for X, out in ((X_new, new), (X_old, old)):
                G = family.true_g(X)
                assert out.shape == G.shape
                np.testing.assert_allclose(out[:, 0] - G[:, 0], noise, rtol=0, atol=1e-13)
        G = family.sample_grad_all(X_new, new, ReplicaStreams([9]))
        assert G.shape == (family.n, 1, family.d)

    def test_capability_flags_guard(self):
        prob = make_sinusoid_maml(2, 5, 3, 0.01, seed=0)
        assert not prob.has_true_grad
        with pytest.raises(CapabilityError):
            prob.true_grad_h(np.zeros(prob.d))
        with pytest.raises(CapabilityError):
            prob.optimum()

    def test_true_grad_matches_finite_difference(self, family):
        rng = np.random.default_rng(11)
        x = 0.3 * rng.normal(size=family.d)
        fd = finite_diff_grad(family.true_h, x)
        np.testing.assert_allclose(family.true_grad_h(x), fd, rtol=1e-5, atol=1e-7)


def per_agent_true_g(prob, i, x):
    """Agent i's closed-form inner value from its own product: the stacked form's reference."""
    if isinstance(prob, LogisticProblem):
        return -prob.b[i] * ((prob.a[i] + prob.phi_mean) @ x)
    if hasattr(prob, "W"):
        return np.tanh(prob.W[i] @ x)
    return np.matmul(prob.M[i], x[..., None])[..., 0]  # x: (d,) or (R, d)


STACKED_CASES = {
    "quadratic": lambda: make_quadratic(5, 3, seed=4),
    "quadratic-d1": lambda: make_quadratic(3, 1, seed=5),
    "quadratic-d9": lambda: make_quadratic(2, 9, seed=6),
    "logistic": lambda: make_logistic_cso(4, 7, 3, seed=2),
    "logistic-pool": lambda: make_logistic_cso(4, 7, 3, seed=2, fixed_inner_pool=5),
    "sigmoid": lambda: make_sigmoid_quadratic(4, 3, seed=3),
    "sigmoid-p6": lambda: make_sigmoid_quadratic(3, 4, seed=1, p=6),
}


class TestStackedTrueG:
    @pytest.mark.parametrize("case", sorted(STACKED_CASES))
    def test_bytes_equal_per_agent_values(self, case):
        prob = STACKED_CASES[case]()
        rng = np.random.default_rng(11)
        shape = (prob.n, prob.d)
        for X in (rng.normal(size=shape), np.zeros(shape), -rng.random(shape)):
            G = prob.true_g(X)
            expected = np.stack([per_agent_true_g(prob, i, X[i]) for i in range(prob.n)])
            assert G.shape == expected.shape and G.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n,R,d", [(1, 4, 3), (3, 50, 2), (10, 7, 5)])
    def test_quadratic_replica_batched_bytes(self, n, R, d):
        prob = make_quadratic(n, d, seed=n)
        X = np.random.default_rng(R).normal(size=(n, R, d))
        G = prob.true_g(X)
        expected = np.stack([per_agent_true_g(prob, i, X[i]) for i in range(n)])
        assert G.shape == (n, R, d) and G.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["quadratic", "sigmoid", "logistic", "logistic-pool"])
    @pytest.mark.parametrize("extra", [None, 0, 1])  # R = 1, n, n + 1
    def test_replica_batched_bytes_equal_per_replica_calls(self, case, extra):
        # labels broadcast agent by agent: a plain (n, m) broadcast against (n, R, m)
        # gives wrong values at R = n, an (n, n, m) array at R = 1, an error otherwise
        prob = STACKED_CASES[case]()
        R = 1 if extra is None else prob.n + extra
        X = np.random.default_rng(R).normal(size=(prob.n, R, prob.d))
        G = prob.true_g(X)
        expected = np.stack([prob.true_g(np.ascontiguousarray(X[:, r])) for r in range(R)], axis=1)
        assert G.shape == expected.shape and G.tobytes() == expected.tobytes()


CLOSED_FORM_FAMILIES = {
    "quadratic": lambda n, d: make_quadratic(n, d, seed=n + d),
    "logistic": lambda n, d: make_logistic_cso(n, 20, d, seed=n, feature_scale=4.0, label_noise=4.0),
    "sigmoid": lambda n, d: make_sigmoid_quadratic(n, d, seed=n, p=d + 1),
}


class TestStackedClosedForms:
    """``true_h`` and ``true_grad_h`` on a ``(P, d)`` stack against one call per point."""

    @staticmethod
    def assert_stack_equals_points(prob, X):
        H, G = prob.true_h(X), prob.true_grad_h(X)
        assert H.shape == X.shape[:-1] and G.shape == X.shape
        for q, x in enumerate(X):
            x = x.copy()
            assert H[q].tobytes() == np.float64(prob.true_h(x)).tobytes(), q
            assert G[q].tobytes() == prob.true_grad_h(x).tobytes(), q

    @pytest.mark.parametrize("n", [3, 10, 60, 500, 1000])
    @pytest.mark.parametrize("family", sorted(CLOSED_FORM_FAMILIES))
    def test_stack_bytes_equal_per_point_calls(self, family, n):
        rng = np.random.default_rng(n)
        for d in (1, 2, 5):
            prob = CLOSED_FORM_FAMILIES[family](n, d)
            for P in (1, 2, 7, 64):
                self.assert_stack_equals_points(prob, rng.normal(scale=3.0, size=(P, d)))
            self.assert_stack_equals_points(prob, np.zeros((2, d)))

    @pytest.mark.parametrize(
        "family,n,d", [("quadratic", 1, 2), ("quadratic", 1, 5), ("logistic", 500, 1), ("logistic", 1000, 1)]
    )
    def test_point_by_point_shapes(self, family, n, d):
        # one agent's quadratic form at d = 2, and a logistic gradient over n·m > 8192 terms at
        # d = 1: einsum sums one point in an order that no stack shares, so these go point by point
        prob = CLOSED_FORM_FAMILIES[family](n, d)
        X = np.random.default_rng(n + d).normal(scale=3.0, size=(64, d))
        self.assert_stack_equals_points(prob, X)
        self.assert_stack_equals_points(prob, X[:, None][::2])  # (32, 1, d): any leading axes

    @pytest.mark.parametrize("family", sorted(CLOSED_FORM_FAMILIES))
    def test_point_bytes_do_not_depend_on_the_stack(self, family):
        prob = CLOSED_FORM_FAMILIES[family](10, 5)
        rng = np.random.default_rng(4)
        X, Y = rng.normal(size=(2, 7, 5))
        Y[3] = X[3]
        for form in (prob.true_h, prob.true_grad_h):
            assert form(X)[3].tobytes() == form(Y)[3].tobytes() == form(X[3:4])[0].tobytes()


SAME_POINT_CASES = {
    "quadratic": lambda: make_quadratic(4, 3, seed=1, noise_inner=0.2),
    "logistic": lambda: make_logistic_cso(3, 6, 4, seed=2),
    "logistic-pool": lambda: make_logistic_cso(3, 6, 4, seed=2, fixed_inner_pool=5),
    "sigmoid-p6": lambda: make_sigmoid_quadratic(3, 4, seed=1, p=6, noise_inner=0.2),
    "maml": lambda: make_sinusoid_maml(3, 5, 3, 0.01, seed=0),
}


class TestSamePointInnerPair:
    """One array passed as both points gives the bytes and draws of two equal arrays."""

    @staticmethod
    def check(prob, X, streams):
        a_new, a_old = prob.sample_inner_pair_all(X, X, streams[0])
        b_new, b_old = prob.sample_inner_pair_all(X, X.copy(), streams[1])
        for a, b in ((a_new, b_new), (a_old, b_old)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # both stream sets stand at one position: each stream's state, the read position
        # and the laid-out draws
        for a, b in zip(streams[0].streams, streams[1].streams):
            np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
        assert (streams[0]._t, streams[0]._end) == (streams[1]._t, streams[1]._end)
        assert streams[0]._draws.tobytes() == streams[1]._draws.tobytes()

    @pytest.mark.parametrize("case", sorted(SAME_POINT_CASES))
    def test_bytes_and_draws_equal(self, case):
        prob = SAME_POINT_CASES[case]()
        X = np.random.default_rng(4).normal(size=(prob.n, 1, prob.d))
        self.check(prob, X, [ReplicaStreams([9]), ReplicaStreams([9])])

    def test_quadratic_replica_batched(self):
        prob = make_quadratic(3, 2, seed=2, noise_inner=0.3)
        X = np.random.default_rng(1).normal(size=(3, 5, 2))
        self.check(prob, X, [ReplicaStreams(range(5)), ReplicaStreams(range(5))])


KEPT_MAP_FAMILIES = {
    "quadratic": (QuadraticProblem, lambda n: make_quadratic(n, 3, seed=1, noise_inner=0.2)),
    "sigmoid": (
        SigmoidQuadraticProblem,
        lambda n: make_sigmoid_quadratic(n, 3, seed=1, p=4, noise_inner=0.2),
    ),
}


@pytest.fixture
def count_inner_maps(monkeypatch):
    """Patch a family's inner-map product to count its calls; returns the call list."""

    def patch(cls):
        calls = []
        real = cls._inner_map

        def counted(self, X):
            calls.append(X)
            return real(self, X)

        monkeypatch.setattr(cls, "_inner_map", counted)
        return calls

    return patch


class TestKeptInnerMap:
    """The inner-map product kept for the next round's old point changes no bit."""

    @staticmethod
    def trajectory(algorithm, n, seeds, make, drop):
        problem = make(n)
        graph = generate_ring_plus_random(n, n, 0) if n > 1 else None
        weights = build_weight_pair(graph, graph) if n > 1 else None
        schedule = StepSchedule(Polynomial(0.5, 5.0, 0.7), beta=1.0)
        states = rounds(algorithm, problem, schedule, 50, weights, ReplicaStreams(seeds))
        out = []
        for state in states:
            out += [a.tobytes() for a in (state.x, state.z, state.y, state.h_prev) if a is not None]
            if drop:
                problem._cache.pop("mapped", None)
        return out

    @pytest.mark.parametrize("case", sorted(KEPT_MAP_FAMILIES))
    @pytest.mark.parametrize(
        "algorithm, n, seeds",
        [
            ("ab-dscsc", 10, [0]),
            ("ab-dscsc", 10, [0, 1, 2, 3]),
            ("gt-dscgd", 10, [0]),
            ("gt-dscgd", 10, [0, 1, 2, 3]),
            ("scsc", 1, [0]),
        ],
    )
    def test_trajectory_equals_recomputed(self, case, algorithm, n, seeds):
        make = KEPT_MAP_FAMILIES[case][1]
        kept = self.trajectory(algorithm, n, seeds, make, drop=False)
        assert kept == self.trajectory(algorithm, n, seeds, make, drop=True)

    @pytest.mark.parametrize("case", sorted(KEPT_MAP_FAMILIES))
    def test_hit_is_by_identity(self, case, count_inner_maps):
        cls, make = KEPT_MAP_FAMILIES[case]
        problem = make(3)
        calls = count_inner_maps(cls)
        rng = ReplicaStreams([0])
        x0, x1 = np.random.default_rng(0).normal(size=(2, 3, 1, 3))
        problem.sample_inner_pair_all(x1, x0, rng)
        assert problem._cache["mapped"][0] is x1 and len(calls) == 2
        problem.sample_inner_pair_all(x1.copy(), x1, rng)  # equal values, another array
        assert len(calls) == 3 and calls[-1] is not x1
        assert problem._cache["mapped"][0] is not x1

    @pytest.mark.parametrize("case", sorted(KEPT_MAP_FAMILIES))
    def test_one_product_per_round(self, case, count_inner_maps):
        cls, make = KEPT_MAP_FAMILIES[case]
        problem = make(10)
        calls = count_inner_maps(cls)
        graph = generate_ring_plus_random(10, 10, 0)
        schedule = StepSchedule(Polynomial(0.5, 5.0, 0.7), beta=1.0)
        weights = build_weight_pair(graph, graph)
        states = rounds("ab-dscsc", problem, schedule, 20, weights, ReplicaStreams([0]))
        next(states)
        start = len(calls)
        assert start == 1  # the start maps x0 once, for z and, in the sigmoid family, y
        for k, _ in enumerate(states, 1):
            assert len(calls) - start == k


REPLACE_CASES = {
    "quadratic": (lambda: make_quadratic(3, 2, seed=1), lambda p: {"Q": 2 * p.Q}),
    "logistic": (lambda: make_logistic_cso(4, 8, 3, seed=5), lambda p: {"b": -p.b}),
    "sigmoid": (lambda: make_sigmoid_quadratic(3, 2, seed=3), lambda p: {"W": 2 * p.W}),
}


@pytest.mark.parametrize("case", sorted(REPLACE_CASES))
def test_replace_computes_its_own_constants(case):
    """``dataclasses.replace`` after every constant and the kept map are in use gives
    the values of an instance built afresh from the same fields."""
    make, changes = REPLACE_CASES[case]
    prob = make()
    X = np.random.default_rng(0).normal(size=(prob.n, 1, prob.d))
    x = X[0, 0]
    if prob.has_optimum:
        prob.optimum()
    prob.true_grad_h(x), prob.true_h(x)
    prob.sample_inner_pair_all(X, X, ReplicaStreams([1]))
    new = dataclasses.replace(prob, **changes(prob))
    # built from the data fields only: a parent's cache must not reach this instance either
    fresh = type(prob)(**{f.name: getattr(new, f.name) for f in dataclasses.fields(new) if f.name[0] != "_"})

    def values(p):
        pair = p.sample_inner_pair_all(X, X, ReplicaStreams([1]))
        out = [p.true_grad_h(x), np.float64(p.true_h(x)), *pair]
        return [a.tobytes() for a in out + ([p.optimum()] if p.has_optimum else [])]

    assert values(new) == values(fresh)


class TestQuadratic:
    def test_optimum_is_stationary(self):
        prob = make_quadratic(4, 3, seed=0)
        np.testing.assert_allclose(prob.true_grad_h(prob.optimum()), 0.0, atol=1e-12)

    def test_strong_convexity_positive(self):
        prob = make_quadratic(4, 3, seed=0)
        assert prob.strong_convexity > 0

    def test_hessian_via_finite_difference(self):
        prob = make_quadratic(2, 3, seed=4)
        nd = prob.normality_data()
        x = np.random.default_rng(1).normal(size=3)
        # H/n is the Hessian of the global objective everywhere (quadratic)
        eps = 1e-5
        for t in range(3):
            e = np.zeros(3)
            e[t] = eps
            col = (prob.true_grad_h(x + e) - prob.true_grad_h(x - e)) / (2 * eps)
            np.testing.assert_allclose(col, nd.H[:, t] / prob.n, rtol=1e-6, atol=1e-8)

    def test_noise_covariances_against_monte_carlo(self):
        prob = make_quadratic(2, 2, seed=7, noise_inner=0.3, noise_outer=0.4)
        nd = prob.normality_data()
        xs = prob.optimum()
        rng = np.random.default_rng(99)
        draws = 200_000
        # S1: covariance of the summed gradient noise with z fixed at g_i(x*)
        z_star = prob.true_g(np.tile(xs, (prob.n, 1)))
        s1_samp = np.empty((draws, 2))
        s2_samp = np.empty((draws, 2))
        zeta = rng.normal(size=(draws, prob.n, 2)) * prob.sigma_zeta
        phi = rng.normal(size=(draws, prob.n, 2)) * prob.sigma_phi
        s1_samp = np.einsum("nji,tnj->ti", prob.M, zeta)
        s2_samp = np.einsum("nji,njk,tnk->ti", prob.M, prob.Q, phi)
        for samp, S in [(s1_samp, nd.S1), (s2_samp, nd.S2)]:
            emp = np.cov(samp.T, ddof=1)
            rel = np.linalg.norm(emp - S) / np.linalg.norm(S)
            assert rel < 0.02

    def test_zero_noise_sampling_is_exact(self):
        prob = make_quadratic(3, 2, seed=3, noise_inner=0.0, noise_outer=0.0)
        X = np.tile(np.random.default_rng(0).normal(size=2), (prob.n, 1, 1))
        G, _ = prob.sample_inner_pair_all(X, X, ReplicaStreams([0]))
        np.testing.assert_allclose(G, prob.true_g(X))

    @pytest.mark.parametrize("n,d", [(500, 5), (10, 5), (3, 2), (50, 9), (4, 1), (20, 16)])
    @pytest.mark.parametrize("conditioning", [1.0, 10.0])
    def test_stacked_build_bytes_equal_per_agent_loop(self, n, d, conditioning):
        def per_agent(seed):  # the one-agent-at-a-time construction the stacked one replaced
            rng = np.random.default_rng(seed)
            M, Q = np.empty((n, d, d)), np.empty((n, d, d))
            c = rng.normal(size=(n, d))
            for i in range(n):
                u_m, _ = np.linalg.qr(rng.normal(size=(d, d)))
                v_m, _ = np.linalg.qr(rng.normal(size=(d, d)))
                M[i] = u_m @ np.diag(rng.uniform(0.6, 1.4, size=d)) @ v_m.T
                u_q, _ = np.linalg.qr(rng.normal(size=(d, d)))
                Q[i] = u_q @ np.diag(np.linspace(1.0, conditioning, d)) @ u_q.T
                Q[i] = 0.5 * (Q[i] + Q[i].T)
            return M, Q, c

        for seed in range(3):
            prob = make_quadratic(n, d, seed, conditioning=conditioning)
            for got, want in zip((prob.M, prob.Q, prob.c), per_agent(seed)):
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 500])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
    def test_true_h_equals_agent_first_quadratic_form(self, n, d):
        def reference(prob, x):  # the agent-first form that the agent-last one replaced
            g = np.einsum("nij,j->ni", prob.M, x)
            vals = 0.5 * np.einsum("ni,nij,nj->n", g, prob.Q, g) + np.einsum("ni,ni->n", prob.c, g)
            return float(np.add.reduce(vals) / len(vals))

        prob = make_quadratic(n, d, seed=n + d)
        rng = np.random.default_rng(7)
        # x = 0 is what the k=1 row evaluates
        for x in (np.zeros(d), *(s * rng.normal(size=d) for s in (0.01, 1.0, 1.0, 100.0))):
            assert prob.true_h(x) == reference(prob, x)

    def test_noise_covariances_on_first_read(self):
        prob = make_quadratic(6, 4, seed=2, noise_inner=0.3, noise_outer=0.4)
        nd = prob.normality_data()
        assert "S1" not in vars(nd) and "S2" not in vars(nd)
        assert nd.H is prob._hessian and nd.T is prob.Q
        S1 = prob.sigma_zeta**2 * np.einsum("nji,njk->ik", prob.M, prob.M)
        S2 = prob.sigma_phi**2 * np.einsum("nji,njk,nkl,nlm->im", prob.M, prob.Q, prob.Q, prob.M)
        assert nd.S1.tobytes() == S1.tobytes() and nd.S2.tobytes() == S2.tobytes()
        assert nd.S1 is nd.S1 and nd.S2 is nd.S2

    def test_bad_conditioning_rejected(self):
        with pytest.raises(ConfigurationError):
            make_quadratic(2, 2, 0, conditioning=0.5)


def contract_operands(n, R, d, seed):
    """A and X with an all-zero agent row of X and -0.0 entries in both.

    einsum's +0.0 start shows only in the sign of a zero sum, which a product chain
    without it gets wrong on such rows."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d, d))
    X = rng.normal(size=(n, R, d))
    X[0] = 0.0  # the quadratic start x0 = 0 is such a row
    X[-1, :, ::2] = -0.0
    A[-1, 0] = -0.0
    return A, X


class TestAgentContract:
    """The quadratic's per-agent products against the einsums they replace, byte for byte.

    At d = 2 with at least 20 replicas they run as two multiplies and an add, whose
    bits every summation order of einsum shares; elsewhere they run the einsum.
    """

    @pytest.mark.parametrize(
        "spec,name", [("nij,n...j->n...i", "M"), ("nij,n...j->n...i", "Q"), ("nji,n...j->n...i", "M")]
    )
    def test_dispatched_products_equal_einsum(self, spec, name):
        for n in (1, 3, 10, 60):
            for R in (1, 20, 50, 200):
                M, X = contract_operands(n, R, 2, seed=n + R)
                prob = QuadraticProblem(M=M, Q=-M, c=np.zeros((n, 2)), sigma_phi=0.1, sigma_zeta=0.1)
                for operand in (X, X[:, :, ::-1], np.asfortranarray(X)):
                    got = prob._agent_product(spec, name, operand)
                    want = np.einsum(spec, getattr(prob, name), operand)
                    assert got.tobytes() == want.tobytes(), (n, R)

    @pytest.mark.parametrize(
        "shape,kernel",
        [((3, 20, 2), True), ((3, 200, 2), True), ((60, 50, 2), True), ((3, 19, 2), False),
         ((3, 1, 2), False), ((500, 1, 5), False), ((1, 1, 2), False), ((3, 50, 3), False),
         ((3, 200, 8), False), ((10, 200, 9), False), ((1, 20, 2), True)],
    )
    def test_dispatch(self, monkeypatch, shape, kernel):
        calls = []

        def recording_einsum(*args):
            calls.append(args)
            return base.einsum(*args)

        monkeypatch.setattr(quadratic, "einsum", recording_einsum)
        n, R, d = shape
        prob = make_quadratic(n, d, seed=1)
        X = np.random.default_rng(2).normal(size=shape)
        rng = ReplicaStreams(range(R))
        Z, _ = prob.sample_inner_pair_all(X, X, rng)
        prob.sample_grad_all(X, Z, rng)
        assert len(calls) == (0 if kernel else 3)


# every subscript string the quadratic, logistic and sigmoid families pass to base.einsum
FAMILY_EINSUM_SPECS = [
    "nij,n...j->n...i", "nji,n...j->n...i", "nji,njk,nkl->il", "nji,nj->i", "nij,j->ni",
    "in,ijn,jn->n", "ni,ni->n", "nji,njk->ik", "nji,njk,nkl,nlm->im",
    "n...md,n...d->n...m", "n...m,n...md,n...m->n...d", "nmd,d->nm", "nmd,nm->d",
    "npd,n...d->n...p", "npd,n...p,n...p->n...d", "npd,d->np", "npd,np,np->d",
    # the stacked closed forms, whose one-point calls are the forms above
    "nij,...j->...ni", "...in,ijn,...jn->...n", "ni,...ni->...n", "nmd,...d->...nm", "nmd,...nm->...d",
    "npd,...d->...np", "npd,...np,...np->...d",
]


@pytest.mark.parametrize("spec", FAMILY_EINSUM_SPECS)
def test_c_einsum_equals_np_einsum(spec):
    """``base.einsum``, numpy's C routine, against ``np.einsum`` byte for byte: n = 4
    agents, m = d + 3, every other index d long, and each ``...`` no axis or R replicas."""
    leads = [(), (1,), (2,), (20,)] if "..." in spec else [()]
    rng = np.random.default_rng(0)
    for d in (2, 5, 10):
        for lead in leads:
            sizes = {"n": (4,), "m": (d + 3,), ".": lead}
            terms = spec.split("->")[0].replace("...", ".").split(",")
            shapes = [sum((sizes.get(letter, (d,)) for letter in term), ()) for term in terms]
            operands = [rng.normal(size=shape) for shape in shapes]
            got = base.einsum(spec, *operands)
            assert got.tobytes() == np.einsum(spec, *operands).tobytes(), (d, lead)


class TestLogistic:
    def test_labels_are_signs(self):
        prob = make_logistic_cso(3, 10, 4, seed=1)
        assert set(np.unique(prob.b)) <= {-1.0, 1.0}

    def test_optimum_near_stationary(self):
        prob = make_logistic_cso(4, 8, 3, seed=5)
        assert np.linalg.norm(prob.true_grad_h(prob.optimum())) < 1e-8

    def test_separable_data_rejected(self):
        # every margin can be made positive, so the infimum 0 is not attained
        with pytest.raises(ConfigurationError, match="linearly separable"):
            make_logistic_cso(4, 6, 3, seed=2).optimum()

    @pytest.mark.parametrize("seed", range(10))
    def test_noisy_desk_scale_instances_have_an_optimum(self, seed):
        prob = make_logistic_cso(10, 20, 10, seed=seed, feature_scale=4.0, label_noise=4.0)
        assert np.linalg.norm(prob.optimum()) < 1.0

    def test_pool_mean_used_in_closed_forms(self):
        prob = make_logistic_cso(2, 5, 3, seed=2, fixed_inner_pool=4)
        x = np.random.default_rng(0).normal(size=3)
        expected = -prob.b[0] * ((prob.a[0] + prob.pool.mean(axis=0)) @ x)
        np.testing.assert_allclose(prob.true_g(np.tile(x, (2, 1)))[0], expected)

    @staticmethod
    def plain_oracle(prob, rng):
        """The oracle's draws and products as plain expressions: a broadcast a + phi,
        -b taken per call, and the gradient as one three-operand einsum."""

        def shifted():
            if prob.pool is not None:
                phi = prob.pool[rng.integers(0, prob.pool.shape[0], size=prob.n)]
            else:
                phi = rng.normal(size=(prob.n, prob.d))
            phi = phi[..., None, :]
            return base.per_agent(prob.a, phi) + phi

        def inner_pair(X_new, X_old):
            s = shifted()
            b = base.per_agent(prob.b, s[..., 0])
            return tuple(-b * np.einsum("n...md,n...d->n...m", s, X) for X in (X_new, X_old))

        def grad(Z):
            w = 0.5 * (1.0 + np.tanh(0.5 * Z)) / prob.m
            return -np.einsum("n...m,n...md,n...m->n...d", prob.b, shifted(), w)

        return inner_pair, grad

    @pytest.mark.parametrize("pool", [0, 5])
    @pytest.mark.parametrize("R", [1, 2, 20])
    def test_oracle_bits_equal_the_plain_expressions(self, pool, R):
        prob = make_logistic_cso(
            10, 20, 10, seed=0, fixed_inner_pool=pool, feature_scale=4.0, label_noise=4.0
        )
        rng, plain_rng = ReplicaStreams(range(R)), ReplicaStreams(range(R))
        inner_pair, grad = self.plain_oracle(prob, plain_rng)
        data = np.random.default_rng(1)
        for _ in range(30):
            X_new, X_old = 3 * data.normal(size=(2, 10, R, 10))
            Z = 50 * data.normal(size=(10, R, 20))
            Z[0] = -2000.0  # the sigmoid underflows to 0: agent 1's gradient is a signed zero
            got = prob.sample_inner_pair_all(X_new, X_old, rng)
            assert [g.tobytes() for g in got] == [e.tobytes() for e in inner_pair(X_new, X_old)]
            got = prob.sample_grad_all(X_new, Z, rng)
            assert got.tobytes() == grad(Z).tobytes()  # tobytes compares sign bits too
        assert (got[0] == 0).all() and np.signbit(got[0]).all()

    def test_inner_mean_is_true_g(self):
        # E over phi of the sampled inner value equals the closed form
        prob = make_logistic_cso(1, 4, 3, seed=3)
        rng = np.random.default_rng(42)
        x = rng.normal(size=3)
        draws = 200_000
        acc = np.zeros(4)
        phi = rng.normal(size=(draws, 3))
        vals = -prob.b[0] * np.einsum("tmd,d->tm", prob.a[0] + phi[:, None, :], x)
        acc = vals.mean(axis=0)
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(acc - prob.true_g(x[None])[0]) < 4 * stderr + 1e-12)


class TestSigmoid:
    def test_inner_dim_override(self):
        prob = make_sigmoid_quadratic(2, 3, seed=0, p=5)
        assert prob.p == 5 and prob.d == 3

    def test_gradient_zero_noise_matches_closed_form(self):
        prob = make_sigmoid_quadratic(3, 4, seed=1, noise_inner=0.0, noise_outer=0.0)
        x = np.random.default_rng(2).normal(size=4)
        X = np.tile(x, (prob.n, 1, 1))
        Z = prob.true_g(X)
        grads = prob.sample_grad_all(X, Z, ReplicaStreams([2]))
        np.testing.assert_allclose(grads.mean(axis=0)[0], prob.true_grad_h(x), atol=1e-12)


class TestMlpRegressor:
    def test_param_count(self):
        assert MlpRegressor(8).n_params == 8 + 8 + 64 + 8 + 8 + 1

    def test_backprop_matches_finite_difference(self):
        net = MlpRegressor(3)
        rng = np.random.default_rng(0)
        x = net.init_params(rng) + 0.01 * rng.normal(size=net.n_params)
        inputs = rng.uniform(-5, 5, size=7)
        targets = rng.normal(size=7)
        _, grad = net.loss_grad(x, inputs, targets)
        fd = finite_diff_grad(lambda p: net.loss_grad(p, inputs, targets)[0], x)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestMaml:
    def test_hvp_matches_dense_hessian(self):
        # width-2 net: build the full finite-difference Hessian of the task loss
        prob = make_sinusoid_maml(1, 3, 2, 0.01, seed=0)
        rng = np.random.default_rng(1)
        x = prob.init_params(rng) + 0.05 * rng.normal(size=prob.d)
        batch = prob._draw_batch(0, rng)
        v = rng.normal(size=prob.d)
        d = prob.d
        eps = 1e-5
        H = np.empty((d, d))
        for t in range(d):
            e = np.zeros(d)
            e[t] = eps
            gp = prob._task_grad(x + e, batch)
            gm = prob._task_grad(x - e, batch)
            H[:, t] = (gp - gm) / (2 * eps)
        np.testing.assert_allclose(prob.hvp(x, v, batch), H @ v, atol=1e-4)

    def test_inner_is_one_adaptation_step(self):
        prob = make_sinusoid_maml(2, 3, 2, 0.02, seed=0)
        rng = np.random.default_rng(3)
        X = np.stack([prob.init_params(rng) for _ in range(prob.n)])[:, None]
        adapted, _ = prob.sample_inner_pair_all(X, X, ReplicaStreams([5]))
        # same stream reproduces the same batches, agent by agent, so the step is checkable
        rng2 = run_stream(5)
        for i in range(prob.n):
            batch = prob._draw_batch(i, rng2)
            np.testing.assert_allclose(adapted[i, 0], X[i, 0] - 0.02 * prob._task_grad(X[i, 0], batch))

    def test_zero_adapt_step_gradient_is_plain(self):
        prob = make_sinusoid_maml(2, 3, 2, 0.0, seed=0)
        rng = np.random.default_rng(4)
        X = np.stack([prob.init_params(rng) for _ in range(prob.n)])[:, None]
        G = prob.sample_grad_all(X, X, ReplicaStreams([6]))
        rng2 = run_stream(6)
        for i in range(prob.n):
            prob._draw_batch(i, rng2)  # inner batch draw comes first
            outer = prob._draw_batch(i, rng2)
            np.testing.assert_allclose(G[i, 0], prob._task_grad(X[i, 0], outer))

    def test_amplitude_phase_ranges(self):
        prob = make_sinusoid_maml(3, 50, 2, 0.01, seed=9)
        assert prob.amplitude.min() >= 0.1 and prob.amplitude.max() <= 5.0
        assert prob.phase.min() >= 0.0 and prob.phase.max() <= 2 * np.pi


def one_net_loss_grad(net, x, inputs, targets):
    """The one-net form the stacked ``MlpRegressor.loss_grad`` replaced: x is one
    ``(n_params,)`` vector and the minibatch one ``(B,)`` pair."""
    w = net.width
    o = 0
    W1 = x[o : o + w].reshape(w, 1); o += w
    b1 = x[o : o + w]; o += w
    W2 = x[o : o + w * w].reshape(w, w); o += w * w
    b2 = x[o : o + w]; o += w
    W3 = x[o : o + w].reshape(1, w); o += w
    b3 = x[o : o + 1]
    X = inputs[:, None]
    a1 = X @ W1.T + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ W2.T + b2
    h2 = np.maximum(a2, 0.0)
    out = (h2 @ W3.T + b3)[:, 0]
    B = inputs.shape[0]
    resid = out - targets
    loss = float(np.mean(resid**2))
    d_out = (2.0 / B) * resid[:, None]
    gW3 = d_out.T @ h2
    gb3 = d_out.sum(axis=0)
    d_h2 = (d_out @ W3) * (a2 > 0)
    gW2 = d_h2.T @ h1
    gb2 = d_h2.sum(axis=0)
    d_h1 = (d_h2 @ W2) * (a1 > 0)
    gW1 = d_h1.T @ X
    gb1 = d_h1.sum(axis=0)
    return loss, np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2, gW3.ravel(), gb3])


class OneNetMamlOracle:
    """The agent-by-agent loop the stacked MAML oracle replaced: one net per call,
    replica by replica over a ReplicaStreams's streams."""

    def __init__(self, prob):
        self.prob = prob

    def task_grad(self, x, batch):
        return one_net_loss_grad(self.prob.net, x, *batch)[1]

    def hvp(self, x, vec, batch):
        eps = 1e-4 * (1.0 + np.linalg.norm(x)) / max(np.linalg.norm(vec), 1e-12)
        gp = self.task_grad(x + eps * vec, batch)
        gm = self.task_grad(x - eps * vec, batch)
        return (gp - gm) / (2.0 * eps)

    def inner_pair(self, X_new, X_old, rng, same):
        new, old = [], []
        for i in range(self.prob.n):
            batch = self.prob._draw_batch(i, rng)
            new.append(X_new[i] - self.prob.adapt_step * self.task_grad(X_new[i], batch))
            if not same:
                old.append(X_old[i] - self.prob.adapt_step * self.task_grad(X_old[i], batch))
        new = np.stack(new)
        return (new, new) if same else (new, np.stack(old))

    def grad(self, X, Z, rng):
        grads = []
        for i in range(self.prob.n):
            inner_batch = self.prob._draw_batch(i, rng)
            outer_batch = self.prob._draw_batch(i, rng)
            v = self.task_grad(Z[i], outer_batch)
            if self.prob.adapt_step != 0.0:
                v = v - self.prob.adapt_step * self.hvp(X[i], v, inner_batch)
            grads.append(v)
        return np.stack(grads)

    def sample_inner_pair_all(self, X_new, X_old, rng):
        same = X_old is X_new
        pairs = [self.inner_pair(X_new[:, r], X_old[:, r], g, same) for r, g in enumerate(rng.streams)]
        return tuple(np.stack(p, axis=1) for p in zip(*pairs))

    def sample_grad_all(self, X, Z, rng):
        return np.stack([self.grad(X[:, r], Z[:, r], g) for r, g in enumerate(rng.streams)], axis=1)


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedMamlOracle:
    """The stacked MLP oracle gives the bytes of the one-net form, and leaves every
    stream where the one-net form leaves it."""

    @pytest.mark.parametrize("streams", [1, 3])
    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("adapt_step", [0.0, 0.01])
    @pytest.mark.parametrize("width", [1, 2, 8, 32])
    def test_bytes_equal_the_one_net_form(self, width, adapt_step, n, streams):
        prob = make_sinusoid_maml(n, 7, width, adapt_step, seed=width)
        reference = OneNetMamlOracle(prob)
        X_old, X_new, Z = np.random.default_rng(n).normal(scale=0.5, size=(3, n, streams, prob.d))

        def outputs(oracle, rng):
            return [
                *oracle.sample_inner_pair_all(X_new, X_new, rng),  # the same point
                *oracle.sample_inner_pair_all(X_new, X_old, rng),  # distinct points
                oracle.sample_grad_all(X_new, Z, rng),
            ]

        rng, ref_rng = ReplicaStreams(range(21, 21 + streams)), ReplicaStreams(range(21, 21 + streams))
        for a, b in zip(outputs(prob, rng), outputs(reference, ref_rng), strict=True):
            assert_same_bytes(a, b)
        for g, h in zip(rng.streams, ref_rng.streams, strict=True):
            assert_same_bytes(g.random(3), h.random(3))  # both left every stream at one place

    @pytest.mark.parametrize("width", [1, 8])
    def test_strided_x_equals_its_contiguous_copy(self, width):
        net = MlpRegressor(width)
        rng = np.random.default_rng(width)
        x = rng.normal(size=(4, 3, 2 * net.n_params))
        inputs = rng.uniform(-5.0, 5.0, size=(4, 10))
        targets = rng.normal(size=(4, 10))
        x1 = x[:, 1, : net.n_params]
        for strided in (x1, np.asfortranarray(x1), x1[::-1], x[:, 2, ::2]):
            loss, grad = net.loss_grad(strided, inputs, targets)
            loss_c, grad_c = net.loss_grad(np.ascontiguousarray(strided), inputs, targets)
            assert_same_bytes(loss, loss_c)
            assert_same_bytes(grad, grad_c)
            for i, row in enumerate(np.ascontiguousarray(strided)):
                loss_i, grad_i = one_net_loss_grad(net, row, inputs[i], targets[i])
                assert loss[i] == loss_i
                assert_same_bytes(grad[i], grad_i)


# the covariance study's shape (n = 3, d = 2): at R >= 20 its products run as two multiplies
MONTE_CARLO_FAMILIES = {
    **FAMILIES,
    "quadratic-d2": lambda: make_quadratic(3, 2, seed=1, noise_inner=0.2, noise_outer=0.3),
}


class TestMonteCarloGrad:
    @pytest.mark.parametrize("name", sorted(MONTE_CARLO_FAMILIES))
    def test_unbiased_within_four_stderr(self, name):
        prob = MONTE_CARLO_FAMILIES[name]()
        x = 0.4 * np.random.default_rng(123).normal(size=prob.d)
        mean, stderr = monte_carlo_grad_h(prob, x, draws=4000, rng=ReplicaStreams(range(123, 323)))
        truth = prob.true_grad_h(x)
        assert np.all(np.abs(mean - truth) <= 4 * stderr + 1e-12)

    @pytest.mark.parametrize("draws,calls", [(1, 1), (3, 1), (7, 3)])
    def test_one_stacked_call_per_replica_count(self, monkeypatch, draws, calls):
        # each call gives R = 3 samples, and the last call's extra samples are not used
        prob = make_quadratic(2, 3, seed=0)
        x = np.array([0.5, -1.0, 2.0])
        X = np.tile(x, (2, 3, 1))
        rng = ReplicaStreams([4, 5, 6])
        grads = [prob.sample_grad_all(X, prob.true_g(X), rng).mean(axis=0) for _ in range(calls)]
        shapes, real = [], QuadraticProblem.sample_grad_all
        monkeypatch.setattr(
            QuadraticProblem, "sample_grad_all", lambda p, X, Z, rng: shapes.append(X.shape) or real(p, X, Z, rng)
        )
        mean, stderr = monte_carlo_grad_h(prob, x, draws, ReplicaStreams([4, 5, 6]))
        assert shapes == [(2, 3, 3)] * calls
        assert mean.tobytes() == np.concatenate(grads)[:draws].mean(axis=0).tobytes()
        assert stderr.shape == (3,) and (draws > 1) == bool(stderr.any())

    def test_rejects_zero_draws(self):
        prob = make_quadratic(1, 2, 0)
        with pytest.raises(ConfigurationError):
            monte_carlo_grad_h(prob, np.zeros(2), 0, ReplicaStreams([0]))

    def test_rejects_a_family_without_closed_form_inner_value(self):
        prob = make_sinusoid_maml(2, 5, 3, 0.01, seed=0)
        with pytest.raises(CapabilityError):
            monte_carlo_grad_h(prob, np.zeros(prob.d), 10, ReplicaStreams([0]))
