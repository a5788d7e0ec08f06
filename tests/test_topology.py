import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dscosim
from dscosim.errors import AssumptionError, ConfigurationError
from dscosim.topology import (
    DirectedGraph,
    _perron_left,
    build_weight_pair,
    check_assumption2,
    contraction_factor,
    generate_ring_plus_random,
    underlying_metropolis,
)


def ring(n):
    return generate_ring_plus_random(n, 0, 0)


class TestGenerateRing:
    def test_pure_ring_3(self):
        g = ring(3)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_single_node(self):
        g = ring(1)
        assert g.n == 1 and g.edges == frozenset()

    def test_extra_edges_counted_and_distinct(self):
        g = generate_ring_plus_random(5, 3, seed=7)
        assert len(g.edges) == 5 + 3
        assert len(set(g.edges)) == len(g.edges)

    def test_deterministic_given_seed(self):
        a = generate_ring_plus_random(6, 4, seed=3)
        b = generate_ring_plus_random(6, 4, seed=3)
        assert a.edges == b.edges

    @staticmethod
    def materialised_edges(n, extra, seed):
        # the generator as first written: sort all non-ring candidates, index the draw
        ring = {(i, i % n + 1) for i in range(1, n + 1) if i != i % n + 1}
        candidates = sorted(
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and (j, i) not in ring
        )
        if extra > len(candidates):
            raise ConfigurationError(
                f"extra={extra} exceeds the {len(candidates)} available non-ring edges"
            )
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(candidates), size=extra, replace=False) if extra else []
        return ring | {candidates[int(c)] for c in picked}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 50])
    def test_matches_materialised_candidates(self, n):
        available = max(n * (n - 2), 0)
        extras = {0, 1, 2, n, available // 2, max(available - 1, 0), available, available + 1}
        for extra in sorted(extras):
            for seed in range(4):
                if extra > available:
                    with pytest.raises(ConfigurationError) as expected:
                        self.materialised_edges(n, extra, seed)
                    with pytest.raises(ConfigurationError) as got:
                        generate_ring_plus_random(n, extra, seed)
                    assert str(got.value) == str(expected.value)
                    continue
                g = generate_ring_plus_random(n, extra, seed)
                assert g.edges == self.materialised_edges(n, extra, seed), (n, extra, seed)

    def test_too_many_extra_rejected(self):
        # n=3: 6 ordered non-self pairs, 3 in the ring
        generate_ring_plus_random(3, 3, 0)
        with pytest.raises(ConfigurationError):
            generate_ring_plus_random(3, 4, 0)


class TestAssumption2:
    def test_ring_strongly_connected(self):
        assert check_assumption2(ring(3), ring(3))

    def test_self_loops_only_fails(self):
        g = DirectedGraph(2)
        assert not check_assumption2(g, g)

    def test_disjoint_root_sets(self):
        star1 = DirectedGraph(3, {(1, 2), (1, 3)})
        star2 = DirectedGraph(3, {(2, 1), (2, 3)})
        assert check_assumption2(star1, star1)
        assert not check_assumption2(star1, star2)

    @staticmethod
    def brute_force_reach(g):
        # all-pairs reachability by repeated squaring of the boolean adjacency
        n = g.n
        adj = np.eye(n, dtype=bool)
        for j, i in g.edges:
            adj[j - 1, i - 1] = True
        reach = adj.copy()
        for _ in range(n):
            reach = reach | (reach @ adj)
        return reach

    @given(
        n=st.integers(1, 8),
        edges=st.sets(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=24),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=300, deadline=None)
    def test_roots_match_brute_force(self, n, edges, seed):
        edges = {(j, i) for j, i in edges if j <= n and i <= n and j != i}
        g = DirectedGraph(n, frozenset(edges))
        reach = self.brute_force_reach(g)
        assert g.roots() == {r + 1 for r in range(n) if reach[r].all()}
        for r in range(n):
            assert g.reachable_from(r + 1) == {i + 1 for i in range(n) if reach[r, i]}


def power_iteration_left(A, iters=20000):
    n = A.shape[0]
    u = np.ones(n)
    for _ in range(iters):
        u = A.T @ u
        u *= n / u.sum()
    return u


class TestBuildWeightPair:
    def test_ring_uniform_doubly_stochastic(self):
        wp = build_weight_pair(ring(3), ring(3))
        expected = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        np.testing.assert_allclose(wp.A, expected)
        np.testing.assert_allclose(wp.u, np.ones(3), atol=1e-10)
        np.testing.assert_allclose(wp.v, np.ones(3), atol=1e-10)

    def test_ring_u_matches_power_iteration_oracle(self):
        wp = build_weight_pair(ring(4), ring(4))
        np.testing.assert_allclose(wp.u, power_iteration_left(wp.A), atol=1e-9)

    def test_single_node(self):
        g = DirectedGraph(1)
        wp = build_weight_pair(g, g)
        np.testing.assert_allclose(wp.A, [[1.0]])
        np.testing.assert_allclose(wp.B, [[1.0]])
        assert wp.tau_A == 0.0 and wp.tau_B == 0.0

    def test_assumption_violation_named(self):
        g = DirectedGraph(2)
        with pytest.raises(AssumptionError, match="spanning tree"):
            build_weight_pair(g, g)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        extra = int(rng.integers(0, n))
        g = generate_ring_plus_random(n, extra, seed)
        wp = build_weight_pair(g, g)
        ones = np.ones(n)
        assert np.max(np.abs(wp.A @ ones - ones)) < 1e-12
        assert np.max(np.abs(ones @ wp.B - ones)) < 1e-12
        assert np.all(np.diag(wp.A) > 0) and np.all(np.diag(wp.B) > 0)
        assert np.max(np.abs(wp.u @ wp.A - wp.u)) < 1e-10
        assert np.max(np.abs(wp.B @ wp.v - wp.v)) < 1e-10
        assert abs(wp.u.sum() - n) < 1e-10 and abs(wp.v.sum() - n) < 1e-10
        assert np.all(wp.u >= 0) and np.all(wp.v >= 0)
        assert wp.u @ wp.v > 0
        assert wp.tau_A < 1 and wp.tau_B < 1

    def test_bytes_match_per_node_edge_scan(self):
        # A and B built from in-neighbor lists found by scanning every edge per node
        def scan_in_neighbors(g, i):
            return sorted({j for j, t in g.edges if t == i} | {i})

        gA, gBt = generate_ring_plus_random(50, 60, 1), generate_ring_plus_random(50, 40, 2)
        A, B = np.zeros((50, 50)), np.zeros((50, 50))
        for i in range(1, 51):
            for j in scan_in_neighbors(gA, i):
                A[i - 1, j - 1] = 1.0 / len(scan_in_neighbors(gA, i))
            for j in scan_in_neighbors(gBt, i):
                B[j - 1, i - 1] = 1.0 / len(scan_in_neighbors(gBt, i))
        wp = build_weight_pair(gA, gBt)
        assert wp.A.tobytes() == A.tobytes() and wp.B.tobytes() == B.tobytes()
        assert wp.B.flags.c_contiguous
        assert wp.u.tobytes() == _perron_left(A).tobytes()
        assert wp.v.tobytes() == _perron_left(B.T).tobytes()

    def test_tau_is_the_contraction_factor(self):
        g = generate_ring_plus_random(12, 6, 3)
        wp = build_weight_pair(g, g)
        n = wp.n
        assert wp.tau_A == contraction_factor(wp.A, np.outer(np.ones(n), wp.u) / n)
        assert wp.tau_B == contraction_factor(wp.B, np.outer(wp.v, np.ones(n)) / n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empirical_geometric_mixing(self, seed):
        g = generate_ring_plus_random(8, 4, seed)
        wp = build_weight_pair(g, g)
        n = wp.n
        C = wp.A - np.outer(np.ones(n), wp.u) / n
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=n)
        rate = wp.tau_A + 0.05
        v = x.copy()
        for m in range(1, 51):
            v = C @ v
            assert np.linalg.norm(v) / np.linalg.norm(x) <= 10.0 * rate**m


class TestContractionFactor:
    def test_ring_circulant_half(self):
        wp = build_weight_pair(ring(3), ring(3))
        # circulant eigenvalues 1/2 + 1/2 w^k have modulus 1/2 for w != 1
        assert contraction_factor(wp.A, np.ones((3, 3)) / 3) == pytest.approx(0.5, abs=1e-12)

    def test_single_node_zero(self):
        assert contraction_factor(np.array([[1.0]]), np.array([[1.0]])) == 0.0

    def test_identity_no_contraction(self):
        val = contraction_factor(np.eye(2), np.ones((2, 2)) / 2)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestMetropolis:
    def test_single_node(self):
        np.testing.assert_allclose(underlying_metropolis(DirectedGraph(1)), [[1.0]])

    def test_two_path(self):
        g = DirectedGraph(2, {(1, 2)})
        np.testing.assert_allclose(
            underlying_metropolis(g), [[0.5, 0.5], [0.5, 0.5]]
        )

    @pytest.mark.parametrize(
        "g",
        [
            DirectedGraph(1),
            DirectedGraph(2, {(1, 2)}),
            DirectedGraph(4, {(1, 2), (2, 1), (2, 3), (3, 4), (4, 3), (4, 1)}),
            *(generate_ring_plus_random(n, n, n) for n in (3, 10, 50, 500)),
        ],
        ids=["n1", "path2", "reciprocal4", "n3", "n10", "n50", "n500"],
    )
    def test_bytes_match_per_edge_scan(self, g):
        # W written from the definition: one pass over the directed edges, where
        # i -> j and j -> i make one undirected edge, then one row at a time
        n = g.n
        nbrs = [set() for _ in range(n + 1)]
        for j, i in g.edges:
            nbrs[j].add(i)
            nbrs[i].add(j)
        W = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in nbrs[i]:
                W[i - 1, j - 1] = 1.0 / (1.0 + max(len(nbrs[i]), len(nbrs[j])))
        for i in range(n):
            W[i, i] = 1.0 - W[i].sum()
        assert underlying_metropolis(g).tobytes() == W.tobytes()

    def test_ring_doubly_stochastic(self):
        W = underlying_metropolis(ring(3))
        ones = np.ones(3)
        assert np.max(np.abs(W @ ones - ones)) < 1e-12
        assert np.max(np.abs(ones @ W - ones)) < 1e-12
        np.testing.assert_allclose(W, W.T)
        assert np.all(np.diag(W) > 0)


def test_cli_import_leaves_scipy_optimize_unloaded():
    code = "import sys, dscosim.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dscosim.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
