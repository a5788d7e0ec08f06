"""Directed communication graphs and the row/column-stochastic weight pair.

Nodes are labeled 1..n.  An edge (j, i) means "i receives from j".  Every
node always has an implicit self-loop; self-loops are never stored in the
edge set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AssumptionError, ConfigurationError, NumericalError

POWER_ITER_TOL = 1e-13
POWER_ITER_MAX = 100_000


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 1..n with implicit self-loops.

    ``edges`` holds ordered pairs (j, i), j -> i, excluding self-loops.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"node count must be >= 1, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for j, i in self.edges:
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise ConfigurationError(f"edge ({j}, {i}) out of range [1, {self.n}]")
            if j == i:
                raise ConfigurationError("self-loops are implicit; do not list them")

    @cached_property
    def _adjacency(self):
        """Out-lists and sorted in-lists (self included) per node, built once."""
        out = [[] for _ in range(self.n + 1)]
        inn = [[i] for i in range(self.n + 1)]
        for j, i in self.edges:
            out[j].append(i)
            inn[i].append(j)
        return out, [sorted(nbrs) for nbrs in inn]

    def reachable_from(self, r):
        """Set of nodes reachable from r along edge direction j -> i."""
        return _search(self._adjacency[0], r, set())

    def roots(self):
        """Nodes that reach every other node (spanning-tree roots).

        Linear time: the last start of a search sweep over 1..n reaches every
        node iff any node does, and then the roots are the nodes reaching it.
        """
        out, inn = self._adjacency
        seen = set()
        for start in range(1, self.n + 1):
            if start not in seen:
                last = start
                _search(out, start, seen)
        if len(self.reachable_from(last)) < self.n:
            return set()
        return _search(inn, last, set())


def _search(adjacency, r, seen):
    """Add to ``seen`` every node reachable from r in ``adjacency``; return ``seen``."""
    seen.add(r)
    stack = [r]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class WeightPair:
    """Row-stochastic A, column-stochastic B, Perron vectors and contraction factors.

    ``mixing`` holds W and the mix plans, made once (``algorithms.mixers``) on read-only
    matrices; a plan holds only under its BLAS core and threads, so it is not pickled.
    """

    A: np.ndarray
    B: np.ndarray
    u: np.ndarray  # left Perron vector of A, u^T 1 = n
    v: np.ndarray  # right Perron vector of B, 1^T v = n
    graph_A: DirectedGraph  # graph A was built on; GP/GT take Metropolis weights on it
    mixing: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "mixing": {}}  # the cached tau_A and tau_B travel

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.A.flags.writeable = self.B.flags.writeable = False  # unpickled, they are writeable

    @property
    def n(self):
        return self.A.shape[0]

    @cached_property
    def tau_A(self):
        """Contraction factor of A about its consensus projection (computed on first access)."""
        return contraction_factor(self.A, np.outer(np.ones(self.n), self.u) / self.n)

    @cached_property
    def tau_B(self):
        """Contraction factor of B about its consensus projection (computed on first access)."""
        return contraction_factor(self.B, np.outer(self.v, np.ones(self.n)) / self.n)


def generate_ring_plus_random(n, extra, seed):
    """Directed ring i -> i+1 (mod n) plus `extra` distinct random non-ring edges."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if extra < 0:
        raise ConfigurationError(f"extra must be >= 0, got {extra}")
    ring = {(i, i % n + 1) for i in range(1, n + 1) if i != i % n + 1}
    # Non-ring candidates in sorted (j, i) order: each source j has the n - 2
    # targets other than itself and its ring successor.
    per_source = max(n - 2, 0)
    available = n * per_source
    if extra > available:
        raise ConfigurationError(
            f"extra={extra} exceeds the {available} available non-ring edges"
        )
    picked = np.random.default_rng(seed).choice(available, size=extra, replace=False)
    j, i = np.divmod(picked, max(per_source, 1))
    j += 1
    i += 1
    succ = j % n + 1
    lo, hi = np.minimum(j, succ), np.maximum(j, succ)
    i += i >= lo
    i += i >= hi
    edges = ring | set(zip(j.tolist(), i.tolist()))
    return DirectedGraph(n, frozenset(edges))


def check_assumption2(gA, gBt):
    """True iff both graphs have a spanning tree and their root sets intersect."""
    if gA.n != gBt.n:
        raise ConfigurationError("graphs must share the same node set")
    return bool(gA.roots() & gBt.roots())


def _perron_left(A):
    """Left eigenvector of A at eigenvalue 1, normalized u^T 1 = n.

    A is non-negative and row-stochastic, so from u = 1 every iterate is
    non-negative and sums to about n.
    """
    n = A.shape[0]
    u = np.ones(n)
    for _ in range(POWER_ITER_MAX):
        nxt = A.T @ u
        nxt *= n / nxt.sum()
        if np.max(np.abs(nxt - u)) < POWER_ITER_TOL:
            return nxt
        u = nxt
    raise NumericalError(f"Perron power iteration did not converge in {POWER_ITER_MAX} steps")


def contraction_factor(M, centering):
    """Spectral radius of M - centering.

    A value < 1 certifies geometric contraction of the consensus dynamics in
    some induced norm.  The matrices here are small and dense, and the
    centered matrix generally has complex spectrum, so the radius is taken
    from the full eigenvalue set rather than a power iteration.
    """
    C = np.asarray(M, dtype=float) - np.asarray(centering, dtype=float)
    ev = np.linalg.eigvals(C)
    if not np.all(np.isfinite(ev.real)) or not np.all(np.isfinite(ev.imag)):
        raise NumericalError("eigenvalue computation produced non-finite values")
    return float(np.max(np.abs(ev))) if ev.size else 0.0


def _in_weights(g, W):
    """Set row i of W to 1/|in-neighbors of i in g, self included| on each of them."""
    for i, nbrs in enumerate(g._adjacency[1][1:]):
        W[i, np.subtract(nbrs, 1)] = 1.0 / len(nbrs)


def build_weight_pair(gA, gBt):
    """Uniform-weight A on gA and B on gBt, with Perron vectors and tau factors.

    A_ij = 1/|in-neighbors of i in gA, incl. self| on in-edges of i.
    B_ij = 1/|in-edges of j in gBt, incl. self| whenever (i -> j) is in gBt
    (equivalently: uniform out-neighbor weights on the reversed graph G_B).
    """
    if gA.n != gBt.n:
        raise ConfigurationError("graphs must share the same node set")
    n = gA.n
    if not gA.roots():
        raise AssumptionError("graph for A contains no spanning tree")
    if not gBt.roots():
        raise AssumptionError("graph for B^T contains no spanning tree")
    if not (gA.roots() & gBt.roots()):
        raise AssumptionError("root sets of the two graphs are disjoint")

    A, B = np.zeros((n, n)), np.zeros((n, n))
    _in_weights(gA, A)
    # B through its transpose, so it stays C-ordered (_mix's BLAS kernel depends
    # on layout) and no transposed copy is made
    _in_weights(gBt, B.T)
    A.flags.writeable = B.flags.writeable = False  # a mix plan holds for these nonzeros only
    return WeightPair(A=A, B=B, u=_perron_left(A), v=_perron_left(B.T), graph_A=gA)


def underlying_metropolis(g):
    """Metropolis-Hastings weights on the symmetrized (underlying) graph.

    W_ij = 1/(1 + max(deg_i, deg_j)) for undirected neighbors i != j,
    W_ii = 1 - sum_j W_ij.  Symmetric and doubly stochastic.
    """
    S = np.zeros((g.n, g.n), dtype=bool)
    j, i = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2).T - 1
    S[j, i] = S[i, j] = True
    deg = S.sum(1)
    W = np.zeros((g.n, g.n))
    W[j, i] = W[i, j] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(1))
    W.flags.writeable = False  # a mix plan holds for these nonzeros only, as for A and B
    return W
