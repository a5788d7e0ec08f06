"""Strongly convex quadratic compositional family with full closed forms.

Per agent i:  G_i(x; phi) = M_i x + phi,   phi ~ N(0, sigma_phi^2 I_d),
              F_i(z; zeta) = 1/2 z^T Q_i z + zeta^T z,  zeta ~ N(c_i, sigma_zeta^2 I_d),
with Q_i symmetric positive definite.  Everything the convergence and
normality experiments need (optimum, Hessian, noise covariances) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .base import NormalityData, ProblemOracle, agent_contract, agent_matvec, einsum, kept_map, per_agent

# agent_contract runs at d = 2 from this many replicas on, where it beat einsum on every
# measured shape (CHANGES.md).  R = 1, where einsum takes a fast path, and other d stay on einsum.
CONTRACT_MIN_REPLICAS = 20


@dataclass(frozen=True)
class QuadraticProblem(ProblemOracle):
    M: np.ndarray  # (n, d, d) inner maps
    Q: np.ndarray  # (n, d, d) symmetric PD outer curvatures
    c: np.ndarray  # (n, d) outer noise means
    sigma_phi: float
    sigma_zeta: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    has_true_g = True
    has_true_grad = True
    has_optimum = True
    has_normality_data = True

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def d(self):
        return self.M.shape[2]

    # -- sampling -----------------------------------------------------------

    def _agent_product(self, spec, name, X):
        """``einsum(spec, A, X)`` for A the field ``name`` (M or Q), bit for bit.

        At d = 2 with at least ``CONTRACT_MIN_REPLICAS`` replicas, ``agent_contract``
        forms it in the einsum's order from A's columns, kept in the cache.  With two
        terms every order from +0.0 gives the same bits, so no operand layout matters.
        """
        A = getattr(self, name)
        if X.ndim != 3 or X.shape[1] < CONTRACT_MIN_REPLICAS or self.d != 2:
            return einsum(spec, A, X)
        transposed = spec.startswith("nji")
        columns = self._cache.get((spec, name))
        if columns is None:
            A_t = A.swapaxes(1, 2) if transposed else A
            columns = self._cache[(spec, name)] = [
                np.ascontiguousarray(A_t[:, None, :, j]) for j in range(self.d)
            ]
        return agent_contract(columns, X, lanes=1 if transposed else 2)

    def _inner_map(self, X):
        return self._agent_product("nij,n...j->n...i", "M", X)

    def sample_inner_pair_all(self, X_new, X_old, rng):
        phi = rng.normal(size=(self.n, self.d)) * self.sigma_phi
        # The old point first: it is the last round's new point, whose product is kept.
        old = kept_map(self._cache, self._inner_map, X_old)
        return kept_map(self._cache, self._inner_map, X_new) + phi, old + phi

    def sample_grad_all(self, X, Z, rng):
        zeta = per_agent(self.c, Z) + rng.normal(size=(self.n, self.d)) * self.sigma_zeta
        inner = self._agent_product("nij,n...j->n...i", "Q", Z) + zeta
        return self._agent_product("nji,n...j->n...i", "M", inner)

    # -- closed forms -------------------------------------------------------

    def true_g(self, X):
        return agent_matvec(self.M, X)  # X: (n, d) or replica-batched (n, R, d)

    def true_inner_jacobian_t(self, i, x):
        return self.M[i].T

    def _hess_and_shift(self):
        if "H" not in self._cache:
            H = einsum("nji,njk,nkl->il", self.M, self.Q, self.M)
            r = einsum("nji,nj->i", self.M, self.c)
            self._cache["H"] = H
            self._cache["r"] = r
        return self._cache["H"], self._cache["r"]

    def true_grad_h(self, x):
        H, r = self._hess_and_shift()
        return (H @ x + r) / self.n

    def true_h(self, x):
        # The quadratic form runs on agent-last copies of Q and g: the einsum still
        # sums each agent's d^2 products from zero in (i, j) order, so the bits are
        # those of "ni,nij,nj->n", but its inner loop runs over the n agents, not d.
        Q_last = self._cache.get("Q_last")
        if Q_last is None:
            Q_last = self._cache["Q_last"] = np.ascontiguousarray(self.Q.transpose(1, 2, 0))
        g = einsum("nij,j->ni", self.M, x)
        g_last = np.ascontiguousarray(g.T)
        vals = 0.5 * einsum("in,ijn,jn->n", g_last, Q_last, g_last) + einsum("ni,ni->n", self.c, g)
        return float(np.add.reduce(vals) / len(vals))  # vals.mean() without its wrapper

    def optimum(self):
        if "xstar" not in self._cache:
            H, r = self._hess_and_shift()
            self._cache["xstar"] = np.linalg.solve(H, -r)
        return self._cache["xstar"]

    @property
    def strong_convexity(self):
        """Modulus mu of h: smallest eigenvalue of H / n."""
        H, _ = self._hess_and_shift()
        return float(np.linalg.eigvalsh(H).min() / self.n)

    def normality_data(self):
        H, _ = self._hess_and_shift()
        return NormalityData(
            H=H,
            T=[self.Q[i] for i in range(self.n)],
            s1=lambda: self.sigma_zeta**2 * einsum("nji,njk->ik", self.M, self.M),
            s2=lambda: self.sigma_phi**2
            * einsum("nji,njk,nkl,nlm->im", self.M, self.Q, self.Q, self.M),
        )


def make_quadratic(n, d, seed, noise_inner=0.1, noise_outer=0.1, conditioning=10.0):
    """Random instance with Q_i condition number <= `conditioning`."""
    if noise_inner < 0 or noise_outer < 0:
        raise ConfigurationError("noise levels must be nonnegative")
    if conditioning < 1:
        raise ConfigurationError(f"conditioning must be >= 1, got {conditioning}")
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, d))
    # Draw per agent in the original order, then factor and multiply all agents at
    # once: a stacked QR or product runs each agent through the kernel of its own
    # call, and scaling columns is exactly the product with a diagonal matrix.
    G = np.empty((3, n, d, d))  # Gaussian seeds of the two M factors and of Q's basis
    spectra = np.empty((n, 1, d))
    for i in range(n):
        G[0, i] = rng.normal(size=(d, d))
        G[1, i] = rng.normal(size=(d, d))
        spectra[i] = rng.uniform(0.6, 1.4, size=d)
        G[2, i] = rng.normal(size=(d, d))
    u_m, v_m, u_q = np.linalg.qr(G)[0]
    M = (u_m * spectra) @ v_m.swapaxes(1, 2)
    Q = (u_q * np.linspace(1.0, conditioning, d)) @ u_q.swapaxes(1, 2)
    Q = 0.5 * (Q + Q.swapaxes(1, 2))
    return QuadraticProblem(M=M, Q=Q, c=c, sigma_phi=float(noise_inner), sigma_zeta=float(noise_outer))
