"""Strongly convex quadratic compositional family with full closed forms.

Per agent i:  G_i(x; phi) = M_i x + phi,   phi ~ N(0, sigma_phi^2 I_d),
              F_i(z; zeta) = 1/2 z^T Q_i z + zeta^T z,  zeta ~ N(c_i, sigma_zeta^2 I_d),
with Q_i symmetric positive definite.  Everything the convergence and
normality experiments need (optimum, Hessian, noise covariances) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError
from .base import AdditiveNoiseProblem, NormalityData, agent_matvec, each_point, einsum

# The d = 2 products run as two multiplies from this many replicas on, where they beat einsum
# on every measured shape (CHANGES.md).  R = 1, where einsum takes a fast path, and other d
# stay on einsum.
CONTRACT_MIN_REPLICAS = 20


@dataclass(frozen=True)
class QuadraticProblem(AdditiveNoiseProblem):
    M: np.ndarray  # (n, d, d) inner maps
    Q: np.ndarray  # (n, d, d) symmetric PD outer curvatures
    c: np.ndarray  # (n, d) outer noise means

    has_true_g = True
    has_true_grad = True
    has_optimum = True

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def d(self):
        return self.M.shape[2]

    p = d  # the inner map is square

    # -- sampling -----------------------------------------------------------

    @cached_property
    def _c_view(self):
        """c as an ``(n, 1, d)`` view, which broadcasts over the replica axis."""
        return self.c[:, None, :]

    @cached_property
    def _products(self):
        """For each per-agent product, keyed by (spec, field name): the field (M or Q) and,
        at d = 2, its two columns (Aᵀ's for "nji") as contiguous ``(n, 1, 2)`` arrays."""
        products = {}
        for spec, name in ("nij,n...j->n...i", "M"), ("nij,n...j->n...i", "Q"), ("nji,n...j->n...i", "M"):
            A = getattr(self, name)
            columns = None
            if self.d == 2:
                A_rows = A.swapaxes(1, 2) if spec.startswith("nji") else A
                columns = [np.ascontiguousarray(A_rows[:, None, :, j]) for j in range(2)]
            products[spec, name] = A, columns
        return products

    def _agent_product(self, spec, name, X):
        """``einsum(spec, A, X)`` for A the field ``name`` (M or Q), bit for bit.

        At d = 2 with at least ``CONTRACT_MIN_REPLICAS`` replicas it is formed from A's
        two columns.  With two terms every summation order gives p0 + p1, so no operand
        layout matters; einsum sums from +0.0, which turns a -0.0 sum into +0.0.
        """
        A, columns = self._products[spec, name]
        if columns is None or X.shape[1] < CONTRACT_MIN_REPLICAS:
            return einsum(spec, A, X)
        c0, c1 = columns
        out = X[..., 0:1] * c0
        out += X[..., 1:2] * c1
        out += 0.0
        return out

    def _inner_map(self, X):
        return self._agent_product("nij,n...j->n...i", "M", X)

    def sample_grad_all(self, X, Z, rng):
        zeta = rng.normal(size=self._draw_size) * self._noise_scales[1]
        zeta += self._c_view
        inner = self._agent_product("nij,n...j->n...i", "Q", Z)
        inner += zeta
        return self._agent_product("nji,n...j->n...i", "M", inner)

    # -- closed forms -------------------------------------------------------

    def true_g(self, X):
        return agent_matvec(self.M, X)  # X: (n, d) or replica-batched (n, R, d)

    def true_inner_jacobian_t(self, X):
        return self.M.swapaxes(1, 2)

    @cached_property
    def _hessian(self):
        """n times the Hessian of h: the sum of M_iᵀ Q_i M_i."""
        return einsum("nji,njk,nkl->il", self.M, self.Q, self.M)

    @cached_property
    def _shift(self):
        """n times the gradient of h at 0: the sum of M_iᵀ c_i."""
        return einsum("nji,nj->i", self.M, self.c)

    @cached_property
    def _q_last(self):
        return np.ascontiguousarray(self.Q.transpose(1, 2, 0))

    @cached_property
    def _optimum(self):
        return np.linalg.solve(self._hessian, -self._shift)

    def true_grad_h(self, x):
        # one stacked (d, d) @ (d, 1) product per point; X @ H.T and an einsum sum in other orders
        return (np.matmul(self._hessian, x[..., None])[..., 0] + self._shift) / self.n

    def true_h(self, x):
        if self.n == 1 and x.ndim > 1:
            return each_point(self.true_h, x)
        # The quadratic form runs on agent-last copies of Q and g: the einsum still
        # sums each agent's d^2 products from zero in (i, j) order, so the bits are
        # those of "ni,nij,nj->n", but its inner loop runs over the n agents, not d.
        g = einsum("nij,...j->...ni", self.M, x)
        g_last = np.ascontiguousarray(g.swapaxes(-1, -2))
        vals = 0.5 * einsum("...in,ijn,...jn->...n", g_last, self._q_last, g_last)
        vals += einsum("ni,...ni->...n", self.c, g)
        return np.add.reduce(vals, axis=-1) / self.n  # vals.mean(axis=-1) without its wrapper

    def optimum(self):
        return self._optimum

    @property
    def strong_convexity(self):
        """Modulus mu of h: smallest eigenvalue of H / n."""
        return float(np.linalg.eigvalsh(self._hessian).min() / self.n)

    def normality_data(self):
        return NormalityData(
            H=self._hessian,
            T=self.Q,
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
