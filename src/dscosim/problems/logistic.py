"""Distributed logistic regression with a noisy linear inner map.

Per agent i with m local samples (a_j, b_j):
    inner component j:  G_i(x; phi)_j = -b_j (phi + a_j)^T x
    outer:              f_i(z) = (1/m) sum_j log(1 + exp(z_j))   (deterministic)

The default draws phi ~ N(0, I_d) fresh each call (population objective, so
the mean inner map and the optimum have closed forms).  With
``fixed_inner_pool=l`` the instance instead samples phi uniformly from l
pre-drawn vectors, reproducing a finite-pool objective; closed forms then
use the pool mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError
from .base import ProblemOracle, agent_matvec, each_point, einsum, per_agent


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class LogisticProblem(ProblemOracle):
    a: np.ndarray  # (n, m, d) features
    b: np.ndarray  # (n, m) labels in {-1, +1}
    pool: np.ndarray | None = None  # (l, d) fixed inner samples, or None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    has_true_g = True
    has_true_grad = True
    has_optimum = True

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.a.shape[1]

    @property
    def d(self):
        return self.a.shape[2]

    @property
    def phi_mean(self):
        return self.pool.mean(axis=0) if self.pool is not None else np.zeros(self.d)

    # -- sampling -----------------------------------------------------------

    def _shifted_features(self, rng):
        """Rows a_j + phi of each agent's and replica's one inner sample phi, (n, R, m, d)."""
        if self.pool is not None:
            phi = self.pool[rng.integers(0, self.pool.shape[0], size=self.n)]
        else:
            phi = rng.normal(size=(self.n, self.d))
        phi = phi[..., None, :]
        # a contiguous a, tiled over the replica axis, adds faster than a broadcast one
        a = self._cache.get("a_tiled")
        if a is None or a.shape[:-2] != phi.shape[:-2]:
            a = np.broadcast_to(per_agent(self.a, phi), phi.shape[:-2] + self.a.shape[1:]).copy()
            self._cache["a_tiled"] = a
        return a + phi

    def sample_inner_pair_all(self, X_new, X_old, rng):
        shifted = self._shifted_features(rng)
        neg_b = per_agent(self._neg_b, shifted[..., 0])
        new = neg_b * einsum("n...md,n...d->n...m", shifted, X_new)
        if X_old is X_new:  # one point: one product serves both
            return new, new
        return new, neg_b * einsum("n...md,n...d->n...m", shifted, X_old)

    def sample_grad_all(self, X, Z, rng):
        shifted = self._shifted_features(rng)
        w = _sigmoid(Z) / self.m  # outer gradient, deterministic
        # b = ±1, so s·(b·w) is (b·s)·w exactly: the labels go on the (n, R, m) factor
        return -einsum("n...md,n...m->n...d", shifted, per_agent(self.b, w) * w)

    @cached_property
    def _neg_b(self):
        return -self.b

    # -- closed forms (mean inner map) --------------------------------------

    @cached_property
    def _mean_features(self):
        # (n, m, d) rows a_j + phi_mean, the mean inner map before the label sign
        return self.a + self.phi_mean

    def true_g(self, X):
        # the sign goes on after the product: J @ X could flip the sign of an exact zero
        prod = agent_matvec(self._mean_features, X)
        return -per_agent(self.b, prod) * prod

    @cached_property
    def _mean_jacobians(self):
        # grad g_i as columns: (n, m, d) with row j = -b_j (phi_mean + a_j)
        return -self.b[:, :, None] * self._mean_features

    def true_grad_h(self, x):
        if self.d == 1 and x.ndim > 1:
            return each_point(self.true_grad_h, x)
        J = self._mean_jacobians
        g = einsum("nmd,...d->...nm", J, x)
        w = _sigmoid(g) / self.m
        return einsum("nmd,...nm->...d", J, w) / self.n

    def true_h(self, x):
        g = einsum("nmd,...d->...nm", self._mean_jacobians, x)
        loss = np.logaddexp(0.0, g).reshape(g.shape[:-2] + (-1,))
        return np.add.reduce(loss, axis=-1) / loss.shape[-1]  # .mean() over (n, m) without its wrapper

    def optimum(self):
        """Minimizer of the deterministic mean objective (centralized solve).

        Raises ``ConfigurationError`` when the data are linearly separable:
        then some direction x has ``J x <= 0`` on every stacked mean-Jacobian
        row with ``1^T J x = -1``, the objective decreases along it forever,
        and no minimizer exists.
        """
        return self._optimum

    @cached_property
    def _optimum(self):
        # scipy.optimize costs about half a second of import; only this solve needs it
        from scipy.optimize import linprog, minimize

        J = self._mean_jacobians.reshape(-1, self.d)
        lp = linprog(
            np.zeros(self.d),
            A_ub=J,
            b_ub=np.zeros(len(J)),
            A_eq=J.sum(axis=0)[None, :],
            b_eq=[-1.0],
            bounds=(None, None),
            method="highs",
        )
        if lp.status == 0:
            raise ConfigurationError(
                "logistic data are linearly separable: the objective has no minimizer"
            )
        return minimize(
            self.true_h,
            np.zeros(self.d),
            jac=self.true_grad_h,
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 50_000},
        ).x


def make_logistic_cso(
    n, samples_per_agent, d, seed, fixed_inner_pool=0,
    feature_scale=1.0, label_noise=0.1,
):
    """Random instance; labels come from a hidden linear separator plus noise.

    `feature_scale` multiplies the Gaussian features; `label_noise` is the
    margin-noise level relative to the feature scale, so the label flip rate
    is scale-invariant.  Larger noise keeps the data far from separable and
    the optimum at a moderate norm.
    """
    if min(n, samples_per_agent, d) < 1:
        raise ConfigurationError("n, samples_per_agent and d must be >= 1")
    if feature_scale <= 0 or label_noise < 0:
        raise ConfigurationError("need feature_scale > 0 and label_noise >= 0")
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=feature_scale, size=(n, samples_per_agent, d))
    w_hidden = rng.normal(size=d)
    margins = a @ w_hidden + rng.normal(
        scale=label_noise * feature_scale, size=(n, samples_per_agent)
    )
    b = np.where(margins >= 0, 1.0, -1.0)
    pool = rng.normal(size=(fixed_inner_pool, d)) if fixed_inner_pool else None
    return LogisticProblem(a=a, b=b, pool=pool)
