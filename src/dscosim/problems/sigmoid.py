"""Nonconvex synthetic family: quadratic outer loss over a saturating inner map.

Per agent i:  G_i(x; phi) = tanh(W_i x) + phi,  phi ~ N(0, sigma_phi^2 I_p)
              F_i(z; zeta) = 1/2 ||z - t_i||^2 + zeta^T z,  zeta ~ N(0, sigma_zeta^2 I_p)
The inner Jacobian is deterministic and bounded, the composition is smooth
and nonconvex, and the exact gradient of the global objective is available,
which makes this family the workhorse for stationarity-rate experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .base import AdditiveNoiseProblem, agent_matvec, einsum, kept_map, per_agent


@dataclass(frozen=True)
class SigmoidQuadraticProblem(AdditiveNoiseProblem):
    W: np.ndarray  # (n, p, d)
    t: np.ndarray  # (n, p) outer targets

    has_true_g = True
    has_true_grad = True

    @property
    def n(self):
        return self.W.shape[0]

    @property
    def p(self):
        return self.W.shape[1]

    @property
    def d(self):
        return self.W.shape[2]

    def _inner_map(self, X):
        return np.tanh(einsum("npd,n...d->n...p", self.W, X))

    def sample_grad_all(self, X, Z, rng):
        zeta = rng.normal(size=self._draw_size) * self._noise_scales[1]
        s = kept_map(self._cache, self._inner_map, X)  # the inner pair just mapped X
        resid = Z - per_agent(self.t, Z) + zeta
        return einsum("npd,n...p,n...p->n...d", self.W, 1.0 - s**2, resid)

    def true_g(self, X):
        return np.tanh(agent_matvec(self.W, X))

    def true_grad_h(self, x):
        s = np.tanh(einsum("npd,...d->...np", self.W, x))
        return einsum("npd,...np,...np->...d", self.W, 1.0 - s**2, s - self.t) / self.n

    def true_h(self, x):
        s = np.tanh(einsum("npd,...d->...np", self.W, x))
        sq = ((s - self.t) ** 2).reshape(s.shape[:-2] + (-1,))
        return 0.5 * np.add.reduce(sq, axis=-1) / self.n  # np.sum over (n, p) without its wrapper


def make_sigmoid_quadratic(n, d, seed, p=None, noise_inner=0.1, noise_outer=0.1):
    if noise_inner < 0 or noise_outer < 0:
        raise ConfigurationError("noise levels must be nonnegative")
    p = d if p is None else p
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(n, p, d)) / np.sqrt(d)
    t = rng.uniform(-0.8, 0.8, size=(n, p))
    return SigmoidQuadraticProblem(W=W, t=t, sigma_phi=float(noise_inner), sigma_zeta=float(noise_outer))
