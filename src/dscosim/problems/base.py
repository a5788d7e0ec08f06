"""Oracle contract shared by all problem families.

Each agent i owns a compositional objective f_i(g_i(x)) with
g_i(x) = E[G_i(x; phi_i)] and f_i(z) = E[F_i(z; zeta_i)].  An oracle
exposes two sampling primitives:

* ``sample_inner_pair(i, x_new, x_old, rng)`` evaluates G_i at both points
  with one common inner sample (required by the stochastic correction).
* ``sample_grad(i, x, z, rng)`` draws a fresh, independent (phi, zeta) pair
  and returns the stochastic gradient  grad G_i(x; phi) grad F_i(z; zeta).

All randomness comes from the caller-supplied numpy Generator, so oracles
are immutable after construction and safe to share across concurrent runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CapabilityError


@dataclass(frozen=True)
class NormalityData:
    """Closed-form ingredients of the asymptotic covariance.

    H: n * Hessian of the global objective at the optimum (d x d).
    T: per-agent outer-Hessian matrices (p_i x p_i).
    S1: covariance of the summed gradient noise at (x*, g(x*)).
    S2: covariance of sum_j grad g_j(x*) T_j G_j(x*; phi_j).
    """

    H: np.ndarray
    T: list
    S1: np.ndarray
    S2: np.ndarray


class ProblemOracle:
    """Base class; concrete families override the sampling primitives."""

    n: int
    d: int

    has_true_g = False
    has_true_grad = False
    has_optimum = False
    has_normality_data = False

    def inner_dim(self, i):
        """Output dimension p_i of agent i's inner function."""
        raise NotImplementedError

    def sample_inner_pair(self, i, x_new, x_old, rng):
        """(G_i(x_new; phi'), G_i(x_old; phi')) with one shared phi' draw."""
        raise NotImplementedError

    def sample_grad(self, i, x, z, rng):
        """grad G_i(x; phi) grad F_i(z; zeta) with fresh independent draws."""
        raise NotImplementedError

    # Vectorized fast paths; the default falls back to per-agent calls.
    # Subclasses that override these must preserve determinism given rng.

    def sample_inner_pair_all(self, X_new, X_old, rng):
        """Stacked (n, p) arrays G(X_new), G(X_old), one shared draw per agent.

        Every agent must have the same inner dimension p.
        """
        pairs = [self.sample_inner_pair(i, X_new[i], X_old[i], rng) for i in range(self.n)]
        return np.stack([new for new, _ in pairs]), np.stack([old for _, old in pairs])

    def sample_grad_all(self, X, Z, rng):
        """Stacked (n, d) stochastic gradients; Z is the (n, p) inner-value array."""
        return np.stack([self.sample_grad(i, X[i], Z[i], rng) for i in range(self.n)])

    # Ground-truth accessors, guarded by capability flags.

    def true_g(self, i, x):
        raise CapabilityError(f"{type(self).__name__} has no closed-form inner value")

    def true_inner_jacobian_t(self, i, x):
        """Transposed Jacobian of g_i at x (d x p_i)."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form inner Jacobian")

    def true_grad_h(self, x):
        raise CapabilityError(f"{type(self).__name__} has no closed-form gradient")

    def true_h(self, x):
        raise CapabilityError(f"{type(self).__name__} has no closed-form objective")

    def optimum(self):
        raise CapabilityError(f"{type(self).__name__} has no known optimum")

    def normality_data(self):
        raise CapabilityError(f"{type(self).__name__} has no normality data")
