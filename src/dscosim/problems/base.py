"""Oracle contract shared by all problem families.

Each agent i owns a compositional objective f_i(g_i(x)) with
g_i(x) = E[G_i(x; phi_i)] and f_i(z) = E[F_i(z; zeta_i)].  Every agent has
the same inner dimension p.  An oracle exposes two sampling primitives, each
taking the agent-first ``(n, R, ·)`` arrays of a run and a ``ReplicaStreams``
of R replicas, and drawing for all n agents and R replicas in one call:

* ``sample_inner_pair_all(X_new, X_old, rng)`` evaluates G_i at both points of
  each agent with one common inner sample per agent and replica (required by the
  stochastic correction) and returns two ``(n, R, p)`` arrays.  Given one array
  as both points (``X_old is X_new``) it evaluates once, with the same draws,
  and returns equal outputs.
* ``sample_grad_all(X, Z, rng)`` draws a fresh, independent (phi, zeta) pair
  per agent and replica and returns the ``(n, R, d)`` stochastic gradients
  grad G_i(x_i; phi) grad F_i(z_i; zeta).

Each replica draws from its own stream, and every result depends only on the
inputs, so oracles are safe to share across concurrent runs.

A family may keep one product between calls: ``kept_map`` holds its noise-free
inner map of the last point array it mapped, keyed by that array's identity, so
the next round's old point (the array this round mapped as its new point) is
not mapped again.  This holds because callers never write a point array in
place after handing it to an oracle, and the kept image is read-only.  Each
constant of an instance (a Hessian, an optimum, a copy of the data in another
layout, a draw size) is a ``cached_property``, computed once per instance on
first use.  Neither is an init field, so
``dataclasses.replace`` gives an instance that computes its own.

The families' einsums call ``einsum``, numpy's C routine ``c_einsum``:
``np.einsum`` without ``optimize`` forwards to that same routine, so the bits are
the same, but its Python wrapper first pays about 1 µs of dispatch, some 40 % of
a call at n = 10.  A numpy without the routine falls back to ``np.einsum``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import CapabilityError

try:  # np.einsum(..., optimize=False) calls this routine after its dispatch
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:
    einsum = np.einsum


def per_agent(a, X):
    """View of the per-agent array ``a`` ``(n, ...)`` that broadcasts agent by agent
    against X ``(n, ..., *a.shape[1:])``, with or without a replica axis."""
    return a.reshape(a.shape[:1] + (1,) * (X.ndim - a.ndim) + a.shape[1:])


def agent_matvec(M, X):
    """Per-agent products ``M[i] @ X[i, ..., :]`` for M ``(n, a, b)`` and X ``(n, ..., b)``.

    One stacked ``matmul``, which applies the same kernel to each agent (and
    replica) as ``M[i] @ x`` does, so every row has the bits of its own product.
    """
    return np.matmul(per_agent(M, X[..., None]), X[..., None])[..., 0]


def each_point(form, x):
    """``form`` at each point of the stack x ``(..., d)``, one call per point, stacked.

    For a shape where einsum sums one point's products in an order that no stacked
    einsum shares: with one point's output a single element, einsum may group its
    products (the quadratic form at n = 1, d = 2) or split a long sum into buffer-sized
    parts (the logistic gradient at d = 1, n·m > 8192).
    """
    values = np.stack([form(p) for p in x.reshape(-1, x.shape[-1])])
    return values.reshape(x.shape[:-1] + values.shape[1:])


def kept_map(cache, inner_map, X):
    """``inner_map(X)``, kept in ``cache`` with X for the next call.

    When X *is* the kept array, the kept image is returned: the same array the
    same product gave for the same X, so a hit changes no bit.  The image is
    read-only, so a write into it raises instead of changing the next call's
    result.  The cache holds X itself, so its id cannot be reused while the pair
    is kept, and the pair is read and replaced as one tuple, so concurrent
    callers see a matching pair.
    """
    kept = cache.get("mapped")
    if kept is not None and kept[0] is X:
        return kept[1]
    image = inner_map(X)
    image.setflags(write=False)
    cache["mapped"] = (X, image)
    return image


@dataclass(frozen=True)
class NormalityData:
    """Closed-form ingredients of the asymptotic covariance.

    H: n * Hessian of the global objective at the optimum (d x d).
    T: stacked per-agent outer-Hessian matrices (n x p x p).
    S1: covariance of the summed gradient noise at (x*, g(x*)).
    S2: covariance of sum_j grad g_j(x*) T_j G_j(x*; phi_j).

    S1 and S2 are computed on first read, by the ``s1``/``s2`` callables, and
    kept: a reader of H alone (a stepsize from the curvature) never pays for them.
    """

    H: np.ndarray
    T: np.ndarray
    s1: Callable[[], np.ndarray] = field(repr=False)
    s2: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def S1(self):
        return self.s1()

    @cached_property
    def S2(self):
        return self.s2()


class ProblemOracle:
    """Base class; concrete families override the sampling primitives."""

    n: int
    d: int

    has_true_g = False
    has_true_grad = False
    has_optimum = False

    def sample_inner_pair_all(self, X_new, X_old, rng):
        """Stacked (n, R, p) arrays G(X_new), G(X_old), one shared draw per agent and replica."""
        raise NotImplementedError

    def sample_grad_all(self, X, Z, rng):
        """Stacked (n, R, d) stochastic gradients; Z is the (n, R, p) inner-value array."""
        raise NotImplementedError

    # Ground-truth accessors, guarded by capability flags.

    def true_g(self, X):
        """Stacked closed-form inner values g_i(X[i]): (n, p) for X (n, d), and
        (n, R, p) for a replica-batched X (n, R, d), each replica as its own call."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form inner value")

    def true_inner_jacobian_t(self, X):
        """Stacked transposed Jacobians of each g_i at X[i]: (n, d, p) for X (n, d)."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form inner Jacobian")

    def true_grad_h(self, x):
        """Gradient of h at x ``(d,)``, or at each point of a stack ``(..., d)``, each with
        the bits of its own call."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form gradient")

    def true_h(self, x):
        """h at x ``(d,)``, a float64, or at each point of a stack ``(..., d)``, an array of
        the stack's leading shape, each with the bits of its own call."""
        raise CapabilityError(f"{type(self).__name__} has no closed-form objective")

    def optimum(self):
        raise CapabilityError(f"{type(self).__name__} has no known optimum")

    def normality_data(self):
        raise CapabilityError(f"{type(self).__name__} has no normality data")


@dataclass(frozen=True)
class AdditiveNoiseProblem(ProblemOracle):
    """A family with G_i(x; phi) = _inner_map(x)_i + phi, phi ~ N(0, sigma_phi^2 I_p), and outer
    noise of scale sigma_zeta; the σ fields are keyword-only, after the family's own fields."""

    sigma_phi: float = field(kw_only=True)
    sigma_zeta: float = field(kw_only=True)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _draw_size(self):
        return self.n, self.p

    @cached_property
    def _noise_scales(self):
        """sigma_phi and sigma_zeta as 0-d arrays, which a ufunc takes without converting a
        Python float each call; the product is the same float64 multiply."""
        return np.array(self.sigma_phi), np.array(self.sigma_zeta)

    def sample_inner_pair_all(self, X_new, X_old, rng):
        phi = rng.normal(size=self._draw_size) * self._noise_scales[0]
        # The old point first: it is the last round's new point, whose image is kept.
        old = kept_map(self._cache, self._inner_map, X_old)
        g_new = kept_map(self._cache, self._inner_map, X_new) + phi
        phi += old  # G(X_old) = map(X_old) + phi: a sum has the same bits in either order
        return g_new, phi
