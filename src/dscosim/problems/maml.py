"""Sinusoid-regression meta-learning family (compositional form).

Each agent holds a set of sine-wave tasks (amplitude, phase).  The regressor
is a two-hidden-layer ReLU network on scalar inputs, implemented in-module
with manual backprop over a flat parameter vector.

Compositional structure per agent (task index is part of the randomness):
    inner  G(x; batch) = x - adapt_step * grad L_task(x; batch)
    outer  F(z; batch) = L_task(z; batch)       (mean squared error)
so the inner output dimension equals the parameter dimension.  The inner
Jacobian-vector product (I - adapt_step * Hessian) w is computed by a central
finite difference of the minibatch gradient with the same minibatch on both
sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .base import ProblemOracle

BATCH_SIZE = 10  # inputs per task minibatch


@dataclass(frozen=True)
class MlpRegressor:
    """Fully connected scalar->scalar net, two ReLU hidden layers."""

    width: int

    @property
    def n_params(self):
        w = self.width
        return w + w + w * w + w + w + 1

    def init_params(self, rng):
        """He-uniform fan-in init, zero biases."""
        w = self.width
        parts = []
        for fan_in, shape in [(1, (w, 1)), (w, (w, w)), (w, (1, w))]:
            lim = np.sqrt(6.0 / fan_in)
            parts.append(rng.uniform(-lim, lim, size=shape).ravel())
            parts.append(np.zeros(shape[0]))
        return np.concatenate(parts)

    def _unpack(self, x):
        w = self.width
        o = 0
        W1 = x[o : o + w].reshape(w, 1); o += w
        b1 = x[o : o + w]; o += w
        W2 = x[o : o + w * w].reshape(w, w); o += w * w
        b2 = x[o : o + w]; o += w
        W3 = x[o : o + w].reshape(1, w); o += w
        b3 = x[o : o + 1]
        return W1, b1, W2, b2, W3, b3

    def loss_grad(self, x, inputs, targets):
        """MSE and its gradient w.r.t. the flat parameter vector."""
        W1, b1, W2, b2, W3, b3 = self._unpack(x)
        X = inputs[:, None]
        a1 = X @ W1.T + b1
        h1 = np.maximum(a1, 0.0)
        a2 = h1 @ W2.T + b2
        h2 = np.maximum(a2, 0.0)
        out = (h2 @ W3.T + b3)[:, 0]
        B = inputs.shape[0]
        resid = out - targets
        loss = float(np.mean(resid**2))

        d_out = (2.0 / B) * resid[:, None]  # (B, 1)
        gW3 = d_out.T @ h2
        gb3 = d_out.sum(axis=0)
        d_h2 = (d_out @ W3) * (a2 > 0)
        gW2 = d_h2.T @ h1
        gb2 = d_h2.sum(axis=0)
        d_h1 = (d_h2 @ W2) * (a1 > 0)
        gW1 = d_h1.T @ X
        gb1 = d_h1.sum(axis=0)
        grad = np.concatenate(
            [gW1.ravel(), gb1, gW2.ravel(), gb2, gW3.ravel(), gb3]
        )
        return loss, grad


@dataclass(frozen=True)
class SinusoidMamlProblem(ProblemOracle):
    net: MlpRegressor
    amplitude: np.ndarray  # (n, tasks)
    phase: np.ndarray  # (n, tasks)
    adapt_step: float

    @property
    def n(self):
        return self.amplitude.shape[0]

    @property
    def tasks_per_agent(self):
        return self.amplitude.shape[1]

    @property
    def d(self):
        return self.net.n_params

    def init_params(self, rng):
        return self.net.init_params(rng)

    def _draw_batch(self, i, rng):
        m = int(rng.integers(0, self.tasks_per_agent))
        inputs = rng.uniform(-5.0, 5.0, size=BATCH_SIZE)
        targets = self.amplitude[i, m] * np.sin(inputs + self.phase[i, m])
        return inputs, targets

    def _task_grad(self, x, batch):
        _, grad = self.net.loss_grad(x, *batch)
        return grad

    # The sampling primitives loop over agents in order: agent i draws all of its
    # minibatches before agent i + 1 draws any.  Given a ReplicaStreams, they run
    # that loop replica by replica, each on its own stream.

    def sample_inner_pair_all(self, X_new, X_old, rng):
        same = X_old is X_new  # one point: one adaptation step serves both
        if isinstance(rng, np.random.Generator):
            return self._inner_pair(X_new, X_old, rng, same)
        pairs = [
            self._inner_pair(X_new[:, r], X_old[:, r], g, same) for r, g in enumerate(rng.streams)
        ]
        return tuple(np.stack(p, axis=1) for p in zip(*pairs))

    def _inner_pair(self, X_new, X_old, rng, same):
        new, old = [], []
        for i in range(self.n):
            batch = self._draw_batch(i, rng)
            new.append(X_new[i] - self.adapt_step * self._task_grad(X_new[i], batch))
            if not same:
                old.append(X_old[i] - self.adapt_step * self._task_grad(X_old[i], batch))
        new = np.stack(new)
        return (new, new) if same else (new, np.stack(old))

    def hvp(self, x, vec, batch):
        """Central finite-difference Hessian-vector product of the task loss."""
        norm_v = np.linalg.norm(vec)
        eps = 1e-4 * (1.0 + np.linalg.norm(x)) / max(norm_v, 1e-12)
        gp = self._task_grad(x + eps * vec, batch)
        gm = self._task_grad(x - eps * vec, batch)
        return (gp - gm) / (2.0 * eps)

    def sample_grad_all(self, X, Z, rng):
        if isinstance(rng, np.random.Generator):
            return self._grad(X, Z, rng)
        grads = [self._grad(X[:, r], Z[:, r], g) for r, g in enumerate(rng.streams)]
        return np.stack(grads, axis=1)

    def _grad(self, X, Z, rng):
        grads = []
        for i in range(self.n):
            inner_batch = self._draw_batch(i, rng)
            outer_batch = self._draw_batch(i, rng)
            v = self._task_grad(Z[i], outer_batch)
            if self.adapt_step != 0.0:
                v = v - self.adapt_step * self.hvp(X[i], v, inner_batch)
            grads.append(v)
        return np.stack(grads)


def make_sinusoid_maml(n, tasks_per_agent, hidden_width, adapt_step, seed):
    if hidden_width < 1:
        raise ConfigurationError(f"hidden_width must be >= 1, got {hidden_width}")
    if adapt_step < 0:
        raise ConfigurationError(f"adapt_step must be >= 0, got {adapt_step}")
    rng = np.random.default_rng(seed)
    amplitude = rng.uniform(0.1, 5.0, size=(n, tasks_per_agent))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, tasks_per_agent))
    return SinusoidMamlProblem(
        net=MlpRegressor(hidden_width),
        amplitude=amplitude,
        phase=phase,
        adapt_step=float(adapt_step),
    )
