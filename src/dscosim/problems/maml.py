"""Sinusoid-regression meta-learning family (compositional form).

Each agent holds a set of sine-wave tasks (amplitude, phase).  The regressor
is a two-hidden-layer ReLU network on scalar inputs, implemented in-module
with manual backprop over a flat parameter vector.  The net takes any leading
axes: one call evaluates every agent and replica as stacked ``matmul``s, each
net with the bits it has alone.  A sampling primitive first draws every
agent's minibatches, stream by stream in the serial order, then makes one
such call per point array.

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
        """The six layers' weights and biases as views into ``x`` (..., n_params)."""
        w = self.width
        lead = x.shape[:-1]
        o = 0
        W1 = x[..., o : o + w].reshape(*lead, w, 1); o += w
        b1 = x[..., o : o + w]; o += w
        W2 = x[..., o : o + w * w].reshape(*lead, w, w); o += w * w
        b2 = x[..., o : o + w]; o += w
        W3 = x[..., o : o + w].reshape(*lead, 1, w); o += w
        b3 = x[..., o : o + 1]
        return W1, b1, W2, b2, W3, b3

    def loss_grad(self, x, inputs, targets):
        """MSE and its gradient w.r.t. the flat parameter vector, per net.

        ``x`` is ``(..., n_params)`` and the minibatch ``(..., B)``.  Each net's stacked
        ``matmul`` slice has the bits of that net alone; ``x`` is made contiguous, as
        some numpy versions multiply a strided operand outside BLAS.
        """
        W1, b1, W2, b2, W3, b3 = self._unpack(np.ascontiguousarray(x))
        X = inputs[..., :, None]
        a1 = X @ W1.swapaxes(-1, -2) + b1[..., None, :]
        h1 = np.maximum(a1, 0.0)
        a2 = h1 @ W2.swapaxes(-1, -2) + b2[..., None, :]
        h2 = np.maximum(a2, 0.0)
        out = (h2 @ W3.swapaxes(-1, -2) + b3[..., None, :])[..., 0]
        B = inputs.shape[-1]
        resid = out - targets
        loss = np.mean(resid**2, axis=-1)

        d_out = (2.0 / B) * resid[..., :, None]  # (..., B, 1)
        gW3 = d_out.swapaxes(-1, -2) @ h2
        gb3 = d_out.sum(axis=-2)
        d_h2 = (d_out @ W3) * (a2 > 0)
        gW2 = d_h2.swapaxes(-1, -2) @ h1
        gb2 = d_h2.sum(axis=-2)
        d_h1 = (d_h2 @ W2) * (a1 > 0)
        gW1 = d_h1.swapaxes(-1, -2) @ X
        gb1 = d_h1.sum(axis=-2)
        parts = [gW1, gb1, gW2, gb2, gW3, gb3]
        grad = np.concatenate([g.reshape(*x.shape[:-1], -1) for g in parts], axis=-1)
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

    def _draw_batches(self, count, rng):
        """``count`` minibatches per agent and replica as ``(2, count, n, R, B)`` inputs and
        targets: on each stream in turn, agent i draws all of its minibatches before
        agent i + 1 draws any."""
        batches = np.empty((2, count, self.n, len(rng.streams), BATCH_SIZE))
        for r, g in enumerate(rng.streams):
            for i in range(self.n):
                for c in range(count):
                    batches[:, c, i, r] = self._draw_batch(i, g)
        return batches

    def sample_inner_pair_all(self, X_new, X_old, rng):
        batch = self._draw_batches(1, rng)[:, 0]
        new = X_new - self.adapt_step * self._task_grad(X_new, batch)
        if X_old is X_new:  # one point: one adaptation step serves both
            return new, new
        return new, X_old - self.adapt_step * self._task_grad(X_old, batch)

    def hvp(self, x, vec, batch):
        """Central finite-difference Hessian-vector product of the task loss, per net."""
        # per net sqrt(a @ a): the bits of np.linalg.norm on that net's vector
        norm_x, norm_v = (np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0] for a in (x, vec))
        eps = 1e-4 * (1.0 + norm_x) / np.maximum(norm_v, 1e-12)
        gp = self._task_grad(x + eps * vec, batch)
        gm = self._task_grad(x - eps * vec, batch)
        return (gp - gm) / (2.0 * eps)

    def sample_grad_all(self, X, Z, rng):
        inner, outer = self._draw_batches(2, rng).swapaxes(0, 1)
        v = self._task_grad(Z, outer)
        if self.adapt_step != 0.0:
            v = v - self.adapt_step * self.hvp(X, v, inner)
        return v


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
