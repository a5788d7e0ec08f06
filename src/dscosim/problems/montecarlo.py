"""Monte Carlo validation oracle for the stochastic gradient's unbiasedness."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def monte_carlo_grad_h(problem, x, draws, rng):
    """Estimate grad h(x) through the stacked oracles, with every agent at x.

    Each ``sample_grad_all(X, Z, rng)`` call, on the ``(n, R, d)`` X that holds x
    at every agent and replica of the ``ReplicaStreams`` rng, with Z the agents'
    closed-form inner values ``true_g(X)``, gives R of the `draws` outer samples:
    each the agent mean of one replica's gradients.  A family without a closed
    form (MAML) has no ``true_grad_h`` to compare the estimate with, and its
    ``true_g`` raises ``CapabilityError``.

    Returns (mean, stderr) per coordinate.
    """
    if draws < 1:
        raise ConfigurationError(f"draws must be >= 1, got {draws}")
    R = len(rng.seeds)
    X = np.tile(x, (problem.n, R, 1))
    Z = problem.true_g(X)
    calls = [problem.sample_grad_all(X, Z, rng).mean(axis=0) for _ in range(-(-draws // R))]
    samples = np.concatenate(calls)[:draws]  # (draws, d)
    mean = samples.mean(axis=0)
    if draws == 1:
        return mean, np.zeros(problem.d)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, stderr
