"""Monte Carlo validation oracle for the stochastic gradient's unbiasedness."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def monte_carlo_grad_h(problem, x, draws, rng):
    """Estimate grad h(x) through the stacked oracles, with every agent at x.

    Each of the `draws` outer samples is the agent mean of
    ``sample_grad_all(X, Z)``, where X stacks x once per agent and Z is the
    agents' closed-form inner values ``true_g(X)``.  A family without a closed
    form (MAML) has no ``true_grad_h`` to compare the estimate with, and its
    ``true_g`` raises ``CapabilityError``.

    Returns (mean, stderr) per coordinate.
    """
    if draws < 1:
        raise ConfigurationError(f"draws must be >= 1, got {draws}")
    n, d = problem.n, problem.d
    X = np.tile(x, (n, 1))
    Z = problem.true_g(X)
    samples = np.empty((draws, d))
    for t in range(draws):
        samples[t] = problem.sample_grad_all(X, Z, rng).mean(axis=0)
    mean = samples.mean(axis=0)
    if draws == 1:
        return mean, np.zeros(d)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, stderr
