"""Monte Carlo validation oracle for the stochastic gradient's unbiasedness."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

INNER_PROXY_DRAWS = 1000


def monte_carlo_grad_h(problem, x, draws, rng):
    """Estimate grad h(x) through the stacked oracles, with every agent at x.

    Each of the `draws` outer samples is the agent mean of
    ``sample_grad_all(X, Z)``, where X stacks x once per agent and Z holds the
    agents' inner values at x: the closed form when the oracle has one,
    otherwise the mean of ``INNER_PROXY_DRAWS`` fresh stacked inner samples
    per outer draw.

    Returns (mean, stderr) per coordinate.
    """
    if draws < 1:
        raise ConfigurationError(f"draws must be >= 1, got {draws}")
    n, d = problem.n, problem.d
    X = np.tile(x, (n, 1))

    def inner_values():
        if problem.has_true_g:
            return problem.true_g(X)
        acc = None
        for _ in range(INNER_PROXY_DRAWS):
            G, _ = problem.sample_inner_pair_all(X, X, rng)
            acc = G if acc is None else acc + G
        return acc / INNER_PROXY_DRAWS

    samples = np.empty((draws, d))
    for t in range(draws):
        samples[t] = problem.sample_grad_all(X, inner_values(), rng).mean(axis=0)
    mean = samples.mean(axis=0)
    if draws == 1:
        return mean, np.zeros(d)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
    return mean, stderr
