"""Averaged-iterate normality study: replications, statistic, covariance match.

For a strongly convex instance with known optimum, each replication runs the
push-pull corrected method (all replications as one replica-batched state) and
accumulates, online, the running sums of

    top    = x_{i,t} - x*                        (chosen agent i)
    bottom = (1/n) sum_j  grad g_j(x*) T_j (z_{j,t} - g_j(x_{j,t}))

over t = 1..k, scaled by 1/sqrt(k).  The empirical covariance of the stacked
(top, bottom) vector across replications is compared against the closed-form
limit assembled from (H, S1, S2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ab_dscsc_init and ab_dscsc_step are unused here, but the benchmark's tracer patches
# them by name on this module (ROADMAP item 7 replaces those patches)
from .algorithms import ReplicaStreams, ab_dscsc_init, ab_dscsc_step, rounds  # noqa: F401
from .errors import CapabilityError, ConfigurationError, InsufficientDataError, NumericalError
from .problems.base import agent_matvec
from .schedules import Polynomial


@dataclass(frozen=True)
class DeltaSample:
    top: np.ndarray  # (d,)
    bottom: np.ndarray  # (d,)
    agent_index: int
    k: int
    seed: int

    def stacked(self):
        return np.concatenate([self.top, self.bottom])


@dataclass(frozen=True)
class CovarianceReport:
    empirical: np.ndarray  # (2d, 2d)
    theoretical: np.ndarray  # (2d, 2d)
    rel_frobenius_error: float
    skewness: np.ndarray  # (d,) standardized top-block marginals
    excess_kurtosis: np.ndarray  # (d,)

    def to_kv_rows(self):
        rows = [("rel_frobenius_error", self.rel_frobenius_error)]
        rows += [(f"skewness_{j}", float(v)) for j, v in enumerate(self.skewness)]
        rows += [(f"excess_kurtosis_{j}", float(v)) for j, v in enumerate(self.excess_kurtosis)]
        return rows


def _check_schedule(schedule):
    rule = schedule.alpha_rule
    if not isinstance(rule, Polynomial) or not 0.5 < rule.exponent < 1.0:
        raise ConfigurationError(
            "normality study needs a polynomial stepsize with exponent in (1/2, 1)"
        )
    if schedule.beta_rule != "proportional":
        raise ConfigurationError("normality study needs beta_k proportional to alpha_k")


def collect_delta(replications, problem, weights, schedule, k, agent, base_seed):
    """R independent replications of the scaled averaged statistic.

    Seeds are base_seed .. base_seed + R - 1.  The replications advance as one
    agent-first ``(n, R, d)`` state, each on its own stream, so every sample is
    bitwise the one a serial run of its seed gives; accumulation is online, no
    trajectory storage.
    """
    _check_schedule(schedule)
    if not (problem.has_optimum and problem.has_normality_data):
        raise CapabilityError("normality study needs optimum and normality data")
    if not 1 <= agent <= problem.n:
        raise ConfigurationError(f"agent must be in [1, {problem.n}], got {agent}")
    if replications < 1 or k < 1:
        raise ConfigurationError(f"replications and k must be >= 1, got {replications} and {k}")
    if not 0 <= base_seed <= 2**64 - replications:  # every replica's Philox key is a uint64
        raise ConfigurationError(
            f"seeds {base_seed} .. {base_seed + replications - 1} must lie in [0, 2**64)"
        )

    xstar = problem.optimum()
    nd = problem.normality_data()
    # (1/n) grad g_j(x*) T_j, fused per agent, stacked (n, d, p)
    projs = np.stack(
        [problem.true_inner_jacobian_t(j, xstar) @ nd.T[j] / problem.n for j in range(problem.n)]
    )
    i0 = agent - 1

    seeds = range(base_seed, base_seed + replications)
    top = np.zeros((replications, problem.d))
    bottom = np.zeros((replications, problem.d))
    for state in rounds("ab-dscsc", problem, schedule, k - 1, weights, ReplicaStreams(seeds)):
        top += state.x[i0] - xstar
        gap = state.z - problem.true_g(state.x)  # (n, R, p)
        # one product for all agents, added agent by agent: a reduce over agents would
        # change the float order
        for contribution in agent_matvec(projs, gap):
            bottom += contribution
    scale = 1.0 / np.sqrt(k)
    return [
        DeltaSample(top=scale * top[r], bottom=scale * bottom[r], agent_index=agent, k=k, seed=seed)
        for r, seed in enumerate(seeds)
    ]


def theoretical_covariance(problem):
    """Closed-form 2d x 2d limit covariance from (H, S1, S2)."""
    nd = problem.normality_data()
    n = problem.n
    try:
        Hinv = np.linalg.inv(nd.H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("H is singular; the limit needs strong convexity") from exc
    top_left = Hinv @ (nd.S1 + nd.S2) @ Hinv.T
    off = -(1.0 / n) * Hinv @ nd.S2
    bottom_right = nd.S2 / n**2
    d = nd.H.shape[0]
    out = np.empty((2 * d, 2 * d))
    out[:d, :d] = top_left
    out[:d, d:] = off
    out[d:, :d] = off.T
    out[d:, d:] = bottom_right
    return out


def compare_covariance(samples, theoretical):
    """Empirical-vs-theoretical covariance report over >= 50 DeltaSamples."""
    if len(samples) < 50:
        raise InsufficientDataError(f"need >= 50 samples, got {len(samples)}")
    data = np.stack([s.stacked() for s in samples])  # (R, 2d)
    emp = np.cov(data, rowvar=False, ddof=1)
    denom = np.linalg.norm(theoretical)
    err = 1.0 if denom == 0 else float(np.linalg.norm(emp - theoretical) / denom)

    d = data.shape[1] // 2
    top = data[:, :d]
    sd = np.sqrt(np.clip(np.diag(theoretical)[:d], 1e-300, None))
    centered = top - top.mean(axis=0)
    skew = np.mean(centered**3, axis=0) / sd**3
    kurt = np.mean(centered**4, axis=0) / sd**4 - 3.0
    return CovarianceReport(
        empirical=emp,
        theoretical=theoretical,
        rel_frobenius_error=err,
        skewness=skew,
        excess_kurtosis=kurt,
    )


def samples_to_csv(samples):
    """One row per replication: seed, agent, k, then top/bottom coordinates."""
    if not samples:
        return "seed,agent,k\n"
    d = samples[0].top.shape[0]
    header = (
        "seed,agent,k,"
        + ",".join(f"top_{j}" for j in range(d))
        + ","
        + ",".join(f"bottom_{j}" for j in range(d))
    )
    lines = [header]
    for s in samples:
        vals = ",".join(f"{v:.17g}" for v in np.concatenate([s.top, s.bottom]))
        lines.append(f"{s.seed},{s.agent_index},{s.k},{vals}")
    return "\n".join(lines) + "\n"
