"""Synchronous-round step functions and the run driver.

Implemented methods:

* ``ab-dscsc`` — push-pull gradient tracking with stochastically corrected
  inner-value tracking, over a directed graph pair (A row-stochastic,
  B column-stochastic).
* ``scgd`` / ``scsc`` — single-agent compositional baselines.
* ``gp-dscgd`` / ``gt-dscgd`` — doubly stochastic baselines on the
  symmetrized graph, without/with gradient tracking.

All randomness flows from one counter-based Philox stream per run, consumed
in a fixed order (inner-correction draw, then gradient draw, agents batched),
so a run is bitwise reproducible from (config, seed), and the single-agent
AB recursion consumes draws in exactly the same order as ``scsc_step``.

``ab_dscsc_init``/``ab_dscsc_step`` also advance R independent replications at
once: the state arrays are then agent-first ``(n, R, d)`` and the stream is a
``ReplicaStreams``, which keeps each replica's own stream and draw order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .metrics import collect_row
from .records import RunRecord
from .topology import underlying_metropolis

DIVERGENCE_LIMIT = 1e6

ALGORITHMS = ("ab-dscsc", "scgd", "scsc", "gp-dscgd", "gt-dscgd")


def run_stream(seed):
    """Counter-based per-run random stream."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


class ReplicaStreams:
    """One ``run_stream`` per seed, drawn from as one stream.

    A draw of shape ``(n, ...)`` is each replica's own draw of that shape, in
    seed order, stacked on axis 1, so every replica consumes its stream exactly
    as a serial run with that seed would.

    Each stream draws its standard normals in blocks into a joint ``(R, block)``
    buffer of about ``BUFFER_BYTES``, and each draw is sliced from it in stream
    order. ``normal`` is the only draw offered, and a Philox ``normal(size=N)``
    equals the same N values drawn in successive calls, so the bits are those
    of per-draw calls.
    """

    BUFFER_BYTES = 256 * 1024

    def __init__(self, seeds):
        self.seeds = list(seeds)
        self.streams = [run_stream(s) for s in self.seeds]
        self.block = max(1, self.BUFFER_BYTES // (8 * len(self.seeds)))
        self._buf = np.empty((len(self.seeds), 0))
        self._pos = 0

    def normal(self, size):
        count = math.prod(size)
        left = self._buf.shape[1] - self._pos
        if count > left:  # refill, keeping the unread tail in front
            fresh = np.array([g.normal(size=max(self.block, count - left)) for g in self.streams])
            self._buf = np.concatenate([self._buf[:, self._pos :], fresh], axis=1)
            self._pos = 0
        draws = self._buf[:, self._pos : self._pos + count].reshape(len(self.seeds), *size)
        self._pos += count
        return draws.swapaxes(0, 1).copy()  # (n, R, ...)


@dataclass
class NetworkState:
    """Stacked per-agent state at iteration k, shared by every method.

    Replica-batched AB-DSCSC states hold ``(n, R, d)`` arrays instead of ``(n, d)``.
    """

    k: int
    x: np.ndarray  # (n, d)
    z: np.ndarray  # (n, p) inner-value estimates
    y: np.ndarray | None  # (n, d) gradient trackers; None without tracking (GP)
    h_prev: np.ndarray | None  # (n, d) last stochastic gradients; None without tracking


def _check_finite(arr, k, what, rng=None):
    """Raise DivergenceError naming the first agent with a non-finite or runaway entry.

    A replica-batched ``(n, R, d)`` array (``rng`` a ``ReplicaStreams``) names
    the first such replica's seed, and the agent its own serial run would name.
    """
    if np.maximum.reduce(np.abs(arr), axis=None) <= DIVERGENCE_LIMIT:  # False for NaN
        return
    bad = ~np.isfinite(arr) | (np.abs(arr) > DIVERGENCE_LIMIT)
    seed = None
    if arr.ndim == 3:  # (n, R, d): keep the first replica with a bad entry
        r = int(np.argmax(bad.any(axis=(0, 2))))
        bad, seed = bad[:, r], rng.seeds[r]
    bad_agents = np.flatnonzero(bad.any(axis=1))
    if bad_agents.size:
        agent = int(bad_agents[0]) + 1
        where = "" if seed is None else f", seed {seed}"
        raise DivergenceError(
            f"{what} non-finite or beyond {DIVERGENCE_LIMIT:g} at k={k}, agent {agent}{where}",
            k=k,
            agent=agent,
            seed=seed,
        )


def _corrected_z(z, g_new, g_old, beta):
    return (1.0 - beta) * (z + g_new - g_old) + beta * g_new


def ab_dscsc_init(problem, x0, rng, track=True):
    """Initial state: fresh inner sample for z, then one gradient draw for y.

    With ``track=False`` (GP-DSCGD) no gradient is drawn and y, h_prev are None.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    _check_finite(x0, 1, "initial iterate", rng)
    z, _ = problem.sample_inner_pair_all(x0, x0, rng)
    if not track:
        return NetworkState(k=1, x=x0, z=z, y=None, h_prev=None)
    y = problem.sample_grad_all(x0, z, rng)
    return NetworkState(k=1, x=x0, z=z, y=y, h_prev=y.copy())


def _mix(W, x):
    """W @ x over the agent axis; replica-batched ``(n, R, d)`` x is one ``(n, R*d)`` product."""
    if x.ndim == 2:
        return W @ x
    return (W @ x.reshape(len(x), -1)).reshape(x.shape)


def ab_dscsc_step(state, problem, weights, alpha_k, beta_k, rng):
    """One synchronous round: pull-mix x, correct z, push-track y."""
    if not 0.0 < beta_k <= 1.0:
        raise ConfigurationError(f"beta_k must be in (0, 1], got {beta_k}")
    A, B = weights.A, weights.B
    x_new = _mix(A, state.x - alpha_k * state.y)
    _check_finite(x_new, state.k + 1, "iterate", rng)
    g_new, g_old = problem.sample_inner_pair_all(x_new, state.x, rng)
    z_new = _corrected_z(state.z, g_new, g_old, beta_k)
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    # associate so that the n=1 case (B y == h_prev) reduces to y_new == h_new exactly
    y_new = (_mix(B, state.y) - state.h_prev) + h_new
    _check_finite(y_new, state.k + 1, "gradient tracker", rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=y_new, h_prev=h_new)


def scsc_step(state, problem, alpha_k, beta_k, rng):
    """Single-agent stochastically corrected step: descend along y, correct z, redraw y.

    Written apart from ``ab_dscsc_step`` so that the n=1 reduction test compares
    two implementations.
    """
    x_new = state.x - alpha_k * state.y
    _check_finite(x_new, state.k + 1, "iterate")
    g_new, g_old = problem.sample_inner_pair_all(x_new, state.x, rng)
    z_new = _corrected_z(state.z, g_new, g_old, beta_k)
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=h_new, h_prev=h_new)


def scgd_step(state, problem, alpha_k, beta_k, rng):
    """Single-agent two-timescale baseline: descend along y, average z plainly, redraw y."""
    x_new = state.x - alpha_k * state.y
    _check_finite(x_new, state.k + 1, "iterate")
    g_new, _ = problem.sample_inner_pair_all(x_new, x_new, rng)
    z_new = _corrected_z(state.z, g_new, g_new, beta_k)  # no correction term
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=h_new, h_prev=h_new)


def dscgd_step(state, problem, W, eta, gamma, beta_k, rng, track):
    """One GP-DSCGD (track=False) or GT-DSCGD (track=True) round."""
    if gamma * beta_k > 1.0:
        raise ConfigurationError(f"gamma*beta_k = {gamma * beta_k} exceeds 1")
    g_inner, _ = problem.sample_inner_pair_all(state.x, state.x, rng)
    z_new = _corrected_z(state.z, g_inner, g_inner, gamma * beta_k)  # no correction term
    g = problem.sample_grad_all(state.x, z_new, rng)
    if track:
        y_new = W @ state.y + g - state.h_prev
        direction = y_new
    else:
        y_new = None
        direction = g
    x_tilde = W @ state.x - eta * direction
    x_new = state.x + beta_k * (x_tilde - state.x)
    _check_finite(x_new, state.k + 1, "iterate")
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=y_new, h_prev=g if track else None)


def _default_x0(problem, rng):
    if hasattr(problem, "init_params"):
        row = problem.init_params(rng)
        return np.tile(row, (problem.n, 1))
    return np.zeros((problem.n, problem.d))


def run(
    algorithm,
    problem,
    schedule,
    K,
    weights=None,
    seed=0,
    metric_stride=1,
    eta=0.03,
    gamma=3.0,
    config=None,
):
    """Execute K synchronous rounds; returns a RunRecord with metric rows.

    Metrics are recorded at k=1 and then every `metric_stride` rounds.  On
    divergence the partial record is attached to the raised error.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    if metric_stride < 1:
        raise ConfigurationError(f"metric_stride must be >= 1, got {metric_stride}")
    single_agent = algorithm in ("scgd", "scsc")
    dscgd = algorithm in ("gp-dscgd", "gt-dscgd")
    if single_agent and problem.n != 1:
        raise ConfigurationError(f"{algorithm} is single-agent; problem has n={problem.n}")
    if not single_agent and weights is None:
        raise ConfigurationError(f"{algorithm} needs a WeightPair")

    rng = run_stream(seed)
    x0 = _default_x0(problem, rng)

    if algorithm == "ab-dscsc":
        u = weights.u

        def step(state, k):
            return ab_dscsc_step(state, problem, weights, schedule.alpha(k), schedule.beta_of(k), rng)

    elif dscgd:
        u = np.ones(problem.n)
        W = underlying_metropolis(weights.graph_A)
        track = algorithm == "gt-dscgd"

        def step(state, k):
            return dscgd_step(state, problem, W, eta, gamma, schedule.beta_of(k), rng, track)

    else:
        u = np.ones(1)
        single_step = scsc_step if algorithm == "scsc" else scgd_step

        def step(state, k):
            return single_step(state, problem, schedule.alpha(k), schedule.beta_of(k), rng)

    record = RunRecord(config=dict(config or {}), seed=seed)
    start = time.perf_counter()

    def note(state, k):
        alpha_k = eta if dscgd else schedule.alpha(k)
        record.rows.append(
            collect_row(state.k, alpha_k, schedule.beta_of(k), state.x, state.z, problem, u)
        )

    try:
        state = ab_dscsc_init(problem, x0, rng, track=algorithm != "gp-dscgd")
        note(state, 1)
        for k in range(1, K + 1):
            state = step(state, k)
            if k % metric_stride == 0:
                note(state, k)
    except DivergenceError as err:
        record.status = f"diverged@{err.k}"
        record.wall_seconds = time.perf_counter() - start
        err.record = record
        raise
    record.wall_seconds = time.perf_counter() - start
    return record
