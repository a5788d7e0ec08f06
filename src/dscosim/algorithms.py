"""Synchronous-round step functions, the round loop and the run driver.

Implemented methods:

* ``ab-dscsc`` — push-pull gradient tracking with stochastically corrected
  inner-value tracking, over a directed graph pair (A row-stochastic,
  B column-stochastic).
* ``scgd`` / ``scsc`` — single-agent compositional baselines.
* ``gp-dscgd`` / ``gt-dscgd`` — doubly stochastic baselines on the
  symmetrized graph, without/with gradient tracking.

All randomness flows from one counter-based Philox stream per seed, consumed
in a fixed order (inner-correction draw, then gradient draw, agents batched),
so a run is bitwise reproducible from (config, seed), and the single-agent
AB recursion consumes draws in exactly the same order as ``scsc_step``.

``run`` advances all of its seeds at once: the state arrays are agent-first
``(n, R, d)``, one replica per seed, and the stream is a ``ReplicaStreams``,
which keeps each replica's own stream and draw order.  Every per-agent product
is taken replica by replica, so a seed's bits do not depend on the other seeds
of its batch.  The step functions also take an ``(n, d)`` state with a plain
Generator, as one replica without its axis.
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
    order.  A Philox ``normal(size=N)`` equals the same N values drawn in
    successive calls, so the bits are those of per-draw calls.  ``integers``
    draws straight from the streams, so it is refused while buffered normals are
    unread: those values came off the streams first.
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
        # (n, R, ...); at R=1 a view, which is safe: the buffer is never written in place
        return np.ascontiguousarray(draws.swapaxes(0, 1))

    def integers(self, low, high, size):
        if self._pos < self._buf.shape[1]:
            raise RuntimeError("integers drawn while buffered normals are unread")
        return np.stack([g.integers(low, high, size=size) for g in self.streams], axis=1)


@dataclass
class NetworkState:
    """Stacked per-agent state at iteration k, shared by every method.

    ``run`` holds ``(n, R, d)`` arrays, one replica per seed; a step driven by a
    plain Generator holds ``(n, d)`` arrays.
    """

    k: int
    x: np.ndarray  # (n, R, d)
    z: np.ndarray  # (n, R, p) inner-value estimates
    y: np.ndarray | None  # (n, R, d) gradient trackers; None without tracking (GP)
    h_prev: np.ndarray | None  # (n, R, d) last stochastic gradients; None without tracking


def _check_finite(arr, k, what, rng):
    """Raise DivergenceError naming the replica and agent of a non-finite or runaway entry.

    The replica is the first in seed order, named by its seed (``rng`` a
    ``ReplicaStreams``), and the agent is the one its own one-seed run names.  An
    ``(n, d)`` array is one replica; with a plain Generator no seed is named.
    """
    if np.maximum.reduce(np.abs(arr), axis=None) <= DIVERGENCE_LIMIT:  # False for NaN
        return
    bad = ~np.isfinite(arr) | (np.abs(arr) > DIVERGENCE_LIMIT)
    bad = bad.reshape(len(arr), -1, arr.shape[-1])  # (n, R, d)
    r = int(np.argmax(bad.any(axis=(0, 2))))
    agent = int(np.argmax(bad[:, r].any(axis=1))) + 1
    seed = rng.seeds[r] if isinstance(rng, ReplicaStreams) else None
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
    """W @ x over the agent axis, one ``(n, d)`` product per replica.

    An ``(n, R, d)`` x is multiplied as R stacked products, each with the bits
    of its own ``W @ x[:, r]``; one flat ``(n, R*d)`` product would sum in
    another order at some n.  They are written into an agent-first array, like
    every other state array: left replica-major, the result slowed the oracles'
    einsums.  An ``(n, d)`` x is the single product.
    """
    out = np.empty(x.shape)
    np.matmul(W, x.swapaxes(0, -2), out=out.swapaxes(0, -2))
    return out


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
    _check_finite(x_new, state.k + 1, "iterate", rng)
    g_new, g_old = problem.sample_inner_pair_all(x_new, state.x, rng)
    z_new = _corrected_z(state.z, g_new, g_old, beta_k)
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=h_new, h_prev=h_new)


def scgd_step(state, problem, alpha_k, beta_k, rng):
    """Single-agent two-timescale baseline: descend along y, average z plainly, redraw y."""
    x_new = state.x - alpha_k * state.y
    _check_finite(x_new, state.k + 1, "iterate", rng)
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
        y_new = _mix(W, state.y) + g - state.h_prev
        direction = y_new
    else:
        y_new = None
        direction = g
    x_tilde = _mix(W, state.x) - eta * direction
    x_new = state.x + beta_k * (x_tilde - state.x)
    _check_finite(x_new, state.k + 1, "iterate", rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=y_new, h_prev=g if track else None)


def _default_x0(problem, rng):
    """(n, R, d) start: each replica's ``init_params`` row, drawn from its own stream, or zeros."""
    shape = (problem.n, len(rng.seeds), problem.d)
    if hasattr(problem, "init_params"):
        rows = np.stack([problem.init_params(g) for g in rng.streams])  # (R, d)
        return np.broadcast_to(rows, shape).copy()
    return np.zeros(shape)


def rounds(algorithm, problem, schedule, K, weights, rng, eta=0.03, gamma=3.0):
    """Yield the state at k=1, then the state after each of K rounds.

    The one round loop: every replica of ``rng`` starts from ``_default_x0``, and
    round k takes ``algorithm``'s step with the schedule's k-th values.  The caller
    validates the arguments; a DivergenceError leaves the generator.
    """
    dscgd = algorithm in ("gp-dscgd", "gt-dscgd")
    W = underlying_metropolis(weights.graph_A) if dscgd else None
    track = algorithm != "gp-dscgd"  # the one method without a gradient tracker
    state = ab_dscsc_init(problem, _default_x0(problem, rng), rng, track=track)
    yield state
    for k in range(1, K + 1):
        if algorithm == "ab-dscsc":
            state = ab_dscsc_step(state, problem, weights, schedule.alpha(k), schedule.beta_of(k), rng)
        elif dscgd:
            state = dscgd_step(state, problem, W, eta, gamma, schedule.beta_of(k), rng, track)
        elif algorithm == "scsc":
            state = scsc_step(state, problem, schedule.alpha(k), schedule.beta_of(k), rng)
        else:
            state = scgd_step(state, problem, schedule.alpha(k), schedule.beta_of(k), rng)
        yield state


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
    seeds=None,
):
    """Execute K synchronous rounds; returns a RunRecord with metric rows.

    Metrics are recorded at k=1 and then every `metric_stride` rounds.  On
    divergence the partial record is attached to the raised error.

    Given a list of ``seeds`` instead of one ``seed``, the seeds advance as one
    replica-batched state and the result is a list in seed order: each seed's
    RunRecord, or, for a seed that diverged, its DivergenceError with the
    partial record attached, not raised.  Each seed's rows have the bits of its
    one-seed run.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    if metric_stride < 1:
        raise ConfigurationError(f"metric_stride must be >= 1, got {metric_stride}")
    batch = [seed] if seeds is None else list(seeds)
    if not batch:
        raise ConfigurationError("seeds must hold at least one seed")
    single_agent = algorithm in ("scgd", "scsc")
    dscgd = algorithm in ("gp-dscgd", "gt-dscgd")
    if single_agent and problem.n != 1:
        raise ConfigurationError(f"{algorithm} is single-agent; problem has n={problem.n}")
    if not single_agent and weights is None:
        raise ConfigurationError(f"{algorithm} needs a WeightPair")

    u = weights.u if algorithm == "ab-dscsc" else np.ones(problem.n)  # n=1 when single-agent

    results = [None] * len(batch)
    pending = list(range(len(batch)))  # positions in `batch` still to run
    start = time.perf_counter()
    while pending:
        rng = ReplicaStreams([batch[i] for i in pending])
        records = [RunRecord(config=dict(config or {}), seed=s) for s in rng.seeds]
        try:
            for k, state in enumerate(rounds(algorithm, problem, schedule, K, weights, rng, eta, gamma)):
                if k % metric_stride:
                    continue
                j = max(k, 1)  # the start's row (k=0) takes alpha_1 and beta_1
                alpha_k, beta_k = (eta if dscgd else schedule.alpha(j)), schedule.beta_of(j)
                for r, record in enumerate(records):
                    x, z = state.x[:, r], state.z[:, r]
                    record.rows.append(collect_row(state.k, alpha_k, beta_k, x, z, problem, u))
        except DivergenceError as err:
            # the diverged seed keeps its rows so far; the others start again from k=1,
            # which repeats their bits, since a replica's bits do not depend on its batch
            r = rng.seeds.index(err.seed)
            records[r].status = f"diverged@{err.k}"
            err.record = records[r]
            results[pending.pop(r)] = err
        else:
            for i, record in zip(pending, records):
                results[i] = record
            pending = []
    share = (time.perf_counter() - start) / len(batch)
    for result in results:
        (result.record if isinstance(result, DivergenceError) else result).wall_seconds = share
    if seeds is not None:
        return results
    if isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0]
