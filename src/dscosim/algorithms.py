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
of its batch, and a diverged replica is dropped where it stands.  Every state
passes through ``ab_dscsc_init``, which holds it to that one layout.

A step writes only arrays it allocated in that round: each elementwise chain
goes into the one temporary its first operation allocates, in the association
of the plain expression, so the bits are that expression's.  The state it was
given, the draws and an oracle's kept inner-map image are never written.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .metrics import collect_row
from .records import RunRecord
from .topology import underlying_metropolis

DIVERGENCE_LIMIT = 1e6

# run() evaluates its metric rows in batches: a batch holds row points until their x and
# z take this many bytes (at least one point, all of its replicas).
ROW_BATCH_BYTES = 256 * 1024

# The dense mix's candidate K splits (``_k_candidates``): OpenBLAS's block Q and unroll U.
_K_Q = tuple(range(512, 127, -64))
_K_UNROLL = (16, 8, 4, 2, 1)
# OpenBLAS's bound on M·N·K for its no-pack (small-matrix) dgemm kernel; only a mix above it is planned.
_NO_PACK_MNK = 100**3
# A plan's certification: probe values per row of W, and their Generator's seed.
_PROBE_TRIALS = 64
_PROBE_SEED = 20221

ALGORITHMS = ("ab-dscsc", "scgd", "scsc", "gp-dscgd", "gt-dscgd")


def run_stream(seed):
    """Counter-based per-run random stream."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


class ReplicaStreams:
    """One ``run_stream`` per seed, drawn from as one stream.

    A draw of shape ``(n, ...)`` is each replica's own draw of that shape, in
    seed order, stacked on axis 1, so every replica consumes its stream exactly
    as a serial run with that seed would.

    A refill lays out whole draws in the order they are served: each stream
    fills its row with ``per * count`` standard normals (``count`` values a draw,
    ``per`` draws to a block of about ``BUFFER_BYTES``) in one in-place call, and
    the ``(R, per, *size)`` values are moved once into a read-only, C-contiguous
    ``(per, size[0], R, *size[1:])`` block (at R=1 a view).  A draw is the view of
    its row.  A Philox ``standard_normal(out=row)`` fills the row with the values
    that ``normal(size=N)`` would return, except that ``normal(0, 1)`` computes
    ``0.0 + 1.0·x`` and so turns a −0.0 into +0.0; one ``+= 0.0`` over the joint
    array does the same.  So the bits are those of per-draw ``normal`` calls.  A
    draw of another size puts the unread draws back in each stream's own order
    and lays them out again with the fresh values.  ``integers`` draws straight
    from the streams, so it is refused while laid-out normals are unread: those
    values came off the streams first.  ``diverged`` holds the guard's error for
    each replica it flagged, in the order flagged.
    """

    BUFFER_BYTES = 256 * 1024

    def __init__(self, seeds):
        self.seeds = list(seeds)
        if not self.seeds:
            raise ConfigurationError("seeds must hold at least one seed")
        for s in self.seeds:  # each is a Philox key, a uint64
            if not isinstance(s, numbers.Integral) or not 0 <= s < 2**64:
                raise ConfigurationError(
                    f"seeds must be integers and must lie in [0, 2**64), got {s!r}"
                )
        if len(set(self.seeds)) < len(self.seeds):  # a flagged replica is named by its seed
            raise ConfigurationError(f"seeds must be distinct, got {self.seeds!r}")
        self.streams = [run_stream(s) for s in self.seeds]
        self.block = max(1, self.BUFFER_BYTES // (8 * len(self.seeds)))
        self._size = None  # the size of the laid-out draws, as the caller gave it
        self._draws = np.empty((0, 0, len(self.seeds)))  # (draws, size[0], R, *size[1:])
        self._t = self._end = 0  # next draw, number of draws
        self.diverged = []

    def normal(self, size):
        t = self._t
        if t == self._end or size != self._size:
            return self._refill(size)
        self._t = t + 1
        return self._draws[t]

    def _refill(self, size):
        """Lay out the unread draws, in stream order, and fresh ones as draws of ``size``."""
        R, count = len(self.seeds), math.prod(size)
        unread = self._draws[self._t :]  # (m, size[0], R, ...)
        left = unread.size // R
        # a block's worth of draws, and at least one, and enough to take every unread value
        per = max(1, self.block // count, -(-left // count))
        values = np.empty((R, per * count))  # each stream's values in its own order
        values[:, :left] = np.moveaxis(unread, 2, 0).reshape(R, left)
        for row, g in zip(values, self.streams):
            g.standard_normal(out=row[left:])
        values += 0.0  # -0.0 -> +0.0, as normal(0, 1) does; every other value is kept
        draws = np.moveaxis(values.reshape(R, per, *size), 0, 2)
        self._draws = np.ascontiguousarray(draws)  # at R=1 already contiguous: a view
        self._draws.flags.writeable = False
        self._size, self._t, self._end = size, 1, per
        return self._draws[0]

    def keep(self, rows):
        """Keep only the replicas at ``rows``: their seeds, streams and laid-out draws."""
        self.seeds = [self.seeds[r] for r in rows]
        self.streams = [self.streams[r] for r in rows]
        self._draws = self._draws.take(rows, axis=2)  # C-contiguous, as a refill lays it out
        self._draws.flags.writeable = False

    def integers(self, low, high, size):
        if self._t < self._end:
            raise RuntimeError("integers drawn while buffered normals are unread")
        return np.stack([g.integers(low, high, size=size) for g in self.streams], axis=1)


@dataclass(slots=True)
class NetworkState:
    """Stacked per-agent state at iteration k, shared by every method: agent-first
    ``(n, R, ·)`` arrays, one replica per seed of the ``ReplicaStreams``."""

    k: int
    x: np.ndarray  # (n, R, d)
    z: np.ndarray  # (n, R, p) inner-value estimates
    y: np.ndarray | None  # (n, R, d) gradient trackers; None without tracking (GP)
    h_prev: np.ndarray | None  # (n, R, d) last stochastic gradients; None without tracking


def _check_finite(arr, k, what, rng):
    """Flag each replica of ``arr`` ``(n, R, ·)`` with a non-finite or runaway entry.

    Each newly bad replica's DivergenceError, naming the agent and k that its
    one-seed run names and its seed, goes onto ``rng.diverged`` in seed order, and
    its entries of ``arr`` are zeroed.

    The first test is one product: an entry with |a| >= DIVERGENCE_LIMIT has a
    rounded square of at least DIVERGENCE_LIMIT**2, and a rounded sum of
    non-negative terms is never below one of its terms, so a sum below that bound
    bounds every entry (and is False for NaN and inf).  Only an array that fails it
    takes the max-abs test, so the guard accepts exactly the arrays that test does.
    """
    if np.vdot(arr, arr) < DIVERGENCE_LIMIT**2:
        return
    if np.maximum.reduce(np.abs(arr), axis=None) <= DIVERGENCE_LIMIT:  # False for NaN
        return
    bad = (~np.isfinite(arr) | (np.abs(arr) > DIVERGENCE_LIMIT)).any(axis=2)  # (n, R)
    flagged = {err.seed for err in rng.diverged}
    for r in np.flatnonzero(bad.any(axis=0)):
        seed, agent = rng.seeds[r], int(np.argmax(bad[:, r])) + 1
        err = DivergenceError(
            f"{what} non-finite or beyond {DIVERGENCE_LIMIT:g} at k={k}, agent {agent}, seed {seed}",
            k=k, agent=agent, seed=seed,
        )
        if seed not in flagged:  # a replica flagged earlier in this round is named once
            rng.diverged.append(err)
        arr[:, r] = 0.0  # an array the step allocated: the rest of the step stays finite


def _corrected_z(z, g_new, g_old, beta):
    """``(1 - beta)·(z + g_new - g_old) + beta·g_new``, in that association."""
    z_new = z + g_new
    z_new -= g_old
    z_new *= 1.0 - beta
    z_new += beta * g_new
    return z_new


def ab_dscsc_init(problem, x0, rng, track=True):
    """Initial state: fresh inner sample for z, then one gradient draw for y.

    With ``track=False`` (GP-DSCGD) no gradient is drawn and y, h_prev are None.
    ``rng`` must be a ``ReplicaStreams`` and x0 ``(n, R, d)``, R its number of seeds.
    """
    if not isinstance(rng, ReplicaStreams):
        raise ConfigurationError(f"rng must be a ReplicaStreams, got {type(rng).__name__}")
    x0 = np.array(x0, dtype=float, order="C")  # a copy: the guard may zero a replica
    if x0.shape != (shape := (problem.n, len(rng.seeds), problem.d)):
        raise ConfigurationError(f"x0 must have shape (n, R, d) = {shape}, got {x0.shape}")
    _check_finite(x0, 1, "initial iterate", rng)
    z, _ = problem.sample_inner_pair_all(x0, x0, rng)
    if not track:
        return NetworkState(k=1, x=x0, z=z, y=None, h_prev=None)
    y = problem.sample_grad_all(x0, z, rng)
    return NetworkState(k=1, x=x0, z=z, y=y, h_prev=y.copy())


def _mix(W, x, plan=None):
    """W @ x over the agent axis, one ``(n, d)`` product per replica.

    An ``(n, R, d)`` x is multiplied as R stacked products, each with the bits
    of its own ``W @ x[:, r]``; one flat ``(n, R*d)`` product would sum in
    another order at some n.  They are written into an agent-first array, like
    every other state array: left replica-major, the result slowed the oracles'
    einsums.

    ``plan``, W's ``_certify`` result for x's d, splits the dense product at its
    own K blocks and keeps its bits.  No plan is looked up here: without one, the
    mix is the dense product.
    """
    out = np.empty(x.shape)
    if plan is None:
        np.matmul(W, x.swapaxes(0, -2), out=out.swapaxes(0, -2))
    else:
        _split_mix(W, x.swapaxes(0, -2), out.swapaxes(0, -2), plan)
    return out


def _split_mix(W, x, out, plan):
    """``out = W @ x`` for ``(..., n, d)`` x and out, as the sum of the plan's column blocks."""
    bounds, rows = plan
    for r in range(0, len(W), rows):
        Wr, o = W[r : r + rows], out[..., r : r + rows, :]
        np.matmul(Wr[:, : bounds[1]], x[..., : bounds[1], :], out=o)
        for a, b in zip(bounds[1:-1], bounds[2:]):
            o += Wr[:, a:b] @ x[..., a:b, :]


def _k_candidates(n):
    """The column bounds at which OpenBLAS's level-3 GEMM may split n summed columns.

    A block of Q columns while 2Q remain, then, if more than Q remain, half of
    the rest: rounded up to the unroll U by one-thread GEMM, and ``(rest + 1)
    // 2`` by threaded GEMM.  Distinct splits in rule order; one block is no
    split.
    """
    found = {}
    for q in _K_Q:
        s = q * max(0, (n - q) // q)  # the start of the last two blocks or the last one
        rest = n - s
        cuts = [-(-(rest // 2) // u) * u for u in _K_UNROLL] + [(rest + 1) // 2] if rest > q else [0]
        for cut in cuts:
            bounds = (*range(0, s + 1, q), *([s + cut] if cut else ()), n)
            if len(bounds) > 2:
                found.setdefault(bounds, None)
    return list(found)


def _certify(W, d):
    """W's plan for d columns of x, ``(column bounds, row chunk)``, or None for dense.

    OpenBLAS sums each entry as one FMA chain per block of its K split and adds the
    block sums in order, so W's column blocks at that split, added in block order,
    have the dense bits, and each fits OpenBLAS's faster no-pack kernel.  The split
    depends on n, d, the BLAS core and its threads, so a packed product (n²·d above
    ``_NO_PACK_MNK``) takes the first candidate with the dense bytes on every probe:
    ``(n, 1, d)`` normals, at least ``_PROBE_TRIALS`` values per row of W, from a
    fixed-seed Generator of their own, so a run's streams lose no draw.  Every other
    probe is subnormal: a row whose products are exact on normal values, such as two
    weights of 1/2, sums alike in one FMA chain or two there, but not there.
    """
    if W.size * d <= _NO_PACK_MNK:
        return None
    n = len(W)
    want, got = np.empty((1, n, d)), np.empty((1, n, d))
    for bounds in _k_candidates(n):
        widest = max(b - a for a, b in zip(bounds, bounds[1:]))
        plan = bounds, max(1, _NO_PACK_MNK // (d * widest))
        rng = np.random.default_rng(_PROBE_SEED)  # the same probes for every candidate
        for i in range(max(16, -(-_PROBE_TRIALS // d))):
            x = rng.standard_normal((1, n, d))
            if i % 2:
                x *= 2.0**-1040
            np.matmul(W, x, out=want)
            _split_mix(W, x, got, plan)
            if not np.array_equal(want.view(np.int64), got.view(np.int64)):
                break
        else:
            return plan
    return None


def mixers(algorithm, weights, d):
    """Yield ``(name, matrix, plan)`` for each matrix ``algorithm`` mixes with, at d columns
    of x; W (Metropolis, on ``graph_A``) and each plan are made once per pair, in ``mixing``."""
    for name in {"ab-dscsc": "AB", "gp-dscgd": "W", "gt-dscgd": "W"}.get(algorithm, ""):
        if name == "W" and "W" not in weights.mixing:
            weights.mixing["W"] = underlying_metropolis(weights.graph_A)
        M = weights.mixing["W"] if name == "W" else getattr(weights, name)
        if (name, d) not in weights.mixing:
            weights.mixing[name, d] = _certify(M, d)
        yield name, M, weights.mixing[name, d]


def ab_dscsc_step(state, problem, weights, alpha_k, beta_k, rng, plans=(None, None)):
    """One synchronous round: pull-mix x, correct z, push-track y; ``plans`` are A's and B's."""
    if not 0.0 < beta_k <= 1.0:
        raise ConfigurationError(f"beta_k must be in (0, 1], got {beta_k}")
    x_step = alpha_k * state.y
    np.subtract(state.x, x_step, out=x_step)  # x - alpha·y
    x_new = _mix(weights.A, x_step, plans[0])
    _check_finite(x_new, state.k + 1, "iterate", rng)
    g_new, g_old = problem.sample_inner_pair_all(x_new, state.x, rng)
    z_new = _corrected_z(state.z, g_new, g_old, beta_k)
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    # associate so that the n=1 case (B y == h_prev) reduces to y_new == h_new exactly
    y_new = _mix(weights.B, state.y, plans[1])
    y_new -= state.h_prev
    y_new += h_new
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
    _check_finite(h_new, state.k + 1, "gradient tracker", rng)  # y, as ab_dscsc_step's at n=1
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=h_new, h_prev=h_new)


def scgd_step(state, problem, alpha_k, beta_k, rng):
    """Single-agent two-timescale baseline: descend along y, average z plainly, redraw y."""
    x_new = state.x - alpha_k * state.y
    _check_finite(x_new, state.k + 1, "iterate", rng)
    g_new, _ = problem.sample_inner_pair_all(x_new, x_new, rng)
    z_new = _corrected_z(state.z, g_new, g_new, beta_k)  # no correction term
    h_new = problem.sample_grad_all(x_new, z_new, rng)
    _check_finite(h_new, state.k + 1, "gradient tracker", rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=h_new, h_prev=h_new)


def dscgd_step(state, problem, W, eta, gamma, beta_k, rng, track, plan=None):
    """One GP-DSCGD (track=False) or GT-DSCGD (track=True) round; ``plan`` is W's."""
    if gamma * beta_k > 1.0:
        raise ConfigurationError(f"gamma*beta_k = {gamma * beta_k} exceeds 1")
    g_inner, _ = problem.sample_inner_pair_all(state.x, state.x, rng)
    z_new = _corrected_z(state.z, g_inner, g_inner, gamma * beta_k)  # no correction term
    g = problem.sample_grad_all(state.x, z_new, rng)
    if track:
        y_new = _mix(W, state.y, plan)
        y_new += g
        y_new -= state.h_prev
        direction = y_new
    else:
        y_new = None
        direction = g
    x_new = _mix(W, state.x, plan)  # x + beta·((W x - eta·direction) - x)
    x_new -= eta * direction
    x_new -= state.x
    x_new *= beta_k
    x_new += state.x
    _check_finite(x_new, state.k + 1, "iterate", rng)
    return NetworkState(k=state.k + 1, x=x_new, z=z_new, y=y_new, h_prev=g if track else None)


def _default_x0(problem, rng):
    """(n, R, d) start: each replica's ``init_params`` row, drawn from its own stream, or zeros."""
    shape = (problem.n, len(rng.seeds), problem.d)
    if hasattr(problem, "init_params"):
        rows = np.stack([problem.init_params(g) for g in rng.streams])  # (R, d)
        return np.broadcast_to(rows, shape)  # ab_dscsc_init copies it
    return np.zeros(shape)


def rounds(algorithm, problem, schedule, K, weights, rng, eta=0.03, gamma=3.0):
    """Yield the state at k=1, then the state after each of K rounds.

    The one round loop: every replica of ``rng`` starts from ``_default_x0``, and
    round k takes ``algorithm``'s step with the schedule's k-th values.  The replicas
    the guard flags leave the state and ``rng.seeds`` before the next yield, and the
    generator returns once none is left.  The caller validates the arguments.
    """
    dscgd = algorithm in ("gp-dscgd", "gt-dscgd")
    mixed = list(mixers(algorithm, weights, problem.d))  # planned before the first yield
    W, plans = (mixed[0][1] if dscgd else None), [plan for _, _, plan in mixed]
    track = algorithm != "gp-dscgd"  # the one method without a gradient tracker
    for k in range(K + 1):
        if k == 0:
            state = ab_dscsc_init(problem, _default_x0(problem, rng), rng, track=track)
        elif algorithm == "ab-dscsc":
            state = ab_dscsc_step(state, problem, weights, schedule.alpha(k), schedule.beta_of(k), rng, plans)
        elif dscgd:
            state = dscgd_step(state, problem, W, eta, gamma, schedule.beta_of(k), rng, track, *plans)
        elif algorithm == "scsc":
            state = scsc_step(state, problem, schedule.alpha(k), schedule.beta_of(k), rng)
        else:
            state = scgd_step(state, problem, schedule.alpha(k), schedule.beta_of(k), rng)
        if rng.diverged and rng.diverged[-1].seed in rng.seeds:  # flagged in this round
            gone = {err.seed for err in rng.diverged}
            rows = [r for r, s in enumerate(rng.seeds) if s not in gone]
            if not rows:
                return
            rng.keep(rows)
            arrays = (state.x, state.z, state.y, state.h_prev)
            state = NetworkState(state.k, *(a if a is None else a.take(rows, axis=1) for a in arrays))
        yield state


def _flush_rows(held, seeds, records, problem, u):
    """Evaluate the held row points in one ``collect_row`` call and empty ``held``.

    x is point-major and z agent-first, with the replicas of a point in seed order, so
    each seed's rows reach its record in k order.  A step never writes a yielded state's
    arrays, so the held x and z are the states as they were yielded.
    """
    if not held:
        return
    ks, alphas, betas, xs, zs = zip(*held)
    x = np.concatenate([a.swapaxes(0, 1) for a in xs])  # (P, n, d), P = points × replicas
    z = np.concatenate(zs, axis=1)  # (n, P, p), agent-first like the states
    each = ([v for v in col for _ in seeds] for col in (ks, alphas, betas))  # the values as given
    for i, row in enumerate(collect_row(*each, x, z, problem, u)):
        records[seeds[i % len(seeds)]].rows.append(row)
    held.clear()


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
    divergence the partial record is attached to the raised error.  The row points
    are held, as references to the yielded x and z, and evaluated in one
    ``collect_row`` call per batch: when they fill ``ROW_BATCH_BYTES``, before a
    diverged replica leaves the batch, and after the last round.

    Given a list of ``seeds`` instead of one ``seed``, the seeds advance as one
    replica-batched state, in one pass, and the result is a list in seed order:
    each seed's RunRecord, or, for a seed that diverged, its DivergenceError with
    the partial record attached, not raised.  Each seed's rows have the bits of
    its one-seed run.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}")
    if K < 1:
        raise ConfigurationError(f"K must be >= 1, got {K}")
    if metric_stride < 1:
        raise ConfigurationError(f"metric_stride must be >= 1, got {metric_stride}")
    rng = ReplicaStreams([seed] if seeds is None else seeds)
    single_agent = algorithm in ("scgd", "scsc")
    dscgd = algorithm in ("gp-dscgd", "gt-dscgd")
    if single_agent and problem.n != 1:
        raise ConfigurationError(f"{algorithm} is single-agent; problem has n={problem.n}")
    if not single_agent and weights is None:
        raise ConfigurationError(f"{algorithm} needs a WeightPair")

    u = weights.u if algorithm == "ab-dscsc" else np.ones(problem.n)  # n=1 when single-agent

    records = {s: RunRecord(config=dict(config or {}), seed=s) for s in rng.seeds}
    held, held_seeds = [], rng.seeds  # the row points not yet evaluated, all on `held_seeds`
    start = time.perf_counter()
    for k, state in enumerate(rounds(algorithm, problem, schedule, K, weights, rng, eta, gamma)):
        if rng.seeds != held_seeds:  # a replica was dropped: the held points have it
            _flush_rows(held, held_seeds, records, problem, u)
            held_seeds = rng.seeds
        if k % metric_stride:
            continue
        j = max(k, 1)  # the start's row (k=0) takes alpha_1 and beta_1
        held.append((state.k, eta if dscgd else schedule.alpha(j), schedule.beta_of(j), state.x, state.z))
        if len(held) * (state.x.nbytes + state.z.nbytes) >= ROW_BATCH_BYTES:
            _flush_rows(held, held_seeds, records, problem, u)
    _flush_rows(held, held_seeds, records, problem, u)
    share = (time.perf_counter() - start) / len(records)
    for record in records.values():
        record.wall_seconds = share
    for err in rng.diverged:  # a diverged seed keeps its rows so far, as its partial record
        err.record, records[err.seed] = records[err.seed], err
        err.record.status = f"diverged@{err.k}"
    if seeds is None and rng.diverged:
        raise rng.diverged[0]
    return list(records.values()) if seeds is not None else records[seed]
