"""Per-iteration diagnostics and rate/bound checks."""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .records import MetricRow


def collect_row(k, alpha_k, beta_k, x, z, problem, u):
    """MetricRows for a stack of states; missing capabilities give None cells.

    x ``(P, n, d)`` stacks P points point-major and z ``(n, P, p)`` stacks them
    agent-first, as the states hold it, with k, alpha_k and beta_k sequences of P
    values; the P rows come back in order.  A row's bits do not depend on the other
    points of its stack: each is reduced on its own axes, as one point alone is.

    consensus_err sums ||x_i - xbar||^2 about xbar = (u @ x) / n, the average
    under the left Perron weights u; tracking_err sums ||z_i - g_i(x_i)||^2 in
    agent order. ``true_h`` is called n + 1 times per call, whatever P: at x*,
    then at each agent in order, on that agent's ``(P, d)`` iterates.  x is copied
    to one contiguous stack first: ``u @ x``, the consensus sum and the gap sums
    keep their bits only in that layout; z only enters an elementwise subtraction,
    whose bits do not depend on layout.  The reduces are np.add.reduce, the
    pairwise sum np.sum and np.mean run (np.mean then divides by the count),
    without their Python wrappers.
    """
    x = np.ascontiguousarray(x)
    P, n = x.shape[:2]
    xbar = (u @ x) / n  # (P, d)
    cols = {
        "k": k,
        "alpha_k": alpha_k,
        "beta_k": beta_k,
        "consensus_err": np.add.reduce(((x - xbar[:, None]) ** 2).reshape(P, -1), axis=1).tolist(),
    }
    if problem.has_true_g:
        agent_sums = np.add.reduce((z - problem.true_g(x.swapaxes(0, 1))) ** 2, axis=2)  # (n, P)
        # left to right in agent order (np.sum would add pairwise); sums of squares hold no -0.0
        cols["tracking_err"] = np.add.accumulate(agent_sums, axis=0)[-1].tolist()
    if problem.has_true_grad:
        cols["grad_norm_sq"] = np.add.reduce(problem.true_grad_h(xbar) ** 2, axis=1).tolist()
    if problem.has_optimum:
        xstar = problem.optimum()
        gap = np.add.reduce((x - xstar) ** 2, axis=2)  # (P, n)
        cols["opt_gap_avg"] = (np.add.reduce(gap, axis=1) / n).tolist()
        hstar = problem.true_h(xstar)
        h = np.stack([problem.true_h(x[:, i]) for i in range(n)], axis=1)  # (P, n)
        cols["residual_avg"] = (np.add.reduce(h, axis=1) / n - hstar).tolist()
    return [MetricRow(**dict(zip(cols, values))) for values in zip(*cols.values())]


def fit_rate_slope(record, column, k_range):
    """OLS of log(value) on log(k) over k in [k_range[0], k_range[1]].

    Returns (slope, intercept, r2).
    """
    ks, vals = record.column(column)
    lo, hi = k_range
    pts = [(k, v) for k, v in zip(ks, vals) if lo <= k <= hi]
    if len(pts) < 10:
        raise InsufficientDataError(f"only {len(pts)} points in k range {k_range}")
    if any(v <= 0 for _, v in pts):
        raise InsufficientDataError(f"column {column} not strictly positive in range")
    lk = np.log([k for k, _ in pts])
    lv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lk, lv, 1)
    pred = slope * lk + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def bounded_ratio_check(record, column, scale, k_final, k_median_range):
    """True iff column/scale at k_final is <= 10 x its median over the range.

    `scale` maps k to the normalizer (e.g. alpha_k**2 or beta_k).
    """
    ks, vals = record.column(column)
    ratios = {k: v / scale(k) for k, v in zip(ks, vals)}
    lo, hi = k_median_range
    window = [r for k, r in ratios.items() if lo <= k <= hi]
    if not window or k_final not in ratios:
        raise InsufficientDataError("required iterations missing from record")
    return ratios[k_final] <= 10.0 * float(np.median(window)), ratios[k_final], float(np.median(window))
