"""Per-iteration diagnostics and rate/bound checks."""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .records import MetricRow


def collect_row(k, alpha_k, beta_k, x, z, problem, u):
    """MetricRow for the current state; missing capabilities give None cells.

    consensus_err sums ||x_i - xbar||^2 about xbar = (u @ x) / n, the average
    under the left Perron weights u; tracking_err sums ||z_i - g_i(x_i)||^2 in
    agent order. ``true_h`` is called n + 1 times: at x*, then at each agent in
    order. A strided x is copied first: ``u @ x`` sums a strided x in another
    order; z only enters an elementwise subtraction, whose bits do not depend
    on layout. The reduces are np.add.reduce, the pairwise sum np.sum and np.mean run
    (np.mean then divides by the count), without their Python wrappers.
    """
    x = np.ascontiguousarray(x)
    n = len(x)
    xbar = (u @ x) / n
    row = {
        "k": k,
        "alpha_k": alpha_k,
        "beta_k": beta_k,
        "consensus_err": float(np.add.reduce((x - xbar) ** 2, axis=None)),
    }
    if problem.has_true_g:
        tracking = 0.0
        for v in np.add.reduce((z - problem.true_g(x)) ** 2, axis=1).tolist():
            tracking += v  # left to right in agent order; np.sum would add pairwise
        row["tracking_err"] = tracking
    if problem.has_true_grad:
        row["grad_norm_sq"] = float(np.add.reduce(problem.true_grad_h(xbar) ** 2))
    if problem.has_optimum:
        xstar = problem.optimum()
        row["opt_gap_avg"] = float(np.add.reduce(np.add.reduce((x - xstar) ** 2, axis=1)) / n)
        hstar = problem.true_h(xstar)
        h = np.add.reduce(np.array([problem.true_h(xi) for xi in x]))
        row["residual_avg"] = float(h / n - hstar)
    return MetricRow(**row)


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


def geometric_sum_check(rho, alphas):
    """max over k of (sum_{t<=k} rho^{k-t} alpha_t) / alpha_k.

    A finite, K-stable value certifies the geometric-weighted-sum bound
    numerically.  `alphas` is the sequence alpha_1..alpha_K.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    worst = 0.0
    acc = 0.0
    for a in alphas:
        acc = rho * acc + a
        worst = max(worst, acc / a)
    return worst


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
