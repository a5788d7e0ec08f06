"""End-to-end acceptance experiments.

Each test prints exactly one PASS/FAIL summary line (visible with -s or on
failure) and asserts the criterion at its stated tolerance.  The heavier
experiments are shared through module-scope fixtures so the whole suite
stays within its runtime budgets.
"""

import time

import numpy as np
import pytest

from dscosim.algorithms import ReplicaStreams, rounds, run
from dscosim.metrics import bounded_ratio_check, fit_rate_slope
from dscosim.normality import collect_delta, compare_covariance, theoretical_covariance
from dscosim.problems import (
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
    monte_carlo_grad_h,
)
from dscosim.records import RunRecord, aggregate_mean_rows
from dscosim.schedules import Polynomial, StepSchedule
from dscosim.topology import build_weight_pair, generate_ring_plus_random


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def weights_for(n, extra, seed=0):
    g = generate_ring_plus_random(n, extra, seed)
    return build_weight_pair(g, g)


# -- 1. weight-matrix validity ------------------------------------------------


def test_weight_matrix_validity_50_random_topologies():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        extra = int(rng.integers(0, n))
        wp = weights_for(n, extra, seed=int(rng.integers(0, 10_000)))
        ones = np.ones(n)
        checks = [
            np.max(np.abs(wp.A @ ones - ones)) < 1e-12,
            np.max(np.abs(ones @ wp.B - ones)) < 1e-12,
            np.max(np.abs(wp.u @ wp.A - wp.u)) < 1e-10,
            np.max(np.abs(wp.B @ wp.v - wp.v)) < 1e-10,
            wp.u @ wp.v > 0,
            wp.tau_A < 1 and wp.tau_B < 1,
        ]
        worst = max(worst, np.max(np.abs(wp.u @ wp.A - wp.u)))
        assert all(checks), f"invariant failed for n={n}, extra={extra}"
    elapsed = time.perf_counter() - start
    report(
        "weight-matrix validity",
        elapsed < 10.0,
        f"50 topologies ok, worst eigenvector residual {worst:.2e}, {elapsed:.1f}s (< 10s)",
    )


# -- 2. single-agent reduction ------------------------------------------------


def test_single_agent_reduction_bitwise():
    prob = make_quadratic(1, 3, seed=21, noise_inner=0.3, noise_outer=0.3)
    wp = weights_for(1, 0)
    sched = StepSchedule(Polynomial(0.05, 1.0, 0.6), beta=1.0)
    r_net = run("ab-dscsc", prob, sched, 1000, weights=wp, seed=77)
    r_single = run("scsc", prob, sched, 1000, seed=77)
    equal = r_net.rows == r_single.rows
    report(
        "single-agent reduction",
        equal,
        f"1000 iterations, {len(r_net.rows)} metric rows bitwise identical: {equal}",
    )


# -- 3. tracking conservation -------------------------------------------------


def test_tracking_conservation_three_families():
    families = {
        "quadratic": make_quadratic(10, 3, seed=1, noise_inner=0.2, noise_outer=0.2),
        "logistic": make_logistic_cso(10, 8, 3, seed=2),
        "maml": make_sinusoid_maml(10, 10, 4, 0.01, seed=3),
    }
    wp = weights_for(10, 6, seed=5)
    # alpha_k = 0.01 / k^0.6 and beta_k = min(1, 1 / k^0.6)
    sched = StepSchedule(Polynomial(0.01, 0.0, 0.6), beta=1.0, beta_rule="polynomial", beta_exponent=0.6)
    worst_overall = 0.0
    for name, prob in families.items():
        worst = 0.0
        for state in rounds("ab-dscsc", prob, sched, 500, wp, ReplicaStreams([9])):
            diff = np.linalg.norm(state.y.sum(axis=0) - state.h_prev.sum(axis=0))
            denom = max(np.linalg.norm(state.h_prev.sum(axis=0)), 1e-30)
            worst = max(worst, diff / denom)
        assert worst < 1e-10, f"{name}: relative drift {worst:.2e}"
        worst_overall = max(worst_overall, worst)
    report(
        "tracking conservation",
        worst_overall < 1e-10,
        f"500 steps x 3 families on 10 nodes, worst relative drift {worst_overall:.2e} (< 1e-10)",
    )


# -- 4 & 7. strongly convex rate and its consensus/tracking bounds ------------


@pytest.fixture(scope="module")
def strongly_convex_run():
    prob = make_quadratic(10, 5, seed=0, noise_inner=0.1, noise_outer=0.1)
    wp = weights_for(10, 5)
    # stepsize constants follow the strong-convexity requirement:
    # a just above 2n / (u'v mu), beta*a = 1 + b so 1 < beta*a <= 1 + b
    a = 1.05 * 2 * prob.n / ((wp.u @ wp.v) * prob.strong_convexity)
    L = float(np.linalg.eigvalsh(prob.normality_data().H).max()) / prob.n
    b = 2.0 * a * L
    sched = StepSchedule(Polynomial(a, b, 1.0), beta=(1 + b) / a)
    start = time.perf_counter()
    records = run("ab-dscsc", prob, sched, 100_000, weights=wp, seeds=range(20), metric_stride=100)
    elapsed = time.perf_counter() - start
    agg = RunRecord(config={}, seed=-1, rows=aggregate_mean_rows(records))
    return agg, sched, elapsed


def test_strongly_convex_rate_slope(strongly_convex_run):
    agg, _, elapsed = strongly_convex_run
    slope, _, r2 = fit_rate_slope(agg, "opt_gap_avg", (1_000, 100_001))
    ok = -1.3 <= slope <= -0.7 and elapsed < 300
    report(
        "strongly convex O(1/k) rate",
        ok,
        f"20-seed log-log slope {slope:.3f} in [-1.3, -0.7], r2 {r2:.3f}, {elapsed:.0f}s (< 300s)",
    )


def test_consensus_and_tracking_bounded_ratios(strongly_convex_run):
    agg, sched, _ = strongly_convex_run
    # recorded iterations are 1, 101, 201, ...: use the grid points nearest
    # the nominal k = 1e4 endpoint and the [1e2, 1e3] median window
    ok_c, final_c, med_c = bounded_ratio_check(
        agg, "consensus_err", lambda k: sched.alpha(k) ** 2, 10_001, (100, 1_001)
    )
    ok_t, final_t, med_t = bounded_ratio_check(
        agg, "tracking_err", sched.beta_of, 10_001, (100, 1_001)
    )
    report(
        "consensus/tracking bounded ratios",
        ok_c and ok_t,
        f"consensus_err/alpha^2 ratio {final_c / med_c:.2f}x median, "
        f"tracking_err/beta ratio {final_t / med_t:.2f}x median (both <= 10x)",
    )


# -- 5. nonconvex constant-step rate ------------------------------------------


def test_nonconvex_rate_halves_with_quadrupled_horizon():
    prob = make_sigmoid_quadratic(5, 4, seed=0, noise_inner=0.1, noise_outer=0.1)
    wp = weights_for(5, 2)
    start = time.perf_counter()

    def mean_grad_norm(K):
        sched = StepSchedule(Polynomial(1.0 / K**0.5, 0.0, 0.0), beta=1.0)  # 1 / sqrt(K)
        records = run("ab-dscsc", prob, sched, K, weights=wp, seeds=range(20))
        return float(np.mean([np.mean([r.grad_norm_sq for r in rec.rows[:K]]) for rec in records]))

    m_short = mean_grad_norm(2_000)
    m_long = mean_grad_norm(8_000)
    ratio = m_short / m_long
    elapsed = time.perf_counter() - start
    ok = 1.4 <= ratio <= 2.8 and elapsed < 600
    report(
        "nonconvex O(1/sqrt(K)) rate",
        ok,
        f"mean grad-norm^2 ratio K=2000/K=8000 = {ratio:.2f} in [1.4, 2.8], {elapsed:.0f}s (< 600s)",
    )


# -- 6. averaged-iterate covariance -------------------------------------------


def test_averaged_iterate_covariance():
    prob = make_quadratic(3, 2, seed=0, noise_inner=0.2, noise_outer=0.2)
    wp = weights_for(3, 1)
    sched = StepSchedule(Polynomial(0.5, 5.0, 0.7), beta=1.0)
    start = time.perf_counter()
    samples = collect_delta(200, prob, wp, sched, 20_000, agent=1, base_seed=1000)
    rep = compare_covariance(samples, theoretical_covariance(prob))
    elapsed = time.perf_counter() - start
    skew = float(np.max(np.abs(rep.skewness)))
    kurt = float(np.max(np.abs(rep.excess_kurtosis)))
    ok = rep.rel_frobenius_error <= 0.3 and skew <= 0.5 and kurt <= 1.0 and elapsed < 900
    report(
        "averaged-iterate covariance",
        ok,
        f"rel Frobenius {rep.rel_frobenius_error:.3f} (<= 0.3), |skew| {skew:.2f} (<= 0.5), "
        f"|ex. kurtosis| {kurt:.2f} (<= 1), {elapsed:.0f}s (< 900s)",
    )


# -- 8. logistic desk-scale comparison ----------------------------------------


def test_logistic_desk_scale_comparison():
    prob = make_logistic_cso(10, 20, 10, seed=0, feature_scale=4.0, label_noise=4.0)
    wp = weights_for(10, 5)
    sched = StepSchedule(
        Polynomial(0.01, 0.0, 0.55), beta=0.8, beta_rule="polynomial", beta_exponent=0.6
    )
    start = time.perf_counter()
    rec_ab = run("ab-dscsc", prob, sched, 10_000, weights=wp, seed=0)
    rec_gt = run(
        "gt-dscgd", prob, sched, 10_000, weights=wp, seed=0,
        eta=0.02, gamma=1.25, metric_stride=1_000,
    )
    elapsed = time.perf_counter() - start
    gap_early = next(r.opt_gap_avg for r in rec_ab.rows if r.k == 10)
    gap_final = rec_ab.rows[-1].opt_gap_avg
    drop = gap_early / gap_final
    resid_ab = rec_ab.rows[-1].residual_avg
    resid_gt = rec_gt.rows[-1].residual_avg
    ok = drop >= 100.0 and resid_ab <= 2.0 * resid_gt and elapsed < 300
    report(
        "logistic desk-scale comparison",
        ok,
        f"opt gap drop {drop:.0f}x (>= 100x), final residual {resid_ab:.3g} vs "
        f"tracker baseline {resid_gt:.3g} (within 2x), {elapsed:.0f}s (< 300s)",
    )


# -- 9. oracle consistency ----------------------------------------------------


def test_monte_carlo_oracle_consistency():
    families = {
        "quadratic": make_quadratic(3, 4, seed=1, noise_inner=0.2, noise_outer=0.3),
        "logistic": make_logistic_cso(3, 6, 4, seed=2),
        "logistic-pool": make_logistic_cso(3, 6, 4, seed=2, fixed_inner_pool=5),
        "sigmoid": make_sigmoid_quadratic(3, 4, seed=3, noise_inner=0.2, noise_outer=0.3),
        # the covariance study's shape, whose 200-replica products run as two multiplies
        "quadratic-d2": make_quadratic(3, 2, seed=1, noise_inner=0.2, noise_outer=0.3),
    }
    rng = np.random.default_rng(55)
    worst_sigmas = 0.0
    start = time.perf_counter()
    for name, prob in families.items():
        streams = ReplicaStreams(range(55, 255))  # 200 samples a call, 20 calls a point
        for _ in range(5):
            x = 0.5 * rng.normal(size=prob.d)
            mean, stderr = monte_carlo_grad_h(prob, x, draws=4_000, rng=streams)
            truth = prob.true_grad_h(x)
            sigmas = float(np.max(np.abs(mean - truth) / (stderr + 1e-15)))
            worst_sigmas = max(worst_sigmas, sigmas)
            assert sigmas <= 4.0, f"{name}: {sigmas:.2f} standard errors"
    report(
        "oracle consistency",
        worst_sigmas <= 4.0,
        f"5 families x 5 points, worst deviation {worst_sigmas:.2f} standard errors (<= 4), "
        f"{time.perf_counter() - start:.2f}s",
    )
