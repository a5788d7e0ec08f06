import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscosim.config import ExperimentConfig
from dscosim.errors import ConfigurationError, InsufficientDataError
from dscosim.metrics import (
    bounded_ratio_check,
    collect_row,
    fit_rate_slope,
)
from dscosim.problems import (
    LogisticProblem,
    make_logistic_cso,
    make_quadratic,
    make_sigmoid_quadratic,
    make_sinusoid_maml,
)
from dscosim.records import (
    CSV_COLUMNS,
    MetricRow,
    RunRecord,
    aggregate_mean_rows,
    record_to_csv,
    rows_from_csv,
)
from dscosim.schedules import Polynomial, StepSchedule


def one_row(k, alpha_k, beta_k, x, z, problem, u):
    """collect_row on the one state x ``(n, d)``, z ``(n, p)``: a stack of one point."""
    [row] = collect_row([k], [alpha_k], [beta_k], x[None], z[:, None], problem, u)
    return row


def row_at(x, z, problem):
    """collect_row at uniform Perron weights."""
    return one_row(1, 0.1, 0.1, x, z, problem, np.ones(len(x)))


class TestAverages:
    """collect_row's average, consensus and tracking columns."""

    def test_uniform_weights_plain_mean(self):
        # grad_norm_sq is read at xbar; at uniform u it is the plain mean [2, 3]
        prob = make_quadratic(2, 2, seed=0)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = float(np.sum(prob.true_grad_h(np.array([2.0, 3.0])) ** 2))
        assert row_at(x, prob.true_g(x), prob).grad_norm_sq == expected

    def test_consensus_zero_at_agreement(self):
        prob = make_quadratic(4, 2, seed=0)
        x = np.tile([1.0, -2.0], (4, 1))
        assert row_at(x, prob.true_g(x), prob).consensus_err == 0.0

    def test_consensus_hand_value(self):
        prob = make_quadratic(2, 1, seed=0)
        x = np.array([[0.0], [2.0]])
        # xbar = 1, errors 1 + 1
        assert row_at(x, prob.true_g(x), prob).consensus_err == pytest.approx(2.0)

    def test_tracking_error_exact_inner(self):
        prob = make_quadratic(2, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 2))
        z = prob.true_g(x)
        assert row_at(x, z, prob).tracking_err == 0.0
        assert row_at(x, z + 0.5, prob).tracking_err == pytest.approx(2 * 2 * 0.25)

    @pytest.mark.parametrize("n,d", [(1, 3), (4, 1), (10, 5), (3, 9), (2, 130)])
    def test_tracking_error_bytes_equal_per_agent_sum(self, n, d):
        prob = make_quadratic(n, d, seed=d)
        rng = np.random.default_rng(n)
        x, z = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        total = 0.0
        for i in range(n):
            total += float(np.sum((z[i] - prob.M[i] @ x[i]) ** 2))
        assert struct.pack("<d", row_at(x, z, prob).tracking_err) == struct.pack("<d", total)

    def test_tracking_needs_capability(self):
        # without a closed-form inner value the tracking cell is empty, not an error
        prob = make_sinusoid_maml(1, 2, 2, 0.01, seed=0)
        row = row_at(np.zeros((1, prob.d)), np.zeros((1, prob.d)), prob)
        assert row.tracking_err is None and row.consensus_err == 0.0


def reference_row(k, alpha_k, beta_k, x, z, problem, u):
    """The row written with np.mean, np.sum and (u @ x) / n: collect_row's bit reference."""
    x = np.atleast_2d(x)
    row = {"k": k, "alpha_k": alpha_k, "beta_k": beta_k}
    row["consensus_err"] = float(np.sum((x - (u @ x) / len(u)) ** 2))
    if problem.has_true_g:
        total = 0.0
        for v in np.sum((z - problem.true_g(x)) ** 2, axis=1).tolist():
            total += v
        row["tracking_err"] = total
    if problem.has_true_grad:
        row["grad_norm_sq"] = float(np.sum(problem.true_grad_h((u @ x) / len(u)) ** 2))
    if problem.has_optimum:
        xstar = problem.optimum()
        row["opt_gap_avg"] = float(np.mean(np.sum((x - xstar) ** 2, axis=1)))
        hstar = problem.true_h(xstar)
        row["residual_avg"] = float(np.mean([problem.true_h(xi) for xi in x]) - hstar)
    return MetricRow(**row)


def reference_true_h(problem, x):
    """true_h with ndarray.mean(), as the quadratic and logistic families wrote it."""
    if isinstance(problem, LogisticProblem):
        J = -problem.b[:, :, None] * (problem.a + problem.phi_mean)
        g = np.einsum("nmd,d->nm", J, x)
        return float(np.logaddexp(0.0, g).mean())
    g = np.einsum("nij,j->ni", problem.M, x)
    vals = 0.5 * np.einsum("ni,nij,nj->n", g, problem.Q, g) + np.einsum("ni,ni->n", problem.c, g)
    return float(vals.mean())


def row_bits(row):
    return [None if v is None else struct.pack("<d", v) for v in row.values()]


ROW_CASES = {
    **{f"quadratic-n{n}": (lambda n=n: make_quadratic(n, 4, seed=n)) for n in (1, 3, 10, 17)},
    "logistic": lambda: make_logistic_cso(10, 20, 10, seed=0, feature_scale=4.0, label_noise=4.0),
    "logistic-pool": lambda: make_logistic_cso(
        6, 20, 5, seed=1, fixed_inner_pool=7, feature_scale=4.0, label_noise=4.0
    ),
    "sigmoid": lambda: make_sigmoid_quadratic(5, 4, seed=3, p=6),
    "maml": lambda: make_sinusoid_maml(4, 5, 3, 0.01, seed=0),
}


class TestCollectRow:
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_bytes_equal_reference_formulas(self, case):
        prob = ROW_CASES[case]()
        rng = np.random.default_rng(3)
        n = prob.n
        u = rng.uniform(0.5, 1.5, size=n)
        u *= n / u.sum()
        p = prob.true_g(np.zeros((n, prob.d))).shape[1] if prob.has_true_g else prob.d
        for scale in (1.0, 1e-3, 0.0):
            x = scale * rng.normal(size=(n, prob.d))
            z = rng.normal(size=(n, p))
            row = one_row(7, 0.1, 0.2, x, z, prob, u)
            assert row_bits(row) == row_bits(reference_row(7, 0.1, 0.2, x, z, prob, u))
        if case == "maml":
            assert row.consensus_err is not None
            assert (row.tracking_err, row.grad_norm_sq, row.opt_gap_avg, row.residual_avg) == (None,) * 4

    def test_strided_replica_equals_its_contiguous_copy(self):
        # one replica of an (n, R, d) state is a strided (n, d) view; at d=2 the
        # product u @ x sums such a view in another order than its contiguous copy
        prob = make_quadratic(10, 2, seed=0, noise_inner=0.1, noise_outer=0.1)
        rng = np.random.default_rng(1)
        u = rng.uniform(0.5, 1.5, size=10)
        u *= 10 / u.sum()
        X, Z = rng.normal(size=(10, 20, 2)), rng.normal(size=(10, 20, 2))
        for r in range(20):
            x, z = X[:, r], Z[:, r]
            copy = (np.ascontiguousarray(x), np.ascontiguousarray(z))
            strided = one_row(7, 0.1, 0.2, x, z, prob, u)
            assert row_bits(strided) == row_bits(one_row(7, 0.1, 0.2, *copy, prob, u))

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_stack_rows_equal_one_point_rows(self, case):
        """A stack's rows are its points' one-point rows, whatever the other points are."""
        prob = ROW_CASES[case]()
        rng = np.random.default_rng(8)
        n = prob.n
        u = rng.uniform(0.5, 1.5, size=n)
        u *= n / u.sum()
        p = prob.true_g(np.zeros((n, prob.d))).shape[1] if prob.has_true_g else prob.d
        X, Y = rng.normal(size=(2, 7, n, prob.d))
        Z, W = np.ascontiguousarray(rng.normal(size=(2, 7, n, p)).swapaxes(1, 2))  # (n, P, p) each
        Y[3], W[:, 3] = X[3], Z[:, 3]
        ks, alphas, betas = list(range(1, 8)), [0.1 / k for k in range(1, 8)], [0.2] * 7
        rows = collect_row(ks, alphas, betas, X, Z, prob, u)
        assert row_bits(rows[3]) == row_bits(collect_row(ks, alphas, betas, Y, W, prob, u)[3])
        strided = np.ascontiguousarray(X.swapaxes(0, 1)).swapaxes(0, 1)  # as run() holds the states
        assert [row_bits(r) for r in collect_row(ks, alphas, betas, strided, Z, prob, u)] == [
            row_bits(r) for r in rows
        ]
        for q, row in enumerate(rows):
            assert row_bits(row) == row_bits(one_row(ks[q], alphas[q], 0.2, X[q], Z[:, q], prob, u))

    def test_true_h_at_the_optimum_then_once_per_agent_on_the_stack(self):
        prob = make_quadratic(4, 3, seed=2)
        shapes = []

        class Counting:
            def __getattr__(self, name):
                return getattr(prob, name)

            def true_h(self, x):
                shapes.append(x.shape)
                return prob.true_h(x)

        rng = np.random.default_rng(0)
        X, Z = rng.normal(size=(2, 5, 4, 3))
        collect_row(list(range(5)), [0.1] * 5, [0.2] * 5, X, Z.swapaxes(0, 1), Counting(), np.ones(4))
        assert shapes == [(3,)] + [(5, 3)] * 4
        shapes.clear()
        one_row(1, 0.1, 0.2, X[0], Z[0], Counting(), np.ones(4))
        assert shapes == [(3,)] + [(1, 3)] * 4

    @pytest.mark.parametrize("case", [c for c in sorted(ROW_CASES) if "quadratic" in c or "logistic" in c])
    def test_true_h_bytes_equal_mean(self, case):
        prob = ROW_CASES[case]()
        rng = np.random.default_rng(5)
        for x in (rng.normal(size=prob.d), np.zeros(prob.d), prob.optimum()):
            assert struct.pack("<d", prob.true_h(x)) == struct.pack("<d", reference_true_h(prob, x))


def synthetic_record(fn, ks):
    rows = [MetricRow(k=k, alpha_k=0.1, beta_k=0.1, consensus_err=fn(k)) for k in ks]
    return RunRecord(config={}, seed=0, rows=rows)


class TestRateSlope:
    def test_recovers_known_power_law(self):
        rec = synthetic_record(lambda k: 3.0 * k**-1.25, range(10, 200))
        slope, intercept, r2 = fit_rate_slope(rec, "consensus_err", (10, 199))
        assert slope == pytest.approx(-1.25, abs=1e-9)
        assert math.exp(intercept) == pytest.approx(3.0, rel=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_too_few_points(self):
        rec = synthetic_record(lambda k: 1.0 / k, range(1, 6))
        with pytest.raises(InsufficientDataError):
            fit_rate_slope(rec, "consensus_err", (1, 5))

    def test_nonpositive_rejected(self):
        rec = synthetic_record(lambda k: 1.0 / k - 0.05, range(1, 100))
        with pytest.raises(InsufficientDataError):
            fit_rate_slope(rec, "consensus_err", (1, 99))


class TestBoundedRatio:
    def test_flat_ratio_passes(self):
        rec = synthetic_record(lambda k: 0.01 * (0.1) ** 2, range(1, 2001))
        ok, final, med = bounded_ratio_check(
            rec, "consensus_err", lambda k: 0.1**2, 2000, (100, 1000)
        )
        assert ok and final == pytest.approx(med)

    def test_blowup_fails(self):
        rows = [
            MetricRow(k=k, alpha_k=0.1, beta_k=0.1, consensus_err=(100.0 if k == 2000 else 1.0))
            for k in range(1, 2001)
        ]
        rec = RunRecord(config={}, seed=0, rows=rows)
        ok, *_ = bounded_ratio_check(rec, "consensus_err", lambda k: 1.0, 2000, (100, 1000))
        assert not ok

    def test_missing_final_iteration(self):
        rec = synthetic_record(lambda k: 1.0, range(1, 100))
        with pytest.raises(InsufficientDataError):
            bounded_ratio_check(rec, "consensus_err", lambda k: 1.0, 5000, (10, 50))


class TestSchedules:
    def test_constant_sqrtk(self):
        s = Polynomial(2.0 / 400**0.5, 0.0, 0.0)
        assert s.alpha(1) == s.alpha(399) == pytest.approx(0.1)

    @pytest.mark.parametrize("a, K, k", [(0.01, 1, 1), (0.05, 50, 7), (1.0, 2_000, 1_999), (0.3, 10**6, 12_345)])
    def test_config_constant_sqrtk_is_a_over_sqrt_k_bit_for_bit(self, a, K, k):
        values = {"alpha_schedule": "constant-sqrtk", "alpha_a": a, "iterations": K, "beta": 0.8}
        schedule = ExperimentConfig(values).build_schedule()
        alpha = a / K**0.5
        assert schedule.alpha(k).hex() == alpha.hex()
        assert schedule.beta_of(k).hex() == min(0.8 * alpha, 1.0).hex()  # "proportional", the default

    def test_polynomial_values(self):
        s = Polynomial(3.0, b=1.0, exponent=1.0)
        assert s.alpha(2) == pytest.approx(1.0)
        assert Polynomial(1.0, exponent=0.5).alpha(4) == pytest.approx(0.5)

    def test_beta_proportional_and_clamped(self):
        sched = StepSchedule(Polynomial(10.0, exponent=1.0), beta=2.0)
        assert sched.beta_of(100) == pytest.approx(2.0 * 10.0 / 100)
        assert sched.beta_of(1) == 1.0  # 2*10/1 clamps

    def test_beta_polynomial(self):
        sched = StepSchedule(
            Polynomial(1.0), beta=0.8, beta_rule="polynomial", beta_exponent=0.6
        )
        assert sched.beta_of(1) == pytest.approx(0.8)
        assert sched.beta_of(32) == pytest.approx(0.8 / 32**0.6)

    def test_beta_constant(self):
        sched = StepSchedule(Polynomial(1.0), beta=0.3, beta_rule="constant")
        assert sched.beta_of(1) == sched.beta_of(10**6) == 0.3

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            Polynomial(-1.0)
        with pytest.raises(ConfigurationError):
            StepSchedule(Polynomial(1.0), beta=0.0)


class TestRecordCsv:
    def make_record(self):
        rows = [
            MetricRow(1, 0.1, 0.05, consensus_err=1.0 / 3.0, tracking_err=0.2),
            MetricRow(2, 0.09, 0.04, consensus_err=np.pi, grad_norm_sq=1e-17),
        ]
        return RunRecord(config={"problem": "quadratic", "agents": 3}, seed=7, rows=rows)

    def test_round_trip_is_exact(self):
        rec = self.make_record()
        parsed = rows_from_csv(record_to_csv(rec))
        assert parsed == rec.rows

    def test_config_echoed_in_header(self):
        text = record_to_csv(self.make_record())
        assert "# agents = 3" in text and "# problem = quadratic" in text
        assert "# seed = 7" in text

    def test_columns_are_the_written_header(self):
        # derived from MetricRow's fields: renaming or reordering one changes every CSV
        assert CSV_COLUMNS == [
            "k",
            "alpha_k",
            "beta_k",
            "consensus_err",
            "tracking_err",
            "grad_norm_sq",
            "opt_gap_avg",
            "residual_avg",
        ]

    def test_missing_cells_stay_empty(self):
        text = record_to_csv(self.make_record())
        data_line = text.strip().splitlines()[-1]
        cells = data_line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[CSV_COLUMNS.index("tracking_err")] == ""

    @given(
        vals=st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_seventeen_digit_round_trip_property(self, vals):
        rows = [MetricRow(k + 1, 0.1, 0.1, consensus_err=v) for k, v in enumerate(vals)]
        rec = RunRecord(config={}, seed=0, rows=rows)
        parsed = rows_from_csv(record_to_csv(rec))
        assert [r.consensus_err for r in parsed] == vals

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            rows_from_csv("a,b,c\n1,2,3\n")


class TestAggregate:
    def test_mean_across_seeds(self):
        def rec(offset):
            rows = [MetricRow(k, 0.1, 0.1, consensus_err=float(k + offset)) for k in (1, 2)]
            return RunRecord(config={}, seed=offset, rows=rows)

        agg = aggregate_mean_rows([rec(0), rec(2)])
        assert [r.consensus_err for r in agg] == [2.0, 3.0]

    def test_missing_anywhere_stays_missing(self):
        r1 = RunRecord(config={}, seed=0, rows=[MetricRow(1, 0.1, 0.1, tracking_err=1.0)])
        r2 = RunRecord(config={}, seed=1, rows=[MetricRow(1, 0.1, 0.1, tracking_err=None)])
        agg = aggregate_mean_rows([r1, r2])
        assert agg[0].tracking_err is None

    def test_empty(self):
        assert aggregate_mean_rows([]) == []

    def test_sums_left_to_right(self):
        # Python 3.12's sum() compensates rounding; the aggregate adds plainly on every version
        recs = [
            RunRecord(config={}, seed=s, rows=[MetricRow(1, 0.1, 0.1, consensus_err=v)])
            for s, v in enumerate([0.1, 0.2, 0.3])
        ]
        assert aggregate_mean_rows(recs)[0].consensus_err == ((0.1 + 0.2) + 0.3) / 3
