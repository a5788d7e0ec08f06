import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dscosim.errors import CapabilityError, ConfigurationError, InsufficientDataError
from dscosim.metrics import (
    bounded_ratio_check,
    collect_row,
    consensus_error,
    fit_rate_slope,
    geometric_sum_check,
    tracking_error,
    weighted_average,
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
from dscosim.schedules import ConstantSqrtK, Polynomial, StepSchedule


class TestAverages:
    def test_uniform_weights_plain_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(weighted_average(x, np.ones(2)), [2.0, 3.0])

    def test_consensus_zero_at_agreement(self):
        x = np.tile([1.0, -2.0], (4, 1))
        assert consensus_error(x, np.ones(4)) == 0.0

    def test_consensus_hand_value(self):
        x = np.array([[0.0], [2.0]])
        # xbar = 1, errors 1 + 1
        assert consensus_error(x, np.ones(2)) == pytest.approx(2.0)

    def test_tracking_error_exact_inner(self):
        prob = make_quadratic(2, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 2))
        z = prob.true_g(x)
        assert tracking_error(z, x, prob) == 0.0
        assert tracking_error(z + 0.5, x, prob) == pytest.approx(2 * 2 * 0.25)

    @pytest.mark.parametrize("n,d", [(1, 3), (4, 1), (10, 5), (3, 9), (2, 130)])
    def test_tracking_error_bytes_equal_per_agent_sum(self, n, d):
        prob = make_quadratic(n, d, seed=d)
        rng = np.random.default_rng(n)
        x, z = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        total = 0.0
        for i in range(n):
            total += float(np.sum((z[i] - prob.M[i] @ x[i]) ** 2))
        assert tracking_error(z, x, prob) == total

    def test_tracking_needs_capability(self):
        prob = make_sinusoid_maml(1, 2, 2, 0.01, seed=0)
        with pytest.raises(CapabilityError):
            tracking_error(np.zeros((1, prob.d)), np.zeros((1, prob.d)), prob)


def reference_row(k, alpha_k, beta_k, x, z, problem, u):
    """The row written with np.mean, np.sum and weighted_average: collect_row's bit reference."""
    x = np.atleast_2d(x)
    row = {"k": k, "alpha_k": alpha_k, "beta_k": beta_k}
    row["consensus_err"] = float(np.sum((x - weighted_average(x, u)) ** 2))
    if problem.has_true_g:
        total = 0.0
        for v in np.sum((z - problem.true_g(x)) ** 2, axis=1).tolist():
            total += v
        row["tracking_err"] = total
    if problem.has_true_grad:
        row["grad_norm_sq"] = float(np.sum(problem.true_grad_h(weighted_average(x, u)) ** 2))
    if problem.has_optimum:
        xstar = problem.optimum()
        row["opt_gap_avg"] = float(np.mean(np.sum((x - xstar) ** 2, axis=1)))
        hstar = problem.true_h(xstar)
        row["residual_avg"] = float(np.mean([problem.true_h(xi) for xi in x]) - hstar)
    return MetricRow(**row)


def reference_true_h(problem, x):
    """true_h with ndarray.mean(), as the quadratic and logistic families wrote it."""
    if isinstance(problem, LogisticProblem):
        g = np.einsum("nmd,d->nm", problem._mean_jacobians(), x)
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
            row = collect_row(7, 0.1, 0.2, x, z, prob, u)
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
            assert row_bits(collect_row(7, 0.1, 0.2, x, z, prob, u)) == row_bits(
                collect_row(7, 0.1, 0.2, *copy, prob, u)
            )

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


class TestGeometricSum:
    def test_constant_sequence_closed_form(self):
        # sum rho^{k-t} a / a -> 1/(1-rho)
        worst = geometric_sum_check(0.5, [1.0] * 400)
        assert worst == pytest.approx(2.0, rel=1e-12)

    def test_rho_zero_identity(self):
        assert geometric_sum_check(0.0, [0.3, 0.7, 0.1]) == 1.0

    def test_decaying_sequence_stays_bounded(self):
        alphas = [1.0 / (k + 1) ** 0.75 for k in range(1, 5000)]
        worst = geometric_sum_check(0.9, alphas)
        # bound from splitting the sum: <= 2/(1-rho) eventually
        assert worst < 2.0 / 0.1 + 1.0

    @given(rho=st.floats(0.0, 0.95), scale=st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, rho, scale):
        alphas = [1.0 / (k + 2) for k in range(50)]
        a = geometric_sum_check(rho, alphas)
        b = geometric_sum_check(rho, [scale * v for v in alphas])
        assert a == pytest.approx(b, rel=1e-9)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            geometric_sum_check(1.0, [1.0])


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
        s = ConstantSqrtK(2.0, 400)
        assert s.alpha(1) == s.alpha(399) == pytest.approx(0.1)

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
            ConstantSqrtK(1.0, 0)
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
