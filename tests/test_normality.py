import numpy as np
import pytest

from dscosim import algorithms
from dscosim.algorithms import ReplicaStreams, ab_dscsc_init, ab_dscsc_step, run_stream
from dscosim.errors import (
    CapabilityError,
    ConfigurationError,
    DivergenceError,
    InsufficientDataError,
    NumericalError,
)
from dscosim.normality import (
    DeltaSample,
    collect_delta,
    compare_covariance,
    samples_to_csv,
    theoretical_covariance,
)
from dscosim.problems import make_logistic_cso, make_quadratic, make_sigmoid_quadratic
from dscosim.schedules import Polynomial, StepSchedule
from dscosim.topology import build_weight_pair, generate_ring_plus_random


def small_problem():
    return make_quadratic(2, 2, seed=3, noise_inner=0.2, noise_outer=0.2)


def small_weights(n=2):
    g = generate_ring_plus_random(n, 0, 0)
    return build_weight_pair(g, g)


def good_schedule(a=0.5, b=5.0):
    return StepSchedule(Polynomial(a, b, 0.7), beta=1.0)


class TestTheoreticalCovariance:
    def test_block_assembly(self):
        prob = small_problem()
        nd = prob.normality_data()
        Hinv = np.linalg.inv(nd.H)
        d = 2
        cov = theoretical_covariance(prob)
        np.testing.assert_allclose(cov[:d, :d], Hinv @ (nd.S1 + nd.S2) @ Hinv.T)
        np.testing.assert_allclose(cov[:d, d:], -Hinv @ nd.S2 / prob.n)
        np.testing.assert_allclose(cov[d:, :d], cov[:d, d:].T)
        np.testing.assert_allclose(cov[d:, d:], nd.S2 / prob.n**2)

    def test_symmetric_psd(self):
        cov = theoretical_covariance(small_problem())
        np.testing.assert_allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > -1e-12

    def test_missing_capability(self):
        prob = make_sigmoid_quadratic(2, 2, seed=0)
        with pytest.raises(CapabilityError):
            theoretical_covariance(prob)

    def test_singular_hessian_flagged(self):
        prob = make_quadratic(1, 2, seed=0)
        degenerate = type(prob)(
            M=np.zeros_like(prob.M), Q=prob.Q, c=prob.c,
            sigma_phi=prob.sigma_phi, sigma_zeta=prob.sigma_zeta,
        )
        with pytest.raises(NumericalError):
            theoretical_covariance(degenerate)


class TestCollectDelta:
    def test_schedule_requirements(self):
        prob, wp = small_problem(), small_weights()
        flat = StepSchedule(Polynomial(0.1 / 100**0.5, 0.0, 0.0), beta=1.0)
        with pytest.raises(ConfigurationError):
            collect_delta(2, prob, wp, flat, 10, 1, 0)
        too_fast = StepSchedule(Polynomial(0.5, 0.0, 1.0), beta=1.0)
        with pytest.raises(ConfigurationError):
            collect_delta(2, prob, wp, too_fast, 10, 1, 0)
        const_beta = StepSchedule(Polynomial(0.5, 0.0, 0.7), beta=0.5, beta_rule="constant")
        with pytest.raises(ConfigurationError):
            collect_delta(2, prob, wp, const_beta, 10, 1, 0)

    def test_family_without_normality_data_rejected(self, monkeypatch):
        # the logistic family has an optimum, but its solve is never reached
        import scipy.optimize

        solves = []
        monkeypatch.setattr(scipy.optimize, "minimize", lambda *a, **k: solves.append(a))
        wp = small_weights(3)
        for prob in (make_logistic_cso(3, 8, 2, seed=5), make_sigmoid_quadratic(3, 2, seed=0)):
            with pytest.raises(CapabilityError):
                collect_delta(2, prob, wp, good_schedule(), 10, 1, 0)
        assert solves == []

    def test_agent_bounds(self):
        prob, wp = small_problem(), small_weights()
        with pytest.raises(ConfigurationError):
            collect_delta(2, prob, wp, good_schedule(), 10, 3, 0)

    def test_seed_layout_and_determinism(self):
        prob, wp = small_problem(), small_weights()
        s = collect_delta(3, prob, wp, good_schedule(), 50, 1, base_seed=40)
        assert [x.seed for x in s] == [40, 41, 42]
        assert all(x.k == 50 and x.agent_index == 1 for x in s)
        s2 = collect_delta(3, prob, wp, good_schedule(), 50, 1, base_seed=40)
        for a, b in zip(s, s2):
            np.testing.assert_array_equal(a.stacked(), b.stacked())

    def test_statistic_scale(self):
        # the scaled running sums stay O(1) as k grows (no blow-up, no vanishing)
        prob, wp = small_problem(), small_weights()
        s = collect_delta(5, prob, wp, good_schedule(), 2000, 1, 0)
        norms = [np.linalg.norm(x.stacked()) for x in s]
        assert 1e-4 < max(norms) < 1e3

    @pytest.mark.parametrize("base_seed", [-1, 2**64 - 2, 2**64 - 1])
    def test_last_seed_out_of_range_rejected(self, base_seed):
        prob, wp = small_problem(), small_weights()
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 2\*\*64\)"):
            collect_delta(3, prob, wp, good_schedule(), 5, 1, base_seed)

    def test_non_integer_base_seed_rejected(self):
        # range() raised a bare TypeError here
        prob, wp = small_problem(), small_weights()
        with pytest.raises(ConfigurationError, match="must be integers"):
            collect_delta(3, prob, wp, good_schedule(), 5, 1, 1.5)

    def test_last_seed_at_uint64_max_accepted(self):
        prob, wp = small_problem(), small_weights()
        samples = collect_delta(3, prob, wp, good_schedule(), 5, 1, 2**64 - 3)
        assert samples[-1].seed == 2**64 - 1

    @pytest.mark.parametrize("replications,k", [(0, 10), (-1, 10), (2, 0), (2, -3)])
    def test_empty_study_rejected(self, replications, k):
        prob, wp = small_problem(), small_weights()
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            collect_delta(replications, prob, wp, good_schedule(), k, 1, 0)


def serial_delta(seed, prob, wp, schedule, k, agent):
    """One replication on its own (n, 1, d) state, accumulated agent by agent with
    per-agent products as the batched study does; raises its DivergenceError."""
    xstar = prob.optimum()
    nd = prob.normality_data()
    proj = [prob.M[j].T @ nd.T[j] / prob.n for j in range(prob.n)]
    rng = ReplicaStreams([seed])
    state = ab_dscsc_init(prob, np.zeros((prob.n, 1, prob.d)), rng)
    top, bottom = np.zeros(prob.d), np.zeros(prob.d)
    for t in range(1, k + 1):
        if rng.diverged:
            raise rng.diverged[0]
        x, z = state.x[:, 0], state.z[:, 0]
        top += x[agent - 1] - xstar
        for j in range(prob.n):
            bottom += proj[j] @ (z[j] - prob.M[j] @ x[j])
        if t < k:
            state = ab_dscsc_step(state, prob, wp, schedule.alpha(t), schedule.beta_of(t), rng)
    scale = 1.0 / np.sqrt(k)
    return scale * top, scale * bottom


class TestReplicaBatching:
    # (3, 2, 50) is the covariance study's shape, whose batched products run as the
    # d = 2 multiplies while each serial R = 1 run stays on einsum
    @pytest.mark.parametrize(
        "n,d,R", [(1, 3, 4), (3, 2, 7), (3, 2, 50), (10, 5, 3), (60, 3, 20), (100, 5, 20)]
    )
    def test_batched_equals_serial_bitwise(self, n, d, R):
        prob = make_quadratic(n, d, seed=n, noise_inner=0.2, noise_outer=0.2)
        # half of the non-ring edges: a ring's rows hold two nonzero terms, which sum
        # alike in any order, and would hide a mix that sums in another order
        g = generate_ring_plus_random(n, n * max(n - 2, 0) // 2, 0)
        wp = build_weight_pair(g, g)
        sched = good_schedule()
        samples = collect_delta(R, prob, wp, sched, 60, n, base_seed=7)
        assert [s.seed for s in samples] == list(range(7, 7 + R))
        for s in samples:
            top, bottom = serial_delta(s.seed, prob, wp, sched, 60, n)
            assert s.top.tobytes() == top.tobytes() and s.bottom.tobytes() == bottom.tobytes()

    def test_one_state_study_takes_no_round(self, monkeypatch):
        prob = make_quadratic(3, 2, seed=3, noise_inner=0.2, noise_outer=0.2)
        wp = small_weights(3)
        sched = good_schedule()

        def no_round(*args):
            raise AssertionError("a k=1 study took a round")

        monkeypatch.setattr(algorithms, "ab_dscsc_step", no_round)
        samples = collect_delta(4, prob, wp, sched, 1, 2, base_seed=7)
        for s in samples:
            top, bottom = serial_delta(s.seed, prob, wp, sched, 1, 2)
            assert s.top.tobytes() == top.tobytes() and s.bottom.tobytes() == bottom.tobytes()
            assert s.top.tobytes() == (-prob.optimum()).tobytes()  # x_1 = 0, scale 1

    def test_stacked_draws_are_each_seeds_own(self):
        for size in [(3, 2), (4, 1), (2, 3)]:  # one size per stream set, as a run draws
            streams = ReplicaStreams([5, 9, 2])
            serial = [run_stream(s) for s in (5, 9, 2)]
            for _ in range(3):
                draw = streams.normal(size=size)
                assert draw.shape == (size[0], 3, size[1])
                for r, g in enumerate(serial):
                    assert draw[:, r].tobytes() == g.normal(size=size).tobytes()

    @staticmethod
    def assert_serial_sequence(seeds, sizes):
        streams = ReplicaStreams(seeds)
        serial = [run_stream(s) for s in seeds]
        for size in sizes:
            draw = streams.normal(size=size)
            assert draw.shape == (size[0], len(serial), *size[1:]) and draw.flags.c_contiguous
            for r, g in enumerate(serial):
                assert draw[:, r].tobytes() == g.normal(size=size).tobytes()
        return streams

    def test_block_smaller_than_one_draw_equals_serial_draws(self):
        # with 4000 replicas a block holds 8 values per replica, less than a (3, 5) draw,
        # so each draw is a refill of its own
        seeds = range(10**6, 10**6 + 4000)
        streams = self.assert_serial_sequence(seeds, [(3, 5)] * 3)
        assert streams.block < 15

    @pytest.mark.parametrize("R,size", [(1, (10, 5)), (2, (10, 10)), (50, (3, 2))])
    def test_fixed_shape_draws_across_refills_equal_serial_draws(self, R, size):
        # the workloads' shapes; a refill lays out at most one block, so these cross three
        count = size[0] * size[1]
        draws = 3 * ReplicaStreams(range(R)).block // count + 1
        streams = self.assert_serial_sequence(range(R), [size] * draws)
        assert draws * count > 3 * streams.block

    def test_size_change_with_unread_draws_continues_each_stream(self):
        # a second size is refused while laid-out draws are unread, and takes nothing
        streams = ReplicaStreams([5, 9, 2])
        serial = [run_stream(s) for s in (5, 9, 2)]
        for _ in range(2):
            draw = streams.normal(size=(3, 2))
            with pytest.raises(RuntimeError, match="another size"):
                streams.normal(size=(1,))
            for r, g in enumerate(serial):
                assert draw[:, r].tobytes() == g.normal(size=(3, 2)).tobytes()
        # with 4000 replicas one (3, 5) draw drains the block, and two (4,) draws do: a
        # second size then continues each stream as a serial run would
        seeds = range(10**6, 10**6 + 4000)
        self.assert_serial_sequence(seeds, [(3, 5), (2, 1, 3), (4,), (4,), (3, 5)])

    def test_negative_zero_from_the_generator_reads_positive(self):
        # normal(0, 1) is 0.0 + 1.0·x, which turns a -0.0 into +0.0; no real seed
        # draws a -0.0, so a stub stream writes them, and one -1.5 that must be kept
        class NegativeZeros:
            def standard_normal(self, out):
                out[:] = -0.0
                out[1] = -1.5

        streams = ReplicaStreams([0, 1])
        streams.streams[1] = NegativeZeros()
        draw = streams.normal(size=(3, 2))
        assert draw[:, 0].tobytes() == run_stream(0).normal(size=(3, 2)).tobytes()
        assert draw[:, 1].tobytes() == np.array([[0.0, -1.5], [0.0, 0.0], [0.0, 0.0]]).tobytes()

    @pytest.mark.parametrize("R", [1, 2])
    def test_draws_are_read_only(self, R):
        streams = ReplicaStreams(range(R))
        draw = streams.normal(size=(3, 2))
        with pytest.raises(ValueError, match="read-only"):
            draw += 1
        later = streams.normal(size=(3, 2))
        assert later[:, 0].tobytes() == run_stream(0).normal(size=(2, 3, 2))[1].tobytes()

    @pytest.mark.parametrize("R", [1, 2, 50])
    def test_integers_refused_after_one_draw(self, R):
        streams = ReplicaStreams(range(R))
        streams.normal(size=(3, 2))
        with pytest.raises(RuntimeError, match="buffered normals"):
            streams.integers(0, 7, size=(4,))

    def test_integers_follow_a_drained_layout(self):
        # with 4000 replicas a (3, 5) draw is the whole layout, so none is left unread
        seeds = range(10**6, 10**6 + 4000)
        streams = ReplicaStreams(seeds)
        streams.normal(size=(3, 5))
        draw = streams.integers(0, 1000, size=(2,))
        for r in (0, 1, 3999):
            g = run_stream(seeds[r])
            g.normal(size=(3, 5))
            assert draw[:, r].tobytes() == g.integers(0, 1000, size=(2,)).tobytes()

    def test_integers_are_each_seeds_own(self):
        streams = ReplicaStreams([5, 9, 2])
        serial = [run_stream(s) for s in (5, 9, 2)]
        for high, size in [(7, (4,)), (3, (2, 5)), (1000, (1,))]:
            draw = streams.integers(0, high, size=size)
            assert draw.shape == (size[0], 3, *size[1:])
            for r, g in enumerate(serial):
                assert draw[:, r].tobytes() == g.integers(0, high, size=size).tobytes()

    def test_integers_refused_while_normals_buffered(self):
        streams = ReplicaStreams([5, 9])
        streams.normal(size=(3, 2))  # fills a block, of which 6 values are read
        with pytest.raises(RuntimeError, match="buffered normals"):
            streams.integers(0, 7, size=(4,))

    def test_tracker_conservation_per_replica(self):
        prob = make_quadratic(4, 3, seed=2, noise_inner=0.2, noise_outer=0.2)
        g = generate_ring_plus_random(4, 2, 3)
        wp = build_weight_pair(g, g)
        rng = ReplicaStreams(range(6))
        state = ab_dscsc_init(prob, np.zeros((4, 6, 3)), rng)
        for k in range(1, 201):
            state = ab_dscsc_step(state, prob, wp, 0.02 / k**0.6, min(1.0, 1.0 / k**0.6), rng)
        drift = np.abs(state.y.sum(axis=0) - state.h_prev.sum(axis=0))  # (R, d)
        assert drift.shape == (6, 3) and drift.max() < 1e-10

    def test_divergence_names_seed_as_its_serial_run(self):
        prob = make_quadratic(3, 2, seed=0, noise_inner=0.2, noise_outer=0.2)
        wp = small_weights(3)
        # seeds 20 and 21 cross the tracker guard at k=5, after seed 23 crossed the iterate guard
        sched = StepSchedule(Polynomial(10.0, 0.0, 0.7), beta=1.0)
        with pytest.raises(DivergenceError) as batched:
            collect_delta(6, prob, wp, sched, 200, 1, base_seed=20)
        err = batched.value
        assert err.seed == 23 and "seed 23" in str(err)
        with pytest.raises(DivergenceError) as serial:
            serial_delta(err.seed, prob, wp, sched, 200, 1)
        assert (serial.value.k, serial.value.agent, serial.value.seed) == (err.k, err.agent, err.seed)
        assert str(err) == str(serial.value)


class TestCompareCovariance:
    def synthetic(self, cov, R, seed=0):
        rng = np.random.default_rng(seed)
        d = cov.shape[0] // 2
        draws = rng.multivariate_normal(np.zeros(2 * d), cov, size=R)
        return [
            DeltaSample(top=row[:d], bottom=row[d:], agent_index=1, k=100, seed=r)
            for r, row in enumerate(draws)
        ]

    def test_gaussian_samples_match(self):
        cov = theoretical_covariance(small_problem())
        samples = self.synthetic(cov, 20_000)
        report = compare_covariance(samples, cov)
        assert report.rel_frobenius_error < 0.05
        assert np.all(np.abs(report.skewness) < 0.1)
        assert np.all(np.abs(report.excess_kurtosis) < 0.15)

    def test_wrong_covariance_detected(self):
        cov = theoretical_covariance(small_problem())
        samples = self.synthetic(4.0 * cov, 20_000)
        assert compare_covariance(samples, cov).rel_frobenius_error > 1.0

    def test_minimum_sample_count(self):
        cov = theoretical_covariance(small_problem())
        with pytest.raises(InsufficientDataError):
            compare_covariance(self.synthetic(cov, 49), cov)

    def test_report_rows(self):
        cov = theoretical_covariance(small_problem())
        report = compare_covariance(self.synthetic(cov, 60), cov)
        keys = [k for k, _ in report.to_kv_rows()]
        assert keys[0] == "rel_frobenius_error"
        assert "skewness_0" in keys and "excess_kurtosis_1" in keys


class TestSamplesCsv:
    def test_layout(self):
        s = DeltaSample(
            top=np.array([1.0, 2.0]), bottom=np.array([3.0, 4.0]), agent_index=2, k=9, seed=5
        )
        text = samples_to_csv([s])
        lines = text.strip().splitlines()
        assert lines[0] == "seed,agent,k,top_0,top_1,bottom_0,bottom_1"
        assert lines[1].startswith("5,2,9,1,")

    def test_empty(self):
        assert samples_to_csv([]) == "seed,agent,k\n"


class TestEndToEndSmall:
    def test_small_study_matches_loosely(self):
        # fast sanity check: modest replication count, loose tolerance; the
        # full-accuracy study lives in the acceptance suite
        prob, wp = small_problem(), small_weights()
        samples = collect_delta(120, prob, wp, good_schedule(), 3000, 1, base_seed=100)
        report = compare_covariance(samples, theoretical_covariance(prob))
        assert report.rel_frobenius_error < 0.75
