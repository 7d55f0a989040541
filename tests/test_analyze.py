import math

import numpy as np
import pytest

from kpplab import (
    DInfinityEnsemble,
    Grid,
    MartingaleTrace,
    MinimumSample,
    ProfileEstimate,
    align_shift,
    estimate_d_infinity,
    phi_from_martingale,
    recentered_cdf,
    sampling_consistency,
    u_vs_mc,
)
from kpplab.errors import AlignmentError, DomainError, InsufficientHorizonError

from helpers import binomial_se


def _trace(replica, d_values):
    n = np.arange(len(d_values))
    return MartingaleTrace(replica, n, np.ones_like(n, dtype=float), np.asarray(d_values, float))


class TestEstimateDInfinity:
    def test_extinct_ensemble_gives_zeros(self):
        traces = [_trace(i, [0.0] * 13) for i in range(5)]
        d = estimate_d_infinity(traces, 12)
        assert np.all(d.samples == 0.0)

    def test_constant_trace_gives_its_value(self):
        d = estimate_d_infinity([_trace(0, [0.7] * 9)], 8)
        assert d.samples.tolist() == [0.7]

    def test_negative_values_floored_at_estimation_only(self):
        tr = _trace(0, [0.0, -0.3, 0.5, -0.1, 0.2])
        d = estimate_d_infinity([tr], 4)
        assert d.samples.tolist() == [0.2]
        assert tr.d[1] == -0.3  # trace left untouched

    def test_short_trace_rejected(self):
        with pytest.raises(InsufficientHorizonError):
            estimate_d_infinity([_trace(0, [0.0, 0.1])], 4)


class TestPhiFromMartingale:
    def test_all_zero_samples_give_one(self):
        d = DInfinityEnsemble(np.zeros(50), 8)
        phi = phi_from_martingale(d, 1.0, np.linspace(-5, 5, 11))
        assert np.all(phi.values == 1.0)

    def test_deterministic_unit_mass_is_gumbel_shape(self):
        d = DInfinityEnsemble(np.ones(200), 8)
        xs = np.linspace(-3, 6, 19)
        phi = phi_from_martingale(d, 1.0, xs)
        assert np.allclose(phi.values, np.exp(-np.exp(-xs)), atol=1e-12)

    def test_tails_and_monotonicity(self):
        rng = np.random.default_rng(3)
        d = DInfinityEnsemble(rng.exponential(2.0, size=4000), 10)
        xs = np.concatenate([[-30.0], np.linspace(-6, 8, 57), [30.0]])
        phi = phi_from_martingale(d, 1.0, xs)
        assert np.all(np.diff(phi.values) >= -1e-12)
        assert phi.values[-1] == pytest.approx(1.0, abs=3 * phi.stderr[-1] + 1e-9)
        # all samples positive: left tail heads to the zero-mass fraction
        assert phi.values[0] <= 1e-6


class TestRecenteredCdf:
    def test_all_extinct_is_one(self):
        samples = [MinimumSample(4.0, math.inf, i) for i in range(20)]
        est = recentered_cdf(samples, 4.0, 1.0, 1.5, np.linspace(-5, 5, 11))
        assert np.all(est.values == 1.0)

    def test_single_sample_step_at_zero(self):
        lam, c, t = 1.0, 1.5, 4.0
        m = -c * t + 1.5 / lam * math.log(t)
        samples = [MinimumSample(t, m, 0)]
        xs = np.linspace(-2, 2, 41)
        est = recentered_cdf(samples, t, lam, c, xs)
        assert np.all(est.values[xs < -1e-9] == 0.0)
        assert np.all(est.values[xs >= 0.0] == 1.0)

    def test_monotone_and_binomial_errors(self):
        rng = np.random.default_rng(11)
        t, lam, c = 8.0, 1.0, 1.5
        samples = [
            MinimumSample(t, float(-c * t + rng.normal()), i) for i in range(500)
        ]
        xs = np.linspace(-6, 6, 101)
        est = recentered_cdf(samples, t, lam, c, xs)
        assert np.all(np.diff(est.values) >= 0.0)
        mid = est.values[50]
        assert est.stderr[50] == pytest.approx(binomial_se(mid, 500), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            recentered_cdf([], 2.0, 1.0, 1.5, np.linspace(-1, 1, 5))


class TestAlignShift:
    @staticmethod
    def _profile(xs, shift=0.0):
        return ProfileEstimate(xs, 1.0 / (1.0 + np.exp(-(xs - shift))), None, "test")

    def test_identity(self):
        xs = np.linspace(-10, 10, 801)
        p = self._profile(xs)
        shift, dist = align_shift(p, p)
        assert abs(shift) < 0.05
        assert dist < 1e-9

    def test_recovers_known_shift(self):
        xs = np.linspace(-10, 10, 801)
        p = self._profile(xs)
        q = self._profile(xs, shift=2.5)
        shift, dist = align_shift(p, q)
        assert shift == pytest.approx(2.5, abs=2 * (xs[1] - xs[0]))
        assert dist < 1e-3

    @pytest.mark.parametrize("s", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_shift_sweep(self, s):
        xs = np.linspace(-14, 14, 1401)
        p = self._profile(xs)
        q = self._profile(xs, shift=s)
        shift, _ = align_shift(p, q)
        assert shift == pytest.approx(s, abs=xs[1] - xs[0])

    def test_disjoint_ranges_rejected(self):
        xs = np.linspace(-1, 1, 65)
        p = ProfileEstimate(xs, np.full(xs.size, 0.1), None, "a")
        q = ProfileEstimate(xs, np.full(xs.size, 0.9), None, "b")
        with pytest.raises(AlignmentError):
            align_shift(p, q)


class TestUvsMc:
    def test_t_zero_recovers_step(self, jump_gaussian_binary):
        grid = Grid(-8.0, 8.0, 256)
        res = u_vs_mc(jump_gaussian_binary, 0.0, grid, 500, rng=1)
        assert res.sup_dist <= 1e-9

    def test_immobile_binary_step_structure(self, immobile_binary):
        # all particles stay at the origin: both routes give the unit step
        grid = Grid(-4.0, 4.0, 256)
        res = u_vs_mc(immobile_binary, 1.5, grid, 4000, rng=2)
        assert res.sup_dist <= 4 * binomial_se(0.5, 4000) + 1e-9

    @pytest.mark.parametrize("replicas", [0, -1])
    def test_no_replicas_rejected(self, jump_gaussian_binary, replicas):
        with pytest.raises(DomainError, match="at least one replica"):
            u_vs_mc(jump_gaussian_binary, 1.0, Grid(-8.0, 8.0, 256), replicas, rng=1)

    def test_jump_model_short_horizon(self, jump_gaussian_binary):
        grid = Grid(-12.0, 12.0, 512)
        res = u_vs_mc(jump_gaussian_binary, 1.0, grid, 20_000, rng=3, dt=0.05)
        assert res.sup_dist <= 0.02


def test_recentered_cdfs_approach_each_other_with_horizon(brownian_binary):
    # doubling the horizon shrinks the aligned distance between successive
    # recentered minimum laws, the finite-time surrogate for convergence
    from kpplab import RunConfig, minimal_speed, run_ensemble

    speed = minimal_speed(brownian_binary)
    cfg = RunConfig(t_max=16.0, record_times=(4.0, 8.0, 16.0), seed=271)
    res = run_ensemble(brownian_binary, cfg, 600)
    xs = np.linspace(-8.0, 8.0, 161)
    cdfs = {
        t: recentered_cdf(res.minima, t, speed.lambda_star, speed.c_star, xs)
        for t in (4.0, 8.0, 16.0)
    }
    _, d48 = align_shift(cdfs[4.0], cdfs[8.0])
    _, d816 = align_shift(cdfs[8.0], cdfs[16.0])
    # on seeds 271 and 1-9, d48 read 0.045-0.068 and d816 0.026-0.049; the
    # smallest margin was 0.004, on seed 5 (d816 0.0493 against 0.0531)
    assert d816 <= d48 + 0.005


class TestSamplingConsistency:
    def test_identity_depth_matches_bridge(self, brownian_binary):
        report = sampling_consistency(brownian_binary, [0], 0.0, replicas=8000, rng=1)
        assert report.rows[0].target == pytest.approx(1.0)
        assert report.all_passed()

    def test_quarter_time_scaling(self, brownian_binary):
        report = sampling_consistency(brownian_binary, [2], 0.0, replicas=8000, rng=2)
        row = report.rows[0]
        assert row.t == 0.25
        assert row.estimate == pytest.approx(1.0, abs=3 * row.stderr)

    def test_generator_depths_match_tuple(self, brownian_binary):
        as_tuple = sampling_consistency(brownian_binary, (0, 1), 0.3, replicas=500, rng=4)
        as_gen = sampling_consistency(
            brownian_binary, (k for k in (0, 1)), 0.3, replicas=500, rng=4
        )
        assert len(as_gen.rows) == 2
        assert as_gen.rows == as_tuple.rows

    def test_empty_depths_rejected(self, brownian_binary):
        with pytest.raises(DomainError):
            sampling_consistency(brownian_binary, iter(()), 0.3, replicas=10, rng=4)
