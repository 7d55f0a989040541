import logging
import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from kpplab import (
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    Population,
    RunConfig,
    advance,
    empirical_minima,
    empirical_v,
    log_laplace,
    martingales,
    minimal_speed,
    prune,
    run_ensemble,
    simulate,
)
from kpplab.errors import CapacityError, DomainError, NoMinimizerError
from kpplab.simulate import MERGED_CHUNK, _extinction_curve

import reference_engine as ref
from helpers import binary_death_extinction, binomial_se


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestAdvance:
    def test_zero_duration_is_identity(self, jump_gaussian_binary):
        pop = Population.single(0.0)
        out = advance(pop, 0.0, jump_gaussian_binary, None, _rng())
        assert out.time == 0.0
        assert out.positions.tolist() == [0.0]

    def test_backwards_rejected(self, jump_gaussian_binary):
        pop = Population(np.array([0.0]), 1.0)
        with pytest.raises(DomainError):
            advance(pop, 0.5, jump_gaussian_binary, None, _rng())

    def test_pair_count_mean_growth(self, immobile_binary):
        # mean population of the binary immobile tree is e^t; at lam = 0 each
        # replica's sum counts its particles
        mean, se = empirical_v(immobile_binary, 0.0, 1.0, 30_000, _rng(3), max_particles=10_000_000)
        assert mean == pytest.approx(math.e, abs=4 * se)

    def test_capacity_error(self, immobile_binary):
        cfg = RunConfig(t_max=14.0, record_times=(14.0,), max_particles=100, seed=0)
        with pytest.raises(CapacityError) as err:
            advance(Population.single(), 14.0, immobile_binary, cfg, _rng(5))
        assert err.value.count > 100


class TestPrune:
    def test_removes_far_right_particles(self):
        pop = Population(np.array([0.0, 5.0, 30.0]), 2.0)
        out = prune(pop, 1.0, 12.0)
        assert sorted(out.positions.tolist()) == [0.0, 5.0]
        # the one removed particle at 30 contributes exp(-1 * (30 - 0))
        assert out.pruned_mass_bound == pytest.approx(math.exp(-30.0), rel=1e-12, abs=0.0)

    def test_noop_within_window(self):
        pop = Population(np.array([0.0, 5.0, 11.0]), 2.0)
        out = prune(pop, 1.0, 12.0)
        assert out is pop

    def test_particle_on_the_window_edge_is_kept(self):
        pop = Population(np.array([12.0, 0.0, 12.5]), 2.0)
        assert prune(pop, 1.0, 12.0).positions.tolist() == [12.0, 0.0]

    def test_minimum_never_pruned(self):
        pop = Population(np.array([7.0]), 0.0)
        assert prune(pop, 2.0, 0.5).positions.tolist() == [7.0]

    def test_bound_is_relative_to_the_minimum(self):
        pop = Population(np.array([3.0, 4.0, 20.0, 25.0]), 1.0)
        out = prune(pop, 0.5, 10.0)
        want = math.exp(-0.5 * 17.0) + math.exp(-0.5 * 22.0)
        assert out.pruned_mass_bound == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_bound_accumulates(self):
        pop = Population(np.array([0.0, 20.0]), 0.0, pruned_mass_bound=0.25)
        out = prune(pop, 1.0, 10.0)
        assert out.pruned_mass_bound == pytest.approx(0.25 + math.exp(-20.0))
        assert out.pruned_mass_bound - 0.25 == pytest.approx(math.exp(-20.0), rel=1e-6)


class TestMartingales:
    def test_initial_point(self):
        pop = Population(np.array([0.0]), 0.0)
        assert martingales(pop, 0, 1.3, 2.0) == (1.0, 0.0)

    def test_single_particle_formula(self):
        a = 0.7
        pop = Population(np.array([a]), 1.0)
        w, d = martingales(pop, 1, 1.0, 1.0)
        assert w == pytest.approx(math.exp(-a - 1.0))
        assert d == pytest.approx((a + 1.0) * math.exp(-a - 1.0))

    def test_additive_martingale_has_mean_one(self, brownian_binary):
        sp = minimal_speed(brownian_binary)
        cfg = RunConfig(t_max=3.0, record_times=(3.0,), seed=21)
        res = run_ensemble(brownian_binary, cfg, 3000)
        for n in (1, 2, 3):
            ws = np.array([tr.w[list(tr.n).index(n)] for tr in res.traces])
            se = ws.std(ddof=1) / math.sqrt(ws.size)
            assert ws.mean() == pytest.approx(1.0, abs=4 * se), f"n={n}"


class TestRunEnsemble:
    def test_empty(self, jump_gaussian_binary):
        res = run_ensemble(jump_gaussian_binary, RunConfig(t_max=1.0, seed=0), 0)
        assert res.minima == [] and res.traces == []

    def test_deterministic(self, jump_gaussian_binary):
        cfg = RunConfig(t_max=2.0, record_times=(1.0, 2.0), seed=99)
        a = run_ensemble(jump_gaussian_binary, cfg, 150)
        b = run_ensemble(jump_gaussian_binary, cfg, 150)
        assert a.minima == b.minima
        assert all(
            np.array_equal(x.w, y.w) and np.array_equal(x.d, y.d)
            for x, y in zip(a.traces, b.traces)
        )

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_capacity_warning_once_per_ensemble(self, jump_gaussian_binary, caplog, n_workers):
        cfg = RunConfig(t_max=6.0, record_times=(6.0,), max_particles=50, seed=3)
        with caplog.at_level(logging.WARNING, logger="kpplab.simulate"):
            res = run_ensemble(jump_gaussian_binary, cfg, 8, n_workers=n_workers)
        assert len(res.invalid_replicas) > 1
        records = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(records) == 1
        assert records[0].getMessage().startswith(f"{len(res.invalid_replicas)} of 8 replicas")

    def test_worker_count_invariance(self, jump_gaussian_binary):
        cfg = RunConfig(t_max=1.5, record_times=(1.5,), seed=5)
        a = run_ensemble(jump_gaussian_binary, cfg, 80, n_workers=1)
        b = run_ensemble(jump_gaussian_binary, cfg, 80, n_workers=2)
        assert sorted((s.replica, s.m) for s in a.minima) == sorted(
            (s.replica, s.m) for s in b.minima
        )

    def test_minimum_drifts_left_linearly(self, brownian_binary):
        # M_t / t heads to -c_star; closer at the longer horizon.  The exact
        # value at t=8 is -0.938 (deterministic-front cross-check), still far
        # from the limit -sqrt(2); the trend is the meaningful statement.
        cfg = RunConfig(t_max=8.0, record_times=(4.0, 8.0), prune_window=9.9, seed=17)
        res = run_ensemble(brownian_binary, cfg, 800)
        by_t = {4.0: [], 8.0: []}
        for s in res.minima:
            by_t[s.t].append(s.m / s.t)
        c = math.sqrt(2.0)
        m4, m8 = np.mean(by_t[4.0]), np.mean(by_t[8.0])
        se8 = np.std(by_t[8.0], ddof=1) / math.sqrt(len(by_t[8.0]))
        assert m8 == pytest.approx(-0.938, abs=max(4 * se8, 0.03))
        assert abs(m8 + c) < abs(m4 + c)

    def test_replay_through_public_operations(self, jump_gaussian_binary):
        # replica r draws from SeedSequence(seed, spawn_key=(r,)) and runs
        # what advance -> minimum/martingales -> prune do at every checkpoint
        cfg = RunConfig(t_max=5.0, record_times=(2.5, 5.0), prune_window=5.0, seed=7)
        res = run_ensemble(jump_gaussian_binary, cfg, 4)
        lam, psi = res.lambda_star, res.psi_star
        checkpoints = (0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0)
        for tr in res.traces:
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(tr.replica,))
            rng = np.random.Generator(np.random.SFC64(seq))
            pop = Population.single(0.0)
            ns, ws, ds, ms = [], [], [], []
            peak = pruned = 0
            for t in checkpoints:
                pop = advance(pop, t, jump_gaussian_binary, cfg, rng)
                peak = max(peak, pop.positions.size)
                if t in cfg.record_times:
                    ms.append(pop.positions.min(initial=math.inf))
                if t == int(t):
                    w, d = martingales(pop, int(t), lam, psi)
                    ns.append(int(t))
                    ws.append(w)
                    ds.append(d)
                size = pop.positions.size
                pop = prune(pop, lam, cfg.prune_window)
                pruned += size - pop.positions.size
            assert np.array_equal(tr.n, ns)
            assert np.array_equal(tr.w, ws)
            assert np.array_equal(tr.d, ds)
            assert tr.pruned_mass_bound == pop.pruned_mass_bound
            assert (tr.peak_population, tr.pruned) == (peak, pruned)
            assert [s.m for s in res.minima if s.replica == tr.replica] == ms
        assert any(tr.pruned_mass_bound > 0.0 for tr in res.traces)

    def test_unpruned_traces_carry_zero_bound(self, jump_gaussian_binary):
        cfg = RunConfig(t_max=2.0, prune_window=math.inf, seed=3)
        res = run_ensemble(jump_gaussian_binary, cfg, 5)
        assert [tr.pruned_mass_bound for tr in res.traces] == [0.0] * 5

    def test_finite_window_needs_speed_profile(self, immobile_binary):
        with pytest.raises(DomainError, match="speed profile"):
            run_ensemble(immobile_binary, RunConfig(t_max=1.0, prune_window=5.0), 3)
        cfg = RunConfig(t_max=1.0, record_times=(1.0,), prune_window=math.inf)
        res = run_ensemble(immobile_binary, cfg, 3)
        assert res.lambda_star is None
        assert [s.m for s in res.minima] == [0.0] * 3

    def test_speed_profile_errors_are_kpplab_errors_only(self, monkeypatch, brownian_binary):
        def no_profile(model):
            raise NoMinimizerError("no interior minimizer")

        monkeypatch.setattr(simulate, "minimal_speed", no_profile)
        res = run_ensemble(brownian_binary, RunConfig(t_max=1.0, record_times=(1.0,)), 3)
        assert res.lambda_star is None and res.traces == [] and len(res.minima) == 3

        def broken(model):
            raise ZeroDivisionError("defect, not a verdict")

        monkeypatch.setattr(simulate, "minimal_speed", broken)
        with pytest.raises(ZeroDivisionError):
            run_ensemble(brownian_binary, RunConfig(t_max=1.0), 3)

    def test_lattice_fast_path_extinction(self, immobile_offspring):
        cfg = RunConfig(t_max=25.0, record_times=(25.0,), seed=31)
        res = run_ensemble(immobile_offspring, cfg, 4000)
        assert len(res.minima) == 4000
        extinct = np.mean([not math.isfinite(s.m) for s in res.minima])
        # smallest fixed point of 0.2 + 0.8 q^2
        q = 0.0
        for _ in range(200):
            q = 0.2 + 0.8 * q * q
        assert q == pytest.approx(0.25, abs=1e-12)
        assert extinct == pytest.approx(q, abs=4 * binomial_se(q, 4000))

    def test_lattice_extinction_matches_riccati(self, immobile_offspring):
        curve = _extinction_curve(immobile_offspring.law, (25.0, 1.0))
        assert list(curve) == [1.0, 25.0]
        assert binary_death_extinction(0.2, 1.0) == pytest.approx(0.1307, abs=5e-5)
        for t, q in curve.items():
            assert q == pytest.approx(binary_death_extinction(0.2, t), rel=1e-10)
        cfg = RunConfig(t_max=25.0, record_times=(1.0, 25.0), seed=32)
        res = run_ensemble(immobile_offspring, cfg, 4000)
        extinct = {t: {s.replica for s in res.minima if s.t == t and math.isinf(s.m)} for t in curve}
        assert extinct[1.0] <= extinct[25.0]  # extinction is absorbing
        for t, q in curve.items():
            assert len(extinct[t]) / 4000 == pytest.approx(q, abs=4 * binomial_se(q, 4000))

    def test_lattice_replicas_never_exceed_capacity(self, immobile_offspring):
        cfg = RunConfig(t_max=30.0, record_times=(30.0,), max_particles=10, seed=0)
        res = run_ensemble(immobile_offspring, cfg, 4)
        assert len(res.minima) == 4
        assert res.invalid_replicas == []

    def test_lattice_worker_invariance(self, immobile_offspring):
        cfg = RunConfig(t_max=10.0, record_times=(2.0, 10.0), seed=5)
        a = run_ensemble(immobile_offspring, cfg, 60, n_workers=1)
        # lattice replicas are resolved before any worker would start
        with mock.patch("concurrent.futures.ProcessPoolExecutor", side_effect=AssertionError):
            b = run_ensemble(immobile_offspring, cfg, 60, n_workers=2)
        assert [(s.replica, s.t, s.m) for s in a.minima] == [(s.replica, s.t, s.m) for s in b.minima]

    def test_survivors_sit_at_origin(self, immobile_offspring):
        cfg = RunConfig(t_max=5.0, record_times=(2.5, 5.0), seed=8)
        res = run_ensemble(immobile_offspring, cfg, 300)
        for s in res.minima:
            assert s.m == 0.0 or not math.isfinite(s.m)


class TestEmpiricalTransform:
    def test_t_zero_exact(self, jump_gaussian_binary):
        mean, se = empirical_v(jump_gaussian_binary, 0.7, 0.0, 500, 1)
        assert mean == 1.0
        assert se == 0.0

    def test_population_mean(self, jump_gaussian_binary):
        mean, se = empirical_v(jump_gaussian_binary, 0.0, 1.0, 20_000, 2)
        assert mean == pytest.approx(math.e, abs=4 * se)

    def test_bridge_to_transform(self, jump_gaussian_binary):
        mean, se = empirical_v(jump_gaussian_binary, 0.5, 1.0, 10_000, 3)
        psi = log_laplace(jump_gaussian_binary, 0.5)
        assert math.log(mean) == pytest.approx(psi, abs=3 * se / mean)

    def test_time_multiplicativity(self, jump_gaussian_binary):
        lam = 1.0
        full, se_full = empirical_v(jump_gaussian_binary, lam, 1.0, 20_000, 4)
        half, se_half = empirical_v(jump_gaussian_binary, lam, 0.5, 20_000, 5)
        combined = math.sqrt(se_full**2 + (2.0 * half * se_half) ** 2)
        assert full == pytest.approx(half * half, abs=4 * combined)

    def test_extinct_replicas_contribute_zero(self, immobile_offspring):
        mean, se = empirical_v(immobile_offspring, 0.0, 8.0, 3000, 6)
        # mean population e^{0.6 t} counts extinct replicas as zero
        assert mean == pytest.approx(math.exp(0.6 * 8.0), abs=4 * se)


def test_empirical_minima_marks_extinct(immobile_offspring):
    minima = empirical_minima(immobile_offspring, 10.0, 400, 7, max_particles=10_000_000)
    assert minima.size == 400
    assert np.isinf(minima).any()
    finite = minima[np.isfinite(minima)]
    assert np.all(finite == 0.0)


@pytest.mark.parametrize("time", [math.nan, math.inf, -1.0])
def test_population_time_must_be_finite(time):
    with pytest.raises(DomainError):
        Population(np.array([0.0]), time)


@pytest.mark.parametrize("t_target", [math.nan, math.inf, 0.5])
def test_advance_needs_a_finite_later_time(immobile_binary, t_target):
    cfg, rng = RunConfig(t_max=1.0, max_particles=1000), _rng()
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        advance(Population(np.array([0.0]), 1.0), t_target, immobile_binary, cfg, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_merged_estimators_need_a_finite_time(immobile_binary, t):
    with pytest.raises(DomainError):
        empirical_minima(immobile_binary, t, 3, 1, max_particles=1000)
    with pytest.raises(DomainError):
        empirical_v(immobile_binary, 0.5, t, 3, 1, max_particles=1000)


@pytest.mark.parametrize(
    "params",
    [
        {"t_max": math.nan},
        {"t_max": math.inf},
        {"t_max": 1.0, "record_times": (0.5, math.nan)},
        {"t_max": 1.0, "prune_window": math.nan},
        {"t_max": 1.0, "prune_window": -math.inf},
    ],
)
def test_run_config_rejects_nan_and_infinite_times(params):
    with pytest.raises(DomainError):
        RunConfig(**params)


@pytest.mark.parametrize("replicas", [0, -1])
def test_merged_estimators_need_a_replica(jump_gaussian_binary, replicas):
    with pytest.raises(DomainError, match="at least one replica"):
        empirical_minima(jump_gaussian_binary, 1.0, replicas, 1)
    with pytest.raises(DomainError, match="at least one replica"):
        empirical_v(jump_gaussian_binary, 0.5, 1.0, replicas, 1)


def test_merged_capacity_bounds_each_chunk_not_the_call(immobile_binary):
    # three chunks of about 27 000 particles each run under a cap of 40 000
    replicas = 3 * MERGED_CHUNK
    mean, _ = empirical_v(immobile_binary, 0.0, 0.5, replicas, 11, max_particles=40_000)
    assert mean * replicas > 40_000
    minima = empirical_minima(immobile_binary, 0.5, replicas, 11, max_particles=40_000)
    assert np.all(minima == 0.0)


def test_merged_capacity_error_carries_its_chunks_time_and_count(immobile_binary):
    # immobile binary chunks only grow, so under a cap one below the largest
    # chunk's final count that chunk alone passes it, with that count, at the
    # numpy chunk loop's time; the chunks before it have run
    replicas, t = 3 * MERGED_CHUNK, 0.5
    counts = ref.merged(immobile_binary, t, replicas, _rng(12), 10**7, MERGED_CHUNK, 0.0)
    totals = counts.reshape(3, MERGED_CHUNK).sum(axis=1).astype(int)
    cap = int(totals.max()) - 1
    assert int(np.argmax(totals)) > 0 and np.sum(totals > cap) == 1
    with pytest.raises(CapacityError) as want:
        ref.merged(immobile_binary, t, replicas, _rng(12), cap, MERGED_CHUNK)
    with pytest.raises(CapacityError) as got:
        empirical_minima(immobile_binary, t, replicas, _rng(12), max_particles=cap)
    assert got.value.count == want.value.count == totals.max()
    assert got.value.time == want.value.time


@pytest.mark.parametrize("seed", [0, 31, 2**40 + 3])
def test_int_rng_is_the_sfc64_stream(jump_gaussian_binary, seed):
    # the CLI's integer seed reaches the simulator as Generator(SFC64(seed))
    want = empirical_minima(jump_gaussian_binary, 2.0, 50, np.random.Generator(np.random.SFC64(seed)))
    assert np.array_equal(empirical_minima(jump_gaussian_binary, 2.0, 50, seed), want)


@pytest.mark.parametrize("motion", ["pure_jump", "jump_diffusion"])
def test_merged_and_per_replica_minima_share_one_law(motion):
    # one merged tagged population and independent replicas are two samplers
    # of the same law of M_t; a two-sample KS test at fixed seeds compares them
    kernel = Kernel.gaussian(1.0)
    motions = {"pure_jump": Motion.pure_jump(kernel), "jump_diffusion": Motion(True, kernel)}
    model = BranchingModel(motions[motion], BranchingLaw.binary_at_parent())
    merged = empirical_minima(model, 3.0, 2000, 31)
    cfg = RunConfig(t_max=3.0, record_times=(3.0,), prune_window=math.inf, seed=32)
    per_replica = [s.m for s in run_ensemble(model, cfg, 2000).minima]
    assert stats.ks_2samp(merged, per_replica).pvalue > 1e-3
