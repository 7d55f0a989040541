"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All statistical checks run at fixed seeds, so the suite is deterministic;
tolerances are the contracted ones, not tuned to the draws.  Heavy artifacts
(the long front run and the large martingale ensemble) are computed once and
shared across criteria.
"""
import math
import time

import numpy as np

import kpplab as k
from helpers import binomial_se, logistic_decay

SQRT2 = math.sqrt(2.0)
C_STAR_GAUSS = math.exp(0.5)

_cache = {}


def jump_gaussian():
    return k.BranchingModel(
        k.Motion.pure_jump(k.Kernel.gaussian(1.0)), k.BranchingLaw.binary_at_parent()
    )


def jump_exponential():
    return k.BranchingModel(
        k.Motion.pure_jump(k.Kernel.two_sided_exponential(2.0)),
        k.BranchingLaw.binary_at_parent(),
    )


def brownian_offspring():
    return k.BranchingModel(
        k.Motion.brownian(), k.BranchingLaw.offspring_at_parent({2: 1.0})
    )


def jump_diffusion():
    """Brownian motion plus gaussian jumps, binary branching at the parent."""
    return k.BranchingModel(
        k.Motion(diffusive=True, kernel=k.Kernel.gaussian(1.0)), k.BranchingLaw.binary_at_parent()
    )


def immobile_offspring():
    return k.BranchingModel(
        k.Motion.constant(), k.BranchingLaw.offspring_at_parent({0: 0.2, 2: 0.8})
    )


def front_run():
    """Long front run shared by the speed, correction, and profile criteria."""
    if "front" not in _cache:
        grid = k.Grid(-40.0, 139.0, 8192)
        _, trace, snaps = k.track_front(
            jump_gaussian(),
            k.Field.heaviside(grid),
            60.0,
            0.1,
            0.5,
            snapshot_times=(6.0, 12.0, 24.0, 40.0, 60.0),
        )
        _cache["front"] = (trace, snaps)
    return _cache["front"]


def newton_wave(n_points):
    """Newton travelling wave at c* on [-30, 30], shared by the wave criteria."""
    key = ("wave", n_points)
    if key not in _cache:
        grid = k.Grid(-30.0, 30.0, n_points)
        _cache[key] = k.traveling_wave_profile(jump_gaussian(), C_STAR_GAUSS, grid)
    return _cache[key]


def gaussian_ensemble():
    """Pruned 10^4-replica ensemble to generation 12 for the profile criterion."""
    if "ensemble" not in _cache:
        model = jump_gaussian()
        speed = k.minimal_speed(model)
        cfg = k.RunConfig(
            t_max=12.0,
            record_times=(12.0,),
            prune_window=14.0 / speed.lambda_star,
            seed=20240,
        )
        _cache["ensemble"] = (k.run_ensemble(model, cfg, 10_000, n_workers=2), speed)
    return _cache["ensemble"]


def _report(num, name, elapsed, budget, ok, detail=""):
    import conftest

    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num:02d} {name}: {detail}"
    assert elapsed < budget, f"criterion {num:02d} exceeded its runtime budget"


def test_criterion_01_closed_form_speeds():
    start = time.monotonic()
    sp_bbm = k.minimal_speed(brownian_offspring())
    sp_jump = k.minimal_speed(jump_gaussian())
    checks = {
        "bbm c*": abs(sp_bbm.c_star - SQRT2) / SQRT2 <= 1e-8,
        "jump c*": abs(sp_jump.c_star - C_STAR_GAUSS) / C_STAR_GAUSS <= 1e-8,
        "jump lambda*": abs(sp_jump.lambda_star - 1.0) <= 1e-8,
    }
    _report(
        1,
        "closed-form speeds",
        time.monotonic() - start,
        1.0,
        all(checks.values()),
        f"c*={sp_bbm.c_star:.10f},{sp_jump.c_star:.10f} lambda*={sp_jump.lambda_star:.10f}",
    )


def test_criterion_02_assumption_machinery():
    start = time.monotonic()
    gauss = k.check_assumptions(jump_gaussian())
    expo = k.check_assumptions(jump_exponential())
    immobile = k.check_assumptions(immobile_offspring())
    ok = (
        gauss.all_passed()
        and expo.all_passed()
        and immobile.supercritical.passed
        and immobile.transform_finite.passed
        and not immobile.speed_attained.passed
        and not immobile.non_lattice.passed
    )
    _report(
        2,
        "assumption machinery",
        time.monotonic() - start,
        10.0,
        ok,
        f"gauss={gauss.all_passed()} expo={expo.all_passed()} "
        f"immobile a3={immobile.speed_attained.passed} nl={immobile.non_lattice.passed}",
    )


def test_criterion_03_second_moment_oracle():
    start = time.monotonic()
    got = k.second_moment_w(jump_gaussian(), 0.0, 0.0, 1.0)
    want = 2.0 * math.e**2 - math.e
    rel = abs(got - want) / want
    _report(3, "second-moment oracle", time.monotonic() - start, 1.0, rel <= 1e-6, f"rel={rel:.2e}")


def test_criterion_04_simulator_transform_bridge():
    start = time.monotonic()
    checks = []
    detail = []
    for model, seed in ((jump_gaussian(), 101), (brownian_offspring(), 102), (jump_diffusion(), 103)):
        lam_star = k.minimal_speed(model).lambda_star
        for i, lam in enumerate((0.0, lam_star / 2.0, lam_star)):
            mean, se = k.empirical_v(model, lam, 1.0, 10_000, seed * 10 + i)
            gap = abs(math.log(mean) - k.log_laplace(model, lam))
            tol = 3.0 * se / mean
            checks.append(gap <= tol)
            detail.append(f"{gap / max(tol, 1e-300):.2f}")
        full, se_f = k.empirical_v(model, lam_star, 1.0, 10_000, seed * 10 + 7)
        half, se_h = k.empirical_v(model, lam_star, 0.5, 10_000, seed * 10 + 8)
        combined = math.sqrt(se_f**2 + (2.0 * half * se_h) ** 2)
        checks.append(abs(full - half * half) <= 4.0 * combined)
        detail.append(f"mult={abs(full - half * half) / (4 * combined):.2f}")
    _report(
        4,
        "simulator-transform bridge",
        time.monotonic() - start,
        300.0,
        all(checks),
        "normalized gaps " + ",".join(detail),
    )


def test_criterion_05_martingale_means():
    start = time.monotonic()
    model = brownian_offspring()
    cfg = k.RunConfig(t_max=3.0, record_times=(3.0,), seed=505)
    res = k.run_ensemble(model, cfg, 10_000)
    checks = []
    detail = []
    for n in (1, 2, 3):
        ws = np.array([tr.w[list(tr.n).index(n)] for tr in res.traces])
        se = ws.std(ddof=1) / math.sqrt(ws.size)
        checks.append(abs(ws.mean() - 1.0) <= 4.0 * se)
        detail.append(f"W_{n}={ws.mean():.4f}+-{se:.4f}")
    d0 = {float(tr.d[list(tr.n).index(0)]) for tr in res.traces}
    checks.append(d0 == {0.0})
    _report(
        5, "martingale means", time.monotonic() - start, 300.0, all(checks), " ".join(detail)
    )


def test_criterion_06_extinction_probability():
    start = time.monotonic()
    cfg = k.RunConfig(t_max=25.0, record_times=(25.0,), seed=606)
    res = k.run_ensemble(immobile_offspring(), cfg, 10_000)
    extinct = np.mean([not math.isfinite(s.m) for s in res.minima])
    q = 0.0
    for _ in range(300):
        q = 0.2 + 0.8 * q * q
    ok = abs(extinct - q) <= 4.0 * binomial_se(q, 10_000)
    _report(
        6,
        "extinction probability",
        time.monotonic() - start,
        120.0,
        ok,
        f"freq={extinct:.4f} target={q:.4f}",
    )


def test_criterion_07_u_vs_minimum_identity():
    start = time.monotonic()
    grid = k.Grid(-16.0, 16.0, 1024)
    res = k.u_vs_mc(jump_gaussian(), 2.0, grid, 100_000, rng=707, dt=0.05)
    # the Brownian part bounds the step by 0.2 dx^2
    mixed = k.u_vs_mc(jump_diffusion(), 2.0, grid, 100_000, rng=708, dt=0.2 * grid.dx**2)
    _report(
        7,
        "front-solution vs minimum identity",
        time.monotonic() - start,
        900.0,
        res.sup_dist <= 0.02 and mixed.sup_dist <= 0.02,
        f"sup={res.sup_dist:.4f} jump-diffusion sup={mixed.sup_dist:.4f}",
    )


def test_criterion_08_deterministic_solver_properties():
    start = time.monotonic()
    checks = {}
    immobile = k.BranchingModel(k.Motion.constant(), k.BranchingLaw.binary_at_parent())
    small = k.Grid(-1.0, 1.0, 16)
    final, history = k.picard_solve(
        immobile, k.Field.constant(small, 0.5), 1.0, 2000, tol=1e-10, return_history=True
    )
    checks["picard logistic"] = abs(final.values[0] - logistic_decay(0.5, 1.0)) <= 1e-4
    checks["picard monotone"] = all(
        np.all(b >= a - 1e-12) and np.all(b <= 1.0 + 1e-12)
        for a, b in zip(history, history[1:])
    )

    model = jump_gaussian()
    grid = k.Grid(-24.0, 24.0, 1024)
    h = 2.0
    lower = k.Field.heaviside(grid)
    middle = k.Field(grid, np.clip((grid.xs + h) / h, 0.0, 1.0), 0.0, 0.0, 1.0)
    upper = k.Field(grid, (grid.xs >= -h).astype(float), 0.0, 0.0, 1.0)
    sandwich = True
    for t in (1.0, 2.0, 3.0):
        u1 = k.evolve(model, lower, t, 0.1)
        u2 = k.evolve(model, middle, t, 0.1)
        u3 = k.evolve(model, upper, t, 0.1)
        sandwich &= bool(np.all(u1.values <= u2.values + 1e-8))
        sandwich &= bool(np.all(u2.values <= u3.values + 1e-8))
    checks["sandwich ordering"] = sandwich

    displaced = k.BranchingModel(
        k.Motion.constant(), k.BranchingLaw.binary_one_displaced(k.Kernel.gaussian(1.0))
    )
    pg = k.Grid(-16.0, 16.0, 256)
    from scipy.special import ndtr

    f1 = k.Field(pg, 0.5 * ndtr(pg.xs), 0.0, 0.0, 0.5)
    f2 = k.Field(pg, 0.3 + 0.7 * ndtr(pg.xs), 0.0, 0.3, 1.0)
    _, h1 = k.picard_solve(displaced, f1, 1.0, 65, tol=1e-10, return_history=True)
    _, h2 = k.picard_solve(displaced, f2, 1.0, 65, tol=1e-10, return_history=True)
    checks["picard comparison"] = bool(np.all(h1[-1] <= h2[-1] + 1e-8))

    one = k.pde_step(model, k.Field.constant(grid, 1.0), 0.1)
    zero = k.pde_step(model, k.Field.constant(grid, 0.0), 0.1)
    checks["stationary states"] = bool(
        np.max(np.abs(one.values - 1.0)) <= 1e-9 and np.max(np.abs(zero.values)) <= 1e-9
    )
    _report(
        8,
        "deterministic solver properties",
        time.monotonic() - start,
        120.0,
        all(checks.values()),
        str({k_: bool(v) for k_, v in checks.items()}),
    )


def test_criterion_09_front_speed():
    start = time.monotonic()
    trace, _ = front_run()
    fit = k.measure_front(trace, 1.0, (10.0, 60.0))
    rel = abs(fit.c_est - C_STAR_GAUSS) / C_STAR_GAUSS
    _report(
        9,
        "front speed",
        time.monotonic() - start,
        600.0,
        rel <= 0.02,
        f"c_est={fit.c_est:.5f} rel={rel:.3%}",
    )


def test_criterion_10_log_correction_trend():
    start = time.monotonic()
    trace, _ = front_run()
    expected = -1.5  # -3 / (2 lambda_star) with lambda_star = 1
    fit = k.measure_front(trace, 1.0, (10.0, 60.0))
    early = k.measure_front(trace, 1.0, (10.0, 30.0))
    late = k.measure_front(trace, 1.0, (30.0, 60.0))
    in_band = 1.5 * expected <= fit.log_slope <= 0.4 * expected
    trend = abs(late.log_slope - expected) < abs(early.log_slope - expected)
    # reported only: the ln t slope with c fixed at the exact c*
    window = (trace.t >= 10.0) & (trace.t <= 60.0)
    t = trace.t[window]
    fixed_c = np.polyfit(np.log(t), trace.m[window] - C_STAR_GAUSS * t, 1)[0]
    _report(
        10,
        "logarithmic correction trend",
        time.monotonic() - start,
        600.0,
        fit.log_slope < 0.0 and in_band and trend,
        f"slope={fit.log_slope:.3f} early={early.log_slope:.3f} late={late.log_slope:.3f} "
        f"fixed-c* slope={fixed_c:.3f}",
    )


def test_criterion_11_limit_profile_cross_validation():
    start = time.monotonic()
    res, speed = gaussian_ensemble()
    n_used = 12
    d = k.estimate_d_infinity(res.traces, n_used)
    x_grid = np.concatenate([[-30.0], np.linspace(-8.0, 10.0, 181), [30.0]])
    phi = k.phi_from_martingale(d, speed.lambda_star, x_grid, rng=1)

    right_ok = abs(phi.values[-1] - 1.0) <= 3.0 * phi.stderr[-1] + 1e-6
    zero_mass = float(np.mean(d.samples == 0.0))
    left_matches_zero_mass = abs(phi.values[0] - zero_mass) <= 3.0 * phi.stderr[0] + 1e-9

    # Extinction consistency of the left tail.  The martingale can still be
    # nonpositive at generation 12 even though the process never dies, and
    # P[D_12 <= 0] ~ 2e-3 exceeds a 10^4-replica CI.  The provable bound is
    # P[D_n <= 0] <= P[M_n < -n psi*/lambda*], which the deterministic
    # solution supplies as an independent ceiling.
    _, snaps = front_run()
    u12 = snaps[12.0]
    threshold = n_used * speed.c_star / 1.0
    ceiling = 1.0 - float(np.interp(threshold, u12.grid.xs, u12.values))
    extinct_frac = np.mean([not math.isfinite(s.m) for s in res.minima])
    left_vs_extinction = (
        abs(phi.values[0] - extinct_frac) <= ceiling + 3.0 * phi.stderr[0]
    )

    pde = k.pde_profile(snaps[40.0])
    core = (phi.x >= -6.0) & (phi.x <= 8.0)
    martingale_profile = k.ProfileEstimate(phi.x[core], phi.values[core], None, phi.source)
    shift, sup = k.align_shift(martingale_profile, pde)
    _report(
        11,
        "limit profile cross-validation",
        time.monotonic() - start,
        1800.0,
        sup <= 0.05 and right_ok and left_matches_zero_mass and left_vs_extinction,
        f"sup={sup:.4f} shift={shift:.3f} tails=({phi.values[0]:.2e},{phi.values[-1]:.6f}) "
        f"extinct={extinct_frac:.4f} zero_mass={zero_mass:.2e} ceiling={ceiling:.2e}",
    )


def test_criterion_12_traveling_wave_residual():
    start = time.monotonic()
    model = jump_gaussian()
    residuals = []
    for n, dt in ((2048, 0.05), (4096, 0.025)):
        residuals.append(k.wave_residual(newton_wave(n), C_STAR_GAUSS, model, dt))
    ratio = residuals[0] / residuals[1]
    _report(
        12,
        "traveling-wave residual",
        time.monotonic() - start,
        300.0,
        ratio >= 3.0,
        f"residuals={residuals[0]:.2e},{residuals[1]:.2e} ratio={ratio:.2f}",
    )


def test_criterion_13_sampling_consistency():
    start = time.monotonic()
    model = brownian_offspring()
    lam_star = k.minimal_speed(model).lambda_star
    rows = []
    ok = True
    for lam, seed in ((0.0, 131), (lam_star, 132)):
        report = k.sampling_consistency(model, [0, 1, 2], lam, replicas=10_000, rng=seed)
        ok &= report.all_passed()
        rows += [f"k={r.k},lam={lam:.2f}:{r.estimate:.3f}/{r.target:.3f}" for r in report.rows]
    _report(
        13,
        "dyadic sampling consistency",
        time.monotonic() - start,
        300.0,
        ok,
        " ".join(rows),
    )


def test_criterion_14_traveling_wave_stability():
    # the paper's headline: the evolved front approaches the wave at c*
    start = time.monotonic()
    _, snaps = front_run()
    wave = k.pde_profile(newton_wave(2048))
    times = sorted(snaps)
    dists = [k.align_shift(k.pde_profile(snaps[t]), wave)[1] for t in times]
    decreasing = all(later < earlier for earlier, later in zip(dists, dists[1:]))
    # reported only: the decay exponent past the early transient, t = 12 to 60
    exponent = np.polyfit(np.log(times[1:]), np.log(dists[1:]), 1)[0]
    _report(
        14,
        "traveling-wave stability",
        time.monotonic() - start,
        120.0,
        decreasing and dists[-1] <= 0.05,
        " ".join(f"t={t:g}:{d:.4f}" for t, d in zip(times, dists)) + f" exponent={exponent:.2f}",
    )
