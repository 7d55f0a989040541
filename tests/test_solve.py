import ctypes
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgbsv
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve
from scipy.special import ndtr

from kpplab import (
    BranchingLaw,
    BranchingModel,
    Field,
    FrontTrace,
    Grid,
    Kernel,
    Motion,
    convolve,
    evolve,
    front_position,
    measure_front,
    minimal_speed,
    pde_step,
    picard_solve,
    shift_field,
    track_front,
    traveling_wave_profile,
    wave_residual,
)
from kpplab.errors import (
    DomainError,
    FitError,
    GridTooSmallError,
    IterationLimitError,
    NoFrontError,
    NoMinimizerError,
    StepSizeError,
)
from kpplab import solve
from kpplab.kernels import TAIL_MASS
from kpplab.solve import (
    _check_range,
    _comoving_jacobian,
    _comoving_residual,
    _correlate,
    _next_fast_len,
    _solve_band,
    _Stencil,
    _Stepper,
)

from helpers import binary_death_extinction, logistic_decay


def small_grid(n=16, half=1.0):
    return Grid(-half, half, n)


MOTIONS = {
    "constant": Motion.constant(),
    "brownian": Motion.brownian(),
    "pure_jump": Motion.pure_jump(Kernel.gaussian(1.0)),
    "jump_diffusion": Motion(diffusive=True, kernel=Kernel.gaussian(1.0)),
}
LAWS = {
    "binary_at_parent": BranchingLaw.binary_at_parent(),
    "offspring_at_parent": BranchingLaw.offspring_at_parent({0: 0.1, 1: 0.2, 3: 0.7}),
    "binary_one_displaced": BranchingLaw.binary_one_displaced(Kernel.gaussian(0.5)),
}


#: the families with a speed: an immobile particle whose children stay at
#: the parent spreads nowhere
SPREADING = [
    (motion, law)
    for motion in sorted(MOTIONS)
    for law in sorted(LAWS)
    if motion != "constant" or law == "binary_one_displaced"
]
#: every spreading family above c*, and at c* all but the Brownian ones, whose
#: pinned Newton iteration does not converge there
WAVE_CASES = [(m, law, 0.2) for m, law in SPREADING] + [
    (m, law, 0.0) for m, law in SPREADING if m != "brownian"
]


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 100)

    def test_spacing_consistency(self):
        g = Grid(-3.0, 5.0, 256)
        assert g.dx * (g.n_points - 1) == pytest.approx(8.0, abs=1e-12)
        assert g.xs[0] == -3.0 and g.xs[-1] == 5.0


class TestConvolve:
    def test_constant_one_preserved(self):
        grid = Grid(-24.0, 24.0, 1024)
        for kernel in (Kernel.gaussian(1.0), Kernel.two_sided_exponential(2.0)):
            out = convolve(kernel, Field.constant(grid, 1.0))
            assert np.max(np.abs(out.values - 1.0)) < 1e-9

    def test_zero_preserved(self):
        grid = Grid(-24.0, 24.0, 1024)
        out = convolve(Kernel.gaussian(1.0), Field.constant(grid, 0.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_heaviside_gives_gaussian_cdf(self):
        grid = Grid(-16.0, 16.0, 4096)
        out = convolve(Kernel.gaussian(1.0), Field.heaviside(grid))
        i0 = int(np.argmin(np.abs(grid.xs)))
        assert abs(out.values[i0] - 0.5) < 2 * grid.dx
        assert np.max(np.abs(out.values - ndtr(grid.xs))) < 1e-6

    def test_grid_too_small(self):
        grid = Grid(-2.0, 2.0, 64)
        with pytest.raises(GridTooSmallError):
            convolve(Kernel.gaussian(1.0), Field.heaviside(grid))


def _dense_correlation(weights, rows, left, right):
    """Correlation by explicit sums over each row extended by its limits."""
    k = weights.size // 2
    out = []
    for row, lo, hi in zip(rows, left, right):
        ext = np.concatenate([np.full(k, lo), row, np.full(k, hi)])
        out.append([ext[i : i + weights.size] @ weights for i in range(row.size)])
    return np.array(out)


class TestCorrelate:
    # (points, kernel half-width) ranges on either side of the direct/FFT switch
    SIDES = {"direct": ((1, 40), (0, 10)), "fft": ((600, 900), (150, 200))}

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("side", ["direct", "fft"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_matches_dense_sum_with_constant_limits(self, side, stacked, data):
        (n_lo, n_hi), (k_lo, k_hi) = self.SIDES[side]
        n = data.draw(st.integers(n_lo, n_hi), label="points")
        k = data.draw(st.integers(k_lo, k_hi), label="half-width")
        m = data.draw(st.integers(2, 4), label="rows") if stacked else 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        weights = rng.random(2 * k + 1)
        rows = rng.uniform(-1.0, 1.0, (m, n))
        left, right = rng.uniform(-1.0, 1.0, (2, m))
        assert (m * (n + 2 * k) * weights.size > (1 << 18)) == (side == "fft")
        want = _dense_correlation(weights, rows, left, right)
        if stacked:
            got = _correlate(_Stencil(weights), rows, left, right)
        else:
            got = _correlate(_Stencil(weights), rows[0], float(left[0]), float(right[0]))[None, :]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * weights.sum()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_fft_side_is_scipy_fftconvolve_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        weights = rng.random(2 * 170 + 1)
        stencil = _Stencil(weights)
        for n in (700, 1000):  # two transform lengths, each computed then reused
            values = rng.uniform(-1.0, 1.0, (rows, n))
            left, right = rng.uniform(-1.0, 1.0, (2, rows))
            padded = np.column_stack(
                [np.repeat(left[:, None], 170, 1), values, np.repeat(right[:, None], 170, 1)]
            ).ravel()
            want = fftconvolve(padded, weights[::-1], "valid")
            first = stencil.fft_valid(padded)
            again = stencil.fft_valid(padded)
            assert np.array_equal(first, want) and np.array_equal(again, want)
            # and _correlate takes that side at these sizes
            got = _correlate(stencil, values, left, right)
            starts = range(0, rows * (n + 2 * 170), n + 2 * 170)
            assert np.array_equal(got, np.stack([want[s : s + n] for s in starts]))
        assert len(stencil._spectra) == 2

    def test_fast_length_is_scipy_next_fast_len(self):
        ns = range(1, (1 << 17) + 1)
        assert [_next_fast_len(n) for n in ns] == [next_fast_len(n, True) for n in ns]

    def test_symbol_is_the_periodic_correlation(self):
        rng = np.random.default_rng(3)
        weights = rng.random(7)  # asymmetric, so an orientation error shows
        values = rng.random(32)
        got = np.fft.irfft(_Stencil(weights).symbol(32) * np.fft.rfft(values), 32)
        want = [sum(weights[3 + j] * values[(i + j) % 32] for j in range(-3, 4)) for i in range(32)]
        assert np.max(np.abs(got - want)) < 1e-14


class TestPdeStep:
    def test_stationary_states(self, jump_gaussian_binary):
        grid = Grid(-24.0, 24.0, 1024)
        one = pde_step(jump_gaussian_binary, Field.constant(grid, 1.0), 0.1)
        zero = pde_step(jump_gaussian_binary, Field.constant(grid, 0.0), 0.1)
        assert np.max(np.abs(one.values - 1.0)) < 1e-9
        assert np.max(np.abs(zero.values)) < 1e-9

    def test_brownian_stationary(self, brownian_binary):
        grid = Grid(-8.0, 8.0, 256)
        dt = 0.2 * min(1.0, grid.dx**2)
        one = pde_step(brownian_binary, Field.constant(grid, 1.0), dt)
        assert np.max(np.abs(one.values - 1.0)) < 1e-9

    def test_logistic_closed_form(self, immobile_binary):
        u = Field.constant(small_grid(), 0.5)
        u = evolve(immobile_binary, u, 1.0, 1e-3)
        assert np.max(np.abs(u.values - logistic_decay(0.5, 1.0))) < 1e-8

    @pytest.mark.parametrize(
        "t_end,dt",
        [(1.0, -1.0), (1.0, 0.0), (1.0, math.inf), (1.0, math.nan), (math.inf, 0.1), (math.nan, 0.1)],
    )
    def test_time_arguments_rejected(self, jump_gaussian_binary, t_end, dt):
        # dt = -1 took one step of 1.0, ten times the bound; dt = 0 divided by zero
        with pytest.raises(DomainError):
            evolve(jump_gaussian_binary, Field.heaviside(Grid(-8.0, 8.0, 64)), t_end, dt)

    def test_stability_bound_enforced(self, brownian_binary):
        grid = Grid(-8.0, 8.0, 1024)
        with pytest.raises(StepSizeError):
            pde_step(brownian_binary, Field.heaviside(grid), 0.1)

    def test_instability_detected(self, brownian_binary):
        # well-formed dt but garbage data blowing out of [0, 1]
        grid = Grid(-8.0, 8.0, 256)
        bad = Field(grid, 1.0 + 0.5 * np.sin(10 * grid.xs) ** 2, 0.0, 0.0, 1.0)
        with pytest.raises(StepSizeError):
            pde_step(brownian_binary, bad, 0.2 * grid.dx**2)


class TestComparisonAndSandwich:
    def test_pde_comparison_principle(self, jump_gaussian_binary):
        grid = Grid(-24.0, 24.0, 1024)
        lower = Field.heaviside(grid)
        h = 2.0
        ramp = np.clip((grid.xs + h) / h, 0.0, 1.0)
        middle = Field(grid, ramp, 0.0, 0.0, 1.0)
        upper = Field(grid, (grid.xs >= -h).astype(float), 0.0, 0.0, 1.0)
        for t in (0.5, 1.5, 3.0):
            u1 = evolve(jump_gaussian_binary, lower, t, 0.1)
            u2 = evolve(jump_gaussian_binary, middle, t, 0.1)
            u3 = evolve(jump_gaussian_binary, upper, t, 0.1)
            assert np.all(u1.values <= u2.values + 1e-8)
            assert np.all(u2.values <= u3.values + 1e-8)
            assert np.all(u1.values >= -1e-8) and np.all(u3.values <= 1.0 + 1e-8)

    def test_picard_comparison_principle(self):
        model = BranchingModel(
            Motion.constant(), BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
        )
        grid = Grid(-16.0, 16.0, 256)
        f1 = Field(grid, 0.5 * ndtr(grid.xs), 0.0, 0.0, 0.5)
        f2 = Field(grid, 0.3 + 0.7 * ndtr(grid.xs), 0.0, 0.3, 1.0)
        u1 = picard_solve(model, f1, 1.0, 65, tol=1e-10)
        u2 = picard_solve(model, f2, 1.0, 65, tol=1e-10)
        assert np.all(u1.values <= u2.values + 1e-8)


class TestPicard:
    def test_all_ones_fixed_point_immobile(self, immobile_binary):
        f = Field.constant(small_grid(), 1.0)
        u = picard_solve(immobile_binary, f, 1.0, 2000, tol=1e-10)
        assert np.max(np.abs(u.values - 1.0)) < 1e-7

    def test_all_ones_fixed_point_jump(self, jump_gaussian_binary):
        grid = Grid(-24.0, 24.0, 512)
        u = picard_solve(jump_gaussian_binary, Field.constant(grid, 1.0), 1.0, 129, tol=1e-10)
        # deviation limited by the trapezoid time mesh, not the iteration
        assert np.max(np.abs(u.values - 1.0)) < 1e-4

    def test_zero_data_stays_zero(self, jump_gaussian_binary):
        grid = Grid(-24.0, 24.0, 512)
        u = picard_solve(jump_gaussian_binary, Field.constant(grid, 0.0), 1.0, 33, tol=1e-10)
        assert np.max(np.abs(u.values)) == 0.0

    def test_logistic_closed_form(self, immobile_binary):
        f = Field.constant(small_grid(), 0.5)
        u = picard_solve(immobile_binary, f, 1.0, 2000, tol=1e-10)
        assert np.max(np.abs(u.values - logistic_decay(0.5, 1.0))) < 1e-4

    def test_iterates_increase_monotonically(self, immobile_binary):
        f = Field.constant(small_grid(), 0.5)
        _, history = picard_solve(immobile_binary, f, 1.0, 200, tol=1e-12, return_history=True)
        for early, late in zip(history, history[1:]):
            assert np.all(late >= early - 1e-12)
            assert np.all(late <= 1.0 + 1e-12)

    @pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_nonnegative(self, immobile_binary, t):
        # each would keep doubling the periodic padding, its leak never below TAIL_MASS
        with pytest.raises(DomainError):
            picard_solve(immobile_binary, Field.constant(small_grid(), 0.5), t, 10)

    def test_brownian_constant_data_is_logistic(self, brownian_binary):
        u = picard_solve(brownian_binary, Field.constant(small_grid(), 0.5), 1.0, 65, tol=1e-10)
        assert np.max(np.abs(u.values - logistic_decay(0.5, 1.0))) < 1e-4

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("motion", sorted(MOTIONS))
    def test_agrees_with_strong_form(self, motion, law):
        model = BranchingModel(MOTIONS[motion], LAWS[law])
        grid = Grid(-24.0, 24.0, 512)
        f = Field(grid, ndtr(grid.xs), 0.0, 0.0, 1.0)
        mild = picard_solve(model, f, 1.0, 129, tol=1e-10)
        dt = min(0.05, _Stepper(model, grid).stability_bound())
        strong = evolve(model, f, 1.0, dt)
        assert np.max(np.abs(mild.values - strong.values)) < 5e-4
        # both forms move the limits as constant states
        assert strong.left_limit == pytest.approx(mild.left_limit, abs=5e-4)
        assert strong.right_limit == pytest.approx(mild.right_limit, abs=5e-4)

    def test_wrap_around_mass_logged_below_tail_mass(self, jump_gaussian_binary, caplog):
        # by t = 1 the jumps carry more than TAIL_MASS past half the grid's
        # extent, so the padding of 2 x 64 points must double
        grid = Grid(-8.0, 8.0, 64)
        f = Field(grid, ndtr(grid.xs), 0.0, 0.0, 1.0)
        with caplog.at_level(logging.INFO, logger="kpplab.solve"):
            mild = picard_solve(jump_gaussian_binary, f, 1.0, 129, tol=1e-10)
        (record,) = [r for r in caplog.records if "wrap-around" in r.getMessage()]
        size, leak = record.args
        assert size > 2 * grid.n_points
        assert 0.0 <= abs(leak) < TAIL_MASS
        strong = evolve(jump_gaussian_binary, f, 1.0, 0.05)
        assert np.max(np.abs(mild.values - strong.values)) < 5e-4


class TestFrontPosition:
    def test_heaviside_crossing_at_origin(self):
        grid = Grid(-8.0, 8.0, 256)
        assert abs(front_position(Field.heaviside(grid))) <= grid.dx

    def test_gaussian_cdf_median(self):
        grid = Grid(-8.0, 16.0, 2048)
        f = Field(grid, ndtr(grid.xs - 3.0), 0.0, 0.0, 1.0)
        assert front_position(f) == pytest.approx(3.0, abs=grid.dx**2)

    def test_flat_field_has_no_front(self):
        grid = Grid(-8.0, 8.0, 256)
        with pytest.raises(NoFrontError):
            front_position(Field.constant(grid, 0.4))


class TestMeasureFront:
    def test_exact_model_recovery(self):
        t = np.linspace(5.0, 60.0, 111)
        m = 1.5 * t - 1.06 * np.log(t) + 2.0
        fit = measure_front(FrontTrace(t, m), 1.0, (5.0, 60.0))
        assert fit.c_est == pytest.approx(1.5, abs=1e-9)
        assert fit.log_slope == pytest.approx(-1.06, abs=1e-9)
        assert fit.intercept == pytest.approx(2.0, abs=1e-9)

    def test_pure_linear_recovery(self):
        t = np.linspace(5.0, 60.0, 111)
        c = math.sqrt(2.0)
        fit = measure_front(FrontTrace(t, c * t), 1.0, (5.0, 60.0))
        assert fit.c_est == pytest.approx(c, abs=1e-9)
        assert fit.log_slope == pytest.approx(0.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_window_too_narrow(self):
        t = np.linspace(5.0, 60.0, 111)
        with pytest.raises(FitError):
            measure_front(FrontTrace(t, 1.5 * t), 1.0, (5.0, 5.2))


class TestWaveResidual:
    def test_constant_states_are_waves(self, jump_gaussian_binary):
        grid = Grid(-24.0, 24.0, 1024)
        for value in (0.0, 1.0):
            res = wave_residual(Field.constant(grid, value), 1.7, jump_gaussian_binary, 0.05)
            assert res < 1e-9

    def test_shift_field_round_trip(self):
        grid = Grid(-8.0, 8.0, 512)
        f = Field(grid, ndtr(grid.xs), 0.0, 0.0, 1.0)
        back = shift_field(shift_field(f, 1.0), -1.0)
        inner = slice(64, -64)
        assert np.max(np.abs(back.values[inner] - f.values[inner])) < 1e-4


def test_monotone_data_stays_monotone(jump_gaussian_binary, brownian_binary):
    grid = Grid(-16.0, 16.0, 512)
    u = evolve(jump_gaussian_binary, Field.heaviside(grid), 3.0, 0.1)
    assert np.all(np.diff(u.values) >= -1e-10)
    dt = 0.2 * min(1.0, grid.dx**2)
    u = evolve(brownian_binary, Field.heaviside(grid), 1.0, dt)
    assert np.all(np.diff(u.values) >= -1e-10)


class TestTravelingWaveProfile:
    def test_comoving_residual_vanishes(self, jump_gaussian_binary):
        grid = Grid(-30.0, 30.0, 1024)
        c = math.exp(0.5)
        prof = traveling_wave_profile(jump_gaussian_binary, c, grid)
        stepper = _Stepper(jump_gaussian_binary, grid)
        du = np.gradient(prof.values, grid.dx)
        steady = stepper.rhs(prof.values, 0.0, 1.0) + c * du
        interior = slice(8, -8)
        assert np.max(np.abs(steady[interior])) < 1e-4  # gradient() is only O(dx^2)
        assert prof.values[0] < 1e-5 and prof.values[-1] > 1 - 1e-8
        # monotone up to a boundary layer at the domain-truncation scale
        assert np.all(np.diff(prof.values) >= -1e-6)

    def test_small_wave_residual_at_minimal_speed(self, jump_gaussian_binary):
        grid = Grid(-30.0, 30.0, 1024)
        c = math.exp(0.5)
        prof = traveling_wave_profile(jump_gaussian_binary, c, grid)
        res = wave_residual(prof, c, jump_gaussian_binary, 0.05)
        assert res < 5 * grid.dx**2 + 5 * 0.05
        assert res < 5e-5

    def test_law_with_death_runs_from_extinction_probability(self):
        # G(0) = p0 > 0, so the wave's left constant state is q, not 0
        law = LAWS["offspring_at_parent"]
        model = BranchingModel(MOTIONS["pure_jump"], law)
        grid = Grid(-30.0, 30.0, 1024)
        c = minimal_speed(model).c_star
        prof = traveling_wave_profile(model, c, grid)
        q = law.extinction_probability()
        assert prof.left_limit == q and prof.right_limit == 1.0
        assert wave_residual(prof, c, model, 0.05) < 5e-5

    @pytest.mark.parametrize("motion,law,offset", WAVE_CASES)
    def test_every_row_but_the_pin_solved(self, motion, law, offset):
        model = BranchingModel(MOTIONS[motion], LAWS[law])
        grid = Grid(-30.0, 30.0, 1024)
        c = minimal_speed(model).c_star + offset
        prof = traveling_wave_profile(model, c, grid)
        q = LAWS[law].extinction_probability()
        assert prof.left_limit == q and prof.right_limit == 1.0
        assert np.all((prof.values >= q) & (prof.values <= 1.0))
        rows = np.abs(_comoving_residual(_Stepper(model, grid), prof.values, c, q))
        rows[np.argmin(np.abs(grid.xs))] = 0.0  # the phase pin replaces this row
        assert rows.max() <= 1e-7

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_a_solution_above_one_below_c_star_is_no_wave(self, jump_gaussian_binary, c):
        # below c* = 1.6487 Newton converges to a profile that exceeds 1 (by
        # 0.081 at c = 0.5 and 8.2e-3 at c = 1.0) instead of a wave
        with pytest.raises(DomainError, match=r"leaves \[q, 1\]"):
            traveling_wave_profile(jump_gaussian_binary, c, Grid(-30.0, 30.0, 1024))

    def test_divergence_raises_iteration_limit(self):
        # from the logistic start, u**10 overflows within a few iterates
        law = BranchingLaw.offspring_at_parent({2: 0.5, 10: 0.5})
        model = BranchingModel(MOTIONS["brownian"], law)
        c = minimal_speed(model).c_star + 0.2
        with pytest.raises(IterationLimitError):
            traveling_wave_profile(model, c, Grid(-30.0, 30.0, 1024))


def _dense_band(lapack_band):
    """The matrix held in ``gbsv`` storage: ``A[i, j]`` at ``[2h + i - j, j]``."""
    h = (lapack_band.shape[0] - 1) // 3
    n = lapack_band.shape[1]
    dense = np.zeros((n, n))
    for i in range(n):
        for col in range(max(0, i - h), min(n, i + h + 1)):
            dense[i, col] = lapack_band[2 * h + i - col, col]
    return dense


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("motion", sorted(MOTIONS))
def test_banded_jacobian_matches_central_difference(motion, law):
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    grid = Grid(-16.0, 16.0, 128)
    stepper = _Stepper(model, grid)
    rng = np.random.default_rng(5)
    u = np.clip(ndtr(grid.xs) + 0.05 * rng.standard_normal(grid.n_points), 0.0, 1.0)
    c, eps, q = 1.3, 1e-6, LAWS[law].extinction_probability()
    jac = _dense_band(_comoving_jacobian(stepper, u, c, q))
    for _ in range(3):
        v = rng.standard_normal(grid.n_points)
        plus = _comoving_residual(stepper, u + eps * v, c, q)
        minus = _comoving_residual(stepper, u - eps * v, c, q)
        want = (plus - minus) / (2.0 * eps)
        assert np.max(np.abs(jac @ v - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def _newton_system(motion, law):
    """The comoving Jacobian and residual at the logistic start, at c* + 0.2
    (c = 1 for the immobile at-parent families, which have no speed)."""
    model = BranchingModel(MOTIONS[motion], LAWS[law])
    try:
        c = minimal_speed(model).c_star + 0.2
    except NoMinimizerError:
        c = 1.0
    grid = Grid(-16.0, 16.0, 128)
    q = LAWS[law].extinction_probability()
    u = q + (1.0 - q) / (1.0 + np.exp(-grid.xs))
    stepper = _Stepper(model, grid)
    return _comoving_jacobian(stepper, u, c, q), _comoving_residual(stepper, u, c, q)


def _random_system(h, pivot, n=1024):
    """A random band of half-width ``h`` in ``gbsv`` storage, and a random
    right-hand side.  With ``pivot`` the diagonal is a thousand times smaller
    than the rest, so partial pivoting swaps rows; without, the band is
    diagonally dominant by columns, so it swaps none."""
    rng = np.random.default_rng(h)
    lapack_band = np.zeros((3 * h + 1, n), order="F")
    lapack_band[h:] = rng.uniform(-1.0, 1.0, (2 * h + 1, n))
    lapack_band[2 * h] = 1e-3 * lapack_band[2 * h] if pivot else 2 * h + 1 + lapack_band[2 * h]
    for k in range(1, h + 1):  # the storage's corners, outside the matrix
        lapack_band[2 * h - k, :k] = 0.0
        lapack_band[2 * h + k, n - k:] = 0.0
    b = rng.standard_normal(n)
    swapped = dgbsv(h, h, lapack_band.copy(), b.copy())[1] != np.arange(n)  # 0-based
    assert swapped.any() == pivot
    return lapack_band, b


def _fail_lookup(monkeypatch):
    """Run ``_solve_band`` as on a numpy whose LAPACK exports no ``dgbsv``
    or ``dgtsv``: the symbol lookup fails, so scipy's routines run."""
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    monkeypatch.setattr(solve, "_numpy_lapack", functools.cache(solve._numpy_lapack.__wrapped__))
    assert solve._numpy_lapack() is None


class TestSolveBand:
    @pytest.mark.parametrize("pivot", [False, True])
    @pytest.mark.parametrize("h", [1, 2, 7, 172])
    def test_random_band_is_solve_banded_bit_for_bit(self, h, pivot):
        lapack_band, b = _random_system(h, pivot)
        want = solve_banded((h, h), lapack_band[h:].copy(), b.copy())
        assert np.array_equal(_solve_band(lapack_band, b), want)

    @pytest.mark.parametrize("pivot", [False, True])
    @pytest.mark.parametrize("h", [1, 2, 7, 172])
    def test_scipy_fallback_gives_the_same_bits(self, monkeypatch, h, pivot):
        lapack_band, b = _random_system(h, pivot)
        want = _solve_band(lapack_band.copy("F"), b.copy())
        _fail_lookup(monkeypatch)
        assert np.array_equal(_solve_band(lapack_band, b), want)

    @pytest.mark.parametrize("h", [1, 7])
    def test_mismatched_rhs_raises(self, h):
        lapack_band, b = _random_system(h, pivot=False)
        with pytest.raises(ValueError, match="shapes"):
            _solve_band(lapack_band, b[:-1])

    @pytest.mark.parametrize("lookup", ["numpy", "scipy"])
    @pytest.mark.parametrize("h", [1, 7])
    def test_singular_random_band_raises(self, monkeypatch, lookup, h):
        lapack_band, b = _random_system(h, pivot=True)
        lapack_band[:, 40] = 0.0  # a zero column
        if lookup == "scipy":
            _fail_lookup(monkeypatch)
        with pytest.raises(LinAlgError, match="^singular matrix$"):
            _solve_band(lapack_band, b)

    @pytest.mark.parametrize("where", ["band", "rhs"])
    @pytest.mark.parametrize("lookup", ["numpy", "scipy"])
    @pytest.mark.parametrize("h", [1, 7])
    def test_non_finite_random_band_raises(self, monkeypatch, h, lookup, where):
        lapack_band, b = _random_system(h, pivot=True)
        (lapack_band[2 * h] if where == "band" else b)[7] = np.nan
        if lookup == "scipy":
            _fail_lookup(monkeypatch)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_band(lapack_band, b)

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("motion", sorted(MOTIONS))
    def test_is_solve_banded_bit_for_bit(self, motion, law):
        lapack_band, f = _newton_system(motion, law)
        h = (lapack_band.shape[0] - 1) // 3
        assert lapack_band.flags.f_contiguous and not lapack_band[:h].any()
        # the immobile and Brownian at-parent bands are tridiagonal
        assert (h == 1) == (motion in ("constant", "brownian") and law != "binary_one_displaced")
        want = solve_banded((h, h), lapack_band[h:].copy(), f.copy())
        assert np.array_equal(_solve_band(lapack_band, f), want)

    @pytest.mark.parametrize("motion", ["brownian", "pure_jump"])
    def test_singular_band_raises(self, motion):
        lapack_band, f = _newton_system(motion, "binary_at_parent")
        lapack_band[:, 40] = 0.0  # a zero column
        with pytest.raises(LinAlgError):
            _solve_band(lapack_band, f)

    @pytest.mark.parametrize("where", ["band", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("motion", ["brownian", "pure_jump"])
    def test_non_finite_input_raises_before_the_solve(self, motion, bad, where):
        lapack_band, f = _newton_system(motion, "binary_at_parent")
        h = (lapack_band.shape[0] - 1) // 3
        (lapack_band[2 * h] if where == "band" else f)[7] = bad
        before = lapack_band.copy(), f.copy()
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_band(lapack_band, f)
        # neither array was factored or solved in place
        assert np.array_equal(lapack_band, before[0], equal_nan=True)
        assert np.array_equal(f, before[1], equal_nan=True)


class TestTrackFront:
    def test_snapshots_kept_without_crossing(self, jump_gaussian_binary, caplog):
        grid = Grid(-24.0, 24.0, 512)
        with caplog.at_level(logging.WARNING, logger="kpplab.solve"):
            _, trace, snaps = track_front(
                jump_gaussian_binary, Field.constant(grid, 1.0), 1.0, 0.1, 0.5,
                snapshot_times=(0.5, 1.0),
            )
        assert sorted(snaps) == [0.5, 1.0]
        assert snaps[1.0].t == pytest.approx(1.0)
        assert np.max(np.abs(snaps[1.0].values - 1.0)) < 1e-9
        assert trace.t.size == 0
        (record,) = [r for r in caplog.records if r.name == "kpplab.solve"]
        assert "2 of 2 record times" in record.getMessage()

    @pytest.mark.parametrize(
        "t_end,dt,interval",
        [
            (1.0, -1.0, 0.5),
            (1.0, 0.0, 0.5),
            (1.0, 0.1, 0.0),
            (1.0, 0.1, -0.5),
            (1.0, 0.1, math.nan),
            (1.2, 0.1, 0.5),
            (0.2, 0.1, 0.5),
            (-1.0, 0.1, 0.5),
        ],
    )
    def test_time_arguments_rejected(self, jump_gaussian_binary, t_end, dt, interval):
        # an interval of -0.5 recorded nothing, and a span that is not a whole
        # number of intervals was rounded: 1.2 stopped at 1.0, 0.2 at 0.0
        with pytest.raises(DomainError):
            track_front(jump_gaussian_binary, Field.heaviside(Grid(-8.0, 8.0, 64)), t_end, dt, interval)

    @pytest.mark.parametrize(
        "times", [(0.7,), (3.0,), (-1.0,), (0.0,), (0.7, 3.0), (0.5, math.nan), (math.inf,)]
    )
    def test_snapshot_times_off_the_records_rejected(self, jump_gaussian_binary, times):
        # records fall at 0.5 and 1.0 only: any other time has no field to keep
        with pytest.raises(DomainError):
            track_front(
                jump_gaussian_binary, Field.heaviside(Grid(-8.0, 8.0, 64)), 1.0, 0.1, 0.5,
                snapshot_times=times,
            )

    def test_snapshot_times_are_record_times_up_to_rounding(self, jump_gaussian_binary):
        # a record time off by 1e-10 of a long interval is still that record
        field = Field.heaviside(Grid(-8.0, 8.0, 64))
        late = 100.0 + 1e-8
        final, _, snaps = track_front(
            jump_gaussian_binary, field, 200.0, 0.1, 100.0, snapshot_times=(200.0, late)
        )
        assert sorted(snaps) == [late, 200.0]
        assert snaps[late].t == 100.0
        assert np.array_equal(snaps[200.0].values, final.values)

    def test_benchmark_front_keeps_every_record(self, jump_gaussian_binary):
        # u = 1 is unstable: the front survives only while the transform's
        # round-off at u = 1 rounds away, which the exact FFT arithmetic keeps
        f = Field.heaviside(Grid(-40.0, 139.0, 8192))
        _, trace, _ = track_front(jump_gaussian_binary, f, 60.0, 0.1, 0.5)
        assert trace.t.size == 120


    def test_jump_diffusion_front_speed(self):
        # criterion 09's 2% tolerance, for Brownian motion plus gaussian jumps
        model = BranchingModel(MOTIONS["jump_diffusion"], LAWS["binary_at_parent"])
        speed = minimal_speed(model)
        grid = Grid(-40.0, 160.0, 1024)
        dt = _Stepper(model, grid).stability_bound()
        _, trace, _ = track_front(model, Field.heaviside(grid), 40.0, dt, 0.5)
        assert trace.t.size == 80
        fit = measure_front(trace, speed.lambda_star, (10.0, 40.0))
        assert abs(fit.c_est - speed.c_star) <= 0.02 * speed.c_star


def test_limits_move_as_constant_states(immobile_offspring, jump_gaussian_binary):
    # left limit from 0: P[extinct by t] of the law {0: 0.2, 2: 0.8}; right stays 1
    grid = Grid(-8.0, 8.0, 64)
    field = Field.heaviside(grid)
    final, _, snaps = track_front(immobile_offspring, field, 1.0, 0.05, 0.5, snapshot_times=(0.5,))
    for t, out in (
        (0.05, pde_step(immobile_offspring, field, 0.05)),
        (1.0, evolve(immobile_offspring, field, 1.0, 0.05)),
        (1.0, final),
        (0.5, snaps[0.5]),
    ):
        assert out.t == pytest.approx(t)
        assert out.left_limit == pytest.approx(binary_death_extinction(0.2, t), abs=1e-8)
        assert out.right_limit == 1.0
    # a binary law keeps 0 and 1 exactly
    out = evolve(jump_gaussian_binary, field, 1.0, 0.05)
    assert (out.left_limit, out.right_limit) == (0.0, 1.0)


def test_convergence_order_on_logistic(immobile_binary):
    # halving both mesh sizes cuts the closed-form error by far more than 3x
    errors = []
    for dt in (2e-2, 1e-2):
        u = evolve(immobile_binary, Field.constant(small_grid(), 0.5), 1.0, dt)
        errors.append(abs(u.values[0] - logistic_decay(0.5, 1.0)))
    assert errors[0] / errors[1] > 3.0


@pytest.mark.parametrize(
    "x_min,x_max", [(-math.inf, 8.0), (-8.0, math.inf), (math.nan, 8.0), (-8.0, math.nan), (-1e308, 1e308)]
)
def test_grid_needs_finite_ends_and_spacing(x_min, x_max):
    with pytest.raises(DomainError):
        Grid(x_min, x_max, 64)


@pytest.mark.parametrize(
    "value,limits",
    [(math.nan, (0.0, 1.0)), (-math.inf, (0.0, 1.0)), (0.5, (math.nan, 1.0)), (0.5, (0.0, math.inf))],
)
def test_field_values_and_limits_must_be_finite(value, limits):
    values = np.full(64, 0.5)
    values[10] = value
    with pytest.raises(DomainError):
        Field(Grid(-8.0, 8.0, 64), values, 0.0, *limits)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_field_time_must_be_finite(t):
    with pytest.raises(DomainError, match="t = "):
        Field(Grid(-8.0, 8.0, 64), np.zeros(64), t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_step_value_is_a_step_size_error(bad):
    values = np.full(8, 0.5)
    values[3] = bad
    with pytest.raises(StepSizeError):
        _check_range(values)
