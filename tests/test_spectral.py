import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

import kpplab.spectral

from kpplab import (
    INF,
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    abscissa,
    check_assumptions,
    log_laplace,
    minimal_speed,
    second_moment_w,
)
from kpplab.errors import BoundaryInfimumError, DomainError, KppLabError, NoMinimizerError
from kpplab.model import _brentq
from kpplab.spectral import _exprel, _minimize_speed

from helpers import LAWS, MOTIONS, golden_min, w_closed_form


class TestAbscissa:
    def test_gaussian_jump_unbounded(self, jump_gaussian_binary):
        assert abscissa(jump_gaussian_binary) == INF
        # finite transform at probe points; the largest verified by tilting
        for lam in (1.0, 10.0):
            assert log_laplace(jump_gaussian_binary, lam) < INF
        from scipy.integrate import quad

        tilted, _ = quad(
            lambda x: Kernel.gaussian(1.0).density(x + 50.0), -90.0, -10.0
        )
        assert tilted == pytest.approx(1.0, abs=1e-9)  # exp(-50 x) a(x) = e^{1250} phi(x+50)

    def test_two_sided_exponential_pole(self, jump_exponential_binary):
        got = abscissa(jump_exponential_binary)
        assert got == 2.0
        # bisection oracle on finiteness of the closed-form transform
        lo, hi = 0.5, 8.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if log_laplace(jump_exponential_binary, mid) < INF:
                lo = mid
            else:
                hi = mid
        assert got == pytest.approx(lo, abs=1e-6)

    def test_brownian_polynomial_unbounded(self, brownian_binary):
        assert abscissa(brownian_binary) == INF

    def test_displaced_law_contributes(self):
        model = BranchingModel(
            Motion.brownian(),
            BranchingLaw.binary_one_displaced(Kernel.two_sided_exponential(3.0)),
        )
        assert abscissa(model) == 3.0


class TestMinimalSpeed:
    def test_brownian_offspring(self, brownian_binary):
        sp = minimal_speed(brownian_binary)
        assert sp.c_star == pytest.approx(math.sqrt(2.0), rel=1e-10)
        # the speed functional's own minimizer, not the quadratic-form shortcut
        oracle = golden_min(lambda l: l / 2.0 + 1.0 / l, 0.1, 8.0)
        assert sp.lambda_star == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert sp.lambda_star == pytest.approx(oracle, rel=1e-7)

    def test_gaussian_jump(self, jump_gaussian_binary):
        sp = minimal_speed(jump_gaussian_binary)
        assert sp.lambda_star == pytest.approx(1.0, rel=1e-9)
        assert sp.c_star == pytest.approx(math.exp(0.5), rel=1e-10)
        oracle = golden_min(lambda l: math.exp(l * l / 2.0) / l, 0.1, 8.0)
        assert sp.lambda_star == pytest.approx(oracle, rel=1e-7)

    def test_two_sided_exponential(self, jump_exponential_binary):
        sp = minimal_speed(jump_exponential_binary)
        assert sp.lambda_star == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)
        assert sp.c_star == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-10)
        oracle = golden_min(lambda l: 4.0 / (l * (4.0 - l * l)), 0.05, 1.95)
        assert sp.lambda_star == pytest.approx(oracle, rel=1e-7)
        assert sp.delta == pytest.approx(0.5 * (2.0 - 2.0 / math.sqrt(3.0)))

    def test_speed_equals_derivative_at_minimizer(self, jump_exponential_binary):
        sp = minimal_speed(jump_exponential_binary)
        assert sp.psi_prime_at_star == pytest.approx(sp.c_star, rel=1e-14)

    def test_constant_transform_has_no_minimizer(self, immobile_offspring):
        with pytest.raises(NoMinimizerError):
            minimal_speed(immobile_offspring)

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.floats(0.2, 5.0), m=st.floats(1.0 + 1e-10, 4.0))
    def test_closed_forms(self, sigma, m):
        # gaussian jumps x binary: psi = exp(sigma^2 l^2 / 2), so l* = 1/sigma
        # and c* = sigma sqrt(e).  Brownian x mean m: psi = l^2/2 + m - 1, so
        # l* = c* = sqrt(2 (m - 1)).  The complex-step psi' is exact to
        # rounding, so l* holds to 1e-12 however near 1 the mean is; m - 1 is
        # taken as the law's net gain, free of the cancellation in mean() - 1.
        gauss = minimal_speed(
            BranchingModel(Motion.pure_jump(Kernel.gaussian(sigma)), BranchingLaw.binary_at_parent())
        )
        assert gauss.lambda_star == pytest.approx(1.0 / sigma, rel=1e-12)
        assert gauss.c_star == pytest.approx(sigma * math.sqrt(math.e), rel=1e-12)
        a = (m - 1.0) / 4.0
        law = BranchingLaw.offspring_at_parent({1: 1.0 - a, 5: a})
        bbm = minimal_speed(BranchingModel(Motion.brownian(), law))
        root = math.sqrt(2.0 * float((law.counts - 1) @ law.probs))
        assert bbm.lambda_star == pytest.approx(root, rel=1e-12)
        assert bbm.c_star == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("d", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
    def test_near_critical_brownian(self, d):
        # Brownian x {1: 1 - d, 2: d}: psi = l^2/2 + d, so l* = c* = sqrt(2 d).
        # The net gain d enters psi without a cancelling "+ 1 - 1".
        law = BranchingLaw.offspring_at_parent({1: 1.0 - d, 2: d})
        sp = minimal_speed(BranchingModel(Motion.brownian(), law))
        assert sp.lambda_star == pytest.approx(math.sqrt(2.0 * d), rel=1e-9)
        assert sp.c_star == pytest.approx(math.sqrt(2.0 * d), rel=1e-9)

    def test_narrow_finiteness_interval(self):
        # Brownian x displaced two-sided exponential, beta = 0.005: psi =
        # l^2/2 + b^2/(b^2 - l^2) is finite only on (0, 0.005).  The root of
        # l psi'(l) - psi(l), to 22 digits by mpmath:
        root = 0.0028867486730289784513
        law = BranchingLaw.binary_one_displaced(Kernel.two_sided_exponential(0.005))
        sp = minimal_speed(BranchingModel(Motion.brownian(), law))
        assert sp.lambda_star == pytest.approx(root, rel=1e-13)
        assert sp.psi_prime_at_star == pytest.approx(sp.c_star, rel=1e-14)

    def test_boundary_infimum_detected(self):
        # synthetic transform finite on (0, 2) whose speed ratio keeps falling;
        # psi receives a complex argument from the complex-step derivative
        with pytest.raises(BoundaryInfimumError):
            _minimize_speed(lambda l: 0.1 + 0.05 * l if l.real < 2.0 else INF, 2.0)


class TestSecondMoment:
    def test_initial_value(self, jump_gaussian_binary):
        assert second_moment_w(jump_gaussian_binary, 0.3, 0.1, 0.0) == 1.0

    def test_pair_count_second_moment(self, jump_gaussian_binary):
        # lam = mu = 0 counts ordered pairs: E N_t^2 = 2 e^{2t} - e^t
        got = second_moment_w(jump_gaussian_binary, 0.0, 0.0, 1.0)
        assert got == pytest.approx(2.0 * math.e**2 - math.e, rel=1e-14)
        assert got == pytest.approx(w_closed_form(1.0, 1.0, 1.0, 2.0, 1.0), rel=1e-14)

    def test_matches_closed_form_at_generic_arguments(self, jump_gaussian_binary):
        lam, mu = 0.7, 0.2
        psi = lambda l: log_laplace(jump_gaussian_binary, l)
        got = second_moment_w(jump_gaussian_binary, lam, mu, 1.0)
        want = w_closed_form(psi(lam + mu), psi(lam), psi(mu), 2.0, 1.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_displaced_law_source_matches_closed_form(self):
        model = BranchingModel(
            Motion.constant(),
            BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0)),
        )
        lam, mu = 0.5, 0.25
        b = Kernel.gaussian(1.0)
        psi = lambda l: log_laplace(model, l)
        src = b.laplace(lam) + b.laplace(mu)
        got = second_moment_w(model, lam, mu, 1.0)
        assert got == pytest.approx(w_closed_form(psi(lam + mu), psi(lam), psi(mu), src, 1.0), rel=1e-8)

    def test_divergence_sentinel(self, jump_exponential_binary):
        assert second_moment_w(jump_exponential_binary, 1.5, 1.0, 1.0) == INF

    def test_supermultiplicative_in_time(self, jump_gaussian_binary, brownian_binary):
        for model in (jump_gaussian_binary, brownian_binary):
            lam = mu = 0.4
            psi_pair = log_laplace(model, lam + mu)
            w_full = second_moment_w(model, lam, mu, 1.0)
            for s in (0.25, 0.5, 0.75):
                w_s = second_moment_w(model, lam, mu, s)
                assert w_full >= w_s * math.exp((1.0 - s) * psi_pair) - 1e-8


class TestAssumptions:
    def test_gaussian_jump_all_pass(self, jump_gaussian_binary):
        report = check_assumptions(jump_gaussian_binary)
        assert report.all_passed()
        assert report.speed.delta == 1.0
        assert all(w < INF for w in report.w_values)

    def test_two_sided_exponential_all_pass(self, jump_exponential_binary):
        report = check_assumptions(jump_exponential_binary)
        assert report.all_passed()
        assert report.speed.delta == pytest.approx(0.5 * (2.0 - 2.0 / math.sqrt(3.0)))

    def test_immobile_offspring_fails_lattice_and_speed(self, immobile_offspring):
        report = check_assumptions(immobile_offspring)
        assert report.supercritical.passed
        assert report.transform_finite.passed
        assert not report.speed_attained.passed
        assert not report.moment_bounds.passed
        assert not report.non_lattice.passed
        assert not report.all_passed()

    def test_report_serializes(self, jump_gaussian_binary):
        d = check_assumptions(jump_gaussian_binary).to_dict()
        assert d["all_passed"] is True
        assert set(d) >= {"supercritical", "non_lattice", "w_values", "speed"}


def test_speed_ratio_convexity_and_optimality_grid():
    models = [
        BranchingModel(Motion.pure_jump(Kernel.gaussian(1.0)), BranchingLaw.binary_at_parent()),
        BranchingModel(
            Motion.pure_jump(Kernel.two_sided_exponential(2.0)), BranchingLaw.binary_at_parent()
        ),
        BranchingModel(Motion.brownian(), BranchingLaw.offspring_at_parent({2: 1.0})),
        BranchingModel(Motion.constant(), BranchingLaw.offspring_at_parent({2: 1.0})),
        BranchingModel(
            Motion.brownian(), BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
        ),
    ]
    for model in models:
        lam_hi = min(abscissa(model), 8.0)
        grid = np.linspace(0.05 * lam_hi, 0.95 * lam_hi, 50)
        h = grid[1] - grid[0]
        g = np.array([log_laplace(model, l) / l for l in grid])
        second = g[:-2] - 2.0 * g[1:-1] + g[2:]
        assert np.all(second > 0.0), model.label
        try:
            sp = minimal_speed(model)
        except NoMinimizerError:
            continue
        assert np.all(sp.c_star <= g + 1e-9)


# -- bit for bit against scipy -------------------------------------------------


def _speed_with(solver, model, monkeypatch):
    """``minimal_speed`` with ``solver`` in place of the Brent port: the
    profile, or the error's type and text, and the number of ``psi``
    evaluations."""
    evals = []
    psi = kpplab.spectral.log_laplace

    def counted(m, lam):
        evals.append(lam)
        return psi(m, lam)

    monkeypatch.setattr(kpplab.spectral, "log_laplace", counted)
    monkeypatch.setattr(kpplab.spectral, "_brentq", solver)
    try:
        result = minimal_speed(model)
    except KppLabError as exc:
        result = (type(exc), str(exc))
    return result, len(evals)


def _assert_speed_is_scipys(model, monkeypatch):
    ours, scipys = (_speed_with(s, model, monkeypatch) for s in (_brentq, optimize.brentq))
    assert ours == scipys  # lambda*, c*, psi'(lambda*) and the psi count, to the bit
    return ours


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("motion", sorted(MOTIONS))
def test_minimal_speed_is_scipys_bit_for_bit(motion, law, monkeypatch):
    _assert_speed_is_scipys(BranchingModel(MOTIONS[motion], LAWS[law]), monkeypatch)


@pytest.mark.parametrize("d", [1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_near_critical_speed_is_scipys_bit_for_bit(d, monkeypatch):
    law = BranchingLaw.offspring_at_parent({1: 1.0 - d, 2: d})
    (speed, evals) = _assert_speed_is_scipys(BranchingModel(Motion.brownian(), law), monkeypatch)
    assert speed.lambda_star > 0.0 and evals > 0


_EPS = sys.float_info.epsilon
EXPREL_POINTS = [
    0.0,
    -0.0,
    *(s * v for s in (1.0, -1.0) for v in (np.nextafter(_EPS, 0.0), _EPS, np.nextafter(_EPS, 1.0))),
    709.78,
    709.79,  # expm1 overflows between these two
    717.0,
    718.0,  # scipy's cut
    -745.0,
    1e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
]


@pytest.mark.parametrize("x", EXPREL_POINTS)
def test_exprel_is_scipys_bit_for_bit(x):
    assert _exprel(float(x)).hex() == float(special.exprel(x)).hex()


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_second_moment_needs_a_finite_time(jump_gaussian_binary, t):
    with pytest.raises(DomainError):
        second_moment_w(jump_gaussian_binary, 0.5, 0.5, t)
