import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

import kpplab.model

from kpplab import (
    INF,
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    Population,
    RunConfig,
    advance,
    log_laplace,
    model_from_dict,
)
from kpplab._engine import POISSON_INVERSION_LIMIT
from kpplab.errors import ConfigError, DomainError
from kpplab.model import BRENT_MAX_ITER, _brentq

from helpers import quad_laplace
import reference_engine as ref


def _all_catalogue_models():
    motions = {
        "constant": Motion.constant(),
        "jump": Motion.pure_jump(Kernel.gaussian(1.0)),
        "brownian": Motion.brownian(),
    }
    laws = {
        "binary": BranchingLaw.binary_at_parent(),
        "offspring": BranchingLaw.offspring_at_parent({2: 0.6, 3: 0.4}),
        "displaced": BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0)),
    }
    return [
        BranchingModel(m, l, label=f"{mk}+{lk}")
        for mk, m in motions.items()
        for lk, l in laws.items()
    ]


def test_transform_brownian_offspring_closed_form(brownian_binary):
    # lam**2/2 + (sum n p_n - 1) at lam = 1 with p2 = 1
    assert log_laplace(brownian_binary, 1.0) == pytest.approx(1.5, rel=1e-12)


def test_transform_jump_binary_equals_kernel_moment(jump_gaussian_binary):
    kernel = jump_gaussian_binary.motion.kernel
    for lam in (0.0, 0.7, 2.5):
        assert log_laplace(jump_gaussian_binary, lam) == pytest.approx(
            kernel.laplace(lam), rel=1e-12
        )
    assert log_laplace(jump_gaussian_binary, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_transform_jump_displaced_quadrature_oracle():
    model = BranchingModel(
        Motion.pure_jump(Kernel.gaussian(1.0)),
        BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0)),
    )
    gauss = Kernel.gaussian(1.0)
    oracle = (
        quad_laplace(lambda x: gauss.density(x), 1.0)
        + quad_laplace(lambda x: gauss.density(x), 1.0)
        - 1.0
    )
    got = log_laplace(model, 1.0)
    assert got == pytest.approx(2.0 * math.exp(0.5) - 1.0, rel=1e-12)
    assert got == pytest.approx(oracle, rel=1e-9)


def test_transform_divergence_sentinel():
    model = BranchingModel(
        Motion.pure_jump(Kernel.two_sided_exponential(2.0)),
        BranchingLaw.binary_at_parent(),
    )
    assert log_laplace(model, 2.0) == INF
    assert log_laplace(model, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_transform_at_zero_is_positive_for_supercritical_catalogue():
    for model in _all_catalogue_models():
        psi0 = log_laplace(model, 0.0)
        m = model.law.mean()
        if model.motion.kernel is not None:
            expected = model.motion.kernel.laplace(0.0) + (m - 2.0)
        else:
            expected = m - 1.0
        assert psi0 == pytest.approx(expected, rel=1e-12), model.label
        assert psi0 > 0.0


def test_offspring_mean():
    assert BranchingLaw.binary_at_parent().mean() == 2.0
    assert BranchingLaw.offspring_at_parent({0: 0.2, 2: 0.8}).mean() == pytest.approx(1.6)
    assert BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0)).mean() == 2.0


def test_extinction_probability_critical_law_is_one():
    assert BranchingLaw.offspring_at_parent({0: 0.5, 2: 0.5}).extinction_probability() == 1.0


def test_extinction_probability_smallest_fixed_point():
    # smallest root of 0.2 + 0.8 q^2 = q
    q = BranchingLaw.offspring_at_parent({0: 0.2, 2: 0.8}).extinction_probability()
    assert q == pytest.approx(0.25, abs=1e-12)


def test_extinction_probability_without_death_is_zero():
    assert BranchingLaw.offspring_at_parent({1: 0.4, 3: 0.6}).extinction_probability() == 0.0


# -- the Brent root finder, against scipy.optimize.brentq ------------------------

def _recording(solver, calls):
    """``solver``, ``_brentq`` or ``scipy.optimize.brentq``, appending each
    point where it evaluates ``f`` to ``calls``."""

    def solve(f, a, b, xtol):
        def recorded(x):
            calls.append(x)
            return f(x)

        return solver(recorded, a, b, xtol=xtol)

    return solve


def _outcome(solver, f, a, b, xtol):
    """The root, or the exception's type and text, with every point where
    ``f`` was evaluated."""
    calls = []
    try:
        result = _recording(solver, calls)(f, a, b, xtol)
    except (ValueError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    return result, calls


#: increasing shapes with their root at 0; ``step`` leaves only bisection
MONOTONE = {
    "linear": lambda u: u,
    "cubic": lambda u: u**3,
    "cube_root": lambda u: math.copysign(abs(u) ** (1.0 / 3.0), u),
    "tanh": math.tanh,
    "expm1": math.expm1,
    "step": lambda u: -1.0 if u < 0.0 else 1.0,
}


@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from(sorted(MONOTONE)),
    a=st.floats(-10.0, 10.0),
    width=st.floats(1e-9, 20.0),
    at=st.floats(0.0, 1.0),
    log_scale=st.floats(-330.0, 300.0),
    sign=st.sampled_from([-1.0, 1.0]),
    xtol=st.sampled_from([1e-3, 2e-12, 1e-15, sys.float_info.min]),
)
def test_brentq_is_scipy_bit_for_bit(shape, a, width, at, log_scale, sign, xtol):
    # scales down to underflow reach the sign tests with zero and subnormal
    # values, and a root off the bracket the no-sign-change error
    b = a + width
    root = a + at * 1.2 * width
    scale = sign * 10.0**log_scale

    def f(x):
        return scale * MONOTONE[shape](x - root)

    assert _outcome(_brentq, f, a, b, xtol) == _outcome(optimize.brentq, f, a, b, xtol)


class TestBrentqErrors:
    """Each error of ``scipy.optimize.brentq``, with its type and text."""

    def _same_error(self, f, a, b, xtol, kind):
        (ours, calls), (scipys, scipy_calls) = (
            _outcome(solver, f, a, b, xtol) for solver in (_brentq, optimize.brentq)
        )
        assert ours == scipys
        assert ours[0] is kind
        assert calls == scipy_calls
        return calls

    def test_bracket_without_a_sign_change(self):
        self._same_error(lambda x: x * x + 1.0, -1.0, 1.0, 2e-12, ValueError)

    def test_nan_value(self):
        # NaN at b, and NaN at an iterate inside the bracket
        self._same_error(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 2e-12, ValueError)
        calls = self._same_error(
            lambda x: math.nan if 0.3 < x < 0.9 else x - 0.7, 0.0, 1.0, 2e-12, ValueError
        )
        assert len(calls) > 2

    def test_no_convergence(self):
        # a jump at 1e-300 takes about a thousand bisections to resolve
        calls = self._same_error(
            lambda x: -1.0 if x < 1e-300 else 1.0, 0.0, 1.0, sys.float_info.min, RuntimeError
        )
        assert len(calls) == 2 + BRENT_MAX_ITER


#: supercritical laws with death: each has an extinction root in (0, 1)
DEATH_LAWS = [
    {0: 0.1, 1: 0.2, 3: 0.7},
    {0: 0.2, 2: 0.8},
    {0: 0.45, 1: 0.1, 2: 0.05, 5: 0.4},
    {0: 0.49, 2: 0.51},
    {0: 1e-9, 1: 0.5, 2: 0.5 - 1e-9},
    {0: 0.3, 7: 0.7},
]


@pytest.mark.parametrize("probs", DEATH_LAWS, ids=str)
def test_extinction_probability_is_scipy_bit_for_bit(probs, monkeypatch):
    law = BranchingLaw.offspring_at_parent(probs)
    runs = []
    for solver in (_brentq, optimize.brentq):
        calls = []
        monkeypatch.setattr(kpplab.model, "_brentq", _recording(solver, calls))
        runs.append((law.extinction_probability(), calls))
    assert runs[0] == runs[1]
    assert 0.0 < runs[0][0] < 1.0


def test_offspring_probability_validation():
    with pytest.raises(DomainError):
        BranchingLaw.offspring_at_parent({2: 1.2})
    with pytest.raises(DomainError):
        BranchingLaw.offspring_at_parent({1: 0.7, 2: 0.7})


def _fixed_litter_segment(law, parents, t_end, seed):
    """A segment from t = 0 under constant motion and a one-point law, and
    the same segment replayed on its waits alone, each branching lifeline
    replaced by ``law.litter`` children at its parent.  Returns both
    populations at ``t_end`` and whether the two streams end in one state:
    the segment then drew nothing but its waits."""
    model = BranchingModel(Motion.constant(), law)
    rng, waits = np.random.default_rng(seed), np.random.default_rng(seed)
    got = advance(Population(parents), t_end, model, None, rng).positions
    pos, t, want = parents, np.zeros(parents.size), []
    while pos.size:
        t = t + waits.standard_exponential(t.size)
        want.append(pos[t >= t_end])
        pos, t = np.repeat(pos[t < t_end], law.litter), np.repeat(t[t < t_end], law.litter)
    return got, np.concatenate(want), rng.bit_generator.state == waits.bit_generator.state


def test_sample_offspring_binary_at_parent():
    got, want, waits_only = _fixed_litter_segment(
        BranchingLaw.binary_at_parent(), np.array([3.2]), 1.0, 0
    )
    assert np.array_equal(got, want) and waits_only
    assert got.size > 1 and np.all(got == 3.2)


def test_one_point_count_law_draws_nothing():
    parents = np.array([1.0, -2.0])
    for probs, n in (({2: 1.0}, 2), ({0: 1.0}, 0), ({3: 1.0}, 3)):
        law = BranchingLaw.offspring_at_parent(probs)
        assert law.litter == n and law.cdf is None
        got, want, waits_only = _fixed_litter_segment(law, parents, 1.0, 5)
        assert np.array_equal(got, want) and waits_only
    u = np.random.default_rng(1).random(1000)
    assert np.array_equal(BranchingLaw.binary_at_parent().generating_function(u), u * u)


def test_binary_at_parent_is_the_binary_count_law():
    spelled = BranchingLaw.offspring_at_parent({2: 1.0})
    assert spelled.to_dict() == BranchingLaw.binary_at_parent().to_dict()
    assert spelled.to_dict() == {"family": "binary_at_parent"}
    with pytest.raises(DomainError):  # only the binary law has a displaced child
        BranchingLaw(((0, 0.2), (2, 0.8)), Kernel.gaussian(1.0))


def test_sample_offspring_certain_death():
    # ten lifelines, each gone at its first event: only those that wait
    # past t_end remain
    law = BranchingLaw.offspring_at_parent({0: 1.0})
    got, want, waits_only = _fixed_litter_segment(law, np.zeros(10), 1.0, 0)
    assert np.array_equal(got, want) and waits_only
    assert got.size == np.count_nonzero(np.random.default_rng(0).standard_exponential(10) >= 1.0)


def test_sample_offspring_displaced_statistics():
    rng = np.random.default_rng(42)
    law = BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
    n = 100_000
    children, litter = ref.litters(law, np.zeros(n), rng)
    assert np.all(litter == 2)
    firsts = children[0::2]
    seconds = children[1::2]
    assert np.all(firsts == 0.0)
    assert abs(seconds.mean()) <= 4.0 / math.sqrt(n)
    assert seconds.var() == pytest.approx(1.0, rel=0.05)


def _lifelines(motion, n, d, rng):
    """Positions at time ``d`` of ``n`` particles started at 0 under the
    one-child law.  A lifeline is then one particle of the motion, so by
    independent increments these are ``n`` draws of the motion's law at
    ``d``, in the segment's finishing order."""
    model = BranchingModel(motion, BranchingLaw.offspring_at_parent({1: 1.0}))
    cfg = RunConfig(0.0, max_particles=n)
    return advance(Population(np.zeros(n)), d, model, cfg, rng).positions


def test_sample_motion_constant_and_trivial():
    rng = np.random.default_rng(0)
    assert _lifelines(Motion.constant(), 1, 5.0, rng).tolist() == [0.0]
    assert _lifelines(Motion.brownian(), 1, 0.0, rng).tolist() == [0.0]
    with pytest.raises(DomainError):
        _lifelines(Motion.brownian(), 1, -1.0, rng)


def test_sample_motion_compound_poisson_variance():
    # one unit of time at rate 1: Var = E[N] Var[J] = integral x^2 a(x) dx = 1
    rng = np.random.default_rng(7)
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    draws = _lifelines(motion, 100_000, 1.0, rng)
    gauss = Kernel.gaussian(1.0)
    expected = quad_laplace(lambda x: x * x * gauss.density(x), 0.0)
    assert draws.var() == pytest.approx(expected, rel=0.05)


#: jumps within 1e-6 of 1, so that a displacement rounds to its jump count
_UNIT_JUMPS = Motion.pure_jump(Kernel.tabulated([1.0 - 1e-6, 1.0 + 1e-6], [5e5, 5e5]))


def _jump_counts(means, rng):
    """Poisson jump counts with the given means, read off the oracle's unit
    jumps.  The counts are drawn before any jump, so they are the counts
    that every jump kernel gets from the same stream."""
    return np.rint(ref.displacements(_UNIT_JUMPS, means, rng)).astype(np.int64)


def test_jump_diffusion_is_the_sum_of_its_parts():
    kernel = Kernel.gaussian(1.0)
    motion = Motion(diffusive=True, kernel=kernel)
    for lam in (0.0, 0.8, 2.0):
        want = Motion.brownian().exponent(lam) + Motion.pure_jump(kernel).exponent(lam)
        assert motion.exponent(lam) == pytest.approx(want, rel=1e-15)
    durations = np.random.default_rng(3).exponential(1.0, 500)
    got = ref.displacements(motion, durations, np.random.default_rng(4))
    rng = np.random.default_rng(4)  # the Brownian draw, then the jumps
    want = ref.displacements(Motion.brownian(), durations, rng)
    want += ref.displacements(Motion.pure_jump(kernel), durations, rng)
    assert np.array_equal(got, want)
    # variance d (1 + E J^2) = 2 d
    draws = _lifelines(motion, 100_000, 1.0, np.random.default_rng(8))
    assert draws.var() == pytest.approx(2.0, rel=0.03)


def test_sampling_is_deterministic_in_rng_state():
    law = BranchingLaw.offspring_at_parent({0: 0.3, 1: 0.2, 2: 0.5})
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    model = BranchingModel(motion, law)
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    one = Population.single(1.0)
    for _ in range(5):
        assert (
            advance(one, 1.0, model, None, a).positions.tolist()
            == advance(one, 1.0, model, None, b).positions.tolist()
        )
        assert _lifelines(motion, 1, 2.0, a) == _lifelines(motion, 1, 2.0, b)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 1.0, 3.0, 9.99, 10.01, 800.0])
def test_poisson_counts_follow_the_pmf(mean):
    n = 20_000
    # the oracle's counts at each mean, and the engine's over a segment of
    # length mean, which are Poisson(mean) by independent increments
    for counts in (
        _jump_counts(np.full(n, mean), np.random.default_rng(2024)),
        np.rint(_lifelines(_UNIT_JUMPS, n, mean, np.random.default_rng(2024))).astype(np.int64),
    ):
        if mean == 0.0:
            assert not counts.any()
            continue
        # chi-square over the support, pooled into bins of expected count >= 20
        k = np.arange(int(mean + 12 * math.sqrt(mean) + 12))
        pmf = stats.poisson.pmf(k, mean)
        edges, acc = [0], 0.0
        for i, p in enumerate(pmf):
            acc += p * n
            if acc >= 20.0:
                edges.append(i + 1)
                acc = 0.0
        edges[-1] = k.size  # the short last bin joins its neighbour
        bins = np.append(edges[:-1], np.inf)
        observed = np.histogram(counts, bins=bins - 0.5)[0]
        expected = n * np.diff(np.append(stats.poisson.cdf(bins[:-1] - 1, mean), 1.0))
        if observed.size == 1:  # mean 1e-3 and below pool to one bin: compare the zero class
            observed = np.array([np.count_nonzero(counts == 0), np.count_nonzero(counts)])
            expected = n * np.array([math.exp(-mean), -math.expm1(-mean)])
        p_value = stats.chisquare(observed, expected).pvalue
        assert p_value > 1e-3, (mean, observed, expected)
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(mean / n)


def test_poisson_means_split_at_the_inversion_limit():
    # entries on either side of the limit in one call keep their own means
    rng = np.random.default_rng(11)
    means = np.tile([0.5, POISSON_INVERSION_LIMIT, 2.0, 800.0], 5000)
    counts = _jump_counts(means, rng)
    for j, mean in enumerate((0.5, POISSON_INVERSION_LIMIT, 2.0, 800.0)):
        got = counts[j::4]
        assert abs(got.mean() - mean) <= 5 * math.sqrt(mean / got.size)


_TRIANGLE_X = np.linspace(-1.0, 1.0, 201)
_KERNELS = {
    "gaussian": Kernel.gaussian(1.3),
    "two_sided_exponential": Kernel.two_sided_exponential(2.0),
    "uniform": Kernel.uniform(1.5),
    "tabulated": Kernel.tabulated(_TRIANGLE_X, 1.0 - np.abs(_TRIANGLE_X)),
}


@pytest.mark.parametrize("family", sorted(_KERNELS))
def test_compound_poisson_moments(family):
    # compound Poisson over d: mean d E J = 0, variance d E J^2, and fourth
    # central moment d E J^4 + 3 (d E J^2)^2 gives the variance estimate's SE
    kernel = _KERNELS[family]
    lo, hi = -kernel.truncation_radius(), kernel.truncation_radius()
    m2 = integrate.quad(lambda x: x**2 * kernel.density(x), lo, hi, limit=200)[0]
    m4 = integrate.quad(lambda x: x**4 * kernel.density(x), lo, hi, limit=200)[0]
    n = 100_000
    rng = np.random.default_rng(31)
    for d in (0.3, 1.0, 3.0):
        draws = _lifelines(Motion.pure_jump(kernel), n, d, rng)
        var = d * m2
        mu4 = d * m4 + 3.0 * var**2
        assert abs(draws.mean()) <= 5.0 * math.sqrt(var / n), (family, d)
        assert abs(draws.var() - var) <= 5.0 * math.sqrt((mu4 - var**2) / n), (family, d)


def test_jump_sums_match_a_loop_over_lifelines():
    motion = Motion.pure_jump(Kernel.two_sided_exponential(1.5))
    durations = np.random.default_rng(3).exponential(1.0, 400)
    durations[::50] = 0.0
    assert durations.max() < POISSON_INVERSION_LIMIT
    got = ref.displacements(motion, durations, np.random.default_rng(9))
    # every mean is inverted, so the owner list is one pass per k, each
    # listing the lifelines with at least k jumps in index order
    counts = _jump_counts(durations, np.random.default_rng(9))
    owners = np.concatenate([np.flatnonzero(counts >= k) for k in range(1, counts.max() + 1)])
    rng = np.random.default_rng(9)
    rng.random(durations.size)  # the inversion's uniforms
    jumps = ref.kernel_sample(motion.kernel, rng, owners.size)
    want = []
    for i in range(durations.size):
        total = 0.0
        for owner, jump in zip(owners, jumps):
            if owner == i:
                total += jump
        want.append(total)
    assert got.tolist() == want
    assert not got[::50].any()
    # a call with no jumps at all still returns float displacements
    none = ref.displacements(motion, np.zeros(3), np.random.default_rng(9))
    assert none.dtype == np.float64 and not none.any()


def test_lattice_flag():
    assert BranchingModel(Motion.constant(), BranchingLaw.binary_at_parent()).is_lattice
    assert BranchingModel(
        Motion.constant(), BranchingLaw.offspring_at_parent({2: 1.0})
    ).is_lattice
    assert not BranchingModel(
        Motion.constant(), BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
    ).is_lattice
    assert not BranchingModel(Motion.brownian(), BranchingLaw.binary_at_parent()).is_lattice
    jump_diffusion = Motion(diffusive=True, kernel=Kernel.gaussian(1.0))
    assert not BranchingModel(jump_diffusion, BranchingLaw.binary_at_parent()).is_lattice


def test_model_json_round_trip():
    motions = [
        Motion.constant(),
        Motion.pure_jump(Kernel.gaussian(1.0)),
        Motion.brownian(),
        Motion(diffusive=True, kernel=Kernel.gaussian(1.0)),  # jump-diffusion
    ]
    laws = [
        BranchingLaw.binary_at_parent(),
        BranchingLaw.offspring_at_parent({2: 0.6, 3: 0.3}),  # death deficit 0.1
        BranchingLaw.binary_one_displaced(Kernel.two_sided_exponential(2.0)),
    ]
    for motion in motions:
        for law in laws:
            model = BranchingModel(motion, law)
            desc = model.to_dict()
            back = model_from_dict(desc)
            assert back.to_dict() == desc
            assert back.motion.diffusive == motion.diffusive
            assert (back.motion.kernel is None) == (motion.kernel is None)
            assert back.law.offspring_probs == law.offspring_probs
            assert (back.law.displacement is None) == (law.displacement is None)
            assert log_laplace(back, 0.5) == log_laplace(model, 0.5)


def test_model_from_dict_rejects_unknown_families():
    with pytest.raises(ConfigError) as err:
        model_from_dict({"motion": {"family": "teleport"}, "law": {"family": "binary_at_parent"}})
    assert err.value.pointer == "/motion/family"
    with pytest.raises(ConfigError) as err:
        model_from_dict({"motion": {"family": "constant"}, "law": {"family": "fission"}})
    assert err.value.pointer == "/law/family"
