import math

import numpy as np
import pytest
from scipy import integrate, stats

from kpplab import (
    INF,
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    log_laplace,
    model_from_dict,
)
from kpplab.errors import ConfigError, DomainError
from kpplab.model import (
    POISSON_INVERSION_LIMIT,
    _displacements,
    _poisson_owners,
    sample_displacements,
    sample_offspring_batch,
)

from helpers import quad_laplace


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
        if model.motion.kind == "pure_jump":
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


def test_offspring_probability_validation():
    with pytest.raises(DomainError):
        BranchingLaw.offspring_at_parent({2: 1.2})
    with pytest.raises(DomainError):
        BranchingLaw.offspring_at_parent({1: 0.7, 2: 0.7})


def test_sample_offspring_binary_at_parent():
    rng = np.random.default_rng(0)
    law = BranchingLaw.binary_at_parent()
    assert sample_offspring_batch(law, np.array([3.2]), rng)[0].tolist() == [3.2, 3.2]


def test_sample_offspring_certain_death():
    rng = np.random.default_rng(0)
    law = BranchingLaw.offspring_at_parent({0: 1.0})
    for _ in range(10):
        assert sample_offspring_batch(law, np.array([0.0]), rng)[0].size == 0


def test_sample_offspring_displaced_statistics():
    rng = np.random.default_rng(42)
    law = BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
    n = 100_000
    children, litter = sample_offspring_batch(law, np.zeros(n), rng)
    assert np.all(litter == 2)
    firsts = children[0::2]
    seconds = children[1::2]
    assert np.all(firsts == 0.0)
    assert abs(seconds.mean()) <= 4.0 / math.sqrt(n)
    assert seconds.var() == pytest.approx(1.0, rel=0.05)


def test_sample_motion_constant_and_trivial():
    rng = np.random.default_rng(0)
    assert sample_displacements(Motion.constant(), np.array([5.0]), rng).tolist() == [0.0]
    assert sample_displacements(Motion.brownian(), np.array([0.0]), rng).tolist() == [0.0]
    with pytest.raises(DomainError):
        sample_displacements(Motion.brownian(), np.array([-1.0]), rng)


def test_sample_motion_compound_poisson_variance():
    # one unit of time at rate 1: Var = E[N] Var[J] = integral x^2 a(x) dx = 1
    rng = np.random.default_rng(7)
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    draws = sample_displacements(motion, np.ones(100_000), rng)
    gauss = Kernel.gaussian(1.0)
    expected = quad_laplace(lambda x: x * x * gauss.density(x), 0.0)
    assert draws.var() == pytest.approx(expected, rel=0.05)


def test_sampling_is_deterministic_in_rng_state():
    law = BranchingLaw.offspring_at_parent({0: 0.3, 1: 0.2, 2: 0.5})
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    one, two = np.array([1.0]), np.array([2.0])
    for _ in range(5):
        assert (
            sample_offspring_batch(law, one, a)[0].tolist()
            == sample_offspring_batch(law, one, b)[0].tolist()
        )
        assert sample_displacements(motion, two, a) == sample_displacements(motion, two, b)


@pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 1.0, 3.0, 9.99, 10.01, 800.0])
def test_poisson_counts_follow_the_pmf(mean):
    n = 20_000
    rng = np.random.default_rng(2024)
    counts = np.bincount(_poisson_owners(np.full(n, mean), rng), minlength=n)
    if mean == 0.0:
        assert not counts.any()
        return
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
    counts = np.bincount(_poisson_owners(means, rng), minlength=means.size)
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
def test_sample_displacements_moments(family):
    # compound Poisson over d: mean d E J = 0, variance d E J^2, and fourth
    # central moment d E J^4 + 3 (d E J^2)^2 gives the variance estimate's SE
    kernel = _KERNELS[family]
    lo, hi = -kernel.truncation_radius(), kernel.truncation_radius()
    m2 = integrate.quad(lambda x: x**2 * kernel.density(x), lo, hi, limit=200)[0]
    m4 = integrate.quad(lambda x: x**4 * kernel.density(x), lo, hi, limit=200)[0]
    n = 100_000
    rng = np.random.default_rng(31)
    for d in (0.3, 1.0, 3.0):
        draws = sample_displacements(Motion.pure_jump(kernel), np.full(n, d), rng)
        var = d * m2
        mu4 = d * m4 + 3.0 * var**2
        assert abs(draws.mean()) <= 5.0 * math.sqrt(var / n), (family, d)
        assert abs(draws.var() - var) <= 5.0 * math.sqrt((mu4 - var**2) / n), (family, d)


def test_jump_sums_match_a_loop_over_lifelines():
    motion = Motion.pure_jump(Kernel.two_sided_exponential(1.5))
    durations = np.random.default_rng(3).exponential(1.0, 400)
    durations[::50] = 0.0
    got = _displacements(motion, durations, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    owners = _poisson_owners(durations, rng)
    jumps = motion.kernel.sample(rng, owners.size)
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
    none = sample_displacements(motion, np.zeros(3), np.random.default_rng(9))
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


def test_model_json_round_trip():
    motions = [Motion.constant(), Motion.pure_jump(Kernel.gaussian(1.0)), Motion.brownian()]
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
            assert back.motion.kind == motion.kind and back.law.kind == law.kind
            assert log_laplace(back, 0.5) == log_laplace(model, 0.5)


def test_model_from_dict_rejects_unknown_families():
    with pytest.raises(ConfigError) as err:
        model_from_dict({"motion": {"family": "teleport"}, "law": {"family": "binary_at_parent"}})
    assert err.value.pointer == "/motion/family"
    with pytest.raises(ConfigError) as err:
        model_from_dict({"motion": {"family": "constant"}, "law": {"family": "fission"}})
    assert err.value.pointer == "/law/family"
