import math

import numpy as np
import pytest

from kpplab import (
    INF,
    BranchingLaw,
    BranchingModel,
    Kernel,
    Motion,
    log_laplace,
    model_from_dict,
    sample_motion,
    sample_offspring,
)
from kpplab.errors import ConfigError, DomainError

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
    assert sample_offspring(law, 3.2, rng).tolist() == [3.2, 3.2]


def test_sample_offspring_certain_death():
    rng = np.random.default_rng(0)
    law = BranchingLaw.offspring_at_parent({0: 1.0})
    for _ in range(10):
        assert sample_offspring(law, 0.0, rng).size == 0


def test_sample_offspring_displaced_statistics():
    rng = np.random.default_rng(42)
    law = BranchingLaw.binary_one_displaced(Kernel.gaussian(1.0))
    n = 100_000
    firsts = np.empty(n)
    seconds = np.empty(n)
    from kpplab.model import sample_offspring_batch

    children, litter = sample_offspring_batch(law, np.zeros(n), rng)
    assert np.all(litter == 2)
    firsts = children[0::2]
    seconds = children[1::2]
    assert np.all(firsts == 0.0)
    assert abs(seconds.mean()) <= 4.0 / math.sqrt(n)
    assert seconds.var() == pytest.approx(1.0, rel=0.05)


def test_sample_motion_constant_and_trivial():
    rng = np.random.default_rng(0)
    assert sample_motion(Motion.constant(), 5.0, rng) == 0.0
    assert sample_motion(Motion.brownian(), 0.0, rng) == 0.0
    with pytest.raises(DomainError):
        sample_motion(Motion.brownian(), -1.0, rng)


def test_sample_motion_compound_poisson_variance():
    # one unit of time at rate 1: Var = E[N] Var[J] = integral x^2 a(x) dx = 1
    rng = np.random.default_rng(7)
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    from kpplab.model import sample_displacements

    draws = sample_displacements(motion, np.ones(100_000), rng)
    gauss = Kernel.gaussian(1.0)
    expected = quad_laplace(lambda x: x * x * gauss.density(x), 0.0)
    assert draws.var() == pytest.approx(expected, rel=0.05)


def test_sampling_is_deterministic_in_rng_state():
    law = BranchingLaw.offspring_at_parent({0: 0.3, 1: 0.2, 2: 0.5})
    motion = Motion.pure_jump(Kernel.gaussian(1.0))
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    for _ in range(5):
        assert sample_offspring(law, 1.0, a).tolist() == sample_offspring(law, 1.0, b).tolist()
        assert sample_motion(motion, 2.0, a) == sample_motion(motion, 2.0, b)


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
