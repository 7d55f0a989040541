import math

import numpy as np
import pytest

from kpplab import INF, Kernel
from kpplab.errors import InvalidKernelError

from helpers import quad_laplace
import reference_engine as ref


def test_gaussian_at_zero_is_unit_mass():
    assert Kernel.gaussian(1.0).laplace(0.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "kernel",
    [
        Kernel.gaussian(0.5),
        Kernel.gaussian(2.0),
        Kernel.two_sided_exponential(1.3),
        Kernel.uniform(0.7),
    ],
)
def test_named_families_have_unit_mass(kernel):
    assert kernel.laplace(0.0) == pytest.approx(1.0, abs=1e-9)
    # trapezoid cross-check limited by the test grid, not the transform
    xs = np.linspace(-50, 50, 20001)
    assert np.trapezoid(kernel.density(xs), xs) == pytest.approx(1.0, abs=1e-5)


def test_two_sided_exponential_transform_matches_quadrature():
    kernel = Kernel.two_sided_exponential(2.0)
    got = kernel.laplace(1.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert got == pytest.approx(quad_laplace(lambda x: kernel.density(x), 1.0), rel=1e-9)


def test_two_sided_exponential_divergence_sentinel():
    kernel = Kernel.two_sided_exponential(2.0)
    assert kernel.laplace(2.0) == INF
    assert kernel.laplace(-2.5) == INF


def test_uniform_transform_matches_quadrature():
    kernel = Kernel.uniform(0.8)
    for lam in (0.0, 0.5, 3.0, -2.0):
        assert kernel.laplace(lam) == pytest.approx(
            quad_laplace(lambda x: kernel.density(x), lam, -1.0, 1.0), rel=1e-9
        )


def test_gaussian_transform_is_exponential_quadratic():
    kernel = Kernel.gaussian(1.0)
    for lam in (0.5, 1.0, 3.0):
        assert kernel.laplace(lam) == pytest.approx(
            quad_laplace(lambda x: kernel.density(x), lam), rel=1e-10
        )


def test_tabulated_kernel_transform_and_limitation():
    xs = np.linspace(-10, 10, 4001)
    dens = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    dens /= np.trapezoid(dens, xs)
    kernel = Kernel.tabulated(xs, dens)
    assert kernel.laplace(0.0) == pytest.approx(1.0, abs=1e-9)
    assert kernel.laplace(1.0) == pytest.approx(math.exp(0.5), rel=1e-4)
    # bounded support: transform stays finite for every argument
    assert kernel.laplace(50.0) < INF
    assert kernel.laplace_abscissa() == INF


@pytest.mark.parametrize(
    "x, dens, message",
    [
        ([0.0, 1.0, 0.5], [0.3, 0.4, 0.3], "increasing"),
        ([0.0, 1.0], [1.0, -1.0], "nonnegative"),
        ([-1.0, 1.0], [2.0, 2.0], "mass"),
    ],
)
def test_malformed_tabulated_kernels_rejected(x, dens, message):
    with pytest.raises(InvalidKernelError, match=message):
        Kernel.tabulated(x, dens)


def test_nonpositive_parameters_rejected():
    with pytest.raises(InvalidKernelError):
        Kernel.gaussian(0.0)
    with pytest.raises(InvalidKernelError):
        Kernel.two_sided_exponential(-1.0)


def test_truncation_radius_captures_tail_mass():
    for kernel in (Kernel.gaussian(1.5), Kernel.two_sided_exponential(0.7), Kernel.uniform(2.0)):
        r = kernel.truncation_radius()
        xs = np.linspace(-r, r, 300001)
        inside = np.trapezoid(kernel.density(xs), xs)
        assert 1.0 - inside < 1e-10


def test_lattice_weights_are_normalized():
    for kernel in (Kernel.gaussian(1.0), Kernel.two_sided_exponential(2.0)):
        w = kernel.lattice_weights(0.05)
        assert w.size % 2 == 1
        assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_sampling_moments_match_quadrature():
    rng = np.random.default_rng(1234)
    kernel = Kernel.two_sided_exponential(2.0)
    draws = ref.kernel_sample(kernel, rng, 200_000)
    var = quad_laplace(lambda x: x * x * kernel.density(x), 0.0)
    assert draws.mean() == pytest.approx(0.0, abs=4 * math.sqrt(var / draws.size))
    assert draws.var() == pytest.approx(var, rel=0.03)


def test_tabulated_sampling_matches_density():
    xs = np.linspace(-4, 4, 2001)
    dens = np.maximum(0.0, 1 - np.abs(xs) / 4)
    dens /= np.trapezoid(dens, xs)
    kernel = Kernel.tabulated(xs, dens)
    rng = np.random.default_rng(99)
    draws = ref.kernel_sample(kernel, rng, 100_000)
    var = quad_laplace(lambda x: x * x * float(kernel.density(x)), 0.0, -4, 4)
    assert draws.mean() == pytest.approx(0.0, abs=4 * math.sqrt(var / draws.size))
    assert draws.var() == pytest.approx(var, rel=0.05)


def test_serialization_round_trip():
    for kernel in (
        Kernel.gaussian(1.2),
        Kernel.two_sided_exponential(0.4),
        Kernel.uniform(3.0),
        Kernel.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
    ):
        back = Kernel.from_dict(kernel.to_dict())
        assert back.family == kernel.family
        assert back.param == kernel.param
        assert back.to_dict() == kernel.to_dict()
        if kernel.family == "tabulated":
            assert np.array_equal(back.x, kernel.x)
            assert np.array_equal(back.values, kernel.values)
