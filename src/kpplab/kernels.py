"""Probability kernels on the real line.

A kernel is a probability density used either as the jump distribution of a
pure-jump motion or as the displacement distribution of a newborn particle.
Four families are supported: ``gaussian``, ``two_sided_exponential``,
``uniform`` and ``tabulated``.  Divergent exponential moments are reported
through the explicit sentinel ``math.inf``; the sentinel is produced by a
finiteness decision, never by floating-point overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidKernelError, config_pointer, expect, read_number, read_numbers

INF = math.inf

_MASS_TOL = 1e-9
#: lattice weights below this total tail mass are dropped when discretizing
TAIL_MASS = 1e-12
#: ``erfcinv(TAIL_MASS)``: a standard Gaussian carries ``TAIL_MASS`` beyond
#: ``sqrt(2)`` times this
_GAUSSIAN_TAIL = 5.042029745639059

GAUSSIAN = "gaussian"
TWO_SIDED_EXPONENTIAL = "two_sided_exponential"
UNIFORM = "uniform"
TABULATED = "tabulated"

KERNEL_FAMILIES = (GAUSSIAN, TWO_SIDED_EXPONENTIAL, UNIFORM, TABULATED)
#: the key of each parametric family's ``param`` in a kernel description
PARAM_KEYS = {GAUSSIAN: "sigma", TWO_SIDED_EXPONENTIAL: "beta", UNIFORM: "radius"}


@dataclass(frozen=True, eq=False)
class Kernel:
    """Unit-mass probability density on the real line.

    ``param`` is the family parameter: the standard deviation for
    ``gaussian``, the decay rate for ``two_sided_exponential``, the half-width
    for ``uniform``.  Tabulated kernels carry their sample points instead and
    are treated as zero outside the tabulated range.
    """

    family: str
    param: float = 0.0
    x: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InvalidKernelError(f"unknown kernel family {self.family!r}")
        if self.family == TABULATED:
            if self.x is None or self.values is None:
                raise InvalidKernelError("tabulated kernel needs x and values")
            x = np.asarray(self.x, dtype=float)
            v = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "values", v)
            if x.ndim != 1 or v.shape != x.shape or x.size < 2:
                raise InvalidKernelError("tabulated kernel needs matching 1-d grids")
            if not np.all(np.diff(x) > 0):
                raise InvalidKernelError("tabulated grid must be strictly increasing")
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise InvalidKernelError("tabulated density must be finite and nonnegative")
            mass = np.trapezoid(v, x)
            if abs(mass - 1.0) > _MASS_TOL:
                raise InvalidKernelError(f"tabulated density has mass {mass!r}, expected 1")
            segments = 0.5 * (v[1:] + v[:-1]) * np.diff(x)
            cdf = np.concatenate([[0.0], np.cumsum(segments)])
            object.__setattr__(self, "cdf", cdf / cdf[-1])
        else:
            if not (np.isfinite(self.param) and self.param > 0):
                raise InvalidKernelError(f"{self.family} parameter must be positive")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "Kernel":
        return Kernel(GAUSSIAN, float(sigma))

    @staticmethod
    def two_sided_exponential(beta: float) -> "Kernel":
        return Kernel(TWO_SIDED_EXPONENTIAL, float(beta))

    @staticmethod
    def uniform(radius: float) -> "Kernel":
        return Kernel(UNIFORM, float(radius))

    @staticmethod
    def tabulated(x, values) -> "Kernel":
        return Kernel(TABULATED, 0.0, np.asarray(x, float), np.asarray(values, float))

    # -- evaluation ---------------------------------------------------------

    def density(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self.family == GAUSSIAN:
            s = self.param
            return np.exp(-0.5 * (xs / s) ** 2) / (s * math.sqrt(2 * math.pi))
        if self.family == TWO_SIDED_EXPONENTIAL:
            b = self.param
            return 0.5 * b * np.exp(-b * np.abs(xs))
        if self.family == UNIFORM:
            r = self.param
            return np.where(np.abs(xs) <= r, 0.5 / r, 0.0)
        return np.interp(xs, self.x, self.values, left=0.0, right=0.0)

    def laplace(self, lam):
        """Exponential moment ``int density(x) exp(-lam x) dx``, for real or
        complex ``lam`` (the speed search differentiates it by a complex step).

        Returns the ``inf`` sentinel where the integral diverges.  Tabulated
        kernels are supported on a bounded range, so their transform is
        finite for every argument (a documented limitation of tabulation);
        ``exp(-lam x)`` is taken only where the density is positive, so a
        zero-density point contributes 0 even where the exponential
        overflows.
        """
        if self.family == GAUSSIAN:
            return np.exp(0.5 * (self.param * lam) ** 2)
        if self.family == TWO_SIDED_EXPONENTIAL:
            b = self.param
            if abs(lam) >= b:
                return INF
            return b * b / (b * b - lam * lam)
        if self.family == UNIFORM:
            r = self.param
            if lam == 0.0:
                return 1.0
            return np.sinh(r * lam) / (r * lam)
        weights = np.zeros(self.x.shape, dtype=np.result_type(lam, float))
        np.exp(-lam * self.x, out=weights, where=self.values > 0.0)
        return np.trapezoid(self.values * weights, self.x)

    def laplace_abscissa(self) -> float:
        """Supremum of ``s`` with a finite transform on ``[0, s)``."""
        if self.family == TWO_SIDED_EXPONENTIAL:
            return self.param
        return INF

    def truncation_radius(self) -> float:
        """Radius outside which the density carries less than ``TAIL_MASS``."""
        if self.family == GAUSSIAN:
            # 2*Phi(-r/sigma) <= TAIL_MASS; generous analytic bound
            return self.param * math.sqrt(2.0) * _GAUSSIAN_TAIL
        if self.family == TWO_SIDED_EXPONENTIAL:
            return -math.log(TAIL_MASS) / self.param
        if self.family == UNIFORM:
            return self.param
        return float(max(abs(self.x[0]), abs(self.x[-1])))

    # -- discretization -----------------------------------------------------

    def lattice_weights(self, dx: float) -> np.ndarray:
        """Symmetric quadrature weights ``w_j ~ density(j dx) dx``.

        The vector has odd length ``2K+1`` covering ``[-K dx, K dx]`` with
        ``K = ceil(radius/dx)``.  Weights are renormalized to unit total mass
        so that convolving a constant field reproduces the constant exactly;
        the raw trapezoid mass error (up to ~1e-4 for kinked densities) would
        otherwise leak into every stationarity check.
        """
        radius = self.truncation_radius()
        k = max(1, int(math.ceil(radius / dx)))
        offsets = np.arange(-k, k + 1) * dx
        w = self.density(offsets) * dx
        total = w.sum()
        if total <= 0:
            raise InvalidKernelError("kernel discretizes to zero mass at this dx")
        return w / total

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        if self.family == TABULATED:
            return {"family": TABULATED, "x": self.x.tolist(), "density": self.values.tolist()}
        return {"family": self.family, PARAM_KEYS[self.family]: self.param}

    @staticmethod
    def from_dict(d, pointer: str = "") -> "Kernel":
        """Build a kernel from its description; raises ``ConfigError`` at the
        JSON pointer, below ``pointer``, of the first malformed value."""
        expect(isinstance(d, dict), pointer, "expected a kernel object")
        family = d.get("family")
        if family == TABULATED:
            x = read_numbers(d.get("x"), f"{pointer}/x")
            density = read_numbers(d.get("density"), f"{pointer}/density")
            with config_pointer(pointer):
                return Kernel.tabulated(x, density)
        expect(family in PARAM_KEYS, f"{pointer}/family", f"expected one of {KERNEL_FAMILIES}")
        key = PARAM_KEYS[family]
        param = read_number(d.get(key), f"{pointer}/{key}")
        with config_pointer(f"{pointer}/{key}"):
            return Kernel(family, param)

