"""Speed and moment analysis of a branching model.

All quantities derive from the growth transform ``psi`` of the model: the
finiteness edge ``lambda0``, the minimizer ``lambda_star`` of the speed
functional ``psi(lam)/lam`` with minimal speed ``c_star``, the second-moment
values used to certify the limit-law hypotheses, and the per-sampling scaling
``psi / 2**k`` of the transform under dyadic time sampling.

``psi(lam)/lam`` is strictly convex for the supported model catalogue, which
justifies unimodal golden-section search; convexity is additionally verified
numerically by the test suite on a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    BoundaryInfimumError,
    DomainError,
    NoFiniteTransformError,
    NoMinimizerError,
)
from .kernels import INF
from .model import (
    BINARY_ONE_DISPLACED,
    OFFSPRING_AT_PARENT,
    BranchingModel,
    log_laplace,
)

#: relative tolerance of the derivative consistency check ``c* = psi'(l*)``
DERIVATIVE_MATCH_RTOL = 1e-6
#: the hypotheses an ``AssumptionReport`` gives a verdict on, in order
VERDICTS = ("supercritical", "transform_finite", "speed_attained", "moment_bounds", "non_lattice")


@dataclass(frozen=True)
class SpeedProfile:
    """Finiteness edge, speed minimizer, and the moment-check witness."""

    lambda0: float
    lambda_star: float
    c_star: float
    psi_prime_at_star: float
    delta: float

    def to_dict(self) -> dict:
        return {
            "lambda0": None if self.lambda0 == INF else self.lambda0,
            "lambda_star": self.lambda_star,
            "c_star": self.c_star,
            "psi_prime_at_star": self.psi_prime_at_star,
            "delta": self.delta,
        }


@dataclass(frozen=True)
class Verdict:
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail verdicts for the hypotheses behind the limit law.

    ``supercritical``: the transform is positive and finite at zero.
    ``transform_finite``: the transform is finite somewhere on (0, inf).
    ``speed_attained``: the speed functional has an interior minimizer.
    ``moment_bounds``: second moments are finite and the derivative matches
    the speed at the minimizer.
    """

    supercritical: Verdict
    transform_finite: Verdict
    speed_attained: Verdict
    moment_bounds: Verdict
    non_lattice: Verdict
    w_values: tuple[float, float, float] | None = None
    speed: SpeedProfile | None = None

    def all_passed(self) -> bool:
        return all(getattr(self, name).passed for name in VERDICTS)

    def to_dict(self) -> dict:
        d = {name: getattr(self, name).to_dict() for name in VERDICTS}
        d["w_values"] = list(self.w_values) if self.w_values else None
        d["speed"] = self.speed.to_dict() if self.speed else None
        d["all_passed"] = self.all_passed()
        return d


def abscissa(model: BranchingModel) -> float:
    """Finiteness edge of the growth transform.

    Analytic for the named kernel families.  Tabulated kernels live on a
    bounded range, so their transform never diverges and they contribute an
    unbounded edge (a documented limitation of tabulation).
    """
    edges = [k.laplace_abscissa() for k in model.transform_kernels()]
    lam0 = min(edges) if edges else INF
    if lam0 <= 0:
        raise NoFiniteTransformError("transform is infinite for every positive argument")
    return lam0


def minimal_speed(model: BranchingModel, tol: float = 1e-9) -> SpeedProfile:
    """Minimize the speed functional ``psi(lam)/lam`` over ``(0, lambda0)``.

    Golden-section search locates the minimizer, then bisection on the
    stationarity function ``lam psi'(lam) - psi(lam)`` (strictly increasing
    under convexity) polishes it well past ``tol`` relative accuracy.

    Raises ``NoMinimizerError`` when the infimum is only approached as
    ``lam -> inf`` and ``BoundaryInfimumError`` when it is only approached at
    the finiteness edge.
    """
    psi0 = log_laplace(model, 0.0)
    if not 0.0 < psi0 < INF:
        raise DomainError(f"transform at zero is {psi0!r}, expected in (0, inf)")
    lam0 = abscissa(model)
    lam_star = _minimize_speed(lambda l: log_laplace(model, l), lam0, tol)
    c_star = log_laplace(model, lam_star) / lam_star
    dpsi = _psi_prime(lambda l: log_laplace(model, l), lam_star)
    if lam0 == INF:
        delta = 1.0
    else:
        delta = min(1.0, 0.5 * (lam0 - lam_star))
    return SpeedProfile(lam0, lam_star, c_star, dpsi, delta)


def second_moment_w(model: BranchingModel, lam: float, mu: float, t: float) -> float:
    """Second cross moment ``E[(sum e^{-lam y})(sum e^{-mu y})]`` at the origin.

    The spatially homogeneous ansatz reduces the linear second-moment
    equation to a scalar ODE driven by the squared first moments; it is
    integrated with adaptive Runge-Kutta at relative tolerance 1e-10.
    Returns the ``inf`` sentinel when any of the needed transforms diverges
    (in particular when ``lam + mu`` reaches the finiteness edge).
    """
    if t < 0:
        raise DomainError("time must be nonnegative")
    psi_l = log_laplace(model, lam)
    psi_m = log_laplace(model, mu)
    psi_lm = log_laplace(model, lam + mu)
    if INF in (psi_l, psi_m, psi_lm):
        return INF
    if t == 0:
        return 1.0
    src = _pair_source(model, lam, mu)
    if src == INF:
        return INF

    def rhs(s, w):
        return psi_lm * w + src * math.exp(s * (psi_l + psi_m))

    sol = solve_ivp(rhs, (0.0, t), [1.0], method="RK45", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise DomainError(f"second-moment integration failed: {sol.message}")
    return float(sol.y[0, -1])


def _pair_source(model: BranchingModel, lam: float, mu: float) -> float:
    """Cross-term coefficient of one branching event in the second moment.

    Derived from the branching law: expected sum over ordered child pairs of
    ``exp(-lam d_i - mu d_j)`` with ``i != j`` and displacements ``d`` relative
    to the parent.  Equals 2 for both binary laws at coincident points.
    """
    law = model.law
    if law.kind == OFFSPRING_AT_PARENT:
        return law.factorial_moment()
    if law.kind == BINARY_ONE_DISPLACED:
        bl = law.displacement.laplace(lam)
        bm = law.displacement.laplace(mu)
        if INF in (bl, bm):
            return INF
        return bl + bm
    return 2.0


def check_assumptions(model: BranchingModel) -> AssumptionReport:
    """Evaluate every hypothesis of the limit law, reporting verdicts.

    Failures are verdicts, not exceptions.  The second-moment check uses the
    witness ``delta`` from the speed profile and evaluates the three moment
    values at time one.
    """
    psi0 = log_laplace(model, 0.0)
    a1 = Verdict(0.0 < psi0 < INF, f"psi(0) = {psi0}")

    try:
        lam0 = abscissa(model)
        probe = 1.0 if lam0 == INF else 0.5 * lam0
        finite_at = log_laplace(model, probe)
        a2 = Verdict(finite_at < INF, f"psi({probe}) = {finite_at}, lambda0 = {lam0}")
    except NoFiniteTransformError as exc:
        lam0 = None
        a2 = Verdict(False, str(exc))

    speed = None
    if a1.passed and a2.passed:
        try:
            speed = minimal_speed(model)
            a3 = Verdict(
                True,
                f"lambda_star = {speed.lambda_star:.12g}, c_star = {speed.c_star:.12g}",
            )
        except (NoMinimizerError, BoundaryInfimumError, DomainError) as exc:
            a3 = Verdict(False, str(exc))
    else:
        a3 = Verdict(False, "speed minimization needs the transform checks to pass")

    w_values = None
    if speed is not None:
        ls, d = speed.lambda_star, speed.delta
        w_values = (
            second_moment_w(model, 0.0, 0.0, 1.0),
            second_moment_w(model, 0.0, ls, 1.0),
            second_moment_w(model, d, ls, 1.0),
        )
        strict_gap = speed.lambda_star < speed.lambda0
        deriv_ok = abs(speed.psi_prime_at_star - speed.c_star) <= DERIVATIVE_MATCH_RTOL * speed.c_star
        finite = all(w < INF for w in w_values)
        a4 = Verdict(
            strict_gap and deriv_ok and finite,
            f"w = {w_values}, |psi' - c| = {abs(speed.psi_prime_at_star - speed.c_star):.3g}, "
            f"delta = {d:.6g}",
        )
    else:
        a4 = Verdict(False, "moment bounds need a minimal-speed profile")

    non_lattice = Verdict(
        not model.is_lattice,
        "population at integer times is supported on a point lattice"
        if model.is_lattice
        else "offspring spread off any arithmetic lattice",
    )
    return AssumptionReport(a1, a2, a3, a4, non_lattice, w_values, speed)


def psi_per_sampling(model: BranchingModel, k: int, lam: float) -> float:
    """Growth transform of the ``2**-k``-sampled walk: ``psi(lam) / 2**k``."""
    if k < 0 or int(k) != k:
        raise DomainError("sampling depth must be a nonnegative integer")
    psi = log_laplace(model, lam)
    if psi == INF:
        return INF
    return psi / (1 << int(k))


# -- internals ---------------------------------------------------------------


def _psi_prime(psi, lam: float) -> float:
    h = 1e-6 * max(1.0, abs(lam))
    return (psi(lam + h) - psi(lam - h)) / (2.0 * h)


def _minimize_speed(psi, lam0: float, tol: float) -> float:
    guess = lam0 if lam0 < INF else 1.0
    eps = 1e-4 * max(1.0, guess)

    def g(l):
        v = psi(l)
        return INF if v == INF else v / l

    if lam0 < INF:
        lo, hi = eps, lam0 - eps
        if hi <= lo:
            raise DomainError("finiteness interval too narrow to search")
        grid = np.linspace(lo, hi, 256)
        vals = np.array([g(l) for l in grid])
        i = int(np.argmin(vals))
        if i == len(grid) - 1:
            raise BoundaryInfimumError(
                "speed functional decreases into the finiteness edge"
            )
        a = grid[max(i - 1, 0)]
        c = grid[min(i + 1, len(grid) - 1)]
    else:
        lo = eps
        a, b = lo, 1.0
        gb = g(b)
        c = 2.0
        gc = g(c)
        expansions = 0
        while gc < gb:
            a, b, gb = b, c, gc
            c *= 2.0
            gc = g(c)
            expansions += 1
            if c > 1e7:
                raise NoMinimizerError(
                    "speed functional keeps decreasing; no interior minimizer"
                )
        if expansions == 0 and g(lo) < gb:
            # minimum may hide between lo and 1
            grid = np.geomspace(lo, c, 128)
            vals = np.array([g(l) for l in grid])
            i = int(np.argmin(vals))
            if i == 0:
                raise NoMinimizerError("speed functional minimized at the origin edge")
            a, c = grid[i - 1], grid[min(i + 1, len(grid) - 1)]

    lam = _golden_section(g, a, c, tol)
    return _polish_stationary(psi, lam, a, c)


def _golden_section(g, a: float, c: float, tol: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    b1 = c - phi * (c - a)
    b2 = a + phi * (c - a)
    f1, f2 = g(b1), g(b2)
    target = max(tol, 1e-12) * max(1.0, abs(c))
    while c - a > target:
        if f1 <= f2:
            c, b2, f2 = b2, b1, f1
            b1 = c - phi * (c - a)
            f1 = g(b1)
        else:
            a, b1, f1 = b1, b2, f2
            b2 = a + phi * (c - a)
            f2 = g(b2)
    return 0.5 * (a + c)


def _polish_stationary(psi, lam: float, lo: float, hi: float) -> float:
    """Bisection on ``s(l) = l psi'(l) - psi(l)``, increasing under convexity."""

    def s(l):
        return l * _psi_prime(psi, l) - psi(l)

    width = 1e-4 * max(1.0, lam)
    a = max(lo, lam - width)
    b = min(hi, lam + width)
    sa, sb = s(a), s(b)
    if not (sa < 0.0 < sb):
        return lam
    for _ in range(100):
        m = 0.5 * (a + b)
        sm = s(m)
        if sm < 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-13 * max(1.0, m):
            break
    return 0.5 * (a + b)
