"""Speed and moment analysis of a branching model.

All quantities derive from the growth transform ``psi`` of the model: the
finiteness edge ``lambda0``, the minimizer ``lambda_star`` of the speed
functional ``psi(lam)/lam`` with minimal speed ``c_star``, and the second-moment
values used to certify the limit-law hypotheses.

``psi`` is convex, so ``s(lam) = lam psi'(lam) - psi(lam)`` (the numerator of
the derivative of ``psi(lam)/lam``) is increasing and ``lambda_star`` is its one
root: one bracketed root solve finds it, with ``psi'`` exact to rounding from
one evaluation of ``psi`` a complex step off the real axis (Squire & Trapp,
SIAM Rev. 40, 1998).  The second moment solves its linear ODE in closed form.
The test suite also checks the convexity of ``psi(lam)/lam`` on a grid.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    BoundaryInfimumError,
    DomainError,
    NoFiniteTransformError,
    NoMinimizerError,
)
from .kernels import INF
from .model import BranchingModel, _brentq, log_laplace

#: relative tolerance of the derivative consistency check ``c* = psi'(l*)``
DERIVATIVE_MATCH_RTOL = 1e-6
#: least relative gap the speed search keeps below a finite edge ``lambda0``
EDGE_GAP = 1e-4
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


def minimal_speed(model: BranchingModel) -> SpeedProfile:
    """Minimize the speed functional ``psi(lam)/lam`` over ``(0, lambda0)``.

    The minimizer is the root of the increasing stationarity function
    ``lam psi'(lam) - psi(lam)``, solved to machine precision; ``psi'``, also
    reported at the root, is a complex step.

    Raises ``NoMinimizerError`` when the infimum is only approached as
    ``lam -> inf`` and ``BoundaryInfimumError`` when it is only approached at
    the finiteness edge.
    """
    psi0 = log_laplace(model, 0.0)
    if not 0.0 < psi0 < INF:
        raise DomainError(f"transform at zero is {psi0}, expected in (0, inf)")
    lam0 = abscissa(model)
    lam_star = _minimize_speed(lambda l: log_laplace(model, l), lam0)
    c_star = float(log_laplace(model, lam_star)) / lam_star
    dpsi = _psi_prime(lambda l: log_laplace(model, l), lam_star)
    if lam0 == INF:
        delta = 1.0
    else:
        delta = min(1.0, 0.5 * (lam0 - lam_star))
    return SpeedProfile(lam0, lam_star, c_star, dpsi, delta)


def second_moment_w(model: BranchingModel, lam: float, mu: float, t: float) -> float:
    """Second cross moment ``E[(sum e^{-lam y})(sum e^{-mu y})]`` at the origin.

    The spatially homogeneous ansatz reduces the linear second-moment
    equation to a scalar linear ODE driven by the squared first moments,
    solved in closed form (``exprel`` keeps it exact when the rates agree).
    Returns the ``inf`` sentinel when any of the needed transforms diverges
    (in particular when ``lam + mu`` reaches the finiteness edge); a NaN
    ``lam`` or ``mu`` raises ``DomainError``.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError("time must be finite and nonnegative")
    if math.isnan(lam) or math.isnan(mu):
        raise DomainError(f"lam = {lam!r} and mu = {mu!r} must not be NaN")
    psi_l = log_laplace(model, lam)
    psi_m = log_laplace(model, mu)
    psi_lm = log_laplace(model, lam + mu)
    if INF in (psi_l, psi_m, psi_lm):
        return INF
    src = _pair_source(model, lam, mu)
    return float(math.exp(psi_lm * t) * (1.0 + src * t * _exprel((psi_l + psi_m - psi_lm) * t)))


def _exprel(x: float) -> float:
    """``(e^x - 1)/x``, with its limit 1 at 0: ``scipy.special.exprel``, bit
    for bit.  Past ``log(DBL_MAX)`` ``e^x - 1`` overflows, and the value is
    ``inf``."""
    if abs(x) < sys.float_info.epsilon:
        return 1.0
    if x > 717.0:  # scipy's cut, which also sends x = inf to inf
        return INF
    try:
        return math.expm1(x) / x
    except OverflowError:
        return INF


def _pair_source(model: BranchingModel, lam: float, mu: float) -> float:
    """Cross-term coefficient of one branching event in the second moment.

    Derived from the branching law: expected sum over ordered child pairs of
    ``exp(-lam d_i - mu d_j)`` with ``i != j`` and displacements ``d`` relative
    to the parent: ``E N (N - 1)`` for an at-parent law, which is 2 for the
    binary one, and ``L(lam) + L(mu)`` for the displaced law.
    """
    law = model.law
    if law.displacement is None:
        return law.factorial_moment()
    return law.displacement.laplace(lam) + law.displacement.laplace(mu)


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


# -- internals ---------------------------------------------------------------


def _psi_prime(psi, lam: float) -> float:
    """``Im psi(lam + i h) / h``: a complex step subtracts nothing, so ``h``
    may lie far below rounding and the derivative is exact to rounding."""
    h = 1e-100
    return float(psi(complex(lam, h)).imag) / h


def _minimize_speed(psi, lam0: float) -> float:
    """Root of ``s(l) = l psi'(l) - psi(l)``, increasing when ``psi`` is convex.

    ``psi`` must accept a complex argument (``psi'`` is a complex step).
    ``s(0) = -psi(0) < 0`` for a supercritical ``psi``, so the bracket is
    ``[0, lambda0 (1 - EDGE_GAP)]`` when the edge is finite; otherwise its
    upper end doubles from 1 until ``s`` turns positive.
    """
    def s(l):
        return l * _psi_prime(psi, l) - psi(l)

    if lam0 < INF:
        hi = lam0 * (1.0 - EDGE_GAP)
        if s(hi) <= 0.0:
            raise BoundaryInfimumError("speed functional decreases into the finiteness edge")
    else:
        hi = 1.0
        while s(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e7:
                raise NoMinimizerError(
                    "speed functional keeps decreasing; no interior minimizer"
                )
    return _brentq(s, 0.0, hi, xtol=sys.float_info.min)
