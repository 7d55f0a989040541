"""Estimation of limiting objects and cross-representation comparisons.

The recentered law of the left-most particle and the minimal-speed wave
profile are two views of the same limit.  This module estimates the profile
three ways (from the derivative-martingale limit, from recentered empirical
minima, and from the deterministic front) and compares them after fitting
the one free translation, since the limit theorems fix every constant only
up to an additive shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import AlignmentError, DomainError, InsufficientHorizonError
from .kernels import INF
from .model import BranchingModel, log_laplace
from .simulate import MartingaleTrace, MinimumSample, empirical_minima, empirical_v
from .solve import Field, Grid, evolve
from . import solve as _solve

#: bootstrap resamplings behind the martingale profile's standard errors
N_BOOT = 1000


@dataclass(frozen=True)
class ProfileEstimate:
    """A monotone profile on a grid with optional pointwise standard errors."""

    x: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None
    source: str

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        if self.stderr is not None:
            object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float))
        if self.source in ("martingale-mc", "empirical-cdf"):
            if np.any(np.diff(values) < -1e-9):
                raise DomainError(f"{self.source} profile must be nondecreasing")


@dataclass(frozen=True)
class DInfinityEnsemble:
    """Per-replica derivative-martingale values at a fixed generation.

    ``cauchy_gap`` is the largest change between the used generation and its
    half, a convergence diagnostic rather than a bound: no convergence rate
    is available, so the gap is reported instead of extrapolated away.
    """

    samples: np.ndarray
    n_used: int
    cauchy_gap: float


@dataclass(frozen=True)
class ComparisonResult:
    sup_dist: float
    x: np.ndarray
    pde_values: np.ndarray
    mc_values: np.ndarray
    mc_stderr: np.ndarray


@dataclass(frozen=True)
class SamplingRow:
    k: int
    t: float
    estimate: float
    stderr: float
    target: float
    passed: bool


@dataclass(frozen=True)
class SamplingReport:
    rows: list[SamplingRow]
    target: float

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def estimate_d_infinity(traces: list[MartingaleTrace], n_used: int) -> DInfinityEnsemble:
    """Derivative-martingale samples at generation ``n_used``, floored at zero.

    Individual martingale values can be transiently negative; the almost-sure
    limit is nonnegative, so the flooring happens here at estimation time and
    never inside the recorded traces.
    """
    samples = np.empty(len(traces))
    gap = 0.0
    half = n_used // 2
    for i, tr in enumerate(traces):
        lookup = {int(n): j for j, n in enumerate(tr.n)}
        if n_used not in lookup or half not in lookup:
            raise InsufficientHorizonError(
                f"trace {tr.replica} does not reach generation {n_used}"
            )
        d_n = float(tr.d[lookup[n_used]])
        gap = max(gap, abs(d_n - float(tr.d[lookup[half]])))
        samples[i] = max(0.0, d_n)
    return DInfinityEnsemble(samples, n_used, gap)


def phi_from_martingale(
    d: DInfinityEnsemble,
    lambda_star: float,
    x_grid: np.ndarray,
    rng: np.random.Generator | int = 0,
) -> ProfileEstimate:
    """Wave profile ``phi(x) = E exp(-exp(-lambda_star x) D)`` from samples.

    Standard errors come from a multinomial bootstrap, ``N_BOOT`` resamplings
    over the replica dimension.
    """
    if d.samples.size == 0:
        raise DomainError("need at least one martingale sample")
    rng = np.random.default_rng(rng)
    x = np.asarray(x_grid, dtype=float)
    n = d.samples.size
    with np.errstate(over="ignore"):
        weights = np.exp(-lambda_star * x)
        mat = np.exp(-weights[:, None] * d.samples[None, :])
    values = mat.mean(axis=1)
    boot = np.empty((N_BOOT, x.size))
    chunk = 100
    p = np.full(n, 1.0 / n)
    for lo in range(0, N_BOOT, chunk):
        hi = min(lo + chunk, N_BOOT)
        counts = rng.multinomial(n, p, size=hi - lo).astype(float)
        boot[lo:hi] = counts @ mat.T / n
    stderr = boot.std(axis=0, ddof=1)
    return ProfileEstimate(x, values, stderr, "martingale-mc")


def recentered_cdf(
    samples: list[MinimumSample],
    t: float,
    lambda_star: float,
    c_star: float,
    x_grid: np.ndarray,
) -> ProfileEstimate:
    """Empirical profile of the recentered minimum.

    Evaluates the fraction of replicas with ``M_t + c t - (3 / 2 lambda) ln t
    >= -x``; extinct replicas carry ``M_t = inf`` and satisfy the event for
    every ``x``.  The additive constant of the limit law is left to the
    alignment step.
    """
    if t <= 0:
        raise DomainError("recentering needs t > 0")
    sel = [s.m for s in samples if abs(s.t - t) < 1e-9]
    if not sel:
        raise DomainError(f"no samples at t = {t}")
    m = np.asarray(sel, dtype=float)
    recentered = m + c_star * t - 1.5 / lambda_star * math.log(t)
    x = np.asarray(x_grid, dtype=float)
    frac, stderr = _survival_fraction(recentered, x)
    return ProfileEstimate(x, frac, stderr, "empirical-cdf")


def _survival_fraction(values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of ``values`` at or above ``-x`` at each ``x``, with its binomial
    standard error; an ``inf`` value counts at every ``x``."""
    frac = np.searchsorted(np.sort(-values), x, side="right") / values.size
    return frac, np.sqrt(frac * (1.0 - frac) / values.size)


def align_shift(p: ProfileEstimate, q: ProfileEstimate) -> tuple[float, float]:
    """Translation of ``q`` best matching ``p`` in sup distance.

    Minimizes ``sup_x |p(x) - q(x + s)|`` over the shift ``s``: a 257-point
    scan over every shift at which the profiles overlap, then a bounded Brent
    search between the best scan point's neighbours.  For a monotone ``q``
    each ``|p(x) - q(x + s)|`` is quasiconvex in ``s``, so their sup is
    unimodal and the search finds its minimum.  Positive ``s`` means ``q`` is
    ``p`` translated right.
    """
    pv, qv = p.values, q.values
    if min(pv.max(), qv.max()) < max(pv.min(), qv.min()):
        raise AlignmentError("profiles have no overlapping value range")

    def dist(s: float) -> float:
        interp = np.interp(p.x + s, q.x, qv, left=qv[0], right=qv[-1])
        return float(np.max(np.abs(pv - interp)))

    scan = np.linspace(q.x[0] - p.x[-1], q.x[-1] - p.x[0], 257)
    i = int(np.argmin([dist(s) for s in scan]))
    a, b = scan[max(i - 1, 0)], scan[min(i + 1, scan.size - 1)]
    xatol = 1e-10 * max(1.0, abs(a) + abs(b))
    best = minimize_scalar(dist, bounds=(a, b), method="bounded", options={"xatol": xatol}).x
    return float(best), dist(best)


def u_vs_mc(
    model: BranchingModel,
    t: float,
    grid: Grid,
    replicas: int,
    rng: np.random.Generator | int = 0,
    dt: float = 0.05,
) -> ComparisonResult:
    """Direct check of the identity between the front solution and minima.

    Solves the strong form from step initial data to time ``t`` and compares
    with the Monte Carlo estimate of ``P[M_t >= -x]`` on the same grid.
    """
    field = evolve(model, Field.heaviside(grid), t, dt)
    minima = empirical_minima(model, t, replicas, rng)
    frac, stderr = _survival_fraction(minima, grid.xs)
    sup = float(np.max(np.abs(field.values - frac)))
    return ComparisonResult(sup, grid.xs, field.values, frac, stderr)


def sampling_consistency(
    model: BranchingModel,
    k_list,
    lam: float,
    replicas: int = 10_000,
    rng: np.random.Generator | int = 0,
) -> SamplingReport:
    """Check the dyadic sampling identity ``2**k psi_k = psi`` by simulation.

    For each depth ``k`` the transform of the ``2**-k``-sampled walk is
    estimated from the population at ``t = 2**-k`` and scaled back; the check
    passes within three standard errors.  ``k_list`` may be any iterable; an
    empty one is rejected rather than reported as a vacuous pass.
    """
    k_list = list(k_list)
    if not k_list:
        raise DomainError("need at least one sampling depth")
    psi = log_laplace(model, lam)
    if psi == INF:
        raise DomainError("transform divergent at this argument")
    base = np.random.default_rng(rng)
    streams = base.spawn(len(k_list))
    rows = []
    for k, stream in zip(k_list, streams):
        t = 2.0 ** (-k)
        mean, se = empirical_v(model, lam, t, replicas, stream)
        est = (1 << k) * math.log(mean)
        se_est = (1 << k) * se / mean
        rows.append(SamplingRow(k, t, est, se_est, psi, abs(est - psi) <= 3.0 * se_est))
    return SamplingReport(rows, psi)


def pde_profile(field: Field) -> ProfileEstimate:
    """Recenter a front field by its level crossing into profile coordinates."""
    pos = _solve.front_position(field)
    return ProfileEstimate(field.grid.xs - pos, field.values, None, "pde-front")
