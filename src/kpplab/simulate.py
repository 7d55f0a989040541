"""Event-driven simulation of branching particle populations.

Each particle carries an exponential rate-one branching clock and moves
according to the model's motion law between events; at a branching event the
particle is replaced by a litter drawn from the branching law.  Exponential
clocks are memoryless, so lifelines are advanced in vectorized "rounds":
every pending lifeline draws its next branching wait, then one exact motion
increment over its own duration, to the horizon for a finisher and to its
event for a brancher, all in one sampler call.  No time discretization error
enters anywhere: Brownian increments are one scaled normal each, and a
compound-Poisson displacement draws its jump count by exact inversion of
one uniform (``rng.poisson`` for means of 10 and more) and sums its jumps by
``bincount``.

An ensemble replica is a ``Population`` run through the public
single-population operations: at each checkpoint ``advance`` moves it on,
``leftmost`` and ``martingales`` record it, and ``prune`` trims its right
tail, so every replica's pruning bound ends up on its ``MartingaleTrace``.
Replicas derive one independent stream each by splitting a counter-based
generator with the replica index, so results do not depend on scheduling or
worker count.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CapacityError, DomainError, KppLabError
from .model import BranchingModel, _displacements, sample_offspring_batch
from .spectral import minimal_speed

logger = logging.getLogger(__name__)

DEFAULT_MAX_PARTICLES = 5_000_000

#: default pruning window in units of 1/lambda_star; a pruned particle's
#: descendants reach the left tail with probability O(exp(-14)) ~ 8e-7
PRUNE_WINDOW_FACTOR = 14.0


@dataclass(frozen=True)
class Population:
    """Finite particle configuration at a simulation time."""

    positions: np.ndarray
    time: float = 0.0
    pruned_mass_bound: float = 0.0

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        if self.time < 0:
            raise DomainError("population time must be nonnegative")
        if positions.size and not np.all(np.isfinite(positions)):
            raise DomainError("positions must be finite")

    @property
    def extinct(self) -> bool:
        return self.positions.size == 0

    @staticmethod
    def single(x: float = 0.0) -> "Population":
        return Population(np.array([x], dtype=float), 0.0)


@dataclass(frozen=True)
class RunConfig:
    """Ensemble run parameters.

    ``prune_window = None`` selects the default window of 14 decay lengths
    (``14 / lambda_star``) whenever a speed profile exists; pass ``math.inf``
    to disable pruning outright.  A finite window needs a speed profile,
    because ``prune`` bounds the removed mass with ``lambda_star``.
    """

    t_max: float
    record_times: tuple[float, ...] = ()
    prune_window: float | None = None
    max_particles: int = DEFAULT_MAX_PARTICLES
    seed: int = 0

    def __post_init__(self):
        if self.t_max < 0:
            raise DomainError("t_max must be nonnegative")
        object.__setattr__(self, "record_times", tuple(float(t) for t in self.record_times))
        if any(t < 0 or t > self.t_max for t in self.record_times):
            raise DomainError("record times must lie in [0, t_max]")
        if self.prune_window is not None and self.prune_window <= 0:
            raise DomainError("prune window must be positive")


@dataclass(frozen=True)
class MinimumSample:
    """Left-most particle position of one replica at one time.

    ``m`` is ``inf`` when the replica is extinct at ``t`` (the empty
    configuration satisfies every lower bound).
    """

    t: float
    m: float
    replica: int
    seed: int


@dataclass(frozen=True)
class MartingaleTrace:
    """Additive and derivative martingale values at integer times.

    ``pruned_mass_bound`` is the replica's accumulated ``prune`` bound at
    ``t_max``.
    """

    replica: int
    n: np.ndarray
    w: np.ndarray
    d: np.ndarray
    pruned_mass_bound: float = 0.0


@dataclass(frozen=True)
class EnsembleResult:
    minima: list[MinimumSample]
    traces: list[MartingaleTrace]
    invalid_replicas: list[int]
    lambda_star: float | None
    psi_star: float | None


# -- single-population operations ---------------------------------------------


def advance(
    pop: Population,
    t_target: float,
    model: BranchingModel,
    cfg: RunConfig | None,
    rng: np.random.Generator,
) -> Population:
    """Advance a population to ``t_target`` with exact event-driven sampling."""
    cap = cfg.max_particles if cfg is not None else DEFAULT_MAX_PARTICLES
    positions, _ = _evolve_segment(pop.positions, None, pop.time, t_target, model, rng, cap)
    return Population(positions, t_target, pop.pruned_mass_bound)


def prune(pop: Population, lambda_star: float, window: float) -> Population:
    """Drop particles further than ``window`` above the current minimum.

    The accumulated ``pruned_mass_bound`` grows by ``exp(-lambda_star * (x -
    min))`` per removed particle at ``x``, the usual change-of-measure bound
    on its descendants reaching the left tail; each term is below
    ``exp(-lambda_star * window)``.
    """
    if window <= 0:
        raise DomainError("prune window must be positive")
    if pop.extinct:
        return pop
    low = pop.positions.min()
    keep = pop.positions <= low + window
    if keep.all():
        return pop
    removed = pop.positions[~keep]
    bound = pop.pruned_mass_bound + float(np.exp(-lambda_star * (removed - low)).sum())
    return Population(pop.positions[keep], pop.time, bound)


def leftmost(pop: Population) -> float:
    """Minimum position; ``inf`` marks an extinct population."""
    if pop.extinct:
        return math.inf
    return float(pop.positions.min())


def martingales(
    pop: Population, n: int, lambda_star: float, psi_star: float
) -> tuple[float, float]:
    """Additive and derivative martingale values at integer time ``n``."""
    if abs(pop.time - n) > 1e-9:
        raise DomainError("population time must equal the generation index")
    a = lambda_star * pop.positions + n * psi_star
    e = np.exp(-a)
    return float(e.sum()), float((a * e).sum())


# -- ensembles -----------------------------------------------------------------


def run_ensemble(
    model: BranchingModel,
    cfg: RunConfig,
    replicas: int,
    n_workers: int = 1,
) -> EnsembleResult:
    """Simulate independent replicas, recording minima and martingales.

    Each replica runs through ``advance``, ``leftmost``/``martingales`` and
    ``prune`` at every checkpoint.  Minima are recorded at
    ``cfg.record_times`` and the martingale pair at integer times whenever
    the model admits a minimal-speed profile; the right-tail prune (window
    per ``RunConfig``) runs after every checkpoint, and its bound is reported
    as each trace's ``pruned_mass_bound``.  Replicas whose population exceeds
    ``cfg.max_particles`` are reported in ``invalid_replicas`` instead of
    aborting the ensemble.  An immobile at-parent (lattice) replica is only
    alive at the origin or extinct, so it is not simulated: one uniform draw
    against the extinction curve gives all of its records.
    """
    lambda_star = psi_star = None
    try:
        speed = minimal_speed(model)
        lambda_star = speed.lambda_star
        psi_star = speed.c_star * speed.lambda_star
    except KppLabError as exc:  # verdict-style: ensembles run without a speed profile
        logger.info("no minimal-speed profile (%s); martingales and pruning disabled", exc)
        if cfg.prune_window is not None and math.isfinite(cfg.prune_window):
            raise DomainError("a finite prune window needs a minimal-speed profile") from exc
    if model.is_lattice:
        logger.warning(
            "lattice model: minima are recorded but the recentered limit law does not apply"
        )

    minima: list[MinimumSample] = []
    traces: list[MartingaleTrace] = []
    invalid: list[int] = []
    if replicas <= 0:
        return EnsembleResult(minima, traces, invalid, lambda_star, psi_star)

    extinct_by = _extinction_curve(model.law, cfg.record_times) if model.is_lattice else None
    args = (model, cfg, lambda_star, psi_star, extinct_by)
    if n_workers <= 1:
        chunks = [_run_replica_chunk(args, 0, replicas)]
    else:
        bounds = np.linspace(0, replicas, n_workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_run_replica_chunk, args, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            chunks = [f.result() for f in futures]
    for chunk_minima, chunk_traces, chunk_invalid in chunks:
        minima.extend(chunk_minima)
        traces.extend(chunk_traces)
        invalid.extend(chunk_invalid)
    if invalid:
        msg = "%d of %d replicas exceeded %d particles and are reported invalid"
        logger.warning(msg, len(invalid), replicas, cfg.max_particles)
    return EnsembleResult(minima, traces, invalid, lambda_star, psi_star)


def empirical_v(
    model: BranchingModel,
    lam: float,
    t: float,
    replicas: int,
    rng: np.random.Generator | int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``E sum_y exp(-lam y)`` at time ``t``.

    Returns the sample mean and its standard error.  Replicas are advanced as
    one merged tagged population, which is distribution-identical to
    independent runs and much faster for short horizons.
    """
    if replicas <= 0:
        raise DomainError("need at least one replica")
    positions, tags = _merged(model, t, replicas, rng, max_particles)
    sums = np.bincount(tags, weights=np.exp(-lam * positions), minlength=replicas)
    mean = float(sums.mean())
    se = float(sums.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return mean, se


def empirical_minima(
    model: BranchingModel,
    t: float,
    replicas: int,
    rng: np.random.Generator | int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> np.ndarray:
    """Left-most positions of merged replicas at time ``t`` (``inf`` = extinct)."""
    positions, tags = _merged(model, t, replicas, rng, max_particles)
    minima = np.full(replicas, np.inf)
    np.minimum.at(minima, tags, positions)
    return minima


# -- engine --------------------------------------------------------------------


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(rng)))


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(seq))


def _merged(model, t, replicas, rng, max_particles):
    """Positions and replica tags at ``t`` of one origin particle per replica."""
    positions = np.zeros(replicas)
    tags = np.arange(replicas, dtype=np.int64)
    return _evolve_segment(positions, tags, 0.0, t, model, _as_generator(rng), max_particles)


def _evolve_segment(positions, tags, t_start, t_end, model, rng, max_particles):
    """Advance all lifelines from ``t_start`` to ``t_end``; exact in law.

    Returns the positions (and tags, when given) of the population at
    ``t_end``.  Raises ``CapacityError`` when the live count passes
    ``max_particles``.
    """
    if t_end < t_start:
        raise DomainError("segment must not run backwards")
    pos = np.asarray(positions, dtype=float)
    if t_end == t_start or pos.size == 0:
        return pos, tags
    tag = None if tags is None else np.asarray(tags)
    t = np.full(pos.size, float(t_start))
    done_pos: list[np.ndarray] = []
    done_tag: list[np.ndarray] = []
    n_done = 0
    law, motion = model.law, model.motion
    while pos.size:
        waits = rng.standard_exponential(pos.size)
        t_branch = t + waits
        # decided on the sum, so no child starts at or past t_end
        crosses = t_branch >= t_end
        # each lifeline moves for its wait, or to t_end if it crosses
        durations = np.subtract(t_end, t, out=waits, where=crosses)
        moved = _displacements(motion, durations, rng)
        moved += pos
        pos = moved
        finished = np.flatnonzero(crosses)
        branching = np.flatnonzero(~crosses)
        done_pos.append(pos.take(finished))
        if tag is not None:
            done_tag.append(tag.take(finished))
        n_done += finished.size
        if branching.size == 0:
            break
        children, litter = sample_offspring_batch(law, pos.take(branching), rng)
        pos = children
        t = np.repeat(t_branch.take(branching), litter)
        if tag is not None:
            tag = np.repeat(tag.take(branching), litter)
        if n_done + pos.size > max_particles:
            raise CapacityError(
                f"population exceeded {max_particles} particles",
                time=float(t.min()) if pos.size else t_end,
                count=n_done + pos.size,
            )
    out_pos = np.concatenate(done_pos) if done_pos else np.empty(0)
    out_tag = np.concatenate(done_tag) if tag is not None and done_tag else None
    return out_pos, (out_tag if tags is not None else None)


def _run_replica_chunk(args, lo: int, hi: int):
    model, cfg, lambda_star, psi_star, extinct_by = args
    minima: list[MinimumSample] = []
    traces: list[MartingaleTrace] = []
    invalid: list[int] = []
    record_set = set(cfg.record_times)
    integer_times = (
        [float(n) for n in range(int(math.floor(cfg.t_max + 1e-9)) + 1)]
        if lambda_star is not None
        else []
    )
    checkpoints = sorted(set(cfg.record_times) | set(integer_times) | {float(cfg.t_max)})
    for replica in range(lo, hi):
        rng = _replica_rng(cfg.seed, replica)
        if extinct_by is not None:
            u = rng.random()
            minima.extend(
                MinimumSample(t, math.inf if u < q else 0.0, replica, cfg.seed)
                for t, q in extinct_by.items()
            )
            continue
        try:
            rep_min, rep_trace = _generic_replica(
                model, cfg, replica, checkpoints, record_set, lambda_star, psi_star, rng
            )
        except CapacityError:
            invalid.append(replica)
            continue
        minima.extend(rep_min)
        if rep_trace is not None:
            traces.append(rep_trace)
    return minima, traces, invalid


def _generic_replica(model, cfg, replica, checkpoints, record_set, lambda_star, psi_star, rng):
    window = cfg.prune_window
    if window is None:
        window = math.inf if lambda_star is None else PRUNE_WINDOW_FACTOR / lambda_star
    pop = Population.single(0.0)
    minima = []
    ns: list[int] = []
    ws: list[float] = []
    ds: list[float] = []
    for t in checkpoints:
        pop = advance(pop, t, model, cfg, rng)
        if t in record_set:
            minima.append(MinimumSample(t, leftmost(pop), replica, cfg.seed))
        n = round(t)
        if lambda_star is not None and abs(t - n) < 1e-9:
            w, d = martingales(pop, n, lambda_star, psi_star)
            ns.append(n)
            ws.append(w)
            ds.append(d)
        if math.isfinite(window):
            pop = prune(pop, lambda_star, window)
    if lambda_star is None:
        return minima, None
    return minima, MartingaleTrace(
        replica, np.array(ns), np.array(ws), np.array(ds), pop.pruned_mass_bound
    )


def _extinction_curve(law, times) -> dict[float, float]:
    """``q(t)``, the probability that an immobile at-parent replica is extinct
    by time ``t``, at each of ``times`` in increasing order.

    ``q`` solves the backward equation ``q' = E q^N - q`` from ``q(0) = 0``
    (Athreya & Ney 1972, ch. III).  Extinction is absorbing and ``q``
    increases with ``t``, so one uniform ``u`` per replica, extinct at ``t``
    exactly when ``u < q(t)``, gives every record its exact joint law.
    """
    ts = sorted(set(times))
    if not ts or ts[-1] == 0.0:
        return dict.fromkeys(ts, 0.0)
    sol = solve_ivp(
        lambda t, q: law.generating_function(q) - q,
        (0.0, ts[-1]),
        [0.0],
        method="DOP853",
        t_eval=ts,
        rtol=1e-12,
        atol=1e-15,
    )
    if not sol.success:
        raise DomainError(f"extinction-probability integration failed: {sol.message}")
    return dict(zip(ts, sol.y[0].tolist()))
