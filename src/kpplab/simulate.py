"""Event-driven simulation of branching particle populations.

Each particle carries an exponential rate-one branching clock and moves
according to the model's motion law between events; at a branching event the
particle is replaced by a litter drawn from the branching law.  Exponential
clocks are memoryless, so lifelines are advanced in rounds: every pending
lifeline draws its next branching wait, then one exact motion increment over
its own duration, to the horizon for a finisher and to its event for a
brancher.  No time discretization error enters anywhere: Brownian increments
are one scaled normal each, and a compound-Poisson displacement draws its
jump count by exact inversion of one uniform (``random_poisson`` for means
of 10 and more) and sums its jumps.

The rounds run in one compiled engine, ``_engine.c``, which ``_engine``
compiles once per source, compiler flags, numpy and Python version (``cc
-O2 -ffp-contract=off``, the Python and numpy headers, numpy's
``libnpyrandom.a``) into ``__pycache__`` and loads with ``ctypes``.  It
draws on the caller's ``Generator`` through its ``bitgen_t``, under the bit
generator's lock, with numpy's own distribution functions, and forms every
value with numpy's arithmetic in numpy's order: the waits
(``standard_exponential(n)``), the Brownian normals (``standard_normal(n)``),
``poisson`` for the large means, ``random(k)`` for the small ones, whose
``exp(-mean)`` is numpy's own float64 ``exp`` loop, the jumps in the owner
order of the inversion's passes, summed per lifeline from 0.0, and the
litters (``choice`` by ``random`` against the count law's cdf, or the
displaced child's kernel draws).  So a run is bit for bit the run of the
numpy engine kept as the test oracle ``tests/reference_engine.py``: the
same positions, tags and ``CapacityError``, and the same Generator state
afterwards.

An ensemble replica is one engine call, ``kpp_replica``, on buffers that
the replicas of a worker reuse (``_engine.Work``): at each checkpoint it
runs the segment there, takes the minimum and the martingales, and prunes
the right tail, so every replica's pruning bound and counters end up on its
``MartingaleTrace``.  The public single-population operations ``advance``,
``martingales`` and ``prune`` are each one ``kpp_replica`` call of one
checkpoint, started from the population's own positions and time, and so
give the same bits: the martingale and prune terms are formed in numpy's
order, their ``exp`` is numpy's loop and their sums are numpy's pairwise
sums.  Replica ``r`` of an ensemble draws from its own SFC64 generator,
seeded by ``SeedSequence(seed, spawn_key=(r,))``, so results do not depend
on scheduling or worker count.

``empirical_minima`` and ``empirical_v`` share one generator among their
replicas instead.  They run them in consecutive chunks of origin
particles, each chunk one tagged segment (``kpp_merged``) on one reused
``Work``, reduced per replica as soon as it ends: to its minimum, or to its
sum of ``exp(-lam x)`` as ``np.bincount`` forms it.  A chunk holds as many
replicas as make ``MERGED_POPULATION`` particles expected at the horizon, so
a call holds about that many particles at a time whatever its horizon, and
a call of at most one chunk's replicas is one chunk, the whole merged
population.  An int ``rng`` given to either means ``Generator(SFC64(rng))``.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import CapacityError, DomainError, KppLabError
from .model import BranchingModel
from .spectral import minimal_speed

logger = logging.getLogger(__name__)

DEFAULT_MAX_PARTICLES = 5_000_000

#: default pruning window in units of 1/lambda_star; a pruned particle's
#: descendants reach the left tail with probability O(exp(-14)) ~ 8e-7
PRUNE_WINDOW_FACTOR = 14.0

#: expected particles per chunk of ``empirical_minima`` and ``empirical_v``
#: (``_merged_chunk``).  On a 2-core Xeon, 200 000 gaussian-jump binary
#: replicas to t = 3 took 0.20 to 0.30 s at 2**14 to 2**18 particles per
#: chunk, as they did in chunks of 16384 replicas, and the peak RSS grew
#: with the chunk from 38 to 49 MB; 13 000 of them to t = 6 took 0.27 to
#: 0.32 s at 2**14 to 2**16 and 0.41 to 0.44 s at 2**17 and 2**18.
MERGED_POPULATION = 2**16


@dataclass(frozen=True)
class Population:
    """Finite particle configuration at a simulation time."""

    positions: np.ndarray
    time: float = 0.0
    pruned_mass_bound: float = 0.0

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", positions)
        if not (math.isfinite(self.time) and self.time >= 0):
            raise DomainError("population time must be finite and nonnegative")
        if positions.size and not np.all(np.isfinite(positions)):
            raise DomainError("positions must be finite")

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
        if not (math.isfinite(self.t_max) and self.t_max >= 0):
            raise DomainError("t_max must be finite and nonnegative")
        object.__setattr__(self, "record_times", tuple(float(t) for t in self.record_times))
        if not all(0 <= t <= self.t_max for t in self.record_times):
            raise DomainError("record times must lie in [0, t_max]")
        if self.prune_window is not None and not self.prune_window > 0:
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


@dataclass(frozen=True)
class MartingaleTrace:
    """Additive and derivative martingale values at integer times.

    ``pruned_mass_bound`` is the replica's accumulated ``prune`` bound at
    ``t_max``.  The counters say what the replica's run did: its segment
    ``rounds``, the ``lifelines`` over those rounds, its ``peak_population``
    at a checkpoint (before pruning) and the number of particles ``pruned``.
    """

    replica: int
    n: np.ndarray
    w: np.ndarray
    d: np.ndarray
    pruned_mass_bound: float = 0.0
    rounds: int = 0
    lifelines: int = 0
    peak_population: int = 0
    pruned: int = 0


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
    """Advance a population to ``t_target`` with exact event-driven sampling.

    The particles come in the order they finish; ``CapacityError`` is raised
    when the live count passes ``cfg.max_particles``.
    """
    if not (math.isfinite(t_target) and t_target >= pop.time):
        raise DomainError(f"t_target = {t_target!r} must be finite and not precede pop.time")
    cap = cfg.max_particles if cfg is not None else DEFAULT_MAX_PARTICLES
    with _engine.Work() as work:
        *_, res = _engine.replica(
            work, [t_target], [0], [-1], model, rng, 0.0, 0.0, math.inf, cap,
            pop.positions, pop.time,
        )
        positions = _engine._take(res)
    return Population(positions, t_target, pop.pruned_mass_bound)


def _check_exponents(lambda_star: float, psi_star: float = 0.0) -> None:
    """Refuse a ``lambda_star`` that is not positive and finite, or a ``psi_star``
    that is not finite."""
    if not (math.isfinite(lambda_star) and lambda_star > 0):
        raise DomainError(f"lambda_star = {lambda_star!r} must be positive and finite")
    if not math.isfinite(psi_star):
        raise DomainError(f"psi_star = {psi_star!r} must be finite")


def prune(pop: Population, lambda_star: float, window: float) -> Population:
    """Drop particles further than ``window`` above the current minimum.

    The accumulated ``pruned_mass_bound`` grows by ``exp(-lambda_star * (x -
    min))`` per removed particle at ``x``, the usual change-of-measure bound
    on its descendants reaching the left tail; each term is below
    ``exp(-lambda_star * window)``.
    """
    _check_exponents(lambda_star)
    if not window > 0:
        raise DomainError("prune window must be positive")
    with _engine.Work() as work:
        *_, res = _engine.replica(
            work, [pop.time], [0], [-1], None, None, lambda_star, 0.0, window, 0,
            pop.positions, pop.time,
        )
        if res.pruned == 0:
            return pop
        kept = _engine._take(res)
    return Population(kept, pop.time, pop.pruned_mass_bound + res.bound)


def martingales(
    pop: Population, n: int, lambda_star: float, psi_star: float
) -> tuple[float, float]:
    """Additive and derivative martingale values at integer time ``n``."""
    _check_exponents(lambda_star, psi_star)
    if abs(pop.time - n) > 1e-9:
        raise DomainError("population time must equal the generation index")
    with _engine.Work() as work:
        _, w, d, _ = _engine.replica(
            work, [pop.time], [0], [n], None, None, lambda_star, psi_star, math.inf, 0,
            pop.positions, pop.time,
        )
    return float(w[0]), float(d[0])


# -- ensembles -----------------------------------------------------------------


def run_ensemble(
    model: BranchingModel,
    cfg: RunConfig,
    replicas: int,
    n_workers: int = 1,
) -> EnsembleResult:
    """Simulate independent replicas, recording minima and martingales.

    Each replica is one engine call that runs, at every checkpoint, what
    ``advance``, the minimum of ``positions``, ``martingales`` and ``prune``
    do, on the same C code and with the same bits.  Minima are recorded at
    ``cfg.record_times`` and the martingale pair at integer times whenever
    the model admits a minimal-speed profile; the right-tail prune (window
    per ``RunConfig``) runs after every checkpoint, and its bound is reported
    as each trace's ``pruned_mass_bound``, beside the replica's counters.
    Replicas whose population exceeds ``cfg.max_particles`` are reported in
    ``invalid_replicas`` instead of aborting the ensemble.  An immobile
    at-parent (lattice) replica is only alive at the origin or extinct, so no
    lattice replica is simulated: one uniform draw against the extinction
    curve gives all of its records, and no worker starts.
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
    if model.is_lattice:
        extinct_by = _extinction_curve(model.law, cfg.record_times)
        for replica in range(replicas):
            u = _replica_rng(cfg.seed, replica).random()
            minima.extend(
                MinimumSample(t, math.inf if u < q else 0.0, replica) for t, q in extinct_by.items()
            )
        return EnsembleResult(minima, traces, invalid, lambda_star, psi_star)

    plan = _ReplicaPlan(cfg, lambda_star, psi_star)
    if n_workers <= 1:
        chunks = [_run_replica_chunk(model, plan, 0, replicas)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, replicas, n_workers + 1).astype(int)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_run_replica_chunk, model, plan, int(lo), int(hi))
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

    Returns the sample mean and its standard error.  Replicas are advanced in
    chunks of about ``MERGED_POPULATION`` expected particles at ``t``, each
    one merged tagged population, which is distribution-identical to
    independent runs and much faster for short horizons.  ``max_particles``
    bounds one chunk's population: a chunk that passes it raises
    ``CapacityError`` with its own time and count.  A ``lam`` that is not
    finite raises ``DomainError`` before any draw.
    """
    _check_replicas(replicas)
    if not math.isfinite(lam):
        raise DomainError(f"lam = {lam!r} must be finite")
    sums = _reduce_replicas(model, t, replicas, rng, max_particles, lam)
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
    """Left-most positions of merged replicas at time ``t`` (``inf`` = extinct).

    Replicas are advanced in chunks of about ``MERGED_POPULATION`` expected
    particles at ``t``, each one merged tagged population; ``max_particles``
    bounds one chunk's population, and a chunk that passes it raises
    ``CapacityError`` with its own time and count.
    """
    _check_replicas(replicas)
    return _reduce_replicas(model, t, replicas, rng, max_particles)


def _check_replicas(replicas: int) -> None:
    if replicas <= 0:
        raise DomainError("need at least one replica")


# -- engine --------------------------------------------------------------------


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.SFC64(rng))


def _replica_rng(seed: int, replica: int) -> np.random.Generator:
    seq = np.random.SeedSequence(seed, spawn_key=(replica,))
    return np.random.Generator(np.random.SFC64(seq))


def _reduce_replicas(model, t, replicas, rng, max_particles, lam=None) -> np.ndarray:
    """Per replica, one origin particle at 0.0 run to ``t``: the minimum of
    its particles (``inf`` when extinct), or, with ``lam``, the sum of
    ``exp(-lam x)`` over them.  The replicas run in consecutive chunks of
    ``_merged_chunk(model, t)`` on ``rng``, one set of engine buffers and
    each chunk's own ``max_particles``."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"t = {t!r} must be finite and nonnegative")
    rng, out, size = _as_generator(rng), np.empty(replicas), _merged_chunk(model, t)
    with _engine.Work() as work:
        for lo in range(0, replicas, size):
            chunk = out[lo:lo + size]
            _engine.merged(work, chunk, float(t), model, rng, max_particles, lam)
    return out


def _merged_chunk(model, t) -> int:
    """Replicas per chunk: ``MERGED_POPULATION`` divided by a replica's
    expected population ``exp((m - 1) t)`` at ``t``, the law's mean ``m``
    taken as 1 when it is less, and at least one replica."""
    growth = max(model.law.mean() - 1.0, 0.0)
    return max(1, int(MERGED_POPULATION * math.exp(-growth * t)))


def _run_replica_chunk(model, plan: "_ReplicaPlan", lo: int, hi: int):
    """Replicas ``lo`` to ``hi``, each one ``kpp_replica`` call on one ``Work``."""
    cfg = plan.cfg
    minima: list[MinimumSample] = []
    traces: list[MartingaleTrace] = []
    invalid: list[int] = []
    with _engine.Work() as work:
        for replica in range(lo, hi):
            try:
                ms, w, d, out = _engine.replica(
                    work, plan.checkpoints, plan.record, plan.generations, model,
                    _replica_rng(cfg.seed, replica), plan.lambda_star, plan.psi_star,
                    plan.window, cfg.max_particles,
                )
            except CapacityError:
                invalid.append(replica)
                continue
            minima.extend(MinimumSample(t, float(m), replica) for t, m in zip(plan.record_times, ms))
            if plan.traced:
                traces.append(MartingaleTrace(
                    replica, np.array(plan.ns), w, d, out.bound,
                    out.rounds, out.lifelines, out.peak_population, out.pruned,
                ))
    return minima, traces, invalid


class _ReplicaPlan:
    """What a replica does at its checkpoints: the sorted union of the record
    times, the integer times (with a speed profile) and ``t_max``; where it
    records the minimum; the generation ``n`` of its martingales (-1 for
    none); and the prune window (``inf`` for none)."""

    def __init__(self, cfg: RunConfig, lambda_star: float | None, psi_star: float | None):
        record_set = set(cfg.record_times)
        integer_times = (
            [float(n) for n in range(int(math.floor(cfg.t_max + 1e-9)) + 1)]
            if lambda_star is not None
            else []
        )
        checkpoints = sorted(record_set | set(integer_times) | {float(cfg.t_max)})
        generations = [
            round(t) if lambda_star is not None and abs(t - round(t)) < 1e-9 else -1
            for t in checkpoints
        ]
        window = cfg.prune_window
        if window is None:
            window = math.inf if lambda_star is None else PRUNE_WINDOW_FACTOR / lambda_star
        self.cfg = cfg
        self.traced = lambda_star is not None
        self.lambda_star = 0.0 if lambda_star is None else lambda_star
        self.psi_star = 0.0 if psi_star is None else psi_star
        self.checkpoints = np.array(checkpoints, dtype=float)
        self.record = np.array([t in record_set for t in checkpoints], dtype=np.int8)
        self.record_times = [t for t in checkpoints if t in record_set]
        self.generations = np.array(generations, dtype=np.int64)
        self.ns = [n for n in generations if n >= 0]
        self.window = window


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
    from scipy.integrate import solve_ivp

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
