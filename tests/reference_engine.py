"""The simulator's engine in numpy: a test oracle for ``_engine.c``.

These functions draw what the compiled engine draws, in numpy's vectorized
calls, and form the martingales and the prune as numpy does, so that the
compiled engine's outputs and the Generator's state after a call can be
checked against them bit for bit.
"""
from __future__ import annotations

import numpy as np

from kpplab._engine import POISSON_INVERSION_LIMIT
from kpplab.errors import CapacityError
from kpplab.kernels import GAUSSIAN, TWO_SIDED_EXPONENTIAL, UNIFORM


def kernel_sample(kernel, rng: np.random.Generator, size: int) -> np.ndarray:
    if kernel.family == GAUSSIAN:
        return rng.normal(0.0, kernel.param, size)
    if kernel.family == TWO_SIDED_EXPONENTIAL:
        return rng.laplace(0.0, 1.0 / kernel.param, size)
    if kernel.family == UNIFORM:
        return rng.uniform(-kernel.param, kernel.param, size)
    u = rng.random(size)
    return np.interp(u, _tabulated_cdf(kernel), kernel.x)


def _tabulated_cdf(kernel) -> np.ndarray:
    x, v = kernel.x, kernel.values
    segments = 0.5 * (v[1:] + v[:-1]) * np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(segments)])
    return cdf / cdf[-1]


def litters(law, parents: np.ndarray, rng: np.random.Generator):
    """Children of each parent, grouped by parent in order (a displaced child
    second), and the litter sizes: per parent, or one size for all."""
    parents = np.asarray(parents, dtype=float)
    if law.litter is None:
        counts = rng.choice(law.counts, size=parents.size, p=law.probs)
        return np.repeat(parents, counts), counts
    if law.displacement is None:
        return np.repeat(parents, law.litter), law.litter
    children = np.empty(2 * parents.size, dtype=float)
    children[0::2] = parents
    children[1::2] = parents + kernel_sample(law.displacement, rng, parents.size)
    return children, 2


def displacements(motion, durations: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The Brownian part is one standard normal per duration, scaled by its
    root; the jump part draws its Poisson jump counts, then all jumps in one
    kernel call, and sums each duration's jumps by ``bincount``."""
    moved = None
    if motion.diffusive:
        moved = rng.standard_normal(durations.shape)
        moved *= np.sqrt(durations)
    if motion.kernel is not None:
        owners = poisson_owners(durations, rng)
        if owners.size:
            jumps = kernel_sample(motion.kernel, rng, owners.size)
            sums = np.bincount(owners, weights=jumps, minlength=durations.size)
            moved = sums if moved is None else np.add(moved, sums, out=moved)
    return np.zeros_like(durations) if moved is None else moved


def poisson_owners(means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Poisson counts ``N_i`` as an owner list: the large means' owners
    (``rng.poisson``, from ``POISSON_INVERSION_LIMIT`` on) first, then one inversion pass after another, each
    listing its unresolved entries in index order."""
    owners = []
    small = means < POISSON_INVERSION_LIMIT
    if small.all():
        at, lam = None, means
    else:
        large = np.flatnonzero(~small)
        owners.append(np.repeat(large, rng.poisson(means[large])))
        at = np.flatnonzero(small)
        lam = means[at]
    residual = rng.random(lam.size)
    pmf = np.negative(lam)
    np.exp(pmf, out=pmf)
    residual -= pmf
    more = residual >= 0.0
    k = 0
    while True:
        sel = np.flatnonzero(more)
        if sel.size == 0:
            return np.concatenate(owners) if owners else sel
        at = sel if at is None else at.take(sel)
        owners.append(at)
        k += 1
        lam, pmf, residual = lam.take(sel), pmf.take(sel), residual.take(sel)
        pmf *= lam
        pmf /= k
        residual -= pmf
        more = (residual >= 0.0) & (pmf > 0.0)


def evolve_segment(positions, tags, t_start, t_end, model, rng, max_particles, counts=None):
    """The segment's population at ``t_end``; ``counts``, when given, gains
    the segment's ``rounds`` and ``lifelines`` (the sum of n over rounds)."""
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
        if counts is not None:
            counts["rounds"] += 1
            counts["lifelines"] += pos.size
        waits = rng.standard_exponential(pos.size)
        t_branch = t + waits
        crosses = t_branch >= t_end
        durations = np.subtract(t_end, t, out=waits, where=crosses)
        moved = displacements(motion, durations, rng)
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
        children, litter = litters(law, pos.take(branching), rng)
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


def merged(model, t, replicas, rng, max_particles, chunk, lam=None):
    """Per replica, one origin particle at 0.0 run to ``t``: its minimum
    (``inf`` when extinct), or, with ``lam``, its sum of ``exp(-lam x)``.
    The replicas run in consecutive chunks of ``chunk``, each one tagged
    segment of the whole chunk, reduced by ``np.minimum.at`` or
    ``np.bincount``."""
    out = []
    for lo in range(0, replicas, chunk):
        n = min(chunk, replicas - lo)
        pos, tags = evolve_segment(np.zeros(n), np.arange(n), 0.0, t, model, rng, max_particles)
        if lam is None:
            reduced = np.full(n, np.inf)
            np.minimum.at(reduced, tags, pos)
        else:
            reduced = np.bincount(tags, weights=np.exp(-lam * pos), minlength=n)
        out.append(reduced)
    return np.concatenate(out) if out else np.empty(0)


def martingales(positions, n, lambda_star, psi_star):
    """W_n and D_n of a population at integer time ``n``."""
    a = lambda_star * positions + n * psi_star
    e = np.exp(-a)
    return float(e.sum()), float((a * e).sum())


def prune(positions, lambda_star, window, bound):
    """The positions within ``window`` of the minimum, in order, and
    ``bound`` plus ``exp(-lambda_star (x - min))`` summed over the others."""
    if positions.size == 0:
        return positions, bound
    low = positions.min()
    keep = positions <= low + window
    if keep.all():
        return positions, bound
    removed = positions[~keep]
    return positions[keep], bound + float(np.exp(-lambda_star * (removed - low)).sum())


def replica(plan, model, rng, max_particles, positions=(0.0,), t_start=0.0):
    """A population at ``positions`` at ``t_start`` through the plan's
    checkpoints, one public step at a time: the segment, then the minimum,
    the martingales and the prune.  Returns the minima, W, D, the prune
    bound, the counters and the population at the last checkpoint."""
    # + 0.0 turns -0.0 into +0.0, as the engine's copy-in does
    pos, t, bound = np.array(positions, dtype=float) + 0.0, t_start, 0.0
    minima, ws, ds = [], [], []
    counts = {"rounds": 0, "lifelines": 0, "peak_population": 0, "pruned": 0}
    for t_end, record, n in zip(plan.checkpoints.tolist(), plan.record, plan.generations):
        pos, _ = evolve_segment(pos, None, t, t_end, model, rng, max_particles, counts)
        t = t_end
        counts["peak_population"] = max(counts["peak_population"], pos.size)
        if record:
            minima.append(float(pos.min()) if pos.size else np.inf)
        if n >= 0:
            w, d = martingales(pos, int(n), plan.lambda_star, plan.psi_star)
            ws.append(w)
            ds.append(d)
        if np.isfinite(plan.window):
            size = pos.size
            pos, bound = prune(pos, plan.lambda_star, plan.window, bound)
            counts["pruned"] += size - pos.size
    return minima, ws, ds, bound, counts, pos
