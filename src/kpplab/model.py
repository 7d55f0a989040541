"""Branching particle models: a single-particle motion plus a branching law.

The motion is a Lévy process with up to two parts, a standard Brownian part
and rate-one compound-Poisson jumps with a kernel; with both it is a
jump-diffusion, with neither it stays put.  The branching law is an offspring
count law with every child at the parent, or two children with one displaced
by a kernel.  Branching and jump clocks are exponential with rate one; the
closed forms of the exponential growth transform below assume those unit
rates, so they are fixed rather than configurable.

The central quantity is ``log_laplace``: the logarithm of the expected
exponential sum ``E sum_y exp(-lam * y)`` over the population at time one,
started from a single particle at the origin.  It is the sum of a motion
exponent and a branching gain, each built from the parts' kernel transforms.
The config family names spell these parts; only ``model_from_dict`` and the
``to_dict`` methods know them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, DomainError, config_pointer, expect, read_number
from .kernels import Kernel

CONSTANT = "constant"
PURE_JUMP = "pure_jump"
BROWNIAN = "brownian"

BINARY_AT_PARENT = "binary_at_parent"
OFFSPRING_AT_PARENT = "offspring_at_parent"
BINARY_ONE_DISPLACED = "binary_one_displaced"

MOTION_FAMILIES = (CONSTANT, PURE_JUMP, BROWNIAN)
LAW_FAMILIES = (BINARY_AT_PARENT, OFFSPRING_AT_PARENT, BINARY_ONE_DISPLACED)

#: the binary count law: two children, always
BINARY = ((2, 1.0),)


@dataclass(frozen=True, eq=False)
class Motion:
    """Single-particle motion between branching events: a Lévy process.

    ``diffusive`` adds a standard Brownian part; ``kernel`` adds jumps at rate
    one with that jump density.  With neither, the particle stays put.
    """

    diffusive: bool = False
    kernel: Kernel | None = None

    @staticmethod
    def constant() -> "Motion":
        return Motion()

    @staticmethod
    def pure_jump(kernel: Kernel) -> "Motion":
        if kernel is None:
            raise DomainError("pure-jump motion needs a jump kernel")
        return Motion(False, kernel)

    @staticmethod
    def brownian() -> "Motion":
        return Motion(True)

    def exponent(self, lam: float) -> float:
        """Growth exponent of ``E exp(-lam X_t)`` for the free motion:
        ``lam^2 / 2`` for the Brownian part plus ``L(lam) - 1`` for the jumps."""
        eta = 0.5 * lam * lam if self.diffusive else 0.0
        if self.kernel is None:
            return eta
        return eta + (self.kernel.laplace(lam) - 1.0)

    def to_dict(self) -> dict:
        family = BROWNIAN if self.diffusive else CONSTANT if self.kernel is None else PURE_JUMP
        d = {"family": family}
        if self.kernel is not None:
            d["kernel"] = self.kernel.to_dict()
        return d


@dataclass(frozen=True, eq=False)
class BranchingLaw:
    """Offspring positions produced when a particle branches.

    ``offspring_probs`` lists the ``(n, p_n)`` pairs of the count law, any
    deficit assigned to zero offspring (death), every child at the parent;
    a ``displacement`` kernel moves the second of two children.
    ``counts``/``probs`` is the count law with the deficit folded into n = 0,
    and ``litter`` its one count if it has only one (else ``None``).
    """

    offspring_probs: tuple[tuple[int, float], ...] = BINARY
    displacement: Kernel | None = None
    counts: np.ndarray = field(init=False, repr=False)
    probs: np.ndarray = field(init=False, repr=False)
    litter: int | None = field(init=False, repr=False)

    def __post_init__(self):
        if not self.offspring_probs:
            raise DomainError("offspring law needs (n, p_n) pairs")
        probs = tuple((int(n), float(p)) for n, p in self.offspring_probs)
        object.__setattr__(self, "offspring_probs", probs)
        ns, ps = zip(*probs)
        if min(ns) < 0:
            raise DomainError("offspring counts must be nonnegative")
        if not all(0.0 <= p <= 1.0 for p in ps):
            raise DomainError("offspring probabilities must lie in [0, 1]")
        total = sum(ps)
        if total > 1.0 + 1e-12:
            raise DomainError("offspring probabilities must sum to at most 1")
        if self.displacement is not None and probs != BINARY:
            raise DomainError("a displaced child needs the binary count law")
        given = dict(probs)
        if total < 1.0:
            given[0] = given.get(0, 0.0) + (1.0 - total)
        counts = sorted(given)
        weights = np.array([given[n] for n in counts])
        object.__setattr__(self, "counts", np.array(counts, dtype=np.int64))
        object.__setattr__(self, "probs", weights / weights.sum())
        object.__setattr__(self, "litter", counts[0] if len(counts) == 1 else None)

    @staticmethod
    def binary_at_parent() -> "BranchingLaw":
        return BranchingLaw()

    @staticmethod
    def offspring_at_parent(probs) -> "BranchingLaw":
        if isinstance(probs, dict):
            probs = sorted(probs.items())
        return BranchingLaw(tuple(probs))

    @staticmethod
    def binary_one_displaced(kernel: Kernel) -> "BranchingLaw":
        if kernel is None:
            raise DomainError("displaced law needs a displacement kernel")
        return BranchingLaw(displacement=kernel)

    # -- moments -------------------------------------------------------------

    def mean(self) -> float:
        return float(self.counts @ self.probs)

    def factorial_moment(self) -> float:
        """``E N (N - 1)`` of the offspring count."""
        return float((self.counts * (self.counts - 1)) @ self.probs)

    def net_gain(self, lam: float) -> float:
        """``E sum exp(-lam d) - 1`` over one litter, ``d`` each child's
        displacement from the parent.  An at-parent law forms it as
        ``(counts - 1) @ probs``, so a near-critical law keeps its small net
        gain to relative precision; the displaced law's is its kernel's
        transform."""
        if self.displacement is None:
            return float((self.counts - 1) @ self.probs)
        return self.displacement.laplace(lam)

    def generating_function(self, u: np.ndarray) -> np.ndarray:
        """``E u^N``: the reaction term of an at-parent law, and of any law
        on a constant state (a displaced child sees the same constant)."""
        u = np.asarray(u, dtype=float)
        if self.litter is not None:
            return u**self.litter  # u**2 is u*u, bit for bit
        out = np.zeros_like(u)
        for n, p in zip(self.counts, self.probs):
            out += p * u**int(n)
        return out

    def extinction_probability(self) -> float:
        """Smallest fixed point of the offspring generating function.

        The fixed point is 1 when the mean is at most 1; otherwise it is the
        root in ``[0, 1)`` of ``(E s^N - s) / (1 - s) = 1 - sum_n p_n (1 + s
        + ... + s^(n-1))``, which falls from ``p_0`` at 0 to ``1 - mean`` at 1.
        """
        if self.mean() <= 1.0:
            return 1.0
        ns, ps = self.counts, self.probs

        def reduced(s: float) -> float:
            return 1.0 - sum(p * sum(s**k for k in range(n)) for n, p in zip(ns, ps))

        if reduced(0.0) <= 0.0:
            return 0.0
        return float(brentq(reduced, 0.0, 1.0, xtol=1e-15))

    def to_dict(self) -> dict:
        if self.displacement is not None:
            return {"family": BINARY_ONE_DISPLACED, "kernel": self.displacement.to_dict()}
        if self.offspring_probs == BINARY:
            return {"family": BINARY_AT_PARENT}
        probs = {str(n): p for n, p in self.offspring_probs}
        return {"family": OFFSPRING_AT_PARENT, "probs": probs}


@dataclass(frozen=True, eq=False)
class BranchingModel:
    """A motion coupled with a branching law."""

    motion: Motion
    law: BranchingLaw
    label: str = ""

    @property
    def is_lattice(self) -> bool:
        # all offspring sit exactly on the parent and the parent never moves
        return not self.motion.diffusive and not self.transform_kernels()

    def transform_kernels(self) -> list[Kernel]:
        """Kernels whose exponential moments enter the growth transform."""
        return [k for k in (self.motion.kernel, self.law.displacement) if k is not None]

    def to_dict(self) -> dict:
        d = {"motion": self.motion.to_dict(), "law": self.law.to_dict()}
        if self.label:
            d["label"] = self.label
        return d


def log_laplace(model: BranchingModel, lam: float) -> float:
    """Growth exponent ``psi(lam)`` of the expected exponential sum.

    ``E sum_y exp(-lam y)`` over the time-``t`` population grows like
    ``exp(t psi(lam))``; the value at ``t = 1`` defines the transform of one
    sampling step.  Past the finiteness edge a kernel's transform is the
    ``inf`` sentinel, and so is the sum.  ``lam`` may be complex, as for
    ``Kernel.laplace``.
    """
    return model.motion.exponent(lam) + model.law.net_gain(lam)


def sample_offspring_batch(
    law: BranchingLaw, parents: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | int]:
    """Vectorized litter sampling.

    Returns the concatenated child positions, children grouped by parent in
    order, and the litter sizes: per-parent sizes, or one size shared by
    every parent.
    """
    parents = np.asarray(parents, dtype=float)
    if law.litter is None:
        counts = rng.choice(law.counts, size=parents.size, p=law.probs)
        return np.repeat(parents, counts), counts
    if law.displacement is None:
        return np.repeat(parents, law.litter), law.litter
    children = np.empty(2 * parents.size, dtype=float)
    children[0::2] = parents
    children[1::2] = parents + law.displacement.sample(rng, parents.size)
    return children, 2


def sample_displacements(
    motion: Motion, durations: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Independent displacements over the given durations (exact laws)."""
    durations = np.asarray(durations, dtype=float)
    if np.any(durations < 0):
        raise DomainError("durations must be nonnegative")
    return _displacements(motion, durations, rng)


#: Poisson means from here on go to ``rng.poisson``; smaller ones are inverted
POISSON_INVERSION_LIMIT = 10.0


def _displacements(motion: Motion, durations: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``sample_displacements`` on nonnegative float durations, unchecked.

    The Brownian part is one standard normal per duration, scaled by its
    root; the jump part draws its Poisson jump counts, then all jumps in one
    ``Kernel.sample`` call, and sums each duration's jumps.  A motion with
    neither part draws nothing.
    """
    moved = None
    if motion.diffusive:
        moved = rng.standard_normal(durations.shape)
        moved *= np.sqrt(durations)
    if motion.kernel is not None:
        owners = _poisson_owners(durations, rng)
        if owners.size:
            jumps = motion.kernel.sample(rng, owners.size)
            sums = np.bincount(owners, weights=jumps, minlength=durations.size)
            moved = sums if moved is None else np.add(moved, sums, out=moved)
    return np.zeros_like(durations) if moved is None else moved


def _poisson_owners(means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Poisson counts ``N_i`` with the given means, exact in law,
    as an owner list: each index ``i`` appears ``N_i`` times, in no set order.

    Means below ``POISSON_INVERSION_LIMIT`` invert one uniform ``u`` each by
    sequential search (Devroye, Non-Uniform Random Variate Generation, 1986):
    ``N`` is the first ``k`` at which ``u - P(N <= k)`` turns negative.  Each
    pass moves every unresolved entry on by one ``k``, lists it once more and
    drops the resolved ones.  Larger means go to ``rng.poisson``, which
    switches its own algorithm at 10 too: the search takes about ``mean``
    passes, and past about 745 ``exp(-mean)`` underflows to 0.
    """
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
        # rounding can leave u above every partial sum of the pmf; such an
        # entry stops where its pmf underflows to 0
        more = (residual >= 0.0) & (pmf > 0.0)


def model_from_dict(d, pointer: str = "") -> BranchingModel:
    """Build a model from its JSON description ``{"motion": ..., "law": ...}``.

    Raises ``ConfigError`` at the JSON pointer, below ``pointer``, of the
    first malformed value: an unknown family, or a ``kernel`` or ``probs``
    key that the family does not take.
    """
    expect(isinstance(d, dict), pointer, "expected a model object")
    motion_d, law_d = d.get("motion"), d.get("law")
    at = f"{pointer}/motion"
    expect(isinstance(motion_d, dict), at, "expected a motion object")
    family = motion_d.get("family")
    expect(family in MOTION_FAMILIES, f"{at}/family", f"expected one of {MOTION_FAMILIES}")
    jumps = None
    if family == PURE_JUMP or "kernel" in motion_d:
        expect(family != CONSTANT, f"{at}/kernel", "a constant motion takes no kernel")
        jumps = Kernel.from_dict(motion_d.get("kernel"), f"{at}/kernel")
    motion = Motion(family == BROWNIAN, jumps)

    at = f"{pointer}/law"
    expect(isinstance(law_d, dict), at, "expected a law object")
    family = law_d.get("family")
    expect(family in LAW_FAMILIES, f"{at}/family", f"expected one of {LAW_FAMILIES}")
    takes_kernel = family == BINARY_ONE_DISPLACED
    expect(takes_kernel or "kernel" not in law_d, f"{at}/kernel", "an at-parent law takes no kernel")
    takes_probs = family == OFFSPRING_AT_PARENT
    expect(takes_probs or "probs" not in law_d, f"{at}/probs", "a binary law takes no probs")
    if takes_probs:
        probs = _offspring_probs(law_d.get("probs"), f"{at}/probs")
        with config_pointer(f"{at}/probs"):
            law = BranchingLaw(probs)
    elif takes_kernel:
        law = BranchingLaw(displacement=Kernel.from_dict(law_d.get("kernel"), f"{at}/kernel"))
    else:
        law = BranchingLaw()
    return BranchingModel(motion, law, label=str(d.get("label", "")))


def _offspring_probs(d, pointer: str) -> tuple[tuple[int, float], ...]:
    """``(n, p_n)`` pairs, sorted, from ``{"n": p_n}``."""
    expect(isinstance(d, dict), pointer, "expected an object of offspring-count probabilities")
    probs = {}
    for key, p in d.items():
        at = f"{pointer}/" + key.replace("~", "~0").replace("/", "~1")
        try:
            n = int(key)
        except ValueError:
            raise ConfigError(at, "expected an integer offspring count") from None
        probs[n] = read_number(p, at)
    return tuple(sorted(probs.items()))
