"""Branching particle models: a single-particle motion plus a branching law.

A model couples a non-branching motion (constant, pure-jump, or standard
Brownian) with a branching law (two children at the parent point, a random
number of children at the parent point, or two children with one displaced).
Branching and jump clocks are exponential with rate one; the closed forms of
the exponential growth transform below assume those unit rates, so they are
fixed rather than configurable.

The central quantity is ``log_laplace``: the logarithm of the expected
exponential sum ``E sum_y exp(-lam * y)`` over the population at time one,
started from a single particle at the origin.  It splits into a motion
exponent and a branching gain, and every catalogue combination has a closed
form built from kernel transforms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, DomainError, config_pointer, expect, read_number
from .kernels import INF, Kernel

CONSTANT = "constant"
PURE_JUMP = "pure_jump"
BROWNIAN = "brownian"

BINARY_AT_PARENT = "binary_at_parent"
OFFSPRING_AT_PARENT = "offspring_at_parent"
BINARY_ONE_DISPLACED = "binary_one_displaced"

MOTION_FAMILIES = (CONSTANT, PURE_JUMP, BROWNIAN)
LAW_FAMILIES = (BINARY_AT_PARENT, OFFSPRING_AT_PARENT, BINARY_ONE_DISPLACED)


@dataclass(frozen=True, eq=False)
class Motion:
    """Single-particle motion between branching events."""

    kind: str
    kernel: Kernel | None = None

    def __post_init__(self):
        if self.kind not in MOTION_FAMILIES:
            raise DomainError(f"unknown motion kind {self.kind!r}")
        if self.kind == PURE_JUMP and self.kernel is None:
            raise DomainError("pure-jump motion needs a jump kernel")

    @staticmethod
    def constant() -> "Motion":
        return Motion(CONSTANT)

    @staticmethod
    def pure_jump(kernel: Kernel) -> "Motion":
        return Motion(PURE_JUMP, kernel)

    @staticmethod
    def brownian() -> "Motion":
        return Motion(BROWNIAN)

    def exponent(self, lam: float) -> float:
        """Growth exponent of ``E exp(-lam X_t)`` for the free motion."""
        if self.kind == CONSTANT:
            return 0.0
        if self.kind == BROWNIAN:
            return 0.5 * lam * lam
        la = self.kernel.laplace(lam)
        return INF if la == INF else la - 1.0

    def to_dict(self) -> dict:
        d = {"family": self.kind}
        if self.kernel is not None:
            d["kernel"] = self.kernel.to_dict()
        return d


@dataclass(frozen=True, eq=False)
class BranchingLaw:
    """Offspring positions produced when a particle branches.

    ``offspring_probs`` lists ``(n, p_n)`` pairs for the at-parent law; any
    probability deficit is assigned to zero offspring (death).  The displaced
    law puts one child at the parent and one at parent plus a draw from
    ``displacement``.  ``counts``/``probs`` is the offspring count law with the
    deficit folded into n = 0 (count 2 for both binary laws), built once.
    """

    kind: str
    offspring_probs: tuple[tuple[int, float], ...] | None = None
    displacement: Kernel | None = None
    counts: np.ndarray = field(init=False, repr=False)
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in LAW_FAMILIES:
            raise DomainError(f"unknown branching law {self.kind!r}")
        if self.kind == OFFSPRING_AT_PARENT:
            if not self.offspring_probs:
                raise DomainError("offspring law needs (n, p_n) pairs")
            probs = tuple((int(n), float(p)) for n, p in self.offspring_probs)
            object.__setattr__(self, "offspring_probs", probs)
            total = 0.0
            for n, p in probs:
                if n < 0:
                    raise DomainError("offspring counts must be nonnegative")
                if not 0.0 <= p <= 1.0:
                    raise DomainError("offspring probabilities must lie in [0, 1]")
                total += p
            if total > 1.0 + 1e-12:
                raise DomainError("offspring probabilities must sum to at most 1")
        if self.kind == BINARY_ONE_DISPLACED and self.displacement is None:
            raise DomainError("displaced law needs a displacement kernel")
        given = dict(self.offspring_probs or [(2, 1.0)])
        total = sum(given.values())
        if total < 1.0:
            given[0] = given.get(0, 0.0) + (1.0 - total)
        counts = sorted(given)
        probs = np.array([given[n] for n in counts])
        object.__setattr__(self, "counts", np.array(counts, dtype=np.int64))
        object.__setattr__(self, "probs", probs / probs.sum())

    @staticmethod
    def binary_at_parent() -> "BranchingLaw":
        return BranchingLaw(BINARY_AT_PARENT)

    @staticmethod
    def offspring_at_parent(probs) -> "BranchingLaw":
        if isinstance(probs, dict):
            probs = sorted(probs.items())
        return BranchingLaw(OFFSPRING_AT_PARENT, offspring_probs=tuple(probs))

    @staticmethod
    def binary_one_displaced(kernel: Kernel) -> "BranchingLaw":
        return BranchingLaw(BINARY_ONE_DISPLACED, displacement=kernel)

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
        if self.kind != BINARY_ONE_DISPLACED:
            return float((self.counts - 1) @ self.probs)
        return self.displacement.laplace(lam)

    def generating_function(self, u: np.ndarray) -> np.ndarray:
        """``E u^N``: the reaction term of an at-parent law, and of any law
        on a constant state (a displaced child sees the same constant)."""
        u = np.asarray(u, dtype=float)
        if self.kind != OFFSPRING_AT_PARENT:
            return u * u  # both binary laws have N = 2
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
        d = {"family": self.kind}
        if self.offspring_probs is not None:
            d["probs"] = {str(n): p for n, p in self.offspring_probs}
        if self.displacement is not None:
            d["kernel"] = self.displacement.to_dict()
        return d


@dataclass(frozen=True, eq=False)
class BranchingModel:
    """A motion coupled with a branching law."""

    motion: Motion
    law: BranchingLaw
    label: str = ""

    @property
    def is_lattice(self) -> bool:
        # all offspring sit exactly on the parent and the parent never moves
        return self.motion.kind == CONSTANT and self.law.kind in (
            BINARY_AT_PARENT,
            OFFSPRING_AT_PARENT,
        )

    def transform_kernels(self) -> list[Kernel]:
        """Kernels whose exponential moments enter the growth transform."""
        ks = []
        if self.motion.kind == PURE_JUMP:
            ks.append(self.motion.kernel)
        if self.law.kind == BINARY_ONE_DISPLACED:
            ks.append(self.law.displacement)
        return ks

    def to_dict(self) -> dict:
        d = {"motion": self.motion.to_dict(), "law": self.law.to_dict()}
        if self.label:
            d["label"] = self.label
        return d


def log_laplace(model: BranchingModel, lam: float) -> float:
    """Growth exponent ``psi(lam)`` of the expected exponential sum.

    ``E sum_y exp(-lam y)`` over the time-``t`` population grows like
    ``exp(t psi(lam))``; the value at ``t = 1`` defines the transform of one
    sampling step.  Returns the ``inf`` sentinel past the finiteness edge.
    """
    eta = model.motion.exponent(lam)
    gain = model.law.net_gain(lam)
    if eta == INF or gain == INF:
        return INF
    return eta + gain


def sample_offspring_batch(
    law: BranchingLaw, parents: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized litter sampling.

    Returns the concatenated child positions and the per-parent litter sizes,
    children grouped by parent in order.
    """
    parents = np.asarray(parents, dtype=float)
    m = parents.size
    if law.kind == BINARY_AT_PARENT:
        return np.repeat(parents, 2), np.full(m, 2, dtype=np.int64)
    if law.kind == BINARY_ONE_DISPLACED:
        disp = law.displacement.sample(rng, m)
        children = np.empty(2 * m, dtype=float)
        children[0::2] = parents
        children[1::2] = parents + disp
        return children, np.full(m, 2, dtype=np.int64)
    counts = rng.choice(law.counts, size=m, p=law.probs)
    return np.repeat(parents, counts), counts


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

    Constant motion draws nothing; Brownian motion is one standard normal per
    duration; a pure jump motion draws its Poisson jump counts, then all
    jumps in one ``Kernel.sample`` call, and sums each duration's jumps.
    """
    if motion.kind == CONSTANT:
        return np.zeros_like(durations)
    if motion.kind == BROWNIAN:
        steps = rng.standard_normal(durations.shape)
        steps *= np.sqrt(durations)
        return steps
    owners = _poisson_owners(durations, rng)
    if owners.size == 0:
        return np.zeros_like(durations)
    jumps = motion.kernel.sample(rng, owners.size)
    return np.bincount(owners, weights=jumps, minlength=durations.size)


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
    first malformed value; ``Motion`` and ``BranchingLaw`` check the families.
    """
    expect(isinstance(d, dict), pointer, "expected a model object")
    motion_d, law_d = d.get("motion"), d.get("law")
    expect(isinstance(motion_d, dict), f"{pointer}/motion", "expected a motion object")
    expect(isinstance(law_d, dict), f"{pointer}/law", "expected a law object")
    motion_kind, law_kind = motion_d.get("family"), law_d.get("family")
    jump = None
    if motion_kind == PURE_JUMP:
        jump = Kernel.from_dict(motion_d.get("kernel"), f"{pointer}/motion/kernel")
    with config_pointer(f"{pointer}/motion/family"):
        motion = Motion(motion_kind, jump)
    probs = displacement = None
    if law_kind == OFFSPRING_AT_PARENT:
        probs = _offspring_probs(law_d.get("probs"), f"{pointer}/law/probs")
    if law_kind == BINARY_ONE_DISPLACED:
        displacement = Kernel.from_dict(law_d.get("kernel"), f"{pointer}/law/kernel")
    with config_pointer(f"{pointer}/law/" + ("family" if probs is None else "probs")):
        law = BranchingLaw(law_kind, probs, displacement)
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
