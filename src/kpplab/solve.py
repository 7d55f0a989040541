"""Deterministic solvers for the nonlinear front equation and its linearization.

The strong form of the population equation is, per model,

    du/dt = (motion generator - 1) u + reaction(u),

with reaction ``E u^N`` (every child at the parent) or ``u * (b conv u)``
(one of two children displaced).  The motion (a lattice stencil per part:
the 3-point Laplacian, the jump kernel's weights) and the law (a reaction and
its derivative) are defined once, in ``_Stepper``, and serve all three
solvers: fourth-order Runge-Kutta under an explicit stability bound, Newton
iteration on the banded Jacobian for travelling waves, and successive
substitution from zero for the mild (integral) form, which converges
monotonically to the minimal solution.
Nonlocal terms are lattice correlations against the field extended by
constant values beyond the grid, with a fast transform for large problems;
each stencil keeps its own transform for every length it is used at.  Every
transform is ``numpy.fft``'s, and the Newton step's band solve calls the
LAPACK that numpy is linked to, so no solver here loads scipy where numpy
exports that LAPACK (its wheels do).

The mild form applies the free semigroup ``exp(s (S - loss))`` exactly, as a
Fourier multiplier: each row is padded with its limits onto a periodic
lattice, wide enough that the transition kernel's mass wrapping past the
padding (the leak, which is logged) stays below ``kernels.TAIL_MASS``.  So
every motion and law has a mild form, on the same lattice operator as the
Runge-Kutta stepper.  The two differ in time discretization, and near the
grid's edges: beyond the grid the strong form holds the field at its limits
(which move as constant states, ``l' = E l^N - l``), the mild form holds only
the reaction there.
"""
from __future__ import annotations

import ctypes
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    FitError,
    GridTooSmallError,
    IterationLimitError,
    NoFrontError,
    StepSizeError,
    config_pointer,
    expect,
    read_integer,
    read_number,
)
from .kernels import TAIL_MASS, Kernel
from .model import BranchingModel

logger = logging.getLogger(__name__)

OVERSHOOT_CLAMP = 1e-10
OVERSHOOT_ERROR = 1e-6
#: the field value whose crossing is the front position
FRONT_LEVEL = 0.5
#: sweep limit of the mild-form successive substitution
PICARD_MAX_ITER = 80
#: sup-norm comoving residual at which the travelling-wave Newton stops
WAVE_TOL = 1e-11
#: iteration limit of the travelling-wave Newton
WAVE_MAX_ITER = 40


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid with a power-of-two point count."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2 or self.n_points & (self.n_points - 1):
            raise DomainError("n_points must be a power of two")
        if not (math.isfinite(self.x_min) and self.x_max > self.x_min and math.isfinite(self.dx)):
            raise DomainError("grid must have finite ends and positive extent")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n_points": self.n_points}

    @staticmethod
    def from_dict(d, pointer: str = "") -> "Grid":
        """Build a grid from its description; raises ``ConfigError`` with pointers."""
        expect(isinstance(d, dict), pointer, "expected a grid object")
        x_min, x_max = (read_number(d.get(k), f"{pointer}/{k}") for k in ("x_min", "x_max"))
        n_points = read_integer(d.get("n_points"), f"{pointer}/n_points")
        with config_pointer(pointer):
            return Grid(x_min, x_max, n_points)


@dataclass(frozen=True)
class Field:
    """Gridded solution values at one time, extended by constants off-grid."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0
    left_limit: float = 0.0
    right_limit: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise DomainError("values must match the grid")
        if not np.all(np.isfinite(v)) or not np.isfinite([self.left_limit, self.right_limit]).all():
            raise DomainError("values and limits must be finite")
        if not math.isfinite(self.t):
            raise DomainError(f"t = {self.t!r} must be finite")
        object.__setattr__(self, "values", v)

    def with_values(self, values, t=None, limits=None) -> "Field":
        left, right = (self.left_limit, self.right_limit) if limits is None else map(float, limits)
        return Field(self.grid, values, self.t if t is None else t, left, right)

    @staticmethod
    def heaviside(grid: Grid) -> "Field":
        return Field(grid, (grid.xs >= 0).astype(float), 0.0, 0.0, 1.0)

    @staticmethod
    def constant(grid: Grid, value: float, t: float = 0.0) -> "Field":
        return Field(grid, np.full(grid.n_points, float(value)), t, value, value)


@dataclass(frozen=True)
class FrontTrace:
    """Level-crossing positions of a moving front over time."""

    t: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if t.shape != m.shape:
            raise DomainError("time and position arrays must match")
        if np.any(np.diff(t) <= 0):
            raise DomainError("front trace must be strictly time-sorted")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class FrontFit:
    """Least-squares fit ``m(t) = c_est t + log_slope ln t + intercept``."""

    c_est: float
    log_slope: float
    intercept: float
    expected_log_slope: float


# -- lattice correlation -------------------------------------------------------


def _next_fast_len(n: int) -> int:
    """The least ``2^a 3^b 5^c >= n``: ``scipy.fft.next_fast_len(n, True)``.

    pocketfft's real transforms are fastest at these lengths.  Each odd
    ``3^b 5^c`` below the best length so far is raised to ``n`` by doubling.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:
            length = odd << (-(-n // odd) - 1).bit_length()
            if length < best:
                best = length
            odd *= 3
        p5 *= 5
    return best


class _Stencil:
    """Lattice weights ``w`` of odd length ``2K+1``, with their transforms.

    The real FFT of ``w[::-1]`` is kept for each transform length on first
    use, so a correlation transforms only the field side.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.half = (self.weights.size - 1) // 2
        self._spectra: dict[int, np.ndarray] = {}

    def fft_valid(self, seq: np.ndarray) -> np.ndarray:
        """``scipy.signal.fftconvolve(seq, w[::-1], "valid")``, bit for bit.

        The same fast length, real transforms and centred slice, with the
        stencil's transform taken from the cache: numpy 2's one-dimensional
        pocketfft transforms give scipy's bits.
        """
        size_w = self.weights.size
        size = _next_fast_len(seq.size + size_w - 1)
        spectrum = self._spectra.get(size)
        if spectrum is None:
            spectrum = self._spectra[size] = np.fft.rfft(self.weights[::-1], size)
        product = np.fft.rfft(seq, size)
        product *= spectrum
        return np.fft.irfft(product, size)[size_w - 1 : seq.size]

    def symbol(self, size: int) -> np.ndarray:
        """Fourier multiplier of this correlation on a periodic lattice of ``size`` points."""
        h = np.zeros(size)
        h[: self.weights.size] = self.weights[::-1]
        return np.fft.rfft(np.roll(h, -self.half))


def _correlate(stencil: _Stencil, values: np.ndarray, left, right) -> np.ndarray:
    """``out[..., i] = sum_j w[K+j] values_ext(..., i+j)`` with constant extension.

    ``values`` is one field or a stack of rows, and ``left``/``right`` are
    its limits, one per row.  The stencil ``w`` has odd length ``2K+1``;
    padding each row with ``K`` copies of its limits makes the boundary sums
    exact.  The padded rows are correlated end to end as one sequence.
    """
    k = stencil.half
    n = values.shape[-1]
    rows = values.reshape(-1, n)
    padded = np.empty((rows.shape[0], n + 2 * k))
    padded[:, :k] = np.asarray(left)[..., None]
    padded[:, k : k + n] = rows
    padded[:, k + n :] = np.asarray(right)[..., None]
    if padded.size * stencil.weights.size <= (1 << 18):
        out = np.convolve(padded.ravel(), stencil.weights[::-1], mode="valid")
    else:
        out = stencil.fft_valid(padded.ravel())
    # a view of ``out``, which numpy checks fits in it: row r starts at
    # r (n + 2K), and the last row ends at its end; the 2K between two rows
    # mix both
    step = out.itemsize
    rows_out = np.ndarray((rows.shape[0], n), out.dtype, out, 0, (step * (n + 2 * k), step))
    return rows_out.reshape(values.shape)


def _lattice_stencil(kernel: Kernel, grid: Grid) -> _Stencil:
    """Lattice weights of a kernel, which must fit inside half the grid."""
    radius = kernel.truncation_radius()
    if radius > 0.5 * (grid.x_max - grid.x_min):
        raise GridTooSmallError(f"kernel radius {radius:.3g} exceeds half the grid extent")
    return _Stencil(kernel.lattice_weights(grid.dx))


def convolve(kernel: Kernel, field: Field) -> Field:
    """Kernel average of a field: ``(a conv u)(x) = int a(z) u(x+z) dz``.

    The orientation matches a jump from ``x`` landing at ``x + z`` with
    density ``a(z)``; for the symmetric named families it coincides with the
    ordinary convolution.
    """
    w = _lattice_stencil(kernel, field.grid)
    return field.with_values(_correlate(w, field.values, field.left_limit, field.right_limit))


def _add_band(band: np.ndarray, stencil: np.ndarray, scale: np.ndarray | None = None) -> None:
    """Add ``A[i, i+j] = scale[i] stencil[K+j]`` to the ``2h+1`` band rows of ``A``.

    ``band`` holds diagonal ``j`` of ``A`` in row ``h - j``, so entry
    ``A[i, i+j]`` sits at ``band[h - j, i + j]``: the rows ``h ... 3h`` of
    LAPACK's ``gbsv`` storage (``_comoving_jacobian``).  A missing ``scale``
    is all ones, and entries outside the matrix land where ``gbsv`` never
    reads.  A scaled stencil is added one diagonal at a time, so no second
    band is formed.
    """
    h = (band.shape[0] - 1) // 2
    k = (stencil.size - 1) // 2
    if scale is None:
        band[h - k : h + k + 1] += stencil[::-1, None]
    else:
        padded = np.concatenate([np.zeros(k), scale, np.zeros(k)])
        for r, weight in enumerate(stencil[::-1]):
            band[h - k + r] += weight * padded[r : r + scale.size]


# -- strong-form stepping --------------------------------------------------------


class _Stepper:
    """The model's operators on one grid, each field extended by its limits.

    The motion is ``(generator - 1) u = sum_S S * u - loss_rate u`` over its
    ``motion_stencils``, one per part, each correlated on its own; the loss
    rate counts the unit-rate clocks (branching, and jumps).  The jump kernel
    keeps unit mass: folding the ``-2`` into it doubles the transform's
    round-off, enough to perturb the unstable state ``u = 1``.
    """

    def __init__(self, model: BranchingModel, grid: Grid):
        self.model = model
        self.grid = grid
        motion = model.motion
        self.motion_stencils = []
        if motion.diffusive:
            half = 0.5 / (grid.dx * grid.dx)
            self.motion_stencils.append(_Stencil([half, -2.0 * half, half]))
        if motion.kernel is not None:
            self.motion_stencils.append(_lattice_stencil(motion.kernel, grid))
        self.loss_rate = 1.0 if motion.kernel is None else 2.0
        disp = model.law.displacement
        self.w_disp = None if disp is None else _lattice_stencil(disp, grid)

    def stability_bound(self) -> float:
        """The smaller of the parts' bounds: ``0.2 min(1, dx^2)`` for the
        Brownian part, 0.1 for the jumps and for a motion with neither."""
        motion = self.model.motion
        bound = 0.2 * min(1.0, self.grid.dx**2) if motion.diffusive else 0.1
        return bound if motion.kernel is None else min(bound, 0.1)

    def check_step(self, dt: float) -> None:
        _check_positive("dt", dt)
        bound = self.stability_bound()
        if dt > bound * (1.0 + 1e-12):
            raise StepSizeError(f"dt = {dt:.3g} exceeds the stability bound {bound:.3g}")

    def symbol(self, size: int):
        """Fourier multiplier of the motion stencils on ``size`` periodic points."""
        symbols = [s.symbol(size) for s in self.motion_stencils] or [np.zeros(size // 2 + 1)]
        return np.sum(symbols, axis=0)

    def reaction(self, u: np.ndarray, left, right) -> np.ndarray:
        """The law's term on a field or a stack of rows with the given limits.

        The limits themselves react as constant states, by the law's
        ``generating_function``.
        """
        if self.w_disp is not None:
            return u * _correlate(self.w_disp, u, left, right)
        return self.model.law.generating_function(u)

    def reaction_derivative(self, u: np.ndarray, left: float, right: float):
        """Jacobian of ``reaction`` at a field: ``diag(d) + diag(s) W_disp``.

        Returns ``(d, s)``; ``s`` is ``None`` for the at-parent laws, whose
        reaction is local.
        """
        if self.w_disp is not None:
            return _correlate(self.w_disp, u, left, right), u
        law = self.model.law
        return sum(p * n * u ** (int(n) - 1) for n, p in zip(law.counts, law.probs) if n >= 1), None

    def rhs(self, u: np.ndarray, left: float, right: float) -> np.ndarray:
        motion = -self.loss_rate * u
        for stencil in self.motion_stencils:
            motion += _correlate(stencil, u, left, right)
        return motion + self.reaction(u, left, right)

    def rates(self, u: np.ndarray, limits: np.ndarray):
        """Time derivatives of a field and of its two limits, which react as
        constant states."""
        return self.rhs(u, *limits), self.model.law.generating_function(limits) - limits

    def step(self, u: np.ndarray, limits: np.ndarray, dt: float):
        """One RK4 step of a field and, through the same stages, of its limits."""
        k1, l1 = self.rates(u, limits)
        k2, l2 = self.rates(u + 0.5 * dt * k1, limits + 0.5 * dt * l1)
        k3, l3 = self.rates(u + 0.5 * dt * k2, limits + 0.5 * dt * l2)
        k4, l4 = self.rates(u + dt * k3, limits + dt * l3)
        return _rk4_combine(u, k1, k2, k3, k4, dt), _rk4_combine(limits, l1, l2, l3, l4, dt)


def _rk4_combine(y, k1, k2, k3, k4, dt: float) -> np.ndarray:
    """``y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)``, bit for bit, formed in ``k2``
    and ``k3``, which it overwrites."""
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} = {value!r} must be positive and finite")


def _check_range(values: np.ndarray) -> np.ndarray:
    overshoot = max(float(-values.min()), float(values.max() - 1.0), 0.0)  # nan for a nan value
    if not overshoot <= OVERSHOOT_ERROR:
        raise StepSizeError(
            f"solution left [0, 1] by {overshoot:.3g}; reduce the time step"
        )
    if 0.0 < overshoot < OVERSHOOT_CLAMP:
        return np.clip(values, 0.0, 1.0)
    return values


def _check_horizon(field: Field, t_end: float) -> None:
    if not (math.isfinite(t_end) and t_end >= field.t):
        raise DomainError(f"t_end = {t_end!r} must be finite and not precede the field time")


def evolve(model: BranchingModel, field: Field, t_end: float, dt: float) -> Field:
    """March the strong form to ``t_end`` in uniform steps of at most ``dt``."""
    _check_horizon(field, t_end)
    stepper = _Stepper(model, field.grid)
    stepper.check_step(dt)
    span = t_end - field.t
    if span == 0:
        return field
    n_steps = max(1, int(math.ceil(span / dt - 1e-12)))
    h = span / n_steps
    u, limits = field.values, np.array([field.left_limit, field.right_limit])
    for _ in range(n_steps):
        u, limits = stepper.step(u, limits, h)
        u = _check_range(u)
    return field.with_values(u, t_end, limits)


def track_front(
    model: BranchingModel,
    field: Field,
    t_end: float,
    dt: float,
    record_interval: float,
    snapshot_times: tuple[float, ...] = (),
) -> tuple[Field, FrontTrace, dict[float, Field]]:
    """Evolve the field while recording ``FRONT_LEVEL`` crossing positions.

    Steps are aligned so that every record time is hit exactly; snapshots of
    the full field are kept at the requested times, whether or not the field
    crosses the level there.  Record times without a crossing are left out
    of the trace and logged once, as a count.  The span ``t_end - field.t``
    must be a whole number of record intervals, and each snapshot time a
    record time, ``field.t`` plus one to that many intervals, both to 1e-9
    of an interval.
    """
    _check_horizon(field, t_end)
    _check_positive("record_interval", record_interval)
    stepper = _Stepper(model, field.grid)
    stepper.check_step(dt)
    intervals = (t_end - field.t) / record_interval
    n_records = round(intervals)
    if abs(intervals - n_records) > 1e-9:
        raise DomainError(
            f"the span {t_end - field.t:g} is not a whole number of record intervals "
            f"{record_interval:g}"
        )
    for time in snapshot_times:
        k = (time - field.t) / record_interval
        if not (0.5 < k < n_records + 0.5 and abs(k - round(k)) <= 1e-9):
            raise DomainError(f"snapshot {time!r} is not a record time in ({field.t:g}, {t_end:g}]")
    per = max(1, int(math.ceil(record_interval / dt - 1e-12)))
    h = record_interval / per
    u, limits = field.values, np.array([field.left_limit, field.right_limit])
    t = field.t
    times, fronts = [], []
    snapshots: dict[float, Field] = {}
    wanted = sorted(snapshot_times)
    for _ in range(n_records):
        for _ in range(per):
            u, limits = stepper.step(u, limits, h)
        u = _check_range(u)
        t += record_interval
        while wanted and t > wanted[0] - 0.5 * record_interval:
            snapshots[wanted.pop(0)] = field.with_values(u.copy(), t, limits)
        try:
            fronts.append(front_position(field.with_values(u, t, limits)))
        except NoFrontError:
            continue
        times.append(t)
    if len(times) < n_records:
        skipped = n_records - len(times)
        logger.warning(
            "level %g not crossed at %d of %d record times", FRONT_LEVEL, skipped, n_records
        )
    return field.with_values(u, t, limits), FrontTrace(np.array(times), np.array(fronts)), snapshots


# -- mild-form (integral) solver --------------------------------------------------


def picard_solve(
    model: BranchingModel,
    f: Field,
    t: float,
    n_time: int,
    tol: float = 1e-10,
    return_history: bool = False,
):
    """Minimal solution of the mild form by successive substitution from zero.

    The mild form is ``u(t) = T_t f + int_0^t T_s reaction(u(t - s)) ds``,
    with the free semigroup ``T_s = exp(s (S - loss))`` built from the same
    motion stencil ``S`` and loss rate as the strong form, for every motion
    and law.  ``T_s`` is applied exactly, as the Fourier multiplier
    ``exp(s (S^(xi) - loss))``: each row is padded with its limits onto a
    periodic lattice whose length doubles from twice the grid until the
    wrapped transition kernel carries less than ``kernels.TAIL_MASS`` beyond
    the padding at every time row.  That leak, times the jump between the
    limits, bounds the wrap-around error of each semigroup application; it is
    logged once per solve.  The limits evolve as constant states, under
    ``exp(s (S^(0) - loss))``.

    Each sweep applies the law's reaction to all time rows at once and
    integrates it against the semigroup by the trapezoid rule, frequency by
    frequency.  Iterates increase monotonically to the minimal solution;
    failure to reach ``tol`` within ``PICARD_MAX_ITER`` sweeps raises
    ``IterationLimitError`` carrying the last increment.  A ``tol`` that is
    not positive and finite raises ``DomainError`` before the first sweep.
    """
    if np.any(f.values < 0) or np.any(f.values > 1):
        raise DomainError("initial data must lie in [0, 1]")
    if n_time < 2:
        raise DomainError("need at least two time points")
    if not (math.isfinite(t) and t >= 0):
        raise DomainError("the horizon must be finite and nonnegative")
    _check_positive("tol", tol)
    stepper = _Stepper(model, f.grid)
    n = f.grid.n_points
    dt = t / (n_time - 1)
    ts = np.linspace(0.0, t, n_time)[:, None]

    size = 2 * n
    while True:
        pad = (size - n) // 2
        coeff = np.exp(ts * (stepper.symbol(size) - stepper.loss_rate))
        kernels = np.fft.irfft(coeff, size, axis=1)
        leak = float(kernels[:, pad : size - pad + 1].sum(axis=1).max())
        if leak < TAIL_MASS:
            break
        size *= 2
    logger.info("mild form on %d periodic points; wrap-around mass %.3g", size, leak)

    def periodic(rows, limits):
        """Spectra of the rows, each padded with its limits to ``size`` points."""
        out = np.empty((rows.shape[0], size))
        out[:, :n] = rows
        out[:, n : n + pad] = limits[:, 1:]
        out[:, n + pad :] = limits[:, :1]
        return np.fft.rfft(out, axis=1)

    f_limits = np.array([[f.left_limit, f.right_limit]])
    base = np.fft.irfft(coeff * periodic(f.values[None, :], f_limits), size, axis=1)[:, :n]
    decay = coeff[:, 0].real
    base_limits = decay[:, None] * f_limits
    field_integral = _causal_time_integral(coeff, dt)
    limits_integral = _causal_time_integral(decay, dt)

    u = np.zeros((n_time, n))
    limits = np.zeros((n_time, 2))
    history = []
    last = math.inf
    for _ in range(PICARD_MAX_ITER):
        g = stepper.reaction(u, limits[:, 0], limits[:, 1])
        g_limits = model.law.generating_function(limits)
        integral = field_integral(periodic(g, g_limits))
        u_new = base + np.fft.irfft(integral, size, axis=1)[:, :n]
        limits = base_limits + limits_integral(g_limits).real
        if return_history:
            history.append(u_new)
        last = float(np.max(np.abs(u_new - u)))
        u = u_new
        if last < tol:
            out = Field(f.grid, u[-1], t, float(limits[-1, 0]), float(limits[-1, 1]))
            return (out, history) if return_history else out
    raise IterationLimitError(
        f"no convergence in {PICARD_MAX_ITER} sweeps (last increment {last:.3g})",
        last_increment=last,
    )


def _causal_time_integral(coeff: np.ndarray, dt: float):
    """The map ``rows -> int_0^{t_j} coeff(s) rows(t_j - s) ds``, causal in time.

    The integral is the trapezoid rule on the time rows, convolved by FFT in
    time on the least fast length (``_next_fast_len``) that holds the whole
    ``2n - 1`` point convolution of ``n`` rows, so nothing wraps; ``coeff`` is
    transformed once, here.  It holds one value per time row, shared by every
    column of ``rows``, or one per time row and column; either may be
    complex, and so is the result.
    """
    n = coeff.shape[0]
    coeff = coeff.reshape(n, -1)
    size = _next_fast_len(2 * n - 1)
    spectrum = np.fft.fft(coeff, size, axis=0)

    def integral(rows: np.ndarray) -> np.ndarray:
        full = np.fft.ifft(spectrum * np.fft.fft(rows, size, axis=0), axis=0)[:n]
        full -= 0.5 * (coeff[0] * rows + coeff * rows[0])
        return dt * full

    return integral


# -- front measurement -------------------------------------------------------------


def front_position(field: Field) -> float:
    """Linear interpolation of the unique ``FRONT_LEVEL`` crossing of a
    monotone field."""
    values = field.values
    above = values >= FRONT_LEVEL
    if above.all() or not above.any():
        raise NoFrontError(f"field does not cross level {FRONT_LEVEL}")
    i = int(np.argmax(above))
    if i == 0:
        raise NoFrontError("level crossing lies on the grid edge")
    xs = field.grid.xs
    x0, x1 = xs[i - 1], xs[i]
    v0, v1 = values[i - 1], values[i]
    if v1 == v0:
        return float(x1)
    return float(x0 + (FRONT_LEVEL - v0) * (x1 - x0) / (v1 - v0))


def measure_front(
    trace: FrontTrace, lambda_star: float, window: tuple[float, float]
) -> FrontFit:
    """Fit ``m(t) = c t + s ln t + b`` over a window of the front trace.

    The logarithmic coefficient of the recentered limit is
    ``-3 / (2 lambda_star)``, reported as ``expected_log_slope``.
    """
    lo, hi = window
    mask = (trace.t >= lo) & (trace.t <= hi)
    if np.count_nonzero(mask) < 10:
        raise FitError("need at least 10 trace entries inside the window")
    t = trace.t[mask]
    m = trace.m[mask]
    design = np.column_stack([t, np.log(t), np.ones_like(t)])
    sol, _, rank, _ = np.linalg.lstsq(design, m, rcond=None)
    if rank < 3:
        raise FitError("singular design matrix; widen the fit window")
    return FrontFit(float(sol[0]), float(sol[1]), float(sol[2]), -1.5 / lambda_star)


def wave_residual(profile: Field, c: float, model: BranchingModel, dt: float) -> float:
    """Sup-norm defect of a profile as a traveling wave of speed ``c``.

    Advances one Runge-Kutta step (``evolve``, so ``dt`` must respect the
    stability bound), resamples the result at ``x + c dt`` with constant
    extension, and compares with the original; a small residual certifies a
    numerical traveling wave.
    """
    stepped = evolve(model, profile, profile.t + dt, dt)
    xs = profile.grid.xs
    shifted = np.interp(
        xs + c * dt, xs, stepped.values, left=stepped.left_limit, right=stepped.right_limit
    )
    return float(np.max(np.abs(shifted - profile.values)))


def traveling_wave_profile(model: BranchingModel, c: float, grid: Grid) -> Field:
    """Steady comoving profile at speed ``c``: solves ``rhs(u) + c u' = 0``.

    The wave runs between the law's two constant states, its extinction
    probability ``q`` on the left (0 for a law without death) and 1 on the
    right.  Newton iteration starts from the logistic between them,
    ``q + (1 - q)/(1 + exp(-x))``, and (banded Jacobian, central-difference
    transport, phase pinned at the level ``(q + 1)/2``) drives the comoving
    residual below ``WAVE_TOL``.  An iterate that overflows, like running out
    of iterations, raises ``IterationLimitError``; a converged solution that
    leaves ``[q, 1]`` by more than ``OVERSHOOT_ERROR`` (as below ``c*``, where
    no monotone wave exists) raises ``DomainError``, and a smaller excursion
    is clipped; a ``c`` that is not finite raises ``DomainError`` before the
    first iterate.  Evolving the returned
    profile and shifting back by ``c dt`` leaves only discretization error,
    so it is the right object for residual tests.

    Finite-time evolution cannot produce this profile: the front relaxes to
    its limiting speed only algebraically, which leaves a resolution-
    independent speed deficit in any evolved snapshot.
    """
    if not math.isfinite(c):
        raise DomainError(f"c = {c!r} must be finite")
    xs = grid.xs
    q = model.law.extinction_probability()
    mid = 0.5 * (q + 1.0)
    stepper = _Stepper(model, grid)
    values = q + (1.0 - q) / (1.0 + np.exp(-xs))
    i0 = int(np.argmin(np.abs(xs)))
    with np.errstate(over="raise", invalid="raise"):
        try:
            for _ in range(WAVE_MAX_ITER):
                f = _comoving_residual(stepper, values, c, q)
                f[i0] = values[i0] - mid  # phase pin replaces the (redundant) equation here
                if float(np.max(np.abs(f))) < WAVE_TOL:
                    break
                values = values - _pinned_newton_step(stepper, values, f, c, q, i0)
            else:
                raise IterationLimitError(
                    "comoving Newton iteration did not converge",
                    last_increment=float(np.max(np.abs(_comoving_residual(stepper, values, c, q)))),
                )
        except FloatingPointError as exc:
            raise IterationLimitError(f"comoving Newton iteration diverged ({exc})") from exc
    overshoot = max(q - float(values.min()), float(values.max()) - 1.0, 0.0)
    if overshoot > OVERSHOOT_ERROR:
        raise DomainError(
            f"the comoving solution at c = {c} leaves [q, 1] by {overshoot:.3g}, so it is no wave"
        )
    return Field(grid, np.clip(values, q, 1.0), 0.0, q, 1.0)


#: the central difference ``u[i+1] - u[i-1]`` as a lattice stencil
_CENTRAL = _Stencil([-1.0, 0.0, 1.0])


def _comoving_residual(stepper: _Stepper, u: np.ndarray, c: float, q: float) -> np.ndarray:
    """``rhs(u) + c u'`` between the wave's limits ``q`` and 1, ``u'`` the
    central difference."""
    du = _correlate(_CENTRAL, u, q, 1.0)
    return stepper.rhs(u, q, 1.0) + c * du / (2.0 * stepper.grid.dx)


def _comoving_jacobian(stepper: _Stepper, u: np.ndarray, c: float, q: float) -> np.ndarray:
    """Jacobian of ``_comoving_residual`` at ``u``, in LAPACK ``gbsv`` storage.

    The half-bandwidth ``h`` is the largest of the motion stencils', the
    displacement kernel's and the transport stencil's (one).  The result is
    one Fortran-ordered ``(3h+1, n)`` buffer with ``A[i, j]`` at
    ``[2h + i - j, j]``: the band fills rows ``h ... 3h`` (``solve_banded``
    form, see ``_add_band``), and rows ``0 ... h-1`` are zero, where
    ``gbsv``'s factorization keeps its fill-in.  So ``_solve_band`` factors
    it in place with ``dgbsv``, with no copy, at every half-bandwidth.
    """
    stencils = [*stepper.motion_stencils, _CENTRAL]
    if stepper.w_disp is not None:
        stencils.append(stepper.w_disp)
    h = max(s.half for s in stencils)
    lapack_band = np.zeros((3 * h + 1, u.size), order="F")
    band = lapack_band[h:]
    for stencil in stepper.motion_stencils:
        _add_band(band, stencil.weights)
    _add_band(band, c / (2.0 * stepper.grid.dx) * _CENTRAL.weights)
    diagonal, scale = stepper.reaction_derivative(u, q, 1.0)
    band[h] += diagonal - stepper.loss_rate
    if scale is not None:
        _add_band(band, stepper.w_disp.weights, scale)
    return lapack_band


def _pinned_newton_step(
    stepper: _Stepper, u: np.ndarray, f: np.ndarray, c: float, q: float, i0: int
) -> np.ndarray:
    """Newton step ``J^-1 f`` with row ``i0`` of ``J`` replaced by the phase
    pin ``e_i0``; ``f`` is overwritten, and the Jacobian dies on return."""
    lapack_band = _comoving_jacobian(stepper, u, c, q)
    h = (lapack_band.shape[0] - 1) // 3
    pinned = np.arange(max(0, i0 - h), min(u.size, i0 + h + 1))
    lapack_band[2 * h + i0 - pinned, pinned] = 0.0
    lapack_band[2 * h, i0] = 1.0
    return _solve_band(lapack_band, f)


def _solve_band(lapack_band: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for ``A`` in ``gbsv`` storage, overwriting both.

    ``dgbsv`` runs on the buffer itself, for every half-bandwidth ``h``: the
    routine of the LAPACK numpy is linked to (``_numpy_lapack``), or scipy's
    where numpy exports none.  A non-finite entry raises ``ValueError``
    before the call, and a singular ``A`` raises ``LinAlgError``.
    """
    h = (lapack_band.shape[0] - 1) // 3
    if lapack_band.shape != (3 * h + 1, b.size):
        raise ValueError("shapes of ab and b are not compatible.")
    if not (np.isfinite(lapack_band[h:]).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    gbsv = _numpy_lapack()
    if gbsv is None:
        from scipy.linalg.lapack import dgbsv

        _, _, b, info = dgbsv(h, h, lapack_band, b, overwrite_ab=True, overwrite_b=True)
    else:
        ipiv = np.empty(b.size, np.int64)
        info = _call(gbsv, b.size, h, h, 1, lapack_band, 3 * h + 1, ipiv, b, b.size)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return b


@functools.cache
def _numpy_lapack():
    """``dgbsv`` of the LAPACK that numpy is linked to, or ``None``.

    numpy's wheels map OpenBLAS, built with 64-bit integers, and export its
    LAPACK as ``scipy_<routine>_64_``; ``dlsym`` on numpy's linear-algebra
    module also searches the libraries it links.  A numpy built against
    another LAPACK (conda's, macOS Accelerate) resolves no such symbol, and
    ``_solve_band`` calls scipy's ``dgbsv`` instead.
    """
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        gbsv = lib.scipy_dgbsv_64_
    except AttributeError:
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    f64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS, WRITEABLE")
    ipiv = np.ctypeslib.ndpointer(np.int64, 1, flags="C_CONTIGUOUS, WRITEABLE")
    gbsv.argtypes = [i64, i64, i64, i64, f64, i64, ipiv, f64, i64, i64]
    gbsv.restype = None
    return gbsv


def _call(routine, *args) -> int:
    """Call a Fortran LAPACK ``routine`` with ``args`` (integers, which are
    passed by reference, and arrays) and a trailing ``info``; return it."""
    info = ctypes.c_int64(0)
    refs = (a if isinstance(a, np.ndarray) else ctypes.byref(ctypes.c_int64(a)) for a in args)
    routine(*refs, ctypes.byref(info))
    return info.value
