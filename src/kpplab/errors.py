"""Exception hierarchy for kpplab, and the config value readers that raise
``ConfigError``; domain checks stay in the constructors of the objects read."""
import sys
from contextlib import contextmanager


class KppLabError(Exception):
    """Base class for all kpplab errors."""


class InvalidKernelError(KppLabError):
    """Malformed kernel description (negative density, bad grid, wrong mass)."""


class DomainError(KppLabError):
    """Argument outside the mathematical domain of an operation."""


class NoFiniteTransformError(KppLabError):
    """The exponential transform is infinite for every positive argument."""


class BoundaryInfimumError(KppLabError):
    """The speed functional is minimized only at the finiteness boundary."""


class NoMinimizerError(KppLabError):
    """The speed functional has no interior minimizer (infimum at infinity)."""


class CapacityError(KppLabError):
    """Particle population exceeded the configured cap.

    Carries partial statistics so callers can report how far the run got.
    """

    def __init__(self, message, *, time=None, count=None):
        super().__init__(message)
        self.time = time
        self.count = count


class GridTooSmallError(KppLabError):
    """Kernel truncation radius exceeds the grid half-width."""


class StepSizeError(KppLabError):
    """Explicit time step violated its stability bound."""


class IterationLimitError(KppLabError):
    """Fixed-point iteration did not converge within the iteration budget."""

    def __init__(self, message, *, last_increment=None):
        super().__init__(message)
        self.last_increment = last_increment


class NoFrontError(KppLabError):
    """Field does not cross the requested level."""


class FitError(KppLabError):
    """Front fit is underdetermined (too few points or singular design)."""


class AlignmentError(KppLabError):
    """Profiles cannot be aligned (no overlapping value range)."""


class InsufficientHorizonError(KppLabError):
    """Martingale traces are shorter than the requested generation."""


class ConfigError(KppLabError):
    """Configuration document violates the schema.

    ``pointer`` is a JSON-pointer path to the offending element.
    """

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def expect(cond: bool, pointer: str, message: str) -> None:
    """Raise ``ConfigError(pointer, message)`` unless ``cond`` holds."""
    if not cond:
        raise ConfigError(pointer, message)


def _is_number(v) -> bool:
    """A finite number in the float range.  Python's ``json`` reads ``NaN``
    and ``Infinity``, which RFC 8259 has no numbers for; booleans are not
    numbers either."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def read_number(v, pointer: str) -> float:
    """A JSON number as a float."""
    expect(_is_number(v), pointer, "expected a finite number")
    return float(v)


def read_integer(v, pointer: str) -> int:
    """A JSON number with no fractional part, as an int."""
    expect(_is_number(v) and (isinstance(v, int) or v.is_integer()), pointer, "expected an integer")
    return int(v)


def read_numbers(v, pointer: str) -> list[float]:
    ok = isinstance(v, list) and all(map(_is_number, v))
    expect(ok, pointer, "expected a list of finite numbers")
    return [float(x) for x in v]


@contextmanager
def config_pointer(pointer: str):
    """Re-raise a constructor's ``KppLabError`` as a ``ConfigError`` at ``pointer``."""
    try:
        yield
    except KppLabError as exc:
        raise ConfigError(pointer, str(exc)) from exc
