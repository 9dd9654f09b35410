"""Exception types raised by the levy_info package, and the count, real-number, positive-number and argument-type checks.

Every error raised on purpose by this package derives from ``LevyInfoError``,
so callers can catch numerical/validation problems with a single handler
while letting genuine bugs (TypeError, etc.) propagate.
"""

import math
import operator

import numpy as np

__all__ = [
    "LevyInfoError",
    "InvalidParameter",
    "OutOfDomain",
    "EmptyPrior",
    "NonPositiveWeight",
    "ZeroMass",
    "IncompatibleSupport",
    "NonFiniteValue",
    "DegenerateWeights",
    "OffSupport",
    "UnsupportedRepresentation",
    "GridExceedsHorizon",
    "TooFewSamples",
    "UsageError",
]


class LevyInfoError(Exception):
    """Base class for all levy_info errors."""


class InvalidParameter(LevyInfoError):
    """A model or filter parameter violates its constraint (says which)."""


class OutOfDomain(LevyInfoError):
    """An exponent argument lies outside the admissible set of the model."""


class EmptyPrior(LevyInfoError):
    """A prior was constructed with no atoms."""


class NonPositiveWeight(LevyInfoError):
    """A prior atom has weight <= 0."""


class ZeroMass(LevyInfoError):
    """A density integrates to zero (numerically) over the given interval."""


class IncompatibleSupport(LevyInfoError):
    """Prior atoms fall outside the admissible set of the noise model.

    The offending atom positions are available as the ``atoms`` attribute.
    """

    def __init__(self, message, atoms=()):
        super().__init__(message)
        self.atoms = tuple(atoms)


class NonFiniteValue(LevyInfoError):
    """A value that must be finite is not: an observation, the imaginary part
    of an exponent argument, psi0 or a derivative, a user-supplied function's
    value on an atom, or a sampled path or draw that overflows at a huge time."""


class OffSupport(LevyInfoError):
    """An observation is a value the model's information process cannot
    take: negative for a nonnegative family, or off the integer lattice of a
    counting family (after removing the drift)."""


class DegenerateWeights(LevyInfoError):
    """Every posterior log-weight underflowed to -inf; the observation is
    incompatible with the model/prior pairing."""


class UnsupportedRepresentation(LevyInfoError):
    """The requested alternative construction does not exist for the family."""


class GridExceedsHorizon(LevyInfoError):
    """A bridge grid contains times at or beyond the horizon (or past the
    configured time-change cap)."""


class TooFewSamples(LevyInfoError):
    """A statistical test was invoked with fewer samples than it supports."""


class UsageError(LevyInfoError):
    """Bad command line arguments (CLI only)."""


# the largest count numpy can size an array by
_MOST = int(np.iinfo(np.intp).max)


def _count(n, name: str, least: int = 1, most=_MOST) -> int:
    """A count of at least ``least`` and at most ``most``, given as an integer
    (numpy's included), never truncated; a boolean is no count.  The default
    ``most`` refuses a count numpy cannot size an array by before anything is
    allocated; seeds and stream keys, which size nothing, pass ``math.inf``."""
    if isinstance(n, bool):
        raise InvalidParameter(f"{name} must be an integer, got {n!r}")
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {n}")
    if n > most:
        raise InvalidParameter(f"{name} must be <= {most}, got {n}")
    return n


def _floats(n: int, width: int, name: str) -> int:
    """The count ``n``, once numpy can size ``n`` rows of ``width`` float64
    values: InvalidParameter otherwise, before anything is allocated."""
    most = _MOST // 8 // width
    if n > most:
        raise InvalidParameter(f"{name} must be <= {most} for rows of {width} float64 values, got {n}")
    return n


def _real(value, name: str):
    """``value``, unless it is complex or boolean: a TypeError, as Python's
    float() makes it for a complex value, not a lost imaginary part or a flag
    read as 0 or 1."""
    kind = np.asarray(value).dtype.kind
    if kind == "c":
        raise TypeError(f"{name} must be real, got {value!r}")
    if kind == "b":
        raise TypeError(f"{name} must be a number, not a boolean, got {value!r}")
    return value


def _positive(value, name: str) -> float:
    """A positive, finite number as a float."""
    value = float(_real(value, name))
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")
    return value


def _instances(*pairs) -> None:
    """InvalidParameter unless every (value, type) pair matches: the guard
    against arguments passed in the wrong order."""
    if not all(isinstance(value, kind) for value, kind in pairs):
        wanted = " and ".join(("an " if kind.__name__[0] in "AEIOU" else "a ") + kind.__name__ for _, kind in pairs)
        got = " and ".join(type(value).__name__ for value, _ in pairs)
        raise InvalidParameter(f"expected {wanted}, got {got}")
