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
    "OutOfRange",
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


class OutOfRange(LevyInfoError):
    """A target value is not attained by the marginal exponent."""


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
    of an exponent argument, or a user-supplied function's value on an atom."""


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


def _count(n, name: str, least: int = 1) -> int:
    """A count of at least ``least``, given as an integer (numpy's included), never truncated."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {n}")
    return n


def _real(value, name: str):
    """``value``, unless it is complex: a TypeError, as Python's float() makes it, not a lost imaginary part."""
    if np.iscomplexobj(value):
        raise TypeError(f"{name} must be real, got {value!r}")
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
