"""Exception hierarchy shared by all chainalign modules.

The three branches map onto the CLI exit codes: InputError -> 2,
PreconditionError -> 3, InvariantError -> 4.
"""

import math

__all__ = [
    "ChainAlignError",
    "InputError",
    "PreconditionError",
    "InvariantError",
    "InvalidThreshold",
    "NegativeDelta",
    "BadDelta",
    "TooLarge",
    "UnsupportedArity",
    "DegenerateTriple",
    "IncompatibleTriple",
    "IncompatibleWalk",
    "EmptyGraph",
    "PropertyViolation",
    "ParseError",
    "MalformedRecord",
    "NoCaAtoms",
    "check_size",
    "check_threshold",
]


class ChainAlignError(Exception):
    """Base class for every error raised by this package."""


class InputError(ChainAlignError):
    """Unreadable or malformed input data."""


class PreconditionError(ChainAlignError):
    """A documented precondition of an operation was violated."""


class InvariantError(ChainAlignError):
    """An internal invariant failed; indicates a bug or a broken artifact."""


class InvalidThreshold(PreconditionError, ValueError):
    """A distance threshold, tolerance or factor was negative, NaN or infinite."""


class NegativeDelta(InvalidThreshold):
    """Distance threshold was negative."""


class BadDelta(PreconditionError):
    """Distance threshold outside the range a construction requires."""


class TooLarge(PreconditionError):
    """Input exceeds the size bound of an exhaustive operation."""


class UnsupportedArity(PreconditionError):
    """More chains than the multi-chain solver supports."""


class DegenerateTriple(PreconditionError):
    """Vertex triple is collinear and cannot anchor a rigid motion."""


class IncompatibleTriple(PreconditionError):
    """Two vertex triples whose pairwise distances disagree beyond tolerance."""


class IncompatibleWalk(PreconditionError):
    """A joint walk contains a step whose vertex tuple is not within threshold."""


class EmptyGraph(PreconditionError):
    """Graph has no vertices."""


class PropertyViolation(InvariantError):
    """A generated hard instance failed one of its guaranteed properties."""

    def __init__(self, prop: str, witness: object, message: str = ""):
        self.prop = prop
        self.witness = witness
        text = f"property {prop} violated; witness: {witness!r}"
        if message:
            text = f"{text} ({message})"
        super().__init__(text)


class ParseError(InputError):
    """Malformed text input; carries a 1-based line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class MalformedRecord(ParseError):
    """A fixed-column record that could not be decoded."""


class NoCaAtoms(InputError):
    """No alpha-carbon records found in the input."""


def check_threshold(value: float, name: str = "delta") -> None:
    """Raise unless value is a finite number >= 0.

    Negative values raise NegativeDelta; NaN, +inf and ints too large for a
    float raise InvalidThreshold.  An int beyond floats is named, not
    printed: its digits may exceed what str() of an int may write.
    A NaN compares false both ways, so without this check a solver would
    return the empty alignment and a `> value` validation would pass.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = None
    if value < 0:
        shown = "an int beyond floats" if finite is None else value
        raise NegativeDelta(f"{name} must be >= 0, got {shown}")
    if finite is None:
        raise InvalidThreshold(f"{name} must be finite, got an int beyond floats")
    if not finite:
        raise InvalidThreshold(f"{name} must be finite, got {value}")


def check_size(count: int, limit: int, what: str) -> None:
    """Raise TooLarge when count exceeds limit; every size guard calls this."""
    if count > limit:
        raise TooLarge(f"{count} {what} exceed the limit of {limit}")
