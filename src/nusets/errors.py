"""Exception types shared across the package.

Violations found by checkers (functor laws, coherence, validation) are data,
not exceptions; see `nusets.report`. Exceptions are reserved for misuse of an
operation or for malformed input.
"""


class NuSetError(Exception):
    """Base class for all package exceptions."""


class ArityMismatch(NuSetError):
    """Two values built over different arities were combined."""


class NotComposable(NuSetError):
    """compose(g, f) requires stars(g) == length(f)."""


class IndexOutOfRange(NuSetError):
    """A position or direction index is outside its legal range."""


class NoLetter(NuSetError):
    """factor_leftmost needs at least one non-star letter."""


class DimensionOutOfRange(NuSetError):
    """An operation was asked about a dimension beyond the truncation."""


class SideConditionViolated(NuSetError):
    """A restriction or coherence index violates its side condition."""


class CoherenceMismatch(NuSetError):
    """The runtime shadow of a transport: two frame computations that must
    agree came out different. Signals corrupted input or an implementation
    bug, never a property of valid data."""


class UnknownFrame(NuSetError):
    """A frame has no fibre in the family it should index."""


class LawViolation(NuSetError):
    """A precondition requiring an empty violation report failed."""


class ValidationFailure(NuSetError):
    """An indexed set failed validation where validity is a precondition."""


class UnsupportedConstruct(NuSetError):
    """The parametricity translation met a node outside its fragment."""


class NotATelescope(NuSetError):
    """telescope_stats expects a normalized iterated-translation output."""


class ParseError(NuSetError):
    """Malformed textual input. Carries a human-readable location."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ArityError(ParseError):
    """A parsed value does not fit the declared arity."""


class MissingFace(ParseError):
    """A required codimension-1 face map is absent."""


class RangeError(ParseError):
    """A parsed index is outside the carrier it points into."""
