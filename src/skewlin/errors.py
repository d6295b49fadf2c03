"""Exception types shared across the package.

Plain division by a zero element or zero polynomial raises the builtin
ZeroDivisionError; everything else that a caller may want to catch
selectively gets its own class below, all rooted at SkewlinError.
"""


class SkewlinError(Exception):
    """Base class for domain errors raised by this package."""


class NonPrimeError(SkewlinError):
    """The requested field characteristic is not a prime number."""


class ReducibleModulusError(SkewlinError):
    """The supplied field modulus is not irreducible over Z_p."""


class DegreeMismatchError(SkewlinError):
    """A polynomial has the wrong degree or shape for its role."""


class ContextMismatchError(SkewlinError):
    """Operands belong to structurally different fields."""


class TwistMismatchError(SkewlinError):
    """Operands carry different twist steps and cannot be combined."""


class NotAPermutationError(SkewlinError):
    """An additive polynomial was required to permute the field but does not."""


class SingularSystemError(SkewlinError):
    """A linear system that should be regular turned out singular."""


class BothZeroError(SkewlinError):
    """A gcd of two zero polynomials was requested."""


class NotInRingError(SkewlinError):
    """The residue is not a member of the eigenring it was used with."""


class InvariantError(SkewlinError):
    """A result failed a check that the underlying theory guarantees."""


class TooLargeError(SkewlinError):
    """The instance exceeds the exhaustive-search size bound."""


class PolicyBoundError(SkewlinError):
    """The instance exceeds a desk-scale policy cap."""


class DegreeBoundTooSmallError(SkewlinError):
    """The key-generation degree bound is below the supported minimum."""


class DegreeTooLargeError(SkewlinError):
    """A polynomial exceeds the degree precondition of a shape check."""


class ShapeViolationError(SkewlinError):
    """A composition produced terms outside the expected shape."""


class AttackFailedError(SkewlinError):
    """The key-recovery attack gave up; carries the number of rounds used."""

    def __init__(self, rounds_used: int, message: str | None = None):
        self.rounds_used = rounds_used
        super().__init__(message or f"attack failed after {rounds_used} round(s)")


class ParseError(SkewlinError):
    """Malformed JSON or a schema violation in serialized input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
