"""Exception types shared across the package."""


class PoleError(ArithmeticError):
    """Exact evaluation hit a genuine pole (denominator vanishes after reduction)."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NearPoleError(ArithmeticError):
    """Complex evaluation denominator fell below the configured tolerance.
    `point` is the index of the failing point in the array evaluated."""

    def __init__(self, message, entry=None, point=None):
        super().__init__(message)
        self.entry = entry
        self.point = point


class SingularError(ArithmeticError):
    """Matrix inversion of a matrix whose determinant is the zero function."""


class ParseError(ValueError):
    """Malformed word; `position` is the character offset of the bad token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentZeroError(ParseError):
    """A word token carried the exponent 0."""

    def __init__(self, position):
        super().__init__("exponent must be nonzero", position)


class NotHyperbolicError(ValueError):
    """Stretch factor requested for a matrix with |trace| <= 2."""


class BadPError(ValueError):
    """Level p is even, too small for the dimension, or the root index is invalid."""


class ConvergenceError(RuntimeError):
    """The eigenvalue solver failed to converge."""
