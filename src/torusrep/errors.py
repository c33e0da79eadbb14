"""Exception types shared across the package."""

import contextlib


class PoleError(ArithmeticError):
    """Exact evaluation hit a genuine pole (denominator vanishes after reduction)."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NearPoleError(ArithmeticError):
    """A denominator or divisor of a complex evaluation fell below the tolerance.
    `point` is the index of the failing point in the array evaluated."""

    def __init__(self, message, entry=None, point=None):
        super().__init__(message)
        self.entry = entry
        self.point = point


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


class TooLargeError(ValueError):
    """An input beyond a size the computation is bounded or exact for: a
    dimension above the cap, exact modular checks whose float64 arithmetic
    would leave the range of exactly represented integers, or a value beyond
    the range of float64 (`float_range`)."""


@contextlib.contextmanager
def float_range(what: str):
    """Turn an OverflowError in the block, where `what` is formed as a float,
    into a TooLargeError naming it."""
    try:
        yield
    except OverflowError:
        raise TooLargeError(f"{what} is beyond the float range") from None
