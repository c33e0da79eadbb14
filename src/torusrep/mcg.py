"""Words in the two Dehn-twist generators: parsing, the projection to SL2(Z),
and Nielsen-Thurston classification by trace."""

from __future__ import annotations

import enum
import math
import re
from collections import namedtuple

from .classical import SL2
from .errors import ExponentZeroError, NotHyperbolicError, ParseError, float_range


class Gen(enum.Enum):
    TY = "y"
    TZ = "z"


class Word(namedtuple("Word", "letters")):
    """A mapping class given as an ordered sequence of (generator, exponent)
    letters; the leftmost letter is leftmost in any matrix product."""

    __slots__ = ()

    def __new__(cls, letters: tuple[tuple[Gen, int], ...]):
        if any(e == 0 for _, e in letters):
            raise ValueError("letter exponents must be nonzero")
        return super().__new__(cls, letters)

    def __str__(self):
        return " ".join(
            g.value if e == 1 else f"{g.value}^{e}" for g, e in self.letters
        )


_TOKEN = re.compile(r"^([yz])(?:\^(-?\d+))?$")


def parse_word(text: str) -> Word:
    """Parse the wire grammar: whitespace-separated tokens `y`, `z`, `y^<int>`,
    `z^<int>` with nonzero exponents."""
    letters = []
    pos = 0
    for token in text.split():
        pos = text.index(token, pos)
        m = _TOKEN.match(token)
        if not m:
            raise ParseError(f"bad token {token!r}", pos)
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp == 0:
            raise ExponentZeroError(pos)
        letters.append((Gen(m.group(1)), exp))
        pos += len(token)
    return Word(tuple(letters))


def sl2_image(w: Word) -> SL2:
    """Project to SL2(Z): t_y -> (1 1; 0 1), t_z -> (1 0; -1 1). Both powers
    have closed forms, (1 e; 0 1) and (1 0; -e 1), so a letter changes one
    column of the running product, kept in plain ints; one SL2 (with its
    determinant check) is built at the end."""
    a, b, c, d = 1, 0, 0, 1
    for gen, e in w.letters:
        if gen is Gen.TY:  # times (1 e; 0 1)
            b, d = a * e + b, c * e + d
        else:  # times (1 0; -e 1)
            a, c = a - b * e, c - d * e
    return SL2(a, b, c, d)


class NTClass(enum.Enum):
    PERIODIC = "Periodic"
    REDUCIBLE_OR_CENTRAL = "ReducibleOrCentral"
    PSEUDO_ANOSOV = "PseudoAnosov"


def classify(w: Word) -> NTClass:
    """Nielsen-Thurston type from the trace of the SL2(Z) image."""
    g = sl2_image(w)
    t = abs(g.trace)
    if t > 2:
        return NTClass.PSEUDO_ANOSOV
    if t < 2 or g.is_plus_minus_identity():
        return NTClass.PERIODIC
    return NTClass.REDUCIBLE_OR_CENTRAL


def stretch_factor(g: SL2) -> float:
    """Dominant eigenvalue modulus (|tr| + sqrt(tr^2 - 4)) / 2 of a hyperbolic
    element; TooLargeError where tr^2 is beyond the float range."""
    t = abs(g.trace)
    if t <= 2:
        raise NotHyperbolicError(f"|trace| = {t} is not > 2")
    with float_range("the squared trace"):
        return (t + math.sqrt(t * t - 4)) / 2
