"""Words in the two Dehn-twist generators: parsing, the projection to SL2(Z),
and Nielsen-Thurston classification by trace."""

from __future__ import annotations

import dataclasses
import enum
import math
import re

from .classical import SL2
from .errors import ExponentZeroError, NotHyperbolicError, ParseError


class Gen(enum.Enum):
    TY = "y"
    TZ = "z"


@dataclasses.dataclass(frozen=True)
class Word:
    """A mapping class given as an ordered sequence of (generator, exponent)
    letters; the leftmost letter is leftmost in any matrix product."""

    letters: tuple[tuple[Gen, int], ...]

    def __post_init__(self):
        if any(e == 0 for _, e in self.letters):
            raise ValueError("letter exponents must be nonzero")

    def __str__(self):
        return " ".join(
            g.value if e == 1 else f"{g.value}^{e}" for g, e in self.letters
        )

    def __add__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)


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


_TY_IMAGE = SL2(1, 1, 0, 1)
_TZ_IMAGE = SL2(1, 0, -1, 1)


def sl2_image(w: Word) -> SL2:
    """Project to SL2(Z): t_y -> (1 1; 0 1), t_z -> (1 0; -1 1); both powers
    have closed forms."""
    out = SL2.identity()
    for gen, e in w.letters:
        out = out * (SL2(1, e, 0, 1) if gen is Gen.TY else SL2(1, 0, -e, 1))
    return out


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
    element."""
    t = abs(g.trace)
    if t <= 2:
        raise NotHyperbolicError(f"|trace| = {t} is not > 2")
    return (t + math.sqrt(t * t - 4)) / 2
