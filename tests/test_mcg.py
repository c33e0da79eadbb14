import cmath
import math
import random

import pytest

from torusrep.classical import SL2
from torusrep.errors import (
    BadPError,
    ExponentZeroError,
    NotHyperbolicError,
    ParseError,
)
from torusrep.mcg import (
    Gen,
    NTClass,
    Word,
    classify,
    parse_word,
    sl2_image,
    stretch_factor,
)

from reference import chi_p, exponent_sum


def test_parse_basic():
    w = parse_word("y z^-1")
    assert w.letters == ((Gen.TY, 1), (Gen.TZ, -1))
    assert parse_word("y^3").letters == ((Gen.TY, 3),)
    assert parse_word("").letters == ()


def test_parse_round_trip():
    for text in ("y z^-1", "y^3", "z y^2 z^-5 y"):
        assert str(parse_word(text)) == text


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_word("x")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_word("y z^2x")
    assert err.value.position == 2
    with pytest.raises(ExponentZeroError) as err:
        parse_word("y z^0")
    assert err.value.position == 2


def test_word_rejects_zero_exponent():
    with pytest.raises(ValueError):
        Word(((Gen.TY, 0),))


def test_sl2_image_generators_and_products():
    assert sl2_image(parse_word("y")) == SL2(1, 1, 0, 1)
    assert sl2_image(parse_word("z")) == SL2(1, 0, -1, 1)
    assert sl2_image(parse_word("y z^-1")) == SL2(2, 1, 1, 1)
    assert sl2_image(parse_word("y z y")) == SL2(0, 1, -1, 0)


def test_sl2_image_homomorphism_random():
    rng = random.Random(3)
    alphabet = ["y", "z", "y^-1", "z^-1", "y^2", "z^-3"]
    for _ in range(20):
        u = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        v = " ".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        wu, wv = parse_word(u), parse_word(v)
        assert sl2_image(wu + wv) == sl2_image(wu) * sl2_image(wv)
        assert (
            sl2_image(wu).a * sl2_image(wu).d - sl2_image(wu).b * sl2_image(wu).c == 1
        )


def test_braid_relation_downstairs():
    assert sl2_image(parse_word("y z y")) == sl2_image(parse_word("z y z"))


def test_classify():
    assert classify(parse_word("y")) is NTClass.REDUCIBLE_OR_CENTRAL
    assert classify(parse_word("y z^-1")) is NTClass.PSEUDO_ANOSOV
    assert classify(parse_word("y z y")) is NTClass.PERIODIC
    assert classify(parse_word("")) is NTClass.PERIODIC  # identity is central/periodic
    assert classify(parse_word("y z y y z y")) is NTClass.PERIODIC  # -I


def test_classify_conjugation_invariant():
    rng = random.Random(11)
    alphabet = ["y", "z", "y^-1", "z^-1"]
    for base in ("y z^-1", "y", "y z y"):
        w = parse_word(base)
        want = classify(w)
        for _ in range(10):
            u = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
            inv = []
            for tok in reversed(u):
                g, _, e = tok.partition("^")
                e = -int(e) if e else -1
                inv.append(f"{g}^{e}" if e != 1 else g)
            conj = parse_word(" ".join(u)) + w + parse_word(" ".join(inv))
            assert classify(conj) is want


def test_stretch_factor():
    golden = (3 + math.sqrt(5)) / 2
    assert abs(stretch_factor(SL2(2, 1, 1, 1)) - golden) < 1e-12
    assert abs(stretch_factor(SL2(-2, -1, -1, -1)) - golden) < 1e-12
    with pytest.raises(NotHyperbolicError):
        stretch_factor(SL2(1, 1, 0, 1))


def test_exponent_sum():
    assert exponent_sum(parse_word("y z^-1")) == 0
    assert exponent_sum(parse_word("y z y")) == 3
    assert exponent_sum(parse_word("")) == 0


def test_chi_p_values():
    assert chi_p(parse_word("y z^-1"), 7, 2) == 1
    val = chi_p(parse_word("y"), 7, 2)  # c = 1, exponent 3
    a7 = -cmath.exp(2j * cmath.pi / 7)
    assert abs(val - (-a7) ** 3) < 1e-12
    assert abs(abs(chi_p(parse_word("y^5 z^2"), 11, 3)) - 1) < 1e-14


def test_chi_p_multiplicative_and_exponent_sum_only():
    u, v = parse_word("y z"), parse_word("z^-1 y^2")
    p, n_dim = 13, 3
    assert abs(
        chi_p(u + v, p, n_dim) - chi_p(u, p, n_dim) * chi_p(v, p, n_dim)
    ) < 1e-12
    w_same_sum = parse_word("y^3")  # exponent sum 3, same as "y z y"
    assert abs(chi_p(w_same_sum, p, n_dim) - chi_p(parse_word("y z y"), p, n_dim)) < 1e-12


def test_chi_p_validation():
    with pytest.raises(BadPError):
        chi_p(parse_word("y"), 6, 2)
    with pytest.raises(BadPError):
        chi_p(parse_word("y"), 3, 2)
