import random
from fractions import Fraction

import pytest

from torusrep.classical import SL2, _binomial_expand, closed_limits, hN_matrix
from torusrep.mcg import Gen, Word, sl2_image

from reference import alpha, fractions


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def hn(g, n):
    """h_N(g) as rows of Fractions."""
    return fractions(hN_matrix(g, n))


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


TY = SL2(1, 1, 0, 1)
TZ = SL2(1, 0, -1, 1)


def random_letters(rng, lo, hi):
    """Between lo and hi letters, each a generator to the power +-1."""
    return tuple((rng.choice((Gen.TY, Gen.TZ)), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi)))


def test_sl2_validation():
    with pytest.raises(ValueError) as err:
        SL2(1, 1, 1, 1)
    assert type(err.value) is ValueError and str(err.value) == "determinant must be 1: [[1, 1], [1, 1]]"
    with pytest.raises(ValueError, match=r"^determinant must be 1: \[\[2, 0\], \[0, 2\]\]$"):
        SL2(a=2, b=0, c=0, d=2)
    g = SL2(2, 1, 1, 1)
    assert g == SL2(a=2, b=1, c=1, d=1) and hash(g) == hash(SL2(2, 1, 1, 1)) and g != TY
    assert repr(g) == "SL2(a=2, b=1, c=1, d=1)" and str(g) == "[[2, 1], [1, 1]]"
    for field in "abcd":
        with pytest.raises(AttributeError):
            setattr(g, field, 0)
    assert (g.a, g.b, g.c, g.d, g.trace) == (2, 1, 1, 1, 3)


def test_alpha_values():
    assert alpha(0, 2) == 1
    assert alpha(1, 2) == 2
    assert alpha(2, 4) == 2  # 4 / 2!
    with pytest.raises(ValueError):
        alpha(2, 2)


def test_hN_matrix_rescales_the_binomial_action_by_alpha():
    # entry (m, n) is alpha_n / alpha_m times the Y^m coefficient of
    # (aX + cY)^(N-1-n) (bX + dY)^n, three Fraction operations apart
    rng = random.Random(11)
    for n_dim in range(2, 9):
        g = sl2_image(Word(random_letters(rng, 0, 6)))
        h = hn(g, n_dim)
        for n in range(n_dim):
            left = _binomial_expand(g.a, g.c, n_dim - 1 - n)
            right = _binomial_expand(g.b, g.d, n)
            for m in range(n_dim):
                c = sum(left[i] * right[m - i] for i in range(len(left)) if 0 <= m - i < len(right))
                assert h[m][n] == alpha(n, n_dim) * c / alpha(m, n_dim), (g, m, n)


def test_hN_identity():
    assert hn(SL2(1, 0, 0, 1), 4) == identity(4)


def test_hN_generators_n2():
    assert hn(TY, 2) == ((1, 2), (0, 1))
    assert hn(TZ, 2) == ((1, 0), (Fraction(-1, 2), 1))


def test_hN_homomorphism_random():
    # h_N of the image of a product of random words is the product of theirs,
    # so this also checks the product that `sl2_image` forms
    rng = random.Random(7)
    for n_dim in (2, 3, 4):
        for _ in range(8):
            u, v = random_letters(rng, 1, 5), random_letters(rng, 1, 5)
            g, h = sl2_image(Word(u)), sl2_image(Word(v))
            assert hn(sl2_image(Word(u + v)), n_dim) == mat_mul(hn(g, n_dim), hn(h, n_dim))


def test_hN_braid_relation():
    for n_dim in range(2, 7):
        u = hn(TY, n_dim)
        v = hn(TZ, n_dim)
        assert mat_mul(mat_mul(u, v), u) == mat_mul(mat_mul(v, u), v)


def test_hN_periodicity_uvu_fourth_power():
    for n_dim in range(2, 7):
        u = hn(TY, n_dim)
        v = hn(TZ, n_dim)
        uvu = mat_mul(mat_mul(u, v), u)
        fourth = mat_mul(mat_mul(uvu, uvu), mat_mul(uvu, uvu))
        assert fourth == identity(n_dim)
        # the square is h_N(-I) = (-1)^(N-1) I
        square = mat_mul(uvu, uvu)
        sign = (-1) ** (n_dim - 1)
        assert square == tuple(
            tuple(Fraction(sign * int(i == j)) for j in range(n_dim))
            for i in range(n_dim)
        )


def test_closed_limits_spot_values():
    cl2 = closed_limits(2)
    assert fractions(cl2.that_limit)[0][1] == 2
    cl3 = closed_limits(3)
    assert fractions(cl3.r_limit)[1][0] == -8
    m0 = fractions(cl3.m_limits[0])
    assert m0[1][0] == 1
    assert m0[0][0] == 4
    assert m0[0][1] == -8


def test_closed_limits_triangular():
    cl = closed_limits(5)
    that, tstar = fractions(cl.that_limit), fractions(cl.tstar_limit)
    for m in range(5):
        for n in range(5):
            if m > n:
                assert that[m][n] == 0
    for n in range(5):
        for m in range(5):
            if m > n:
                assert tstar[n][m] == 0
