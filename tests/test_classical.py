import random
from fractions import Fraction

import pytest

from torusrep.classical import SL2, _binomial_expand, closed_limits, hN_matrix

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


def test_sl2_validation():
    with pytest.raises(ValueError):
        SL2(1, 1, 1, 1)


def test_sl2_inverse():
    g = TY * TZ
    assert g * g.inverse() == SL2.identity()


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
    gens = [TY, TZ, TY.inverse(), TZ.inverse()]
    for n_dim in range(2, 9):
        g = SL2.identity()
        for _ in range(rng.randint(0, 6)):
            g = g * rng.choice(gens)
        h = hn(g, n_dim)
        for n in range(n_dim):
            left = _binomial_expand(g.a, g.c, n_dim - 1 - n)
            right = _binomial_expand(g.b, g.d, n)
            for m in range(n_dim):
                c = sum(left[i] * right[m - i] for i in range(len(left)) if 0 <= m - i < len(right))
                assert h[m][n] == alpha(n, n_dim) * c / alpha(m, n_dim), (g, m, n)


def test_hN_identity():
    assert hn(SL2.identity(), 4) == identity(4)


def test_hN_generators_n2():
    assert hn(TY, 2) == ((1, 2), (0, 1))
    assert hn(TZ, 2) == ((1, 0), (Fraction(-1, 2), 1))


def test_hN_homomorphism_random():
    rng = random.Random(7)
    gens = [TY, TZ, TY.inverse(), TZ.inverse()]
    for n_dim in (2, 3, 4):
        for _ in range(8):
            g = SL2.identity()
            h = SL2.identity()
            for _ in range(rng.randint(1, 5)):
                g = g * rng.choice(gens)
                h = h * rng.choice(gens)
            assert hn(g * h, n_dim) == mat_mul(hn(g, n_dim), hn(h, n_dim))


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
