import random
from fractions import Fraction

import pytest

from torusrep.classical import SL2, _binomial_expand, closed_limits, hN_matrix

from reference import alpha


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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
        h = hN_matrix(g, n_dim)
        for n in range(n_dim):
            left = _binomial_expand(g.a, g.c, n_dim - 1 - n)
            right = _binomial_expand(g.b, g.d, n)
            for m in range(n_dim):
                c = sum(left[i] * right[m - i] for i in range(len(left)) if 0 <= m - i < len(right))
                assert h[m][n] == alpha(n, n_dim) * c / alpha(m, n_dim), (g, m, n)


def test_hN_identity():
    assert hN_matrix(SL2.identity(), 4) == identity(4)


def test_hN_generators_n2():
    assert hN_matrix(TY, 2) == ((1, 2), (0, 1))
    assert hN_matrix(TZ, 2) == ((1, 0), (Fraction(-1, 2), 1))


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
            assert hN_matrix(g * h, n_dim) == mat_mul(
                hN_matrix(g, n_dim), hN_matrix(h, n_dim)
            )


def test_hN_braid_relation():
    for n_dim in range(2, 7):
        u = hN_matrix(TY, n_dim)
        v = hN_matrix(TZ, n_dim)
        assert mat_mul(mat_mul(u, v), u) == mat_mul(mat_mul(v, u), v)


def test_hN_periodicity_uvu_fourth_power():
    for n_dim in range(2, 7):
        u = hN_matrix(TY, n_dim)
        v = hN_matrix(TZ, n_dim)
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
    assert cl2.that_limit[0][1] == 2
    cl3 = closed_limits(3)
    assert cl3.r_limit[1][0] == -8
    assert cl3.m_limits[0][1][0] == 1
    assert cl3.m_limits[0][0][0] == 4
    assert cl3.m_limits[0][0][1] == -8


def test_closed_limits_triangular():
    cl = closed_limits(5)
    for m in range(5):
        for n in range(5):
            if m > n:
                assert cl.that_limit[m][n] == 0
    for n in range(5):
        for m in range(5):
            if m > n:
                assert cl.tstar_limit[n][m] == 0
