from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusrep.classical import SL2, closed_limits, hN_matrix
from torusrep.errors import PoleError, SingularError
from torusrep.field import FMatrix, Poly, RatFunc, fm_eq, fm_inv, fm_mul, signed_power
from torusrep.mcg import parse_word
from torusrep.qsymbols import QContext, lambda_shifted, qint, rhat
from torusrep.repbuild import (
    _braid_holds,
    build_m,
    build_repset,
    build_tstar,
    build_y,
    build_z,
    build_zprime,
    classical_limit,
    relation_checks,
    rep_of_word,
    verify_braid,
)


def test_build_z_structure_n2():
    ctx = QContext(2)
    z = build_z(ctx)
    assert z[0][0] == lambda_shifted(0, ctx)
    assert z[1][1] == lambda_shifted(1, ctx)
    assert z[1][0] == qint(1)
    assert z[0][1].is_zero


def test_build_z_bidiagonal_and_diagonal_limits():
    for N in (3, 5):
        ctx = QContext(N)
        z = build_z(ctx)
        for m in range(N):
            for l in range(N):
                if l not in (m, m - 1):
                    assert z[m][l].is_zero
        for m in range(N):
            assert z[m][m].eval_exact(-1) == -2


def test_build_y_structure():
    ctx = QContext(3)
    z = build_z(ctx)
    y = build_y(ctx, z)
    for m in range(3):
        for l in range(3):
            if l not in (m, m + 1):
                assert y[m][l].is_zero
        assert y[m][m] == z[m][m]
    assert y[0][1] == rhat(1, 0, ctx) * qint(1)


def test_build_zprime_tridiagonal_and_subdiagonal_form():
    for N in (2, 4):
        ctx = QContext(N)
        z = build_z(ctx)
        y = build_y(ctx, z)
        zp = build_zprime(ctx, y, z)
        for m in range(N):
            for l in range(N):
                if abs(m - l) >= 2:
                    assert zp[m][l].is_zero
        for m in range(1, N):
            assert zp[m][m - 1] == qint(m) * signed_power(-2 * N + 2 * m)


def test_build_m_classical_entries():
    ctx = QContext(3)
    rs = build_repset(ctx)
    m0 = classical_limit(rs.m_hat[0])
    assert m0[0][0] == 4
    assert m0[0][1] == -8
    m1 = classical_limit(rs.m_hat[1])
    assert m1[1][0] == Fraction(1, 2)


def test_build_m_index_bounds():
    ctx = QContext(3)
    zp = build_repset(ctx).zprime_hat
    with pytest.raises(ValueError):
        build_m(2, ctx, zp)


def test_m_tridiagonal_exact():
    for N in range(2, 7):
        rs = build_repset(QContext(N))
        for n in range(N - 1):
            for m in range(N):
                for l in range(N):
                    if abs(m - l) >= 2:
                        assert rs.m_hat[n][m][l].is_zero


def test_that_column0_and_n2_limit():
    ctx = QContext(2)
    that = build_repset(ctx).t_hat
    assert that.column(0) == (RatFunc.one(), RatFunc.zero())
    assert classical_limit(that) == ((1, 2), (0, 1))


def test_that_limit_unitriangular_n5():
    lim = classical_limit(build_repset(QContext(5)).t_hat)
    for m in range(5):
        assert lim[m][m] == 1
        for n in range(m):
            assert lim[m][n] == 0


def test_tstar_n2_limit():
    ctx = QContext(2)
    that = build_repset(ctx).t_hat
    tstar = build_tstar(ctx, that)
    assert classical_limit(tstar) == ((1, 0), (Fraction(-1, 2), 1))


def test_tstar_limit_lower_unitriangular_n4():
    rs = build_repset(QContext(4))
    lim = classical_limit(rs.tstar_hat)
    for n in range(4):
        assert lim[n][n] == 1
        for m in range(n + 1, 4):
            assert lim[n][m] == 0


def test_pairing_consistency_n2():
    # a_{0,1}(-1) = R_{1,0}(-1) * b_{1,0}(-1): 2 = (-4) * (-1/2)
    ctx = QContext(2)
    rs = build_repset(ctx)
    a01 = rs.t_hat[0][1].eval_exact(-1)
    b10 = rs.tstar_hat[1][0].eval_exact(-1)
    r10 = rhat(1, 0, ctx).eval_exact(-1)
    assert a01 == 2 and b10 == Fraction(-1, 2) and r10 == -4
    assert a01 == r10 * b10


def test_transpose_relation_exact():
    for N in (2, 3, 4):
        ctx = QContext(N)
        rs = build_repset(ctx)
        for m in range(N):
            for n in range(N):
                assert rs.t_hat[m][n] == rhat(n, m, ctx) * rs.tstar_hat[n][m]


def test_braid_exact_small():
    assert verify_braid(QContext(2))
    assert verify_braid(QContext(3))


def test_braid_negative_control():
    rs = build_repset(QContext(2))
    rows = [list(r) for r in rs.t_hat.rows]
    rows[0][0] = RatFunc.zero()
    assert not _braid_holds(FMatrix(rows), rs.tstar_hat)


def test_rep_of_word_basics():
    ctx = QContext(2)
    rs = build_repset(ctx)
    assert fm_eq(rep_of_word(parse_word(""), ctx), FMatrix.identity(2))
    assert fm_eq(rep_of_word(parse_word("y"), ctx), rs.t_hat)
    assert fm_eq(
        rep_of_word(parse_word("y z y"), ctx), rep_of_word(parse_word("z y z"), ctx)
    )
    # a power is the explicit repeated product (binary powering must agree)
    rs3 = build_repset(QContext(3))
    t5 = rs3.t_hat
    for _ in range(4):
        t5 = fm_mul(t5, rs3.t_hat)
    assert fm_eq(rep_of_word(parse_word("y^5"), QContext(3)), t5)


def test_rep_of_word_inverse_exponent():
    ctx = QContext(2)
    rs = build_repset(ctx)
    w = rep_of_word(parse_word("z^-1"), ctx)
    assert fm_eq(fm_mul(w, rs.tstar_hat), FMatrix.identity(2))
    rs3 = build_repset(QContext(3))
    inv = fm_inv(rs3.tstar_hat)
    w3 = rep_of_word(parse_word("z^-3"), QContext(3))
    assert fm_eq(w3, fm_mul(fm_mul(inv, inv), inv))
    assert fm_eq(
        fm_mul(w3, fm_mul(fm_mul(rs3.tstar_hat, rs3.tstar_hat), rs3.tstar_hat)),
        FMatrix.identity(3),
    )


def test_that_times_its_inverse_is_identity():
    that = build_repset(QContext(2)).t_hat
    assert fm_eq(fm_mul(that, fm_inv(that)), FMatrix.identity(2))


def test_adjacent_letters_same_generator():
    ctx = QContext(2)
    rs = build_repset(ctx)
    assert fm_eq(
        rep_of_word(parse_word("y y"), ctx), fm_mul(rs.t_hat, rs.t_hat)
    )
    assert fm_eq(
        rep_of_word(parse_word("y y"), ctx), rep_of_word(parse_word("y^2"), ctx)
    )


def test_centrality_commutes():
    for N in range(2, 7):
        ctx = QContext(N)
        rs = build_repset(ctx)
        c = rep_of_word(parse_word("y z y y z y"), ctx)
        assert fm_eq(fm_mul(c, rs.t_hat), fm_mul(rs.t_hat, c))
        assert fm_eq(fm_mul(c, rs.tstar_hat), fm_mul(rs.tstar_hat, c))


def test_classical_limit_identity_and_values():
    assert classical_limit(FMatrix.identity(3)) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    # closed form by hand at N=3: entry (m,n) = 2^(n-m)(2-m)!/((n-m)!(2-n)!)
    lim = classical_limit(build_repset(QContext(3)).t_hat)
    assert lim == ((1, 4, 4), (0, 1, 2), (0, 0, 1))


def test_classical_limit_pole_reports_entry():
    bad = FMatrix([[RatFunc.one(), RatFunc(1) / RatFunc(Poly_xp1())]])
    with pytest.raises(PoleError) as err:
        classical_limit(bad)
    assert err.value.entry == (0, 1)


def Poly_xp1():
    from torusrep.field import Poly

    return Poly((1, 1))


def test_classical_limit_of_word_matches_hN():
    w = parse_word("y z^-1")
    g = SL2(1, 1, 0, 1) * SL2(1, 0, -1, 1).inverse()
    for N in (2, 3):
        assert classical_limit(rep_of_word(w, QContext(N))) == hN_matrix(g, N)


def test_limits_match_closed_forms_all_n():
    for N in range(2, 7):
        rs = build_repset(QContext(N))
        cl = closed_limits(N)
        assert classical_limit(rs.t_hat) == cl.that_limit
        assert classical_limit(rs.tstar_hat) == cl.tstar_limit
        for n in range(N - 1):
            assert classical_limit(rs.m_hat[n]) == cl.m_limits[n]


# --- integer-evaluation checks against the Q(X) products ----------------------


def _reference_checks(t, tstar):
    """The braid and center identities by products and equality over Q(X)."""
    tst = fm_mul(fm_mul(t, tstar), t)
    braid = fm_eq(tst, fm_mul(fm_mul(tstar, t), tstar))
    c = fm_mul(tst, tst)
    center = fm_eq(fm_mul(c, t), fm_mul(t, c)) and fm_eq(fm_mul(c, tstar), fm_mul(tstar, c))
    return braid, center


coeff = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(
        Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=4)
    ),
)
polys = st.lists(coeff, min_size=1, max_size=2).map(Poly)
dens = st.one_of(
    st.just(Poly((1,))),
    st.integers(min_value=1, max_value=3).map(Poly.monomial),
    st.lists(coeff, min_size=2, max_size=2).map(Poly).filter(lambda d: d.degree > 0),
)
entries = st.one_of(st.just(RatFunc.zero()), st.builds(RatFunc, polys, dens))


@st.composite
def fmatrices(draw, n):
    return FMatrix(tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n)))


@st.composite
def generator_pairs(draw):
    """(T, T*): random pairs, pairs (T, T), and the classical U, V of SL2(Z)
    acting on degree-(n-1) polynomials conjugated by a random matrix over Q(X),
    for which both the braid relation and centrality hold, optionally with one
    entry perturbed."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("random", "equal", "conjugated", "perturbed")))
    g = draw(fmatrices(n))
    if kind == "random":
        return g, draw(fmatrices(n))
    if kind == "equal":
        return g, g
    try:
        g_inv = fm_inv(g)
    except SingularError:
        assume(False)
    u = fm_mul(fm_mul(g, FMatrix(hN_matrix(SL2(1, 1, 0, 1), n))), g_inv)
    v = fm_mul(fm_mul(g, FMatrix(hN_matrix(SL2(1, 0, -1, 1), n))), g_inv)
    if kind == "perturbed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(r) for r in u.rows]
        rows[i][j] = rows[i][j] + draw(entries)
        u = FMatrix(rows)
    return u, v


@given(generator_pairs())
@settings(max_examples=40, deadline=None)
def test_relation_checks_agree_with_qx_products(pair):
    t, tstar = pair
    assert relation_checks(t, tstar) == _reference_checks(t, tstar)


def test_relation_checks_hold_on_conjugated_classical_pair():
    g = FMatrix([[RatFunc(Poly((1, 1)), Poly((0, 0, 1))), RatFunc(Fraction(1, 3))],
                 [RatFunc(2), RatFunc(Poly((0, 1)), Poly((1, 0, 2)))]])
    g_inv = fm_inv(g)
    u = fm_mul(fm_mul(g, FMatrix(hN_matrix(SL2(1, 1, 0, 1), 2))), g_inv)
    v = fm_mul(fm_mul(g, FMatrix(hN_matrix(SL2(1, 0, -1, 1), 2))), g_inv)
    assert relation_checks(u, v) == _reference_checks(u, v) == (True, True)
    assert relation_checks(u, fm_mul(v, v)) == _reference_checks(u, fm_mul(v, v)) == (False, False)


def test_relation_checks_agree_on_generators():
    for N in range(2, 6):
        rs = build_repset(QContext(N))
        assert relation_checks(rs.t_hat, rs.tstar_hat) == (True, True)
        assert _reference_checks(rs.t_hat, rs.tstar_hat) == (True, True)


@pytest.mark.parametrize("N", range(2, 9))
def test_relation_checks_negative_controls(N):
    rs = build_repset(QContext(N))
    rows = [list(r) for r in rs.t_hat.rows]
    rows[0][0] = rows[0][0] - 1
    assert relation_checks(FMatrix(rows), rs.tstar_hat) == (False, False)
