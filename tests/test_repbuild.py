import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torusrep import repbuild
from torusrep.classical import SL2, closed_limits, hN_matrix
from torusrep.errors import PoleError, TooLargeError
from torusrep.mcg import parse_word
from torusrep.qsymbols import _over_denominator
from torusrep.repbuild import (
    _BLOCK_CELLS,
    _BRAID,
    _CENTER,
    _CHUNK,
    _PRIMES,
    _coefficient_rows,
    _curve_factors,
    _decide,
    _generators,
    _integer_checks,
    _integer_form,
    _primes_above,
    _ratio_factors,
    _reach,
    _twist_factors,
    _recurrence_terms,
    _values,
    _walk,
    _zprime_terms,
    form_limit,
    forms,
    recurrence_limits,
    relation_checks,
)

import reference
from reference import (
    FMatrix,
    Poly,
    RatFunc,
    SingularError,
    add,
    braid_holds,
    built,
    changed_factor,
    classical_limit,
    eval_exact,
    exact_height_bound,
    fmatrix_of,
    fmatrix_to_obj,
    fractions,
    flipped_curve_factor,
    fm_eq,
    fm_inv,
    fm_mul,
    fm_scale,
    fm_sub,
    held,
    held_pair,
    identity,
    jet,
    kronecker_relation_checks,
    conjugated_form,
    lambda_shifted,
    lcm_form,
    monomial,
    mul,
    padded,
    pairing_transpose,
    poly_add,
    poly_mul,
    poly_scale,
    poly_shift,
    qint,
    recurrence_matrices,
    recurrence_twists,
    reduced,
    rep_of_word,
    rhat,
    signed_power,
    slope_exact,
    sub,
    twists,
    verify_braid,
)


def test_build_z_structure_n2():
    z = built("Z", 2)
    assert z[0][0] == lambda_shifted(0, 2)
    assert z[1][1] == lambda_shifted(1, 2)
    assert z[1][0] == qint(1)
    assert z[0][1].is_zero


def test_build_z_bidiagonal_and_diagonal_limits():
    for N in (3, 5):
        z = built("Z", N)
        for m in range(N):
            for l in range(N):
                if l not in (m, m - 1):
                    assert z[m][l].is_zero
        for m in range(N):
            assert eval_exact(z[m][m], -1) == -2


def test_build_y_structure():
    z = built("Z", 3)
    y = built("Y", 3)
    for m in range(3):
        for l in range(3):
            if l not in (m, m + 1):
                assert y[m][l].is_zero
        assert y[m][m] == z[m][m]
    assert y[0][1] == mul(rhat(1, 0, 3), qint(1))


def test_build_zprime_tridiagonal_and_subdiagonal_form():
    for N in (2, 4):
        zp = built("Zprime", N)
        for m in range(N):
            for l in range(N):
                if abs(m - l) >= 2:
                    assert zp[m][l].is_zero
        for m in range(1, N):
            assert zp[m][m - 1] == mul(qint(m), signed_power(-2 * N + 2 * m))


def test_build_m_classical_entries():
    m0, m1 = map(classical_limit, recurrence_matrices(3))
    assert m0[0][0] == 4
    assert m0[0][1] == -8
    assert m1[1][0] == Fraction(1, 2)


def test_m_tridiagonal_exact():
    for N in range(2, 7):
        for mat in recurrence_matrices(N):
            for m in range(N):
                for l in range(N):
                    if abs(m - l) >= 2:
                        assert mat[m][l].is_zero


def test_that_column0_and_n2_limit():
    that = twists(2)[0]
    assert tuple(row[0] for row in that.rows) == (RatFunc(1), RatFunc.zero())
    assert classical_limit(that) == ((1, 2), (0, 1))


def test_that_limit_unitriangular_n5():
    lim = classical_limit(twists(5)[0])
    for m in range(5):
        assert lim[m][m] == 1
        for n in range(m):
            assert lim[m][n] == 0


def test_tstar_n2_limit():
    tstar = pairing_transpose(2, twists(2)[0])
    assert classical_limit(tstar) == ((1, 0), (Fraction(-1, 2), 1))


def test_tstar_limit_lower_unitriangular_n4():
    lim = classical_limit(twists(4)[1])
    for n in range(4):
        assert lim[n][n] == 1
        for m in range(n + 1, 4):
            assert lim[n][m] == 0


def test_pairing_consistency_n2():
    # a_{0,1}(-1) = R_{1,0}(-1) * b_{1,0}(-1): 2 = (-4) * (-1/2)
    t, tstar = twists(2)
    a01 = eval_exact(t[0][1], -1)
    b10 = eval_exact(tstar[1][0], -1)
    r10 = eval_exact(rhat(1, 0, 2), -1)
    assert a01 == 2 and b10 == Fraction(-1, 2) and r10 == -4
    assert a01 == r10 * b10


def test_transpose_relation_exact():
    for N in (2, 3, 4):
        t, tstar = twists(N)
        for m in range(N):
            for n in range(N):
                assert t[m][n] == mul(rhat(n, m, N), tstar[n][m])


def test_braid_exact_small():
    assert verify_braid(2)
    assert verify_braid(3)


def test_braid_negative_control():
    t, tstar = twists(2)
    rows = [list(r) for r in t.rows]
    rows[0][0] = RatFunc.zero()
    assert not braid_holds(FMatrix(rows), tstar)


def test_rep_of_word_basics():
    assert fm_eq(rep_of_word(parse_word(""), 2), identity(2))
    assert fm_eq(rep_of_word(parse_word("y"), 2), twists(2)[0])
    assert fm_eq(
        rep_of_word(parse_word("y z y"), 2), rep_of_word(parse_word("z y z"), 2)
    )
    # a power is the explicit repeated product (binary powering must agree)
    t3 = twists(3)[0]
    t5 = t3
    for _ in range(4):
        t5 = fm_mul(t5, t3)
    assert fm_eq(rep_of_word(parse_word("y^5"), 3), t5)


def test_rep_of_word_inverse_exponent():
    w = rep_of_word(parse_word("z^-1"), 2)
    assert fm_eq(fm_mul(w, twists(2)[1]), identity(2))
    tstar3 = twists(3)[1]
    inv = fm_inv(tstar3)
    w3 = rep_of_word(parse_word("z^-3"), 3)
    assert fm_eq(w3, fm_mul(fm_mul(inv, inv), inv))
    assert fm_eq(
        fm_mul(w3, fm_mul(fm_mul(tstar3, tstar3), tstar3)),
        identity(3),
    )


def test_that_times_its_inverse_is_identity():
    that = twists(2)[0]
    assert fm_eq(fm_mul(that, fm_inv(that)), identity(2))


def test_adjacent_letters_same_generator():
    t = twists(2)[0]
    assert fm_eq(
        rep_of_word(parse_word("y y"), 2), fm_mul(t, t)
    )
    assert fm_eq(
        rep_of_word(parse_word("y y"), 2), rep_of_word(parse_word("y^2"), 2)
    )


def test_centrality_commutes():
    for N in range(2, 7):
        t, tstar = twists(N)
        c = rep_of_word(parse_word("y z y y z y"), N)
        assert fm_eq(fm_mul(c, t), fm_mul(t, c))
        assert fm_eq(fm_mul(c, tstar), fm_mul(tstar, c))


def test_classical_limit_identity_and_values():
    assert classical_limit(identity(3)) == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    # closed form by hand at N=3: entry (m,n) = 2^(n-m)(2-m)!/((n-m)!(2-n)!)
    lim = classical_limit(twists(3)[0])
    assert lim == ((1, 4, 4), (0, 1, 2), (0, 0, 1))


def test_classical_limit_pole_reports_entry():
    bad = FMatrix([[RatFunc(1), RatFunc(Poly((1,)), Poly((1, 1)))]])  # 1/(X+1)
    with pytest.raises(PoleError) as err:
        classical_limit(bad)
    assert err.value.entry == (0, 1)


def test_classical_limit_of_word_matches_hN():
    w = parse_word("y z^-1")
    g = SL2(2, 1, 1, 1)  # (1 1; 0 1) (1 0; 1 1)
    for N in (2, 3):
        assert classical_limit(rep_of_word(w, N)) == fractions(hN_matrix(g, N))


@pytest.mark.parametrize("N", range(2, 17))
def test_form_limits_equal_the_built_matrices_at_minus_one(N):
    # the product forms of T, T*, z, y and R read at X = -1 in integers are
    # the built canonical forms evaluated there
    z, y = _curve_factors(N)
    mats = (*twists(N), built("Z", N), built("Y", N), _ratios(N))
    for forms, mat in zip((*_twist_factors(N), z, y, _ratio_factors(N)), mats):
        assert fractions(form_limit(N, forms)) == classical_limit(mat)


@pytest.mark.parametrize("N", (24, 32))
def test_twist_limits_are_the_classical_action_at_large_n(N):
    t, tstar = (fractions(form_limit(N, forms)) for forms in _twist_factors(N))
    assert t == fractions(hN_matrix(SL2(1, 1, 0, 1), N))
    assert tstar == fractions(hN_matrix(SL2(1, 0, -1, 1), N))


def _recurrence_limit(n, N):
    """M^(n) at X = -1, read off its products, as Fractions."""
    return fractions(form_limit(N, _recurrence_terms(n, N, _zprime_terms(N))))


@pytest.mark.parametrize("N", range(2, 13))
def test_sum_limits_equal_the_qx_build_at_minus_one(N):
    # z' and the M^(n) read at X = -1 off their products are the build by
    # matrix products and gcd over Q(X) evaluated there
    zprime = built("Zprime", N)
    assert fractions(form_limit(N, _zprime_terms(N))) == classical_limit(zprime)
    for n in range(N - 1):
        assert _recurrence_limit(n, N) == classical_limit(reference.build_m(n, N, zprime))


@pytest.mark.parametrize("N", (24, 32))
def test_recurrence_limits_are_the_closed_forms_at_large_n(N):
    assert [_recurrence_limit(n, N) for n in range(N - 1)] == list(map(fractions, closed_limits(N).m_limits))


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("i", [-1, -2], ids=["pole", "finite"])
def test_recurrence_limits_follow_a_changed_curve_factor(monkeypatch, i, N):
    # the limits read off the products are those of the changed z' over
    # Q(X), the entry of the pole too
    z, y = flipped_curve_factor(*_curve_factors(N), i)
    monkeypatch.setattr(repbuild, "_curve_factors", lambda N: (z, y))
    zprime = built("Zprime", N)
    for n in range(N - 1):
        if i == -1:
            with pytest.raises(PoleError) as want:
                classical_limit(reference.build_m(n, N, zprime))
            with pytest.raises(PoleError) as got:
                _recurrence_limit(n, N)
            assert got.value.entry == want.value.entry
        else:
            want = classical_limit(reference.build_m(n, N, zprime))
            assert _recurrence_limit(n, N) == want != fractions(closed_limits(N).m_limits[n])


@pytest.mark.parametrize("N", range(2, 13))
def test_recurrence_limits_from_one_jet_equal_each_m_read_alone(N):
    # every M^(n) at X = -1 from z''s jets (c_0, c_1) equals M^(n) read off
    # its own products
    want = tuple(fractions(form_limit(N, repbuild.forms("M", N, n))) for n in range(N - 1))
    assert tuple(map(fractions, recurrence_limits(N, _zprime_terms(N)))) == want


@pytest.mark.parametrize("N", range(2, 13))
@pytest.mark.parametrize("i", [-1, -2], ids=["pole", "finite"])
def test_recurrence_limits_from_one_jet_follow_a_changed_curve_factor(monkeypatch, i, N):
    # the same PoleError entry, or the same wrong values, on both routes
    z, y = flipped_curve_factor(*_curve_factors(N), i)
    monkeypatch.setattr(repbuild, "_curve_factors", lambda N: (z, y))
    if i == -1:
        with pytest.raises(PoleError) as want:
            [form_limit(N, repbuild.forms("M", N, n)) for n in range(N - 1)]
        with pytest.raises(PoleError) as got:
            recurrence_limits(N, _zprime_terms(N))
        assert got.value.entry == want.value.entry
    else:
        want = tuple(fractions(form_limit(N, repbuild.forms("M", N, n))) for n in range(N - 1))
        got = tuple(map(fractions, recurrence_limits(N, _zprime_terms(N))))
        assert got == want != tuple(map(fractions, closed_limits(N).m_limits))


@pytest.mark.parametrize("N", range(2, 9))
def test_recurrence_limits_name_a_pole_of_zprime_itself(N):
    # a z' entry with a negative power of s ({1}^-1 added to its sum) is a
    # pole of every M^(n); the entries before it in row-major order are not
    terms = _zprime_terms(N)
    ij = (N - 1, N - 2)
    terms[ij] = terms[ij] + [(1, 0, [(1, False, -1)])]
    with pytest.raises(PoleError) as want:
        [form_limit(N, _recurrence_terms(n, N, terms)) for n in range(N - 1)]
    with pytest.raises(PoleError) as got:
        recurrence_limits(N, terms)
    assert got.value.entry == want.value.entry == ij


@pytest.mark.parametrize("N", range(2, 7))
def test_limit_slope_is_minus_the_derivative_at_minus_one(N):
    # c_1 of every entry of T, T*, R, z' and every M^(n) is -d/dX of its
    # canonical form at X = -1 (ds/dX = 1/X for s = log(-X)); the products
    # of the M^(n) have order -2 in s, so their s^3 terms are read too
    names = [("T", None), ("Tstar", None), ("R", None), ("Zprime", None)]
    names += [("M", n) for n in range(N - 1)]
    for what, index in names:
        forms, mat = repbuild.forms(what, N, index), built(what, N, index)
        for (i, j), entry in forms.items():
            assert jet(entry)[1] == -slope_exact(mat[i][j], -1), (what, index, i, j)


def test_limits_match_closed_forms_all_n():
    for N in range(2, 7):
        t, tstar = twists(N)
        cl = closed_limits(N)
        assert classical_limit(t) == fractions(cl.that_limit)
        assert classical_limit(tstar) == fractions(cl.tstar_limit)
        for n, mat in enumerate(recurrence_matrices(N)):
            assert classical_limit(mat) == fractions(cl.m_limits[n])


# --- canonical forms of the build --------------------------------------------

# SHA-256 of the canonical JSON of `fmatrix_to_obj` for each matrix of the
# build and for the full pairing-ratio matrix R, recorded from the build that
# formed T through M^(n) and each pairing ratio as a direct product. Any change
# to the route of the build must leave every canonical form, and so every
# digest, as it is.
CANONICAL_DIGESTS = {
    2: {
        "Z": "5f0a52e55811c657b2de1f8d647129ac6980d19decdab1166edcd13adac0d0b3",
        "Y": "ca8029a02422387f0c6e8a5045c31dc079b6e5a92f40c82893fef14ce88b46e6",
        "Zprime": "849acb1ea7ca7ba7dd7625d95ba4ce35708525353c9d454084983cbbae155c79",
        "T": "acc7c9cf760d67a88b795768021f024199a6ae64ddf51cf33289c51d529c696e",
        "Tstar": "10b3baa5fc2ca8ccbc0fff87c70284067b97ad87eb59fe8dafdda8d5087289ed",
        "R": "4486deb541b4aed51a5e28c8fdda3cf77c9fc1eac1f97deaf494eac867d3991f",
        "M0": "88b07f8e066f72281eb9f7fa5c27eb555457baec92862af3f651d4c829e1304f",
    },
    3: {
        "Z": "7249cff76ea92883c8a57149ac09e085055b2496ba83d6cc1e43b8e78bad96f0",
        "Y": "22f286ac5137221e86ce1d6db7bb8b5cc60f056f16d95b8bbfef5088f21f93ba",
        "Zprime": "13d042c8c549f61b50c2eab89792651b0030f83beb09f2cb25a9f9f6149b6754",
        "T": "5bdb3e3b44fa9e5fca546834009edda0ea6fc67fa75a0f392826a1ddf21ebdc6",
        "Tstar": "e042f8fe21326f884ab6ec9421a8732f999f86403d838a0841191e96b326dc6d",
        "R": "e1c2980d21eb02c08a7f8a67b5824449945ec4399719c0d6cb5da639d5e9847d",
        "M0": "f9ffe5a6fcb4868a7119631d5357190065884d02957056a3f326948e5dfa1d96",
        "M1": "fc833b39272589f3867e3def070b54e83be81f6dd9dbbfd54df255ca4ba742ee",
    },
    4: {
        "Z": "3db781ad0ea6bfd98a380e7c5a745438f9bb6d76387fb4929521dc4e196a535e",
        "Y": "99b9545222c85f64f33567a5359405552d5f5a17d9549c76a78600e96e22908f",
        "Zprime": "5a8799d60a779147cd82db6305724e113e6094151f90fbdb68125820b7ff283d",
        "T": "f19b7318466292f0fd14633c170b041b5b83f4aae66ce1e5076a21fb0a7e718f",
        "Tstar": "7a8a532d83a61f78705545229e968f745917138f7052bba081ba04f94f578252",
        "R": "e0af0dd55234bb8adf4e84cf6a29c3bb4dc5bd647939886baefc1cd5972f751b",
        "M0": "e655edf7bf47d834f17118bc300fbf86b177264d15f31ee9d2d9906466a7051d",
        "M1": "b3e35bb1c3985f8033bc546adea5ca85dc61288d0e7da980644fe8ddf763dbb8",
        "M2": "bf33a3a77f07fbf54dc5c13d0055aaf2d8ac109b302765cd151d076d50850b4c",
    },
    5: {
        "Z": "aafa281c3124e217405b16235236e2c19d733081c08ba31095d9b8f9332b4fc6",
        "Y": "e658b0e644cd5120d5448735ae19251649cd2764176355988056f52bfc9789bd",
        "Zprime": "7255201c199bec89ffc0c69eaa527d6a5ad4c76bd1bea5312a841bfb12bf8eba",
        "T": "70692ab256d747c1f59c5d378e4b6f740c5c1b87da38d6a057cbcea435e5fe57",
        "Tstar": "b9b342c74d79c7cb5758c38669bd7775f0e4770a34feecc46d2a747dc1ea99bf",
        "R": "40aea376e44cdbb1ce1c344e63798338201dfd3f89c054e13e6892ab6a2eb201",
        "M0": "deda9af025c8d74886d624e0c4de6643bb2ade811ccdfa7f39d6b33b33b71bee",
        "M1": "a15cd01d308e1f95b8e51b9ff03c4a19b50a5864c752369e0206845a44118cee",
        "M2": "e5e536d24e8aa7cc35310b3913cc42bf45c98cac3b8491f1c9cb88c1bdb650a1",
        "M3": "6f6aee8d7611a35e5e51b5518a39921b58f453415d534ad79cf20ba140016771",
    },
    6: {
        "Z": "7e45999839caaf6f6ab75d92afabef1f76a1a4217c5c41aa16b6bd26c8701e1b",
        "Y": "256eff19482e964d6be481e2f62e465347f0f0d7a32b2e6cd9f37763b63c3d01",
        "Zprime": "b721cc875ece6c72ca75d7f3742324036be640ff83bd48a4f1baa7aca2db48b0",
        "T": "41b658bf115adcd85407e04ff692ce074d2eb233395d58bcdb3b499d511492e6",
        "Tstar": "c39c8e12f2cd23bb29d65ceb33dbe6d8f606e89f1d552f02f45350502937b2c3",
        "R": "61e21cf5d2f191a65eefcb5302e8dffb2706a7bad3f8c43002a8fa03d158f54d",
        "M0": "5d13a6d5c929b314fc6f2c518c1d165f587bb8f089ce51ae21cc42e01591da92",
        "M1": "80a6b59163f7ce9906943b5fff62f4c2590cecdd66f2716efe015473b3825341",
        "M2": "6e692a95603b9c5c4f2c16caba8079699e7ce40b7c558b03e9cdd366d46caf73",
        "M3": "4137a42249080314addeeb94f6eb7458ff70c9dcbb0066fb79d9dd1496475693",
        "M4": "71d5edd5bea2fa817482fe66a19503cb5a7e4d817cbe610ef2ffaa0ba17a6558",
    },
    7: {
        "Z": "d509b7610cf6513cdf672b9a490eab45781819a54eaabf00cc54746a2fd8011f",
        "Y": "1c0dd0dd0cebbba10ec2c05c9d026f4bdabf0ccfe6d42239aa19720769002f79",
        "Zprime": "c04ab5ba4869c6ed2f4128af095565251f40d26e5159e5da8c9cfe322411466d",
        "T": "edba0c38b200b962a1065edcb2a6ecd91b2d38f828e815a1fbb7a15d34dc6e7c",
        "Tstar": "05f11f2dbd6cd1362e59e681749bd72e8f3e9e916292acdc378f8b60c2a26a60",
        "R": "eef29c803ed09f77a00df8cb7747fd82fec469eb51fbb59e762da0d1e49a4be6",
        "M0": "6d9f28d28205086a86a2eea22cb7eec3b141e968078dfb6c0a9c9b6e773a76bc",
        "M1": "7a314dbf138af58bafff9910ccbf42261f83452f645a8e1665b4fcbce17f6393",
        "M2": "f4f72383f83a374f5826dcf865124adf4b04a9eb4aa01ed4473c0774cccc750d",
        "M3": "cfbbfebbcff0ba5123ab85324f432b48a3c10c56335443aeb15056cfb3a18eab",
        "M4": "a4e77c5bb21eedab0e868d580448cf887e3482eaced2d5601aab30842a74e736",
        "M5": "00b4b367ed8ed3375dd24c926ec386d8c28a6ab905a4b476a6682fdf6c8c4061",
    },
    8: {
        "Z": "6635c49ff1dffce323136d6a4b356930b70064f0c42984158496ea5b41c47edc",
        "Y": "9dbbeaff1f05944a3582b7bf840e95b9b1be9bc641e0db85d540d4b8314f2fe8",
        "Zprime": "eaad3e32ac58a07bd82fd7ab42c79f524a1c5137596a12106d2de87332132964",
        "T": "dd6c0e90334ff0150b31f434a2b1e3dce5b24a680e7bc42932125cd7aeddcd22",
        "Tstar": "98493f7f4a52c5d12cdd07196470c91848246e346fe16694b42b3218adee7bfa",
        "R": "e6841335264994e97b49dd17ce6c42974864724294e3679e9c546299497550b9",
        "M0": "28cea3d13f5af9b5183742dc188fe0b27397a176b8416adc1bea96fb2fa5a8b8",
        "M1": "16516fa37aeb0c4fce5f37429e2d54bb142a39a50435d89092ea8c068fa27ccc",
        "M2": "60ddf8aa1c7c424aa5f56834903c4bc6b3d5cd8ddf31f1cad54765e49d85fd46",
        "M3": "24e944608af4a64f907aa77e40438523bd8a349bcec694829983f8c028ed29e4",
        "M4": "02cd770e0022102085f3b5af88fedc5f8aa6acd39b194b59dfb08602e46bf677",
        "M5": "b26bb6c77061e27a781db21c3aaac0e2e79b327ed28d25d9de486f5d7211cd70",
        "M6": "e4f4ee9f954610cc71c9a21b398a09cfd521578e159ba68d173f3c16839937ad",
    },
}


def _digest(m):
    text = json.dumps(fmatrix_to_obj(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _ratios(N):
    """The full pairing-ratio matrix R[n][m] = rhat(n, m)."""
    return FMatrix(tuple(tuple(rhat(n, m, N) for m in range(N)) for n in range(N)))


@pytest.mark.parametrize("N", range(2, 9))
def test_build_canonical_forms_pinned(N):
    t, tstar = twists(N)
    mats = {"Z": built("Z", N), "Y": built("Y", N), "Zprime": built("Zprime", N), "T": t,
            "Tstar": tstar, "R": _ratios(N)}
    mats.update({f"M{n}": m for n, m in enumerate(recurrence_matrices(N))})
    assert {k: _digest(m) for k, m in mats.items()} == CANONICAL_DIGESTS[N]


# T, T* and R at N = 9..12, recorded from the build that formed T by the
# column recurrence and T* through the pairing ratios; at N = 13..16,
# recorded from the build that read each product off its cyclotomic
# exponents, before every entry went through `qsymbols._sum_form`.
LARGE_N_DIGESTS = {
    9: {
        "T": "58aa39a0da7136c792328ea8fca13a2c675f9c81c642f1262b292dd333f0c4d5",
        "Tstar": "5e81f66a4c327bb75bc9e97164ad404d08576918b4ba2a6a01e963990a7edb51",
        "R": "5d927fb73b5b97816eef9b4f680819bfa5b25ca5d3d95dee8660c4f278c8d9d6",
    },
    10: {
        "T": "613770c9a8d4dff05186c0e36e8ac438ed961f2e16c988a67b25082f647e7802",
        "Tstar": "ad5426cdcbe09e337d0738f4ad2bf8d24fec0157c68145b869a7eb76cfd276a8",
        "R": "50c275866d0e222136a89a995fc318779b21f43539034d586697592b25fbeed4",
    },
    11: {
        "T": "3d6f738ccc4f50902698488f8c44b85fe66ecc8ce8a5af7341178c879bc252b5",
        "Tstar": "1bbbf8dca1bebd524f162d0a9ec9a547daaaac9586a4034809a04b7d04134327",
        "R": "51203e0fb04e0d717dde4a5d5d3d417128ff988f4cee8b3449a57840352a7c3c",
    },
    12: {
        "T": "e9fdbca48e7da47248d19eaede54ed41daf1ac6650c075e0aa36db2e76a5a019",
        "Tstar": "8753e6c7af74e56c1cbd676b6705df51a69283acde8387d66a34178720cdb22f",
        "R": "66b9171ffe092cc2f856f379c89a87a847c664f7d69a81c2a88d3342bd7a1661",
    },
    13: {
        "T": "e142443f2ba0cbc5c15c776ac9fc4c672fa87b6e3d79390d8ebb12b43c32fc1e",
        "Tstar": "5a3ba70abccc366c56a0f7e7b093e753600ac9c1bd4883314f7585e0431f1693",
        "R": "6939a7d4a081479b7edf5ff60e655e9a8e60581bf21ea7cd24552372890497bb",
    },
    14: {
        "T": "2a512b82676ceb13747b5fa41c182623a99fee204b85b0355c6a1bdbe17018cc",
        "Tstar": "c40d90743639d6b42ecec41fb2d0cc797f11f32542eb7647436792f195b097ee",
        "R": "2bef8744356de7466e369d0f2e6faad0483da7d9229123c3f9ec0e14fb33af5d",
    },
    15: {
        "T": "915bb4f111300b5b5b55b8556a4598ba657aca6daca95210f96616432dcbad3b",
        "Tstar": "af58c1cd6f9ae15b5449e4c1735d2662135061df61df7a4dc4b3a373cf1b14ef",
        "R": "bc2c4233f91c99d5e0453b8c40d35c3679d14e8d28a953c2b9dbef6d7a527aa2",
    },
    16: {
        "T": "9371c64ea50d84aa031870ed2e9e4bcbcae1a4bf2840a842e2bc8b2c9791a670",
        "Tstar": "c6dab6ace365a66d8a3127cb56206b5a74be1f580df76760070040f34ed2166d",
        "R": "d29e0a817455164cafea188c73f3fe3457bda6ce248596eed061c2dde3f2cf74",
    },
}


@pytest.mark.parametrize("N", range(2, 9))
def test_every_built_denominator_is_monic(N):
    # with a monic den the Z[X] canonical form (no common factor, den lead > 0)
    # is the Q(X) one with den monic, so every emitted form is the same in both
    mats = (built("Z", N), built("Y", N), built("Zprime", N), *recurrence_matrices(N), *twists(N))
    for mat in (*mats, _ratios(N)):
        assert all(e.den.lead == 1 for row in mat.rows for e in row), N


@pytest.mark.parametrize("N", range(9, 17))
def test_twists_and_ratios_pinned_large_n(N):
    t, tstar = twists(N)
    got = {"T": _digest(t), "Tstar": _digest(tstar), "R": _digest(_ratios(N))}
    assert got == LARGE_N_DIGESTS[N]


# Z, Y, Zprime and every M^(n) at N = 9..12, recorded from the build that
# expanded each entry over Q(X) (`qsymbols._sum_form` in X), before every
# reader worked in Y = X^2.
LARGE_N_SUM_DIGESTS = {
    9: {
        "Z": "2fc50fc50e1bbb4f528eb01b7e3c09b9a8132a7997367f6a1315848c66552c62",
        "Y": "165ca41adbb522cdf21a8d4df08d92f5578bb29b32c9cdc3602043696a453497",
        "Zprime": "2b2fd71ea14d4cc66be96282da996e45624390cd1d794f09a62be5d9f35050d1",
        "M0": "32225a51a804737686ff39bee707ae67ada8ec1672d4edb35084a50efd34ad8e",
        "M1": "cd0a824e87245bcaaf71f77a3bcabff742fdb0a3e37794702d19f5780f1c483d",
        "M2": "bbd352c49fd87b4ba3c6780f5100e46e298df5ef60e7fb407a8dffa3f872a2b6",
        "M3": "ccab8f14e8a87f56437da92478d794ef34b15648709ced06b103a4b15fbe9ef2",
        "M4": "f028d8b352064dbfb8bac3c6212f072c32e778f2db37be2691289068b0be50ad",
        "M5": "17ede05b2038eb776c9f99e475ae1c07254f8695caad3c9909a8e28a8b72c833",
        "M6": "16423ee94411752c5dcb63c92b75f0f6be848a205280b358596fcd233f9ab804",
        "M7": "4ed98ccf73b2da0332101a669354793f15a8887687fd38652129deb72dd5f4ec",
    },
    10: {
        "Z": "574210ae4e73e000ee7c78eb9b7c6848f8a288900e3784e6e143405905304fc4",
        "Y": "8b54ccea84e8de70636d7ec96fa9488cdfd60cd3a4bf248e8e93c42e94e860eb",
        "Zprime": "16691091bcc0ef6229336a5768e002e0a989fd430a8a8fc0a1460235f3627206",
        "M0": "fb07064d417a78de06545cf97807f00745ac12099fabf455d99c56378c027cbb",
        "M1": "dd510a7f61ce5ce6f871c2a50633ead6a532164325e1923672d2af8d919cd1f9",
        "M2": "8a7539f814f9e258b22ff93a9805c41db9a972b2c89d2067e2335fb1d75f017c",
        "M3": "0976cd9e32bf32d905cf3cbca810352a2a3de952f65a5d5cdaeee9b39adee4ff",
        "M4": "40269eb8dc6a237e2d01868970f8caf947ff361a1eefa4e6973673482dd25927",
        "M5": "96d71e01f4c82cd916d140db19f6dcd833a67c5871a3b518e370fd7d66d73645",
        "M6": "e5d20ef82cee9c605b70e20da0ed16cc43bc0ec1aa45022220d4e57ad85ef1f9",
        "M7": "2053734aca54b8d1d4649147af53d7eef2a11a397cd2506f1e820d13b642c829",
        "M8": "e11bd1edc7c0fd932994a79bb7387341ccfd264cad74ccde67e8fe66308121cd",
    },
    11: {
        "Z": "845a14f211c8ceb8944e57628dee0d9fdc55341715c60e325ce00588da32da66",
        "Y": "e9442e024572a4c8218474d71c19c6fd7b0d3b937f5877d2a17dd4c84e5aa8e5",
        "Zprime": "ea34e365ebb6ee25c52af9bfac545d48d1f890567ff14545ea1b789ff57d06b8",
        "M0": "5d42e6b57d0cc25754a15ddd1a34a45262c9b5843fdbf14b805469da8917283c",
        "M1": "aee7f2a7dfb6ce99bdec4d9ac9db6dd23dee6b4ed29b094ccaa962211b1d23ef",
        "M2": "9123639755bb5b317f3e60a4bb3fc98a48b6230d019007ea0f64c053912726cf",
        "M3": "9cf0bd7786e7087c9c8a074cef5347172a3034e557620a60881fa92b0ff080be",
        "M4": "855add9da22b59c393111e10279ebf07c7418cb293212146ebc4b3cd7d7ebae0",
        "M5": "d24d122c7bade9d781c558ae0e63420c5b79959b6a165566ab1ade4f24f382b1",
        "M6": "28c7b5f7800d7149d9164712ff5ec1a0266ca384a6350c1d8a90997943b182e3",
        "M7": "9f5a336c18f842e591cef9aac27a8f09b699d01ca2d5dece7aa6171c5616e082",
        "M8": "7fb8f565d285e8b208589cc0bf7a9dcc5097ee1f76867d876ef2dabbb079e1f0",
        "M9": "66667f72f9937933c531bcebbd4b7d136812f6b9f6abc1e62b6b3baf9372bacc",
    },
    12: {
        "Z": "e79b1294f46b2e567981bd0ef49d9548083b6c34eab8fbf0d10a61090b2dae5d",
        "Y": "cad6146bb8b73fec7453c28e04d043b7d4d0a1c059db248790905bc8bcfa2c0c",
        "Zprime": "342a1e77c2b5b1e810b000a2bb0b7d80bb141eebff03144f33666d4314e72757",
        "M0": "5fbd160a2934dde6d593b4453f3782fda9b050bae52cf70c36606c4045b1ac68",
        "M1": "0eee5eb4b8ea2b575a940defa490026208130ba0a2ecedb3863bdd56fd931171",
        "M2": "eb757f5aedbd65fa9dd94e36a129e16b88f59a7087dc3bb5446f7d3c97fa8564",
        "M3": "483f214278246eb8d59faa61080825bdc073b376b0ec75f348f670629d859f66",
        "M4": "d419350bf118f6fc40c7f0f40c196fc1ed83c7e70620caca87c8f93b897b6472",
        "M5": "6317c9f7272c3d14db78b5b5a80a6b36f993748485c28b159687413900cdfa76",
        "M6": "f66843bac9f25cf034ebf2bd7693359cb0bc6ece63de49c3afc9ef25cc057b84",
        "M7": "3d6d8f1c76a9bd3490b704410a80bb701cb821f65913bd62d19d501b2afddd54",
        "M8": "ad0e0119d0fe4da3c3d60a6e6e8e8134078157091ea53b0af88269ad867460b2",
        "M9": "cf9c537002ce4207fa4843b78f8acc9e4738016354af08e18c4838907c1adbae",
        "M10": "dc9d8136f4937cb377905583d3bbd2df8306ad016314d558f92af81eb388b318",
    },
}


@pytest.mark.parametrize("N", range(9, 13))
def test_curve_and_recurrence_matrices_pinned_large_n(N):
    mats = {"Z": built("Z", N), "Y": built("Y", N), "Zprime": built("Zprime", N)}
    mats.update({f"M{n}": m for n, m in enumerate(recurrence_matrices(N))})
    assert {k: _digest(m) for k, m in mats.items()} == LARGE_N_SUM_DIGESTS[N]


@pytest.mark.parametrize("N", range(2, 13))
def test_product_forms_equal_column_recurrence(N):
    assert twists(N) == recurrence_twists(N)


@pytest.mark.parametrize("N", range(2, 9))
def test_that_columns_follow_m_hat(N):
    # T is built from its product form; this ties it back to the published M^(n).
    t = twists(N)[0]
    for n, mat in enumerate(recurrence_matrices(N)):
        col = FMatrix(tuple((row[n],) for row in t.rows))
        nxt = FMatrix(tuple((row[n + 1],) for row in t.rows))
        assert fm_mul(mat, col) == nxt, (N, n)


@pytest.mark.parametrize("N", range(2, 13))
def test_gcd_free_build_equals_qx_reference(N):
    # z, y, z' and every M^(n) from product forms equal, canonical form for
    # canonical form, the build by matrix products and gcd over Q(X)
    z = built("Z", N)
    y = reference.build_y(N, z)
    zprime = reference.build_zprime(y, z)
    assert built("Y", N) == y
    assert built("Zprime", N) == zprime
    assert recurrence_matrices(N) == tuple(reference.build_m(n, N, zprime) for n in range(N - 1))
    assert z == FMatrix(
        tuple(tuple(lambda_shifted(m, N) if l == m else qint(m) if l == m - 1 else 0
                    for l in range(N)) for m in range(N))
    )


@pytest.mark.parametrize("N", range(2, 17))
def test_integer_forms_equal_the_lcm_by_gcd(N):
    # (P, D) read from the factor lists are those of the gcd route on the
    # built generators: D from the exponent maxima of the product forms is
    # the lcm of the built denominators, and each numerator over D is the
    # built entry times D over its denominator, both conjugated by
    # diag(X^floor(i/2)) into Y = X^2 and shifted by one Y^s, each held from
    # its lowest nonzero coefficient
    for m, entries in zip(twists(N), _twist_factors(N)):
        assert _integer_form(entries) == held(*conjugated_form(*lcm_form(m)))


@pytest.mark.parametrize("N", range(2, 17))
def test_integer_forms_are_maps_of_trimmed_entries(N):
    # the map of P has exactly the keys of the form map, and every c of P and
    # D starts and ends nonzero, so that len(c) is the length the checks use
    for entries in _twist_factors(N):
        p, d = _integer_form(entries)
        assert list(p) == list(entries)
        assert all(c[0] and c[-1] for _, c in [*p.values(), d])


@pytest.mark.parametrize("N", range(2, 13))
def test_integer_form_coefficients_have_one_sign_a_row(N):
    # every row of P_T, P_S, D_T and D_S has its coefficients of one sign, so
    # its l1 norm is |c(1)|, a value the factor lists give without expanding
    for entries in _twist_factors(N):
        p, d = _integer_form(entries)
        for _, c in [*p.values(), d]:
            assert min(c) >= 0 or max(c) <= 0


# --- integer-evaluation checks against the Q(X) products ----------------------


def _checks(pt, dt, ps, ds):
    """`_integer_checks` on integer forms given as coefficient lists."""
    return _integer_checks(len(pt), held_pair(pt, dt, ps, ds))


def _generator_forms(twist):
    """The integer forms of the form maps `twist` of T and T*, named as
    `relation_checks` names them."""
    return dict(zip("TS", map(_integer_form, twist)))


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


def _over_integer(cs):
    """The polynomial with rational coefficients cs as (integer polynomial,
    positive integer) with that quotient."""
    d = math.lcm(*(Fraction(c).denominator for c in cs))
    return Poly([int(c * d) for c in cs]), d


def _entry(num, den):
    """(pn / dn) / (pd / dd) as a RatFunc over Z[X]."""
    (pn, dn), (pd, dd) = num, den
    return reduced(poly_scale(pn, dd), poly_scale(pd, dn))


polys = st.lists(coeff, min_size=1, max_size=2).map(_over_integer)
dens = st.one_of(
    st.just((Poly((1,)), 1)),
    st.integers(min_value=1, max_value=3).map(lambda k: (monomial(k), 1)),
    st.lists(coeff, min_size=2, max_size=2).map(_over_integer).filter(lambda d: d[0].degree > 0),
)
entries = st.one_of(st.just(RatFunc.zero()), st.builds(_entry, polys, dens))


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
    u = fm_mul(fm_mul(g, FMatrix(fractions(hN_matrix(SL2(1, 1, 0, 1), n)))), g_inv)
    v = fm_mul(fm_mul(g, FMatrix(fractions(hN_matrix(SL2(1, 0, -1, 1), n)))), g_inv)
    if kind == "perturbed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = [list(r) for r in u.rows]
        rows[i][j] = add(rows[i][j], draw(entries))
        u = FMatrix(rows)
    return u, v


@given(generator_pairs())
@settings(max_examples=40, deadline=None)
def test_relation_checks_agree_with_qx_products(pair):
    t, tstar = pair
    assert _checks(*lcm_form(t), *lcm_form(tstar)) == _reference_checks(t, tstar)
    assert _checks(*lcm_form(t), *lcm_form(tstar)) == kronecker_relation_checks(t, tstar)


def test_relation_checks_hold_on_conjugated_classical_pair():
    g = FMatrix([[RatFunc(Poly((1, 1)), Poly((0, 0, 1))), RatFunc(Fraction(1, 3))],
                 [RatFunc(2), RatFunc(Poly((0, 1)), Poly((1, 0, 2)))]])
    g_inv = fm_inv(g)
    u = fm_mul(fm_mul(g, FMatrix(fractions(hN_matrix(SL2(1, 1, 0, 1), 2)))), g_inv)
    v = fm_mul(fm_mul(g, FMatrix(fractions(hN_matrix(SL2(1, 0, -1, 1), 2)))), g_inv)
    v2 = fm_mul(v, v)
    assert _checks(*lcm_form(u), *lcm_form(v)) == _reference_checks(u, v) == (True, True)
    assert _checks(*lcm_form(u), *lcm_form(v2)) == _reference_checks(u, v2) == (False, False)


def test_relation_checks_agree_on_generators():
    for N in range(2, 6):
        assert relation_checks(N, _twist_factors(N)) == (True, True)
        assert _reference_checks(*twists(N)) == (True, True)


@pytest.mark.parametrize("N", range(2, 9))
def test_relation_checks_agree_with_kronecker_on_generators(N):
    assert relation_checks(N, _twist_factors(N)) == (True, True)
    assert kronecker_relation_checks(*twists(N)) == (True, True)


@pytest.mark.parametrize("N", range(2, 9))
def test_relation_checks_negative_controls(N):
    t, tstar = twists(N)
    rows = [list(r) for r in t.rows]
    rows[0][0] = sub(rows[0][0], 1)
    assert _checks(*lcm_form(FMatrix(rows)), *lcm_form(tstar)) == (False, False)
    assert kronecker_relation_checks(FMatrix(rows), tstar) == (False, False)


@pytest.mark.parametrize("N", range(2, 9))
def test_relation_checks_fail_on_a_changed_factor(N):
    # T[0][1] with its factor {2N-1}+ read as {2N-1}, on the lists the
    # checks read: both identities fail
    assert _integer_checks(N, _generator_forms(changed_factor(*_twist_factors(N), N))) == (False, False)


@pytest.mark.parametrize(
    "t, tstar",
    [
        # C commutes with T, not with T*
        ([[0, 0], [0, Poly((0, -1))]], [[0, 0], [2, 1]]),
        # C commutes with T*, not with T
        ([[2, 0], [1, 2]], [[0, 2], [0, -1]]),
    ],
)
def test_center_check_compares_with_both_generators(t, tstar):
    t, tstar = (FMatrix([[RatFunc(e) for e in row] for row in m]) for m in (t, tstar))
    assert _checks(*lcm_form(t), *lcm_form(tstar)) == (False, False)
    assert _reference_checks(t, tstar) == kronecker_relation_checks(t, tstar) == (False, False)


def test_kronecker_reference_bounds_both_identities():
    # the center's bound is 0 here, the braid's 2: B = 2^w must exceed twice
    # the larger, or the braid difference D_S E_22 reads 0 at X = B = 1
    z, one = RatFunc.zero(), RatFunc(1)
    t = FMatrix(((z, z, z), (z, z, z), (z, z, one)))
    tstar = FMatrix(((z, z, z), (z, z, one), (RatFunc(Poly((-1,)), Poly((-1, 1))), z, z)))
    assert kronecker_relation_checks(t, tstar) == _reference_checks(t, tstar) == (False, True)


def _blocks(monkeypatch):
    """Patch `_holds` to log (center, q, points) per block it checks."""
    log, check = [], repbuild._holds

    def logged(program, gens, q):
        log.append((program is _CENTER, q, len(gens["T"][0])))
        return check(program, gens, q)

    monkeypatch.setattr(repbuild, "_holds", logged)
    return log


def _points_per_prime(log, center):
    out = {}
    for c, q, k in log:
        if c == center:
            out[q] = out.get(q, 0) + k
    return out


def test_generator_entries_have_the_parity_of_their_row_and_column():
    # the precondition of `_integer_form`'s conjugation by diag(X^floor(i/2)):
    # over its common denominator den(Y), entry (i, j) of T and of T* is
    # X^e c(Y) with e = floor(i/2) + floor(j/2) (mod 2), all 11,966 at
    # N = 2..32
    entries = 0
    for N in range(2, 33):
        for forms in _twist_factors(N):
            _, nums = _over_denominator(form for [form] in forms.values())
            assert all((e - i // 2 - j // 2) % 2 == 0 for (i, j), (e, _) in zip(forms, nums)), N
            entries += len(nums)
    assert entries == 11_966


@pytest.mark.parametrize("N", range(2, 9))
def test_an_entry_of_the_other_parity_is_refused_before_evaluation(monkeypatch, N):
    # T[0][1] with its power of -X moved by one
    log = _blocks(monkeypatch)
    t, tstar = _twist_factors(N)
    [(sign, power, factors)] = t[0, 1]
    t = {**t, (0, 1): [(sign, power + 1, factors)]}
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) "):
        relation_checks(N, (t, tstar))
    assert log == []


# K of the braid at each N: 1 + the widest span of one entry of its difference
# in Y = X^2, (width - 1) / 2 + 1 for the widest in X (`width` degrees)
_BRAID_POINTS = {2: 8, 3: 23, 4: 46, 5: 77, 6: 116, 7: 163, 8: 218, 12: 518}


@pytest.mark.parametrize(
    "N, width, primes",
    [(2, 15, 1), (3, 45, 1), (4, 91, 1), (5, 153, 1), (6, 231, 2), (7, 325, 2), (8, 435, 2), (12, 1035, 3)],
)
def test_a_holding_braid_decides_the_center_unevaluated(monkeypatch, N, width, primes):
    # the braid identity implies the center one, so when it holds the center
    # is never evaluated; the braid takes its own K and its own primes, K
    # about half the widest span of one entry of its difference (`width`
    # degrees, the number of points before the parity was read)
    log = _blocks(monkeypatch)
    assert relation_checks(N, _twist_factors(N)) == (True, True)
    assert _points_per_prime(log, True) == {}
    assert _points_per_prime(log, False) == {float(q): _BRAID_POINTS[N] for q in _PRIMES[:primes]}
    lo, hi = _generator_spans(N)[0]
    assert 1 + 2 * (hi - lo).max() == width


@pytest.mark.parametrize("N", range(2, 9))
def test_a_failing_braid_evaluates_the_center(monkeypatch, N):
    log = _blocks(monkeypatch)
    assert _integer_checks(N, _generator_forms(changed_factor(*_twist_factors(N), N))) == (False, False)
    assert _points_per_prime(log, True)


@pytest.mark.parametrize("N", range(2, 7))
def test_relation_checks_do_not_depend_on_the_block_size(monkeypatch, N):
    # on the generators and with a changed factor, the verdicts with one point
    # per block are those with one block for all K points of each prime
    log = _blocks(monkeypatch)
    cases = (_twist_factors(N), changed_factor(*_twist_factors(N), N))
    for twist, want in zip(cases, ((True, True), (False, False))):
        for cells in (1, 2**20):
            monkeypatch.setattr(repbuild, "_BLOCK_CELLS", cells)
            log.clear()
            assert relation_checks(N, twist) == want, cells
            if cells == 1:
                assert {k for _, _, k in log} == {1}
            else:
                assert len(log) == len({(center, q) for center, q, _ in log})


def test_a_failing_braid_with_a_holding_center_evaluates_both(monkeypatch):
    # the braid difference D_S - D_T = X - 1 takes K = 2 points on one prime
    # and fails in its one block; the 1 x 1 commutators vanish, K = 1
    log = _blocks(monkeypatch)
    assert _checks(ONE, [1], ONE, [0, 1]) == (False, True)
    assert _points_per_prime(log, False) == {float(_PRIMES[0]): 2}
    assert _points_per_prime(log, True) == {float(_PRIMES[0]): 1}


def test_integer_checks_refuse_zero_denominators():
    # the braid implies the center only over nonzero D_T and D_S
    with pytest.raises(ValueError):
        _checks(ONE, [0], ONE, [1])


def test_prime_table_is_the_largest_primes_below_2_20():
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    below = [n for n in range(2**20 - 1, _PRIMES[-1] - 1, -1) if is_prime(n)]
    assert list(_PRIMES) == below
    assert len(set(_PRIMES)) == len(_PRIMES)


@pytest.mark.parametrize("terms", [1, 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 37])
def test_values_match_horner_mod_q(terms):
    rng = random.Random(terms)
    q = _PRIMES[-1]
    # rows longest first, zero past their lengths: the longest has `terms`;
    # each row r stands for Y^lows[r] times its coefficients, the lows below
    # and above the chunk and the longest row
    lengths = sorted([terms] + [rng.randrange(terms + 1) for _ in range(4)], reverse=True)
    rows = [[rng.randrange(q) for _ in range(k)] + [0] * (terms - k) for k in lengths]
    lows = [0, 1, rng.randrange(3 * _CHUNK), 3 * _CHUNK + terms, rng.randrange(terms + 1)]
    x = [0, 1, 2, rng.randrange(q), q - 1]

    def horner(row, v):
        acc = 0
        for c in reversed(row):
            acc = (acc * v + c) % q
        return acc

    a, x = np.array(rows, dtype=np.float64), np.array(x, dtype=np.float64)
    got = _values(a, np.array(lengths), np.array(lows), x, float(q))
    assert got.tolist() == [[horner(padded((low, row)), v) for v in x] for low, row in zip(lows, rows)]


# The decision on integer forms, 1 x 1: with P_T = P_S = 1 the braid sides are
# D_S and D_T, so the difference to detect is D_S - D_T, and the center holds.
ONE = [[[1]]]


@pytest.mark.parametrize("k", [2, 3])
def test_difference_divisible_by_all_primes_but_the_last_is_detected(k):
    m = math.prod(_PRIMES[: k - 1])
    dt, ds = [1], [1 + m]
    assert _primes_above(2 * (2 + m)) == _PRIMES[:k]  # the bound is |D_T|_1 + |D_S|_1
    assert _checks(ONE, dt, ONE, ds) == (False, True)
    assert _checks(ONE, dt, ONE, dt) == (True, True)


@pytest.mark.parametrize("d", [1, 2, 7, 16])
def test_difference_vanishing_at_all_points_but_the_last_is_detected(d):
    # D_S - D_T = X^v (X - 1) ... (X - d): its span gives K = d + 1 points,
    # and it is zero at the points 1..K-1, nonzero at the last one (and zero
    # at x = 0 when v > 0, which is why 0 is not a point)
    falling = Poly((1,))
    for x in range(1, d + 1):
        falling = poly_mul(falling, Poly((-x, 1)))
    for v in (0, 3):
        dt = [0] * v + [1]
        ds = list(poly_shift(poly_add(falling, Poly((1,))), v).coeffs)
        assert _points(ONE, dt, ONE, ds) == d + 1
        assert _checks(ONE, dt, ONE, ds) == (False, True)


@pytest.mark.parametrize("d", [1, 2, 7])
def test_zero_entries_never_shrink_the_points(monkeypatch, d):
    # the braid difference is D_S - D_T = Y (Y - 1) ... (Y - d) at (0, 0) and
    # zero (width -inf) at the other three entries: width d, so K = d + 1
    # points, and it is zero at y = 1..d, nonzero at the last point
    log = _blocks(monkeypatch)
    falling = Poly((1,))
    for y in range(1, d + 1):
        falling = poly_mul(falling, Poly((-y, 1)))
    dt = [0, 1]
    ds = list(poly_shift(poly_add(falling, Poly((1,))), 1).coeffs)
    pt = [[[1], []], [[], []]]
    assert _points(pt, dt, pt, ds) == d + 1
    assert _checks(pt, dt, pt, ds) == (False, True)
    assert _points_per_prime(log, False) == {float(_PRIMES[0]): d + 1}


@pytest.mark.parametrize(
    "pt, dt, ds",
    [
        (ONE, [1], [2**53]),  # a coefficient float64 cannot hold exactly
        ([[[1] + [0] * 150_000 + [1]]], [1], [1]),  # 1 + Y^150001: K = 7 * 150001 + 1 >= q
        ([[[2**50] * 2] * 2] * 2, [1], [1]),  # a height beyond the prime table
        (ONE, [1], [10**400]),  # one float64 cannot hold at all
    ],
)
def test_integer_checks_refuse_inputs_beyond_their_invariants(monkeypatch, pt, dt, ds):
    log = _blocks(monkeypatch)
    with pytest.raises(TooLargeError):
        _checks(pt, dt, pt, ds)
    assert log == []  # before anything is evaluated


def test_integer_checks_refuse_a_valuation_beyond_q_before_evaluation(monkeypatch):
    # a valuation allocates nothing in the forms, but the powers y^0..y^v of
    # a block do: so v >= q is refused before anything is evaluated, even
    # where K is 1, and v = 10^400 beyond the int64 range too
    log = _blocks(monkeypatch)
    one = (0, [1])
    below_q = r"^exact checks need K < q, valuations below q and "
    for v, message in ((_PRIMES[0], below_q), (10**7, below_q), (10**400, r"valuation .* beyond the float range$")):
        with pytest.raises(TooLargeError, match=message):
            _integer_checks(1, {"T": ({(0, 0): (v, [1])}, (v, [1])), "S": ({(0, 0): one}, one)})
        assert log == []
    with pytest.raises(ValueError, match="no negative valuation"):
        _integer_checks(1, {"T": ({(0, 0): (-1, [1])}, one), "S": ({(0, 0): one}, one)})
    assert log == []


def test_integer_checks_run_a_large_valuation_in_blocks_of_bounded_size(monkeypatch):
    # v = 2^18 > _BLOCK_CELLS: one point a block, whose powers y^0..y^v take
    # v + 1 cells; the sides differ by Y^(2v) (1 + Y) - Y^(2v), K = 2
    log = _blocks(monkeypatch)
    v, one = 2**18, (0, [1])
    assert v > _BLOCK_CELLS
    pt, ps = {(0, 0): (v, [1])}, {(0, 0): one}
    assert _integer_checks(1, {"T": (pt, (v, [1])), "S": (ps, one)}) == (True, True)
    assert _integer_checks(1, {"T": (pt, (v, [1])), "S": (ps, (0, [1, 1]))}) == (False, True)
    assert {k for _, _, k in log} == {1}


# --- the degree spans that set the number of points ----------------------------


def _reached(n, forms, program):
    """The spans and the float64 height bound of `program` on the integer
    forms `forms` of dimension n, held as the exact checks hold them, from
    the rows `_decide` lays out: the (lo, hi) spans of the entries of each
    equation's difference, stacked, and the float64 height bound (`_reach`)."""
    where, lows, lengths, rows = _coefficient_rows(forms.values())
    spans = _generators(forms, where, np.stack((lows, 1 - lows - lengths), -1), np.full((len(forms), 2, n, n), np.inf))
    norms = _generators(forms, where, np.abs(rows).sum(-1), np.zeros((len(forms), n, n)))
    hulls, bound = _reach(program, spans, norms, n, rows.shape[1])
    lo, minus_hi = np.moveaxis(np.array(hulls), 1, 0)
    return (lo, -minus_hi), bound


def _forms_spans(n, forms):
    """[(lo, hi)] of the braid and the center (`_reached`)."""
    return [_reached(n, forms, program)[0] for program in (_BRAID, _CENTER)]


def _points(pt, dt, ps, ds):
    """K, the number of points `_integer_checks` evaluates at, for integer
    forms given as coefficient lists: 1 + the widest span of one entry."""
    spans = _forms_spans(len(pt), held_pair(pt, dt, ps, ds))
    return 1 + max((hi - lo).max() for lo, hi in spans)


def _generator_spans(N):
    return _forms_spans(N, _generator_forms(_twist_factors(N)))


@pytest.mark.parametrize(
    "N, points",
    [(2, 25), (3, 78), (4, 160), (5, 272), (6, 413), (7, 583), (8, 783), (12, 1875)],
)
def test_points_on_the_generators(N, points):
    # one span per identity, the hull of its entries' spans in X on the
    # unconjugated forms (`lcm_form`): 1 + its width. 1 + max(deg D + 3 dmax,
    # 7 dmax), with every entry taken at degree dmax and valuation 0, is 43
    # at N = 2, 1212 at N = 8 and 2878 at N = 12
    t, tstar = twists(N)
    spans = _forms_spans(N, held_pair(*lcm_form(t), *lcm_form(tstar)))
    assert 1 + max(hi.max() - lo.min() for lo, hi in spans) == points


@pytest.mark.parametrize(
    "N, points",
    [(2, 25), (3, 77), (4, 157), (5, 267), (6, 405), (7, 571), (8, 767), (12, 1835)],
)
def test_points_per_entry_on_the_generators(N, points):
    # the widest span of one entry, at most the hull's (above): `points`
    # degrees in X, (points - 1) / 2 + 1 in Y = X^2, where the checks run
    assert 1 + 2 * max((hi - lo).max() for lo, hi in _generator_spans(N)) == points


small_polys = st.lists(st.integers(min_value=-2, max_value=2), max_size=5)  # zeros at either end


@st.composite
def integer_forms(draw):
    """(P_T, D_T, P_S, D_S) as coefficient lists: small random entries, zero
    ones among them, and now and then an all-zero matrix."""
    n = draw(st.integers(min_value=1, max_value=3))
    matrices = st.one_of(
        st.just([[[]] * n] * n),
        st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n),
    )
    dens = st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=3).filter(any)
    return draw(matrices), draw(dens), draw(matrices), draw(dens)


@given(integer_forms())
# P_T C' has a term Y^6, C' P_T and C' P_S only Y^7: both sides' spans count
@example(([[[-1], [0, -1]], [[0], [0, 1]]], [1], [[[], []], [[], [0, -1]]], [1]))
@settings(max_examples=60, deadline=None)
def test_spans_hold_every_nonzero_coefficient(forms):
    pt, dt, ps, ds = forms
    t, tstar = (FMatrix([[RatFunc(Poly(e)) for e in row] for row in p]) for p in (pt, ps))
    d_t, d_s = RatFunc(Poly(dt)), RatFunc(Poly(ds))
    tst = fm_mul(fm_mul(t, tstar), t)
    braid = fm_sub(fm_scale(tst, d_s), fm_scale(fm_mul(fm_mul(tstar, t), tstar), d_t))
    c = fm_mul(tst, tst)
    center = [fm_sub(fm_mul(c, p), fm_mul(p, c)) for p in (t, tstar)]
    for (lo, hi), diffs in zip(_forms_spans(len(pt), held_pair(*forms)), ([braid], center)):
        lo, hi = (a.reshape(len(diffs), -1) for a in (lo, hi))
        for m, diff in enumerate(diffs):
            for cell, e in enumerate(e for row in diff.rows for e in row):
                assert e.den == Poly((1,))
                assert all(lo[m, cell] <= k <= hi[m, cell] for k, a in enumerate(e.num.coeffs) if a)
    # and the points they give decide both identities as the products do
    zero = [all(not e for d in diffs for row in d.rows for e in row) for diffs in ([braid], center)]
    assert _checks(*forms) == tuple(zero)


# --- the height bound in float64 -----------------------------------------------


# Three identities, each one equation between two words: a twist commutes
# with the operator of its own curve, here X^-1 y and X^-1 z (`_hat`), and T*
# does not commute with X^-1 y
_TY = (), ("TY=YT",)
_SZ = (), ("SZ=ZS",)
_SY = (), ("SY=YS",)


@pytest.mark.parametrize("N", range(2, 33))
def test_float_height_bound_is_above_the_exact_one_with_the_same_primes(N):
    forms = _generator_forms(_twist_factors(N))
    for program in (_BRAID, _CENTER):
        bound, exact = _reached(N, forms, program)[1], exact_height_bound(N, forms, program)
        assert bound >= exact, N  # a Python float against an int, compared exactly
        assert _primes_above(2 * bound) == _primes_above(2 * exact), N


@given(integer_forms())
# coefficients near 2^52: every product rounds
@example(([[[2**52 - 1] * 3] * 3] * 3, [2**52 - 1] * 3, [[[2**52 - 3] * 3] * 3] * 3, [1]))
@settings(max_examples=100, deadline=None)
def test_float_height_bound_is_above_the_exact_one(forms):
    pt, dt, ps, ds = forms
    pair = list(held_pair(pt, dt, ps, ds).values())
    for program, names in ((_BRAID, "TS"), (_CENTER, "TS"), (_TY, "TY"), (_SZ, "SZ"), (_SY, "SY"), (((), ("TT=S",)), "TS")):
        named = dict(zip(names, pair))
        assert _reached(len(pt), named, program)[1] >= exact_height_bound(len(pt), named, program)


def test_a_height_bound_past_its_slack_is_refused_before_evaluation(monkeypatch):
    # a side of 2^10 copies of a 1 x 1 form whose widest row, D's, has L
    # coefficients: L - 1 roundings in each norm, one in each of the 2^10 - 1
    # products, and two for the sum and the final factor make m = 2^10 L + 1,
    # so gamma_m reaches 2^-30 from L = 2^13; one coefficient fewer is decided
    log = _blocks(monkeypatch)
    program = (), ("T" * 2**10 + "=" + "T" * 2**10,)

    def form(length):
        return {"T": ({(0, 0): (0, [1])}, (0, [1] + [0] * (length - 2) + [1]))}

    with pytest.raises(TooLargeError, match="height bound within 2\\^-30"):
        next(_decide(1, form(2**13), [program]))
    assert log == []
    assert list(_decide(1, form(2**13 - 1), [program])) == [True]
    assert log


# --- identities as programs ----------------------------------------------------


def test_programs_derive_their_scalar_factors():
    # the walk in words: a side is scaled by the D of every generator it
    # holds fewer copies of than the other side, once a copy, so the braid
    # is D_S TST = D_T STS, and a commutator's sides hold the same copies
    gens = {"T": ("T", "d_T "), "S": ("S", "d_S ")}

    def walk(program):
        return list(_walk(program, gens, lambda a, b: a + b, lambda a, d: d + a))

    assert walk(_BRAID) == [["d_S TST", "d_T STS"]]
    assert walk(_CENTER) == [["TSTTSTT", "TTSTTST"], ["TSTTSTS", "STSTTST"]]
    assert walk(((), ("TTS=S",))) == [["TTS", "d_T d_T S"]]


@pytest.mark.parametrize("ps, holds", [([1, 2, 1], True), ([1, 1], False)])
def test_a_side_scaled_by_two_copies_of_a_denominator(ps, holds):
    # T = (1 + Y) / Y and S = P_S / Y^2: T^2 = S iff Y^2 (1 + Y)^2 = Y^2 P_S,
    # the side TT times D_S and the side S times D_T twice
    forms = {"T": ({(0, 0): (0, [1, 1])}, (1, [1])), "S": ({(0, 0): (0, ps)}, (2, [1]))}
    assert list(_decide(1, forms, [((), ("TT=S",))])) == [holds]


def _hat(N, what):
    """The form map of X^-1 M for the curve operator M = y or z (`forms`),
    which `_integer_form` takes, though it refuses y and z: their entry
    (0, 0) has the other parity."""
    return {ij: [(-s, a - 1, f)] for ij, [(s, a, f)] in forms(what, N).items()}


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("program, twist, curve, holds", [(_TY, "T", "Y", True), (_SZ, "Tstar", "Z", True), (_SY, "Tstar", "Y", False)])
def test_engine_decides_commutations_as_the_qx_products(N, program, twist, curve, holds):
    # the first two letters of the equation name the twist and the operator
    maps = forms(twist, N), _hat(N, curve)
    [verdict] = _decide(N, dict(zip(program[1][0][:2], map(_integer_form, maps))), [program])
    a, b = (fmatrix_of(repbuild._matrix(N, m)) for m in maps)
    assert verdict == fm_eq(fm_mul(a, b), fm_mul(b, a)) == holds
