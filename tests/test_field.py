"""The reference's Q(X) (`reference.Poly`, `RatFunc` and `FMatrix`, their
arithmetic and JSON), against which the tests check the program, and the one
polynomial division in the program, `qsymbols._divided`."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrep.errors import PoleError
from torusrep.qsymbols import _cyclotomic, _divided

from reference import (
    FMatrix,
    Poly,
    RatFunc,
    SingularError,
    add,
    div,
    eval_exact,
    fm_eq,
    fm_inv,
    fm_mul,
    fmatrix_from_obj,
    fmatrix_to_obj,
    horner_value,
    identity,
    mul,
    neg,
    poly_add,
    poly_gcd,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_sub,
    ratfunc_from_obj,
    ratfunc_to_obj,
    reciprocal,
    reduced,
    signed_power,
    sub,
)

X = RatFunc(Poly((0, 1)))


def rf(num, den=(1,)):
    return reduced(Poly(num), Poly(den))


# --- worked examples ---------------------------------------------------------


def test_additive_inverse():
    assert add(X, neg(X)) == RatFunc.zero()


def test_cancellation_forces_reduction():
    assert mul(rf((1,), (1, 1)), rf((1, 1))) == RatFunc(1)


def test_exact_polynomial_quotient():
    assert div(rf((-1, 0, 1)), rf((-1, 1))) == rf((1, 1))


def test_signed_power_values():
    assert signed_power(0) == RatFunc(1)
    assert signed_power(2) == rf((0, 0, 1))
    assert signed_power(-1) == rf((-1,), (0, 1))
    assert signed_power(3) == rf((0, 0, 0, -1))


def test_eval_exact_removable_singularity():
    f = rf((-1, 0, 1), (1, 1))  # (X^2-1)/(X+1) reduces to X-1
    assert eval_exact(f, -1) == -2


def test_eval_exact_plain():
    assert eval_exact(X, -1) == -1


def test_eval_exact_irreducible_pole():
    with pytest.raises(PoleError):
        eval_exact(rf((1,), (1, 1)), -1)


def test_eval_complex_basics():
    assert horner_value(X, 1j) == 1j
    assert abs(horner_value(signed_power(-1), -1 + 0j) - 1.0) < 1e-15


def test_eval_complex_matches_direct_quantum_integer():
    import cmath

    x = -cmath.exp(1j * cmath.pi / 7)
    q1 = sub(signed_power(1), signed_power(-1))
    direct = (-x) - 1 / (-x)
    assert abs(horner_value(q1, x) - direct) < 1e-14


def test_division_by_zero_function():
    with pytest.raises(ZeroDivisionError):
        div(X, RatFunc.zero())


# --- canonical form ---------------------------------------------------------


def test_canonical_den_monic_and_coprime():
    f = rf((0, 2), (4, 0, 2))  # 2X / (2X^2 + 4)
    assert f.den.lead == 1
    assert poly_gcd(f.num, f.den).degree == 0
    assert f == rf((0, 1), (2, 0, 1))


def test_fraction_coefficients_supported():
    f = add(RatFunc(Fraction(1, 2)), X)  # X + 1/2 = (2X + 1)/2 over Z[X]
    assert (f.num.coeffs, f.den.coeffs) == ((1, 2), (2,))
    assert eval_exact(f, 1) == Fraction(3, 2)
    third = RatFunc(Fraction(1, 3))
    assert (third.num.coeffs, third.den.coeffs) == ((1,), (3,))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly((0.5, 1))


# --- matrices ---------------------------------------------------------------


def test_fm_identity():
    a = FMatrix([[rf((1,)), rf((0, 1))], [rf((0,)), rf((1,))]])
    assert fm_eq(fm_mul(identity(2), a), a)


def test_fm_inv_unipotent():
    q1 = rf((1, 0, -1), (0, 1))  # {1}
    u = FMatrix([[rf((1,)), q1], [rf((0,)), rf((1,))]])
    uinv = fm_inv(u)
    assert uinv[0][1] == neg(q1)
    assert fm_eq(fm_mul(u, uinv), identity(2))


def test_fm_inv_singular():
    with pytest.raises(SingularError):
        fm_inv(FMatrix([[X, X], [X, X]]))


def test_fm_dimension_mismatch():
    with pytest.raises(ValueError):
        fm_mul(identity(2), identity(3))


def test_fm_mul_associative_random():
    rng = random.Random(42)

    def rand_entry():
        num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        den = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            den = Poly((1,))
        return reduced(num, den)

    for _ in range(5):
        a, b, c = (
            FMatrix([[rand_entry() for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        )
        assert fm_eq(fm_mul(fm_mul(a, b), c), fm_mul(a, fm_mul(b, c)))


# --- field axioms (property-based) -----------------------------------------

coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=4)


@st.composite
def ratfuncs(draw):
    num = Poly(draw(coeffs))
    den = Poly(draw(coeffs))
    if den.is_zero:
        den = Poly((1,))
    return reduced(num, den)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    if not a.is_zero:
        assert mul(a, reciprocal(a)) == RatFunc(1)


@given(ratfuncs(), ratfuncs(), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_eval_is_multiplicative(a, b, x):
    try:
        lhs = eval_exact(mul(a, b), x)
        rhs = eval_exact(a, x) * eval_exact(b, x)
    except PoleError:
        return
    assert lhs == rhs


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariant(f):
    g = sub(add(f, f), f)  # exercise add/sub paths
    assert g == f
    # the Z[X] canonical form: den lead > 0, no common integer content, no
    # common polynomial factor
    assert g.den.lead > 0
    assert math.gcd(*g.num.coeffs, *g.den.coeffs) == 1
    assert poly_gcd(g.num, g.den).degree == 0 or g.is_zero


# --- Poly normal form ---------------------------------------------------------

poly_coeff = st.integers(min_value=-6, max_value=6)
poly_lists = st.lists(poly_coeff, max_size=5)


def _assert_normal(p):
    """p is what the public constructor makes of its coefficients: ints, no
    trailing zero."""
    ref = Poly(p.coeffs)
    assert p.coeffs == ref.coeffs
    assert all(type(c) is int for c in p.coeffs)


def test_poly_constructor_normalises():
    p = Poly((2, 1, 0, 0))
    assert p.coeffs == (2, 1) and all(type(c) is int for c in p.coeffs)
    assert Poly((0, 0)).coeffs == ()
    for bad in ((Fraction(1, 2),), ("1/2",), (Fraction(4, 2), 1), (1, "3")):
        with pytest.raises(TypeError):
            Poly(bad)


@given(poly_lists, poly_lists, poly_coeff, st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_poly_results_are_normal(a, b, s, k):
    a, b = Poly(a), Poly(b)
    for r in (poly_add(a, b), poly_sub(a, b), poly_sub(b, a), poly_mul(a, b), poly_scale(a, -1),
              poly_scale(a, s), poly_shift(a, k), poly_shift(a, k).unshift(k), poly_gcd(a, b)):
        _assert_normal(r)
    if not b.is_zero:
        q = poly_mul(a, b).exact_div(b)
        _assert_normal(q)
        assert q == a


def test_exact_div_refuses_a_division_inexact_in_z():
    assert Poly((2, 2)).exact_div(Poly((2,))) == Poly((1, 1))
    for a, b in [((3,), (2,)), ((0, 3), (0, 2)), ((1, 1), (0, 2))]:
        with pytest.raises(ArithmeticError):
            Poly(a).exact_div(Poly(b))


def test_poly_kronecker_results_are_normal():
    rng = random.Random(5)
    f = Poly([rng.randint(-9, 9) for _ in range(60)] + [1])
    g = Poly([rng.randint(-9, 9) for _ in range(55)] + [-3])
    h = poly_mul(f, g)
    _assert_normal(h)
    assert h.exact_div(g) == f
    assert _divided(h.coeffs, f.coeffs) == list(g.coeffs)  # f is monic
    assert poly_gcd(h, poly_mul(g, g)) == poly_scale(g, -1)


# --- division by a monic polynomial (`qsymbols._divided`) -------------------


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=12), st.integers(min_value=1, max_value=64))
@settings(max_examples=150, deadline=None)
def test_divided_by_a_cyclotomic_polynomial(c, d):
    # c Phi_d / Phi_d is c; c Phi_d + 1 leaves the remainder 1, deg Phi_d >= 1
    c, phi = Poly(c), Poly(_cyclotomic(d))
    product = poly_mul(c, phi)
    assert _divided(product.coeffs, phi.coeffs) == list(c.coeffs)
    assert _divided(poly_add(product, Poly((1,))).coeffs, phi.coeffs) is None


def test_divided_refuses_a_division_with_a_remainder():
    assert _divided((-1, 0, 1), (1, 1)) == [-1, 1]
    assert _divided((0, 0, 0, 1), (0, 1)) == [0, 0, 1]
    for a, b in [((1,), (1, 1)), ((1, 0, 1), (1, 1)), ((2,), (1, 1)), ((1, 1), (0, 1)), ((1, 2, 1, 1), (1, 1))]:
        assert _divided(a, b) is None


# --- serialization ----------------------------------------------------------


def test_ratfunc_roundtrip():
    f = rf((1, -2, 3), (2, 0, 1))
    assert ratfunc_from_obj(ratfunc_to_obj(f)) == f


def test_fmatrix_roundtrip():
    m = FMatrix([[X, RatFunc(1)], [signed_power(-3), rf((1, 1), (0, 0, 1))]])
    obj = fmatrix_to_obj(m, name="demo", N=2)
    assert obj["matrix_name"] == "demo"
    assert fm_eq(fmatrix_from_obj(obj), m)


def test_serialized_coefficients_are_exact_strings():
    f = div(RatFunc(Fraction(1, 2)), RatFunc(Poly((1, 1))))  # 1 / (2 + 2X)
    obj = ratfunc_to_obj(f)
    assert obj["num"] == ["1"]
    assert obj["den"] == ["2", "2"]
    assert ratfunc_from_obj(obj) == f
    with pytest.raises(ValueError):
        ratfunc_from_obj({"num": ["1/2"], "den": ["1", "1"]})
