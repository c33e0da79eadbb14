import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrep.errors import PoleError
from torusrep.field import (
    FMatrix,
    Poly,
    RatFunc,
    fm_mul,
    fmatrix_from_obj,
    fmatrix_to_obj,
    poly_gcd,
    ratfunc_from_obj,
    ratfunc_to_obj,
    signed_power,
)
from torusrep.numeric import eval_matrix

from reference import SingularError, fm_eq, fm_inv

X = RatFunc.x()


def eval_complex(f, x):
    return eval_matrix(FMatrix([[f]]), x)[0, 0]


def rf(num, den=(1,)):
    return RatFunc(Poly(num), Poly(den))


# --- worked examples ---------------------------------------------------------


def test_additive_inverse():
    assert X + (-X) == RatFunc.zero()


def test_cancellation_forces_reduction():
    assert rf((1,), (1, 1)) * rf((1, 1)) == RatFunc.one()


def test_exact_polynomial_quotient():
    assert rf((-1, 0, 1)) / rf((-1, 1)) == rf((1, 1))


def test_signed_power_values():
    assert signed_power(0) == RatFunc.one()
    assert signed_power(2) == rf((0, 0, 1))
    assert signed_power(-1) == rf((-1,), (0, 1))
    assert signed_power(3) == rf((0, 0, 0, -1))


def test_eval_exact_removable_singularity():
    f = rf((-1, 0, 1), (1, 1))  # (X^2-1)/(X+1) reduces to X-1
    assert f.eval_exact(-1) == -2


def test_eval_exact_plain():
    assert X.eval_exact(-1) == -1


def test_eval_exact_irreducible_pole():
    with pytest.raises(PoleError):
        rf((1,), (1, 1)).eval_exact(-1)


def test_eval_complex_basics():
    assert eval_complex(X, 1j) == 1j
    assert abs(eval_complex(signed_power(-1), -1 + 0j) - 1.0) < 1e-15


def test_eval_complex_matches_direct_quantum_integer():
    import cmath

    x = -cmath.exp(1j * cmath.pi / 7)
    q1 = signed_power(1) - signed_power(-1)
    direct = (-x) - 1 / (-x)
    assert abs(eval_complex(q1, x) - direct) < 1e-14


def test_division_by_zero_function():
    with pytest.raises(ZeroDivisionError):
        X / RatFunc.zero()


# --- canonical form ---------------------------------------------------------


def test_canonical_den_monic_and_coprime():
    f = rf((0, 2), (4, 0, 2))  # 2X / (2X^2 + 4)
    assert f.den.lead == 1
    assert poly_gcd(f.num, f.den).degree == 0
    assert f == rf((0, 1), (2, 0, 1))


def test_fraction_coefficients_supported():
    f = RatFunc(Poly((Fraction(1, 2), 1)), Poly((1,)))
    assert f.eval_exact(1) == Fraction(3, 2)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Poly((0.5, 1))


# --- matrices ---------------------------------------------------------------


def test_fm_identity():
    a = FMatrix([[rf((1,)), rf((0, 1))], [rf((0,)), rf((1,))]])
    assert fm_eq(fm_mul(FMatrix.identity(2), a), a)


def test_fm_inv_unipotent():
    q1 = rf((1, 0, -1), (0, 1))  # {1}
    u = FMatrix([[rf((1,)), q1], [rf((0,)), rf((1,))]])
    uinv = fm_inv(u)
    assert uinv[0][1] == -q1
    assert fm_eq(fm_mul(u, uinv), FMatrix.identity(2))


def test_fm_inv_singular():
    with pytest.raises(SingularError):
        fm_inv(FMatrix([[X, X], [X, X]]))


def test_fm_dimension_mismatch():
    with pytest.raises(ValueError):
        fm_mul(FMatrix.identity(2), FMatrix.identity(3))


def test_fm_mul_associative_random():
    rng = random.Random(42)

    def rand_entry():
        num = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        den = Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            den = Poly((1,))
        return RatFunc(num, den)

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
    return RatFunc(num, den)


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero:
        assert a * a.reciprocal() == RatFunc.one()


@given(ratfuncs(), ratfuncs(), st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_eval_is_multiplicative(a, b, x):
    try:
        lhs = (a * b).eval_exact(x)
        rhs = a.eval_exact(x) * b.eval_exact(x)
    except PoleError:
        return
    assert lhs == rhs


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariant(f):
    g = f + f - f  # exercise add/sub paths
    assert g == f
    assert g.den.lead == 1
    assert poly_gcd(g.num, g.den).degree == 0 or g.is_zero


# --- Poly normal form ---------------------------------------------------------

poly_coeff = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)),
)
poly_lists = st.lists(poly_coeff, max_size=5)


def _assert_normal(p):
    """p is what the public constructor makes of its coefficients: no trailing
    zero, integral Fractions stored as ints, and the integrality flag right."""
    ref = Poly(p.coeffs)
    assert p.coeffs == ref.coeffs
    assert [type(c) for c in p.coeffs] == [type(c) for c in ref.coeffs]
    assert p.is_integral() == all(isinstance(c, int) for c in p.coeffs)


def test_poly_constructor_normalises():
    p = Poly((Fraction(4, 2), "3/3", 0))
    assert p.coeffs == (2, 1) and all(type(c) is int for c in p.coeffs)
    assert p.is_integral()
    assert not Poly(("1/2", 1)).is_integral()
    assert Poly(()).is_integral()


@given(poly_lists, poly_lists, poly_coeff, st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_poly_results_are_normal(a, b, s, k):
    a, b = Poly(a), Poly(b)
    for r in (a + b, a - b, b - a, a * b, -a, a.scale(s), a * s, a.shift(k),
              a.shift(k).unshift(k), poly_gcd(a, b)):
        _assert_normal(r)
    if not b.is_zero:
        q, r = a.divmod(b)
        _assert_normal(q)
        _assert_normal(r)
        assert q * b + r == a


def test_poly_kronecker_results_are_normal():
    rng = random.Random(5)
    f = Poly([rng.randint(-9, 9) for _ in range(60)] + [1])
    g = Poly([rng.randint(-9, 9) for _ in range(55)] + [-3])
    h = f * g
    _assert_normal(h)
    assert h.divmod(g) == (f, Poly(()))
    assert h.divmod(f) == (g, Poly(()))
    assert poly_gcd(h, g * g) == -g


# --- serialization ----------------------------------------------------------


def test_ratfunc_roundtrip():
    f = rf((1, -2, 3), (2, 0, 1))
    assert ratfunc_from_obj(ratfunc_to_obj(f)) == f


def test_fmatrix_roundtrip():
    m = FMatrix([[X, RatFunc.one()], [signed_power(-3), rf((1, 1), (0, 0, 1))]])
    obj = fmatrix_to_obj(m, name="demo", N=2)
    assert obj["matrix_name"] == "demo"
    assert fm_eq(fmatrix_from_obj(obj), m)


def test_serialized_coefficients_are_exact_strings():
    f = RatFunc(Poly((Fraction(1, 2),)), Poly((1, 1)))
    obj = ratfunc_to_obj(f)
    assert obj["num"] == ["1/2"]
    assert obj["den"] == ["1", "1"]
