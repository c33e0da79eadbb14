import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrep.field import FMatrix, RatFunc, signed_power
from torusrep.numeric import PSetting, eval_matrix, primitive_root
from torusrep.qsymbols import (
    QContext,
    _product_form,
    lambda_shifted,
    qint,
    qint_plus,
    rhat,
)

from reference import mu, qfact


def _at(f, x):
    return eval_matrix(FMatrix([[f]]), x)[0, 0]


def test_qcontext_validation():
    QContext(2)
    with pytest.raises(ValueError):
        QContext(1)


def test_qint_values():
    assert qint(0) == RatFunc.zero()
    assert qint(1) == signed_power(1) - signed_power(-1)  # -X + 1/X
    assert qint(1).eval_exact(2) == Fraction(-3, 2)


def test_qint_antisymmetry_small():
    assert qint(-3) == -qint(3)


def test_qint_plus_values():
    assert qint_plus(0) == RatFunc(2)
    assert qint_plus(5).eval_exact(-1) == 2
    assert qint_plus(-4) == qint_plus(4)


@given(st.integers(min_value=-24, max_value=24))
@settings(max_examples=49, deadline=None)
def test_qint_symmetries(n):
    assert qint(-n) == -qint(n)
    assert qint_plus(-n) == qint_plus(n)


def test_qfact():
    assert qfact(0) == RatFunc.one()
    assert qfact(-2) == RatFunc.zero()
    assert qfact(2) == qint(1) * qint(2)


def test_mu():
    assert mu(0) == RatFunc.one()
    assert mu(1) == signed_power(3)
    assert mu(1).eval_exact(2) == -8
    assert mu(-1) == signed_power(-1)


def test_lambda_shifted_forms():
    ctx = QContext(2)
    assert lambda_shifted(0, ctx) == -(signed_power(-3) + signed_power(3))
    assert lambda_shifted(1, ctx) == -(signed_power(-1) + signed_power(1))
    for k in (0, 1):
        assert lambda_shifted(k, ctx).eval_exact(-1) == -2


def test_lambda_shifted_limit_is_minus_two_every_k():
    for N in range(2, 7):
        ctx = QContext(N)
        for k in range(N):
            assert lambda_shifted(k, ctx).eval_exact(-1) == -2


def test_lambda_shifted_bounds():
    with pytest.raises(ValueError):
        lambda_shifted(2, QContext(2))


def test_lambda_matches_raw_eigenvalue_at_roots():
    # -{2(c+k)+2}+ at A_p equals the reflected form; literal c on the left.
    for N, p in ((2, 7), (3, 11), (4, 23)):
        ctx = QContext(N)
        s = PSetting(p, N)
        a = s.A
        for k in range(N):
            n = s.c + k
            raw = -(((-a) ** (2 * n + 2)) + ((-a) ** (-(2 * n + 2))))
            assert abs(_at(lambda_shifted(k, ctx), a) - raw) < 1e-10


def test_limit_law_qint_ratio():
    for N in (2, 6):
        for a in range(1, 4 * N + 1):
            assert (qint(a) / qint(1)).eval_exact(-1) == a


def test_reflection_identities_numeric():
    # {x+2c} = -{2N+1-x} and {x+2c}+ = {2N+1-x}+ at A_p, any odd p >= 2N+1
    for N, p in ((2, 5), (2, 7), (3, 7), (3, 31), (5, 11)):
        s = PSetting(p, N)
        w = -s.A

        def qd(t):
            return w**t - w**-t

        def qp(t):
            return w**t + w**-t

        for x in range(-2, 4 * N + 3):
            assert abs(qd(x + 2 * s.c) - (-qd(2 * N + 1 - x))) < 1e-10
            assert abs(qp(x + 2 * s.c) - qp(2 * N + 1 - x)) < 1e-10


def test_rhat_equal_indices():
    ctx = QContext(4)
    assert rhat(1, 1, ctx) == RatFunc.one()


def test_rhat_classical_limit_closed_form():
    from math import factorial

    for N in range(2, 7):
        ctx = QContext(N)
        for n in range(N):
            for m in range(N):
                got = rhat(n, m, ctx).eval_exact(-1)
                if n >= m:
                    want = Fraction(
                        (-4) ** (n - m) * factorial(m) * factorial(N - 1 - m),
                        factorial(n) * factorial(N - 1 - n),
                    )
                else:
                    want = 1 / Fraction(
                        (-4) ** (m - n) * factorial(n) * factorial(N - 1 - n),
                        factorial(m) * factorial(N - 1 - m),
                    )
                assert got == want, (N, n, m)


def test_rhat_limit_worked_example():
    assert rhat(1, 0, QContext(3)).eval_exact(-1) == -8


def test_rhat_reciprocal_symmetry():
    ctx = QContext(4)
    assert rhat(2, 0, ctx) * rhat(0, 2, ctx) == RatFunc.one()


def test_rhat_bounds():
    with pytest.raises(ValueError):
        rhat(0, 2, QContext(2))


def _direct_rhat(n, m, N):
    """The pairing ratio as the direct product of its factors over Q(X), a
    reference for its cyclotomic product form."""
    if n == m:
        return RatFunc.one()
    if n < m:
        return _direct_rhat(m, n, N).reciprocal()
    out = RatFunc.one() if (n - m) % 2 == 0 else -RatFunc.one()
    for j in range(m + 1, n + 1):
        out = out * (qint(2 * N - 2 * j) / qint(j))
    for k in range(2 * N - n, 2 * N - m):
        out = out * qint_plus(k)
    return out


def test_rhat_steps_equal_direct_product():
    for N in range(2, 11):
        ctx = QContext(N)
        for n in range(N):
            for m in range(N):
                assert rhat(n, m, ctx) == _direct_rhat(n, m, N), (N, n, m)


def test_product_form_of_single_symbols():
    # {k} and {k}+ read off their cyclotomic exponents (Phi_d up to d = 160)
    for k in range(1, 41):
        assert _product_form(1, 0, [(k, False, 1)]) == qint(k), k
        assert _product_form(1, 0, [(k, True, 1)]) == qint_plus(k), k
        assert _product_form(-1, k, [(k, True, -1)]) == -signed_power(k) / qint_plus(k), k


def test_rhat_matches_raw_factorial_ratio():
    # The telescoped product against the raw factorial formula with literal c;
    # this pins the double-factorial termination convention.
    def raw_ratio(n, m, s):
        w = -s.A

        def qd(t):
            return w**t - w**-t

        def qp(t):
            return w**t + w**-t

        def qd_fact(t):
            out = 1 + 0j
            for j in range(1, t + 1):
                out *= qd(j)
            return out

        def qd_dfact(t):
            out = 1 + 0j
            while t >= 1:
                out *= qd(t)
                t -= 2
            return out

        def qp_fact(t):
            out = 1 + 0j
            for j in range(1, t + 1):
                out *= qp(j)
            return out

        c = s.c
        return (qd_fact(m) * qd_dfact(2 * c + 2 * n + 1) * qp_fact(2 * c + n + 1)) / (
            qd_fact(n) * qd_dfact(2 * c + 2 * m + 1) * qp_fact(2 * c + m + 1)
        )

    for N, p in ((2, 5), (3, 13), (4, 9), (4, 51)):
        ctx = QContext(N)
        s = PSetting(p, N)
        for n in range(N):
            for m in range(N):
                sym = _at(rhat(n, m, ctx), s.A)
                raw = raw_ratio(n, m, s)
                assert abs(sym - raw) < 1e-9, (N, p, n, m)


def test_primitive_root_is_primitive_2pth():
    for p in (5, 7, 11, 25):
        a = primitive_root(p)
        assert abs(a ** (2 * p) - 1) < 1e-10
        assert abs((-a) ** p - 1) < 1e-10  # the reflection-enabling property
        assert abs(a**p - 1) > 0.5  # order exactly 2p, not p
