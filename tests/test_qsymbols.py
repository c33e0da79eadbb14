import cmath
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusrep.errors import PoleError
from torusrep.numeric import PSetting
from torusrep import qsymbols
from torusrep.qsymbols import (
    _factors,
    _in_x,
    _lambda_form,
    _limit,
    _over_denominator,
    _poly,
    _series,
    _sum_factors,
    same_limit,
)
from torusrep.repbuild import _recurrence_terms, _twist_factors, _zprime_terms

from reference import (
    Poly,
    RatFunc,
    add,
    div,
    eval_exact,
    horner_value,
    in_y,
    jet,
    mu,
    moebius_over_denominator,
    monomial,
    mul,
    neg,
    poly_add,
    poly_mul,
    qfact,
    qint,
    qint_plus,
    reciprocal,
    rhat,
    root,
    signed_power,
    sub,
    sum_form,
    sum_over_qx,
)


def lambda_shifted(k, N):
    """The eigenvalue lambda_{c+k} as the build reads it off its factors."""
    return sum_form([_lambda_form(k, N)])


def test_qint_values():
    assert qint(0) == RatFunc.zero()
    assert qint(1) == sub(signed_power(1), signed_power(-1))  # -X + 1/X
    assert eval_exact(qint(1), 2) == Fraction(-3, 2)


def test_qint_antisymmetry_small():
    assert qint(-3) == neg(qint(3))


def test_qint_plus_values():
    assert qint_plus(0) == RatFunc(2)
    assert eval_exact(qint_plus(5), -1) == 2
    assert qint_plus(-4) == qint_plus(4)


@given(st.integers(min_value=-24, max_value=24))
@settings(max_examples=49, deadline=None)
def test_qint_symmetries(n):
    assert qint(-n) == neg(qint(n))
    assert qint_plus(-n) == qint_plus(n)


def test_qfact():
    assert qfact(0) == RatFunc(1)
    assert qfact(-2) == RatFunc.zero()
    assert qfact(2) == mul(qint(1), qint(2))


def test_mu():
    assert mu(0) == RatFunc(1)
    assert mu(1) == signed_power(3)
    assert eval_exact(mu(1), 2) == -8
    assert mu(-1) == signed_power(-1)


def test_lambda_shifted_forms():
    assert lambda_shifted(0, 2) == neg(add(signed_power(-3), signed_power(3)))
    assert lambda_shifted(1, 2) == neg(add(signed_power(-1), signed_power(1)))
    for k in (0, 1):
        assert eval_exact(lambda_shifted(k, 2), -1) == -2


def test_lambda_shifted_limit_is_minus_two_every_k():
    for N in range(2, 7):
        for k in range(N):
            assert eval_exact(lambda_shifted(k, N), -1) == -2


def test_lambda_matches_raw_eigenvalue_at_roots():
    # -{2(c+k)+2}+ at A_p equals the reflected form; literal c on the left.
    for N, p in ((2, 7), (3, 11), (4, 23)):
        s = PSetting(p, N)
        a = root(s)
        for k in range(N):
            n = s.c + k
            raw = -(((-a) ** (2 * n + 2)) + ((-a) ** (-(2 * n + 2))))
            assert abs(horner_value(lambda_shifted(k, N), a) - raw) < 1e-10


def test_limit_law_qint_ratio():
    for N in (2, 6):
        for a in range(1, 4 * N + 1):
            assert eval_exact(div(qint(a), qint(1)), -1) == a


def test_reflection_identities_numeric():
    # {x+2c} = -{2N+1-x} and {x+2c}+ = {2N+1-x}+ at A_p, any odd p >= 2N+1
    for N, p in ((2, 5), (2, 7), (3, 7), (3, 31), (5, 11)):
        s = PSetting(p, N)
        w = -root(s)

        def qd(t):
            return w**t - w**-t

        def qp(t):
            return w**t + w**-t

        for x in range(-2, 4 * N + 3):
            assert abs(qd(x + 2 * s.c) - (-qd(2 * N + 1 - x))) < 1e-10
            assert abs(qp(x + 2 * s.c) - qp(2 * N + 1 - x)) < 1e-10


def test_rhat_equal_indices():
    assert rhat(1, 1, 4) == RatFunc(1)


def test_rhat_classical_limit_closed_form():
    from math import factorial

    for N in range(2, 7):
        for n in range(N):
            for m in range(N):
                got = eval_exact(rhat(n, m, N), -1)
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
    assert eval_exact(rhat(1, 0, 3), -1) == -8


def test_rhat_reciprocal_symmetry():
    assert mul(rhat(2, 0, 4), rhat(0, 2, 4)) == RatFunc(1)


def test_limit_of_a_finite_form_a_zero_and_a_pole():
    # the {k} exponents sum to 0: {4}/{2} = {2}+ tends to 2
    finite = (-1, 5, [(4, False, 1), (2, False, -1)])
    assert jet([finite])[0] == eval_exact(sum_form([finite]), -1) == -2
    # they sum to 1: {3}/{2}+ tends to 0
    zero = (1, 0, [(3, False, 1), (2, True, -1)])
    assert jet([zero])[0] == eval_exact(sum_form([zero]), -1) == 0
    # they sum to -1: {3}+/({2}{4}) has a pole
    pole = (1, 0, [(3, True, 1), (2, False, -1), (4, False, -1)])
    with pytest.raises(PoleError):
        _limit([pole])
    with pytest.raises(PoleError):
        eval_exact(sum_form([pole]), -1)


def test_same_limit_cross_multiplies():
    # 2/4 and 1/2, neither reduced; equal numerators over other denominators;
    # zeros over any denominators
    assert same_limit((((2, 0), (0, 4)), 4), (((1, 0), (0, 2)), 2))
    assert not same_limit((((1, 3), (0, 1)), 2), (((1, 3), (0, 1)), 4))
    assert same_limit((((0, 0), (0, 0)), 3), (((0, 0), (0, 0)), 5))
    assert not same_limit((((0, 1),), 3), (((0, 0),), 5))
    with pytest.raises(ValueError):
        same_limit((((1, 0),), 1), (((1,),), 1))


factor_lists = st.lists(
    st.tuples(st.integers(1, 9), st.booleans(), st.integers(-2, 2)), max_size=5
)
product_forms = st.tuples(st.sampled_from([1, -1]), st.integers(-6, 6), factor_lists)


def _order(form):
    """The order in s = log(-X) of a product form: the sum of its {k} exponents."""
    return sum(e for _, plus, e in form[2] if not plus)


finite_forms = product_forms.filter(lambda f: _order(f) >= 0)


@given(product_forms)
@settings(max_examples=200, deadline=None)
def test_limit_of_a_product_is_its_canonical_form_at_minus_one(form):
    # finite from order 0 on; a pole at order -1 or -2, and below that the
    # s^3 terms the reading would need are not kept
    if _order(form) >= 0:
        assert jet([form])[0] == eval_exact(sum_form([form]), -1)
    elif _order(form) >= -2:
        with pytest.raises(PoleError):
            _limit([form])
        with pytest.raises(PoleError):
            eval_exact(sum_form([form]), -1)
    else:
        with pytest.raises(ValueError):
            _limit([form])


def _times(form, sign, power, factors):
    return form[0] * sign, form[1] + power, form[2] + factors


@given(
    finite_forms,
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 9),
    st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_limit_of_a_sum_whose_poles_cancel_is_its_canonical_form_at_minus_one(f, a, b, k, j):
    # sums whose terms have poles of order 1 or 2 that cancel: every term of
    # the jets, P and P^2/2 + Q of (-X)^a, {k}+ and {k} included, is read
    inv1, inv2 = [(1, False, -1)], [(1, False, -2)]
    sums = [
        # f ((-X)^a {k}+ - (-X)^b {j}+) / {1}
        [_times(f, 1, a, [(k, True, 1)] + inv1), _times(f, -1, b, [(j, True, 1)] + inv1)],
        # f (-X)^a ({k}+ - {j}+) / {1}^2
        [_times(f, 1, a, [(k, True, 1)] + inv2), _times(f, -1, a, [(j, True, 1)] + inv2)],
        # f ((-X)^a + (-X)^-a - 2) / {1}^2
        [_times(f, 1, a, inv2), _times(f, 1, -a, inv2), _times(f, -1, 0, inv2), _times(f, -1, 0, inv2)],
        # f ({2k}/{k} - {j}+) / {1}^2
        [_times(f, 1, a, [(2 * k, False, 1), (k, False, -1)] + inv2), _times(f, -1, a, [(j, True, 1)] + inv2)],
    ]
    for forms in sums:
        assert jet(forms)[0] == eval_exact(sum_over_qx(forms), -1)


@given(st.lists(product_forms.filter(lambda f: _order(f) >= -2), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_limit_of_a_sum_is_its_canonical_form_at_minus_one(forms):
    try:
        want = eval_exact(sum_over_qx(forms), -1)
    except PoleError:
        with pytest.raises(PoleError):
            _limit(forms)
    else:
        assert jet(forms)[0] == want


def _direct_rhat(n, m, N):
    """The pairing ratio as the direct product of its factors over Q(X), a
    reference for its cyclotomic product form."""
    if n == m:
        return RatFunc(1)
    if n < m:
        return reciprocal(_direct_rhat(m, n, N))
    out = RatFunc(1 if (n - m) % 2 == 0 else -1)
    for j in range(m + 1, n + 1):
        out = mul(out, div(qint(2 * N - 2 * j), qint(j)))
    for k in range(2 * N - n, 2 * N - m):
        out = mul(out, qint_plus(k))
    return out


def test_rhat_steps_equal_direct_product():
    for N in range(2, 11):
        for n in range(N):
            for m in range(N):
                assert rhat(n, m, N) == _direct_rhat(n, m, N), (N, n, m)


def test_product_form_of_single_symbols():
    # {k} and {k}+ over their own denominators (Phi_d up to d = 160)
    for k in range(1, 41):
        assert sum_form([(1, 0, [(k, False, 1)])]) == qint(k), k
        assert sum_form([(1, 0, [(k, True, 1)])]) == qint_plus(k), k
        assert sum_form([(-1, k, [(k, True, -1)])]) == neg(div(signed_power(k), qint_plus(k))), k


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _phi(d):
    """Phi_d as (X^d - 1) / prod_{e | d, e < d} Phi_e, by exact division."""
    rest = Poly((1,))
    for e in _divisors(d)[:-1]:
        rest = poly_mul(rest, _phi(e))
    return poly_add(monomial(d), Poly((-1,))).exact_div(rest)


def test_poly_factors_x_to_the_n_minus_one():
    # X^n - 1 = prod_{d | n} Phi_d, expanded at once and as a product of the
    # single Phi_d multiplied by `reference.poly_mul`; this pins every Phi_d, d <= 60
    for n in range(1, 61):
        want = poly_add(monomial(n), Poly((-1,)))
        assert _poly({d: 1 for d in _divisors(n)}) == list(want.coeffs), n
        got = Poly((1,))
        for d in _divisors(n):
            got = poly_mul(got, Poly(_poly({d: 1})))
        assert got == want, n


@given(st.dictionaries(st.integers(1, 40), st.integers(0, 3), max_size=6))
@settings(max_examples=80, deadline=None)
def test_poly_equals_the_product_of_its_factors(exps):
    want = Poly((1,))
    for d, e in exps.items():
        for _ in range(e):
            want = poly_mul(want, _phi(d))
    assert _poly(exps) == list(want.coeffs)


@given(st.lists(st.dictionaries(st.integers(1, 15), st.integers(0, 3), max_size=5), min_size=1, max_size=6))
@example([{5: 1, 7: 1, 9: 1, 11: 1}, {5: 1, 7: 1, 9: 1}, {5: 1, 7: 1, 9: 1, 12: 2}])
@example([{6: 2, 4: 1, 2: 1}, {6: 1}, {}, {12: 1, 2: 2}])
@settings(max_examples=100, deadline=None)
def test_series_from_the_previous_equals_each_expanded_afresh(exps):
    # the maps of prod Phi_d^e_d = prod (X^m - 1)^f_m, some f_m < 0 (Phi_2 =
    # (X^2 - 1)/(X - 1)), as numerators and denominators are: each stepped
    # from its predecessor, by degrees that shrink and grow, has the
    # coefficients of its expansion alone, and no later step changes it
    maps = [_factors(e) for e in exps]
    fresh = []
    for g in maps:
        c = qsymbols._times([1] + [0] * sum(m * e for m, e in g.items()), g)
        fresh.append([-x for x in c] if sum(g.values()) % 2 else c)
    assert list(_series(maps)) == fresh


def test_sum_form_divides_a_repeated_factor_out():
    # {m}^2 = {m+1}{m-1} + {1}^2, so the sum over {m}^2 is 1: every Phi_d of
    # {m} goes out of the numerator twice
    for m in range(2, 9):
        forms = [(1, 0, [(m + 1, False, 1), (m - 1, False, 1), (m, False, -2)]),
                 (1, 0, [(1, False, 2), (m, False, -2)])]
        assert sum_form(forms) == RatFunc(1), m


factor = st.tuples(st.integers(1, 6), st.booleans(), st.integers(-2, 2))
form = st.tuples(st.sampled_from((1, -1)), st.integers(-3, 3), st.lists(factor, max_size=3))


def _parity(form):
    """The parity of the power of X of a product: (-X)^power prod {k}^e is
    X^(power - sum k e) times a function of X^2."""
    return (form[1] - sum(k * e for k, _, e in form[2])) % 2


def _one_parity(forms):
    """`forms` with the power of each product after the first moved by one
    where its parity is not the first's."""
    return [(s, a + (_parity((s, a, f)) != _parity(forms[0])), f) for s, a, f in forms]


@given(st.lists(form, min_size=1, max_size=4).map(_one_parity))
@settings(max_examples=60, deadline=None)
def test_sum_form_equals_the_sum_over_qx(forms):
    assert sum_form(forms) == sum_over_qx(forms)


def test_a_sum_of_both_parities_is_refused():
    # 1 - X is not X^a times a function of X^2; nothing the program builds has
    # such an entry (the pinned builds read every one of theirs)
    for forms in ([(1, 0, []), (1, 1, [])], [(1, 0, [(1, False, 1)]), (1, 0, [(2, True, 1)])]):
        with pytest.raises(ValueError, match="parit"):
            _sum_factors(forms)
        with pytest.raises(ValueError, match="parit"):
            sum_form(forms)


@pytest.mark.parametrize("N", range(2, 13))
def test_over_denominator_in_y_equals_the_moebius_route(N):
    # worked in Y = X^2 off the triples, the numerators and the denominator
    # are those of the route by cyclotomic exponents and Moebius inversion,
    # coefficient for coefficient: T and T* as one set of forms each, and
    # every entry of z' and of every M^(n)
    zprime = _zprime_terms(N)
    sets = [[form for [form] in forms.values()] for forms in _twist_factors(N)] + list(zprime.values())
    for n in range(N - 1):
        sets += _recurrence_terms(n, N, zprime).values()
    for forms in sets:
        den, nums = _over_denominator(forms)
        xpow, want, numerators = moebius_over_denominator(forms)
        assert _in_x(den) == want
        assert nums == [(t - xpow, c) for t, c in (in_y(p.coeffs) for p in numerators)]


def test_rhat_matches_raw_factorial_ratio():
    # The telescoped product against the raw factorial formula with literal c;
    # this pins the double-factorial termination convention.
    def raw_ratio(n, m, s):
        w = -root(s)

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
        s = PSetting(p, N)
        for n in range(N):
            for m in range(N):
                sym = horner_value(rhat(n, m, N), root(s))
                raw = raw_ratio(n, m, s)
                assert abs(sym - raw) < 1e-9, (N, p, n, m)


def test_primitive_root_is_primitive_2pth():
    for p in (5, 7, 11, 25):
        a = root(PSetting(p, 2))
        assert abs(a ** (2 * p) - 1) < 1e-10
        assert abs((-a) ** p - 1) < 1e-10  # the reflection-enabling property
        assert abs(a**p - 1) > 0.5  # order exactly 2p, not p
