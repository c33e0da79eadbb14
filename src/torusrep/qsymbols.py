"""Quantum-integer calculus over Q(X), in Y = X^2.

All symbols live p-independently inside Q(X). The index-shifted eigenvalue and
the pairing ratio are the reflected forms valid at every primitive 2p-th root
of unity, which is what makes them independent of the level.

Every symbol here, and every entry of the matrices `repbuild` builds, is a
product of the quantum integers {k} and {k}+ or a short sum of such products,
held as a list of products (sign, power, factors); a product alone is a list
of one. A product of symbols is X^a times a polynomial in Y = X^2: up to
sign, {k} = X^-k (Y^k - 1) and {k}+ = X^-k (Y^k + 1) = X^-k (Y^2k - 1)/(Y^k -
1), so {k}^e brings the factor (1 - Y^k)^e and {k}+^e brings
(1 - Y^2k)^e (1 - Y^k)^-e (`_y_factors`). A list is put over the least
common denominator that the cyclotomic exponents of its products give
(`_over_denominator`, which also gives `repbuild`'s exact checks their
integer forms), each numerator expanded as a series in Y, at half the length
of one in X, from the factors read straight off the symbols, each from the
previous one where that is shorter. The numerators are added and the sum is
divided by the denominator's cyclotomic factors as far as they go
(`_sum_factors`, which `numeric.eval_forms` reads factored; `_sum_form`
expands it). A single product over its own least common denominator is
already in lowest terms, so this one route gives every canonical form, and
none computes a common divisor. A product of cyclotomic polynomials, a
denominator or a single Phi_d, is expanded as a cut power series in the
factors (1 - X^m) that Moebius inversion gives (`_poly`, by `_times`).

Values at X = -1 are read exactly off the factors, with nothing built over
Q(X) (`_limit`). Write -X = e^s: (-X)^a = e^(as), {k}+ = 2 cosh(ks) and
{k} = 2 sinh(ks). As log cosh x = x^2/2 + O(x^4) and
log(sinh x / x) = x^2/6 + O(x^4) are even, the log of a product
sign (-X)^P prod {k}^e (some of its factors {k}+) has no s^3 term, so the
product is the s-jet

    s^v c (1 + P s + (P^2/2 + Q) s^2 + (P^3/6 + P Q) s^3 + O(s^4)),

with v the sum of the exponents of its {k}, c = sign prod (2k)^e prod 2^e
over its {k} and {k}+, and Q = sum e k^2/2 over its {k}+ plus sum e k^2/6
over its {k}. A sum of products is finite at X = -1 iff no negative power of
s survives in the sum of their jets, and its value is the coefficient of
s^0; the jet is kept to s^1, whose coefficient is -d/dX at X = -1. With
s = log(1 + t) this is the convention -X = 1 + t, same orders of vanishing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import PoleError
from .field import Poly, RatFunc


def _lambda_form(k: int, N: int):
    """The curve-operator eigenvalue at shifted color index c + k, as the
    p-independent reflected form lambda_{c+k} = -((-X)^(2k+1-2N) +
    (-X)^(2N-2k-1)) = -{2N-2k-1}+, given as (sign, power, factors)."""
    return -1, 0, [(2 * N - 2 * k - 1, True, 1)]


def _rhat_form(n: int, m: int, N: int):
    """The Hopf-pairing norm ratio rhat(n, m) of basis vectors n and m in
    dimension N as (sign, power, factors): for n >= m
    (-1)^(n-m) prod_j {2N-2j}/{j} prod_k {k}+ over j = m+1..n and
    k = 2N-n..2N-m-1, and rhat(m, n) = 1/rhat(n, m)."""
    lo, hi, e = min(n, m), max(n, m), 1 if n > m else -1
    factors = [(2 * N - 2 * j, False, e) for j in range(lo + 1, hi + 1)]
    factors += [(j, False, -e) for j in range(lo + 1, hi + 1)]
    factors += [(k, True, e) for k in range(2 * N - hi, 2 * N - lo)]
    return (-1 if (n - m) % 2 else 1), 0, factors


# ---------------------------------------------------------------------------
# cyclotomic exponents
#
# X^(2k) - 1 = prod_{d | 2k} Phi_d and X^(2k) + 1 = prod_{d | 4k, d !| 2k}
# Phi_d. The Phi_d are distinct monic irreducibles, so a product of quantum
# integers is in lowest terms with its Phi_d of positive exponent above and
# those of negative exponent below, and no division is needed to get there.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _moebius(n: int) -> int:
    """The Moebius function, by sum_{d | n} moebius(d) = 0 for n > 1."""
    return 1 if n == 1 else -sum(_moebius(d) for d in _divisors(n)[:-1])


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> Poly:
    """Phi_d, which `_sum_factors` divides by."""
    return _poly(1, 0, {d: 1})


def _poly(sign: int, xpow: int, exps) -> Poly:
    """sign X^xpow prod Phi_d^e_d, for xpow >= 0 and every e_d >= 0. By
    Moebius inversion prod Phi_d^e_d = (-1)^e_1 prod_m (1 - X^m)^f_m with
    f_m = sum_{m | d} e_d moebius(d/m) (Phi_1 = -(1 - X); `_factors`),
    expanded as a power series cut at its degree sum m f_m (`_times`)."""
    f = _factors(exps)
    return _signed(sign, xpow, exps, _times([1] + [0] * sum(m * e for m, e in f.items()), f))


def _factors(exps):
    """The exponents m -> f_m of the factors (1 - X^m) of prod Phi_d^e_d."""
    f = {}
    for d, e in exps.items():
        for m in _divisors(d):
            f[m] = f.get(m, 0) + e * _moebius(d // m)
    return f


def _times(c, f):
    """The power series c times prod_m (1 - X^m)^f_m, cut at the degree of c,
    in place: a factor (1 - X^m) subtracts the series shifted by m, its
    inverse 1 + X^m + X^2m + ... adds it cumulatively."""
    deg = len(c) - 1
    for m, e in f.items():
        for _ in range(e):
            for i in range(deg, m - 1, -1):
                c[i] -= c[i - m]
        for _ in range(-e):
            for i in range(m, deg + 1):
                c[i] += c[i - m]
    return c


def _signed(sign: int, xpow: int, exps, c) -> Poly:
    """sign X^xpow (-1)^e_1 c, for the coefficients c of prod_m (1 - X^m)^f_m."""
    if exps.get(1, 0) % 2:
        sign = -sign
    return Poly._raw([0] * xpow + [sign * x for x in c])


def _limit(forms) -> tuple[Fraction, Fraction]:
    """(c_0, c_1): the value at X = -1 of the sum of the products
    (sign, power, factors) in `forms` and the coefficient of s^1 in the sum
    of their jets (module docstring), to which a product of order v >= -2
    adds its terms at s^v up to s^(v+3). The coefficients are summed as
    integers over the lcm of the products' denominators, and two Fractions
    are made at the end. PoleError when c_-2 or c_-1 is not 0; ValueError for
    a product of order below -2, whose s^4 term is not kept."""
    jet, lcm = [0, 0, 0, 0], 1  # c_-2, c_-1, c_0, c_1 times lcm
    for sign, power, factors in forms:
        # i = v + 2, q = 6 (P^2/2 + Q), and 6 (P^3/6 + P Q) = P q - 2 P^3
        i, num, den, q = 2, sign, 6, 3 * power * power
        for k, plus, e in factors:
            b = 2 if plus else 2 * k
            if e > 0:
                num *= b**e
            else:
                den *= b**-e
            i += 0 if plus else e
            q += (3 if plus else 1) * e * k * k
        if i < 0:
            raise ValueError(f"a product of order {i - 2} in s at X = -1")
        if lcm % den:
            grow = den // math.gcd(lcm, den)
            jet = [x * grow for x in jet]
            lcm *= grow
        num *= lcm // den
        for r, x in enumerate((6, 6 * power, q, power * (q - 2 * power * power))[: max(4 - i, 0)], i):
            jet[r] += num * x
    if jet[0] or jet[1]:
        raise PoleError("pole at X = -1")
    return Fraction(jet[2], lcm), Fraction(jet[3], lcm)


def _over_denominator(forms):
    """(xpow, den, nums): the products (sign, power, factors) in `forms` over
    their least common denominator X^xpow prod Phi_d(Y)^den_d, Y = X^2, whose
    exponents are the largest of the forms' denominator exponents; each
    numerator, in the order of forms, is its form's value times the
    denominator, X^t c(Y) as (t, c), c its coefficients in Y (ascending, the
    last nonzero).

    Every product is worked in Y = X^2 (module docstring): its factor
    exponents f_m, of (1 - Y^m), come straight off its triples
    (`_y_factors`), its cyclotomic exponents in Y are E_d = sum of f_m over
    the multiples m of d, and the denominator's maxima are taken over these
    once, then inverted once into the denominator's own factor exponents.
    A numerator's factors are its form's plus the denominator's.

    Neighbouring forms share most factors (T[m][n+1] / T[m][n] is a few
    {k}), so each numerator's series in Y is the previous one cut or padded
    to the new degree and multiplied by the factors (1 - Y^m) of the
    difference of their exponents, unless that difference has no fewer
    factors than the new numerator, which is then expanded afresh. Both are
    exact: the previous series is a polynomial, and every step is a ring
    operation on power series cut at the new degree, which is the new
    numerator's."""
    terms, xpow, den = [], 0, {}
    for form in forms:
        s, a, f = _y_factors(*form)
        for d, e in _y_cyclotomic(f).items():
            if e < -den.get(d, 0):
                den[d] = -e
        xpow = max(xpow, -a)
        terms.append((s, a, f))
    base = _factors(den)
    nums, last, c = [], {}, [1]
    for s, a, f in terms:
        g = {m: f.get(m, 0) + base.get(m, 0) for m in f.keys() | base.keys()}
        deg = sum(m * e for m, e in g.items())
        step = {m: g.get(m, 0) - last.get(m, 0) for m in g.keys() | last.keys()}
        if sum(map(abs, step.values())) < sum(map(abs, g.values())):
            c = _times(c[: deg + 1] + [0] * (deg + 1 - len(c)), step)
        else:
            c = _times([1] + [0] * deg, g)
        if sum(g.values()) % 2:  # prod (Y^m - 1)^g_m = (-1)^(sum g_m) prod (1 - Y^m)^g_m
            s = -s
        nums.append((a + xpow, c if s > 0 else [-y for y in c]))
        last = g
    return xpow, den, nums


def _y_factors(sign: int, power: int, factors):
    """sign * (-X)^power * prod {k}^e, with {k}+^e where `plus`, as (s, a, f):
    the value is s X^a prod_m (Y^m - 1)^f_m in Y = X^2, as {k} =
    (-1)^k X^-k (Y^k - 1) and {k}+ = (-1)^k X^-k (Y^2k - 1)/(Y^k - 1)."""
    odd, a, f = power, power, {}
    for k, plus, e in factors:
        odd += k * e
        a -= k * e
        if plus:
            f[2 * k] = f.get(2 * k, 0) + e
            e = -e
        f[k] = f.get(k, 0) + e
    return (-sign if odd % 2 else sign), a, f


def _y_cyclotomic(f):
    """The exponents d -> E_d of the Phi_d(Y) in prod_m (Y^m - 1)^f_m: E_d is
    the sum of f_m over the multiples m of d."""
    out = {}
    for m, e in f.items():
        for d in _divisors(m):
            out[d] = out.get(d, 0) + e
    return out


def _in_x(exps):
    """The exponents in X of prod Phi_d(Y)^e_d: Phi_d(Y) = Phi_2d(X) for even
    d, Phi_d(X) Phi_2d(X) for odd d."""
    out = {}
    for d, e in exps.items():
        out[2 * d] = e
        if d % 2:
            out[d] = e
    return out


def _sum_form(forms) -> RatFunc:
    """The sum of the products in `forms` in canonical form (`_sum_factors`)."""
    num, xpow, den = _sum_factors(forms)
    return RatFunc(num, _poly(1, xpow, den)) if num else RatFunc.zero()


def _at_two(poly: Poly) -> int:
    """The value of poly at X = 2."""
    return sum(c << i for i, c in enumerate(poly.coeffs))


@lru_cache(maxsize=None)
def _cyclotomic_at_two(d: int) -> int:
    return _at_two(_cyclotomic(d))


def _sum_factors(forms):
    """(num, xpow, den): the sum of the products in `forms` as
    num / (X^xpow prod Phi_d^den_d) in lowest terms, 0 as (0, 0, {}). The
    numerators X^t c(X^2) over their common denominator (`_over_denominator`)
    are interleaved and added, and each Phi_d (distinct monic irreducibles)
    divided out of the sum as often as it goes and the denominator has it, as
    is the power of X they share: what is left is coprime, its expanded
    denominator monic. A division is tried only where Phi_d(2) divides num(2),
    as Phi_d | num implies (num(2) = quotient(2) Phi_d(2) in Z)."""
    xpow, exps, nums = _over_denominator(forms)
    x = [0] * max(t + 2 * len(c) - 1 for t, c in nums)
    for t, c in nums:
        x[t : t + 2 * len(c) : 2] = map(add, x[t : t + 2 * len(c) : 2], c)
    num, den = Poly._raw(x), {}
    if num.is_zero:
        return num, 0, den
    at_two = _at_two(num)
    for d, e in _in_x(exps).items():
        while e and not at_two % _cyclotomic_at_two(d):
            try:
                num = num.exact_div(_cyclotomic(d))
            except ArithmeticError:
                break
            at_two //= _cyclotomic_at_two(d)
            e -= 1
        den[d] = e
    v = min(num.valuation, xpow)
    return num.unshift(v), xpow - v, den
