"""Quantum-integer calculus over Q(X), in Y = X^2.

All symbols live p-independently inside Q(X). The index-shifted eigenvalue and
the pairing ratio are the reflected forms valid at every primitive 2p-th root
of unity, which is what makes them independent of the level.

Every symbol here, and every entry of the matrices `repbuild` builds, is a
product of the quantum integers {k} and {k}+ or a short sum of such products,
held as a list of products (sign, power, factors); a product alone is a list
of one. Up to sign {k} = X^-k (Y^k - 1) and {k}+ = X^-k (Y^2k - 1)/(Y^k - 1)
with Y = X^2, so a product is X^a prod_m (Y^m - 1)^f_m (`_y_factors`), in
lowest terms as it stands: its Phi_d(Y) are distinct monic irreducibles.
Every reader works in Y, as lowest terms in Y are lowest terms in X (if
u g + v h = 1 in Q[Y], substitute Y = X^2). A longer sum is put over its
least common denominator (`_over_denominator`, which also gives `repbuild`'s
exact checks their integer forms), and its numerators are added and divided
by the denominator's Phi_d(Y) as far as they go (`_sum_factors`, by monic
long division, `_divided`). Products of cyclotomic polynomials are expanded
as cut power series in the factors (1 - Y^m), each from the previous one
where that is shorter (`_series`), and X appears only in the canonical
forms that `cli` prints, pairs of integer coefficient tuples (`_sum_forms`).
None of this computes a common divisor.

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

Every exact value at X = -1 is in integers: a jet over the lcm L of its
products' denominators, a matrix as (rows, den), integer rows over one
positive denominator, not always the least. Matrices are compared by
cross-multiplication (`same_limit`); a rational is made only to be printed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, sub

from .errors import PoleError


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
# Y^k - 1 = prod_{d | k} Phi_d(Y) and Y^k + 1 = prod_{d | 2k, d !| k}
# Phi_d(Y). The Phi_d are distinct monic irreducibles, so a product of quantum
# integers is in lowest terms with its Phi_d of positive exponent above and
# those of negative exponent below, and no division is needed to get there.
# Every polynomial below is one in Y.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _moebius(n: int) -> int:
    """The Moebius function, by sum_{d | n} moebius(d) = 0 for n > 1."""
    return 1 if n == 1 else -sum(_moebius(d) for d in _divisors(n)[:-1])


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The coefficients of Phi_d, ascending, which `_sum_factors` divides by."""
    return tuple(_poly({d: 1}))


def _poly(exps) -> list[int]:
    """The coefficients of prod Phi_d^e_d, ascending, for every e_d >= 0. By
    Moebius inversion prod Phi_d^e_d = prod_m (Y^m - 1)^f_m with
    f_m = sum_{m | d} e_d moebius(d/m) (`_factors`), expanded as one cut power
    series (`_series`)."""
    return next(_series([_factors(exps)]))


def _factors(exps):
    """The exponents m -> f_m of the factors (Y^m - 1) of prod Phi_d^e_d."""
    f = {}
    for d, e in exps.items():
        for m in _divisors(d):
            f[m] = f.get(m, 0) + e * _moebius(d // m)
    return f


def _times(c, f):
    """The power series c times prod_m (1 - Y^m)^f_m, cut at the degree of c,
    in place: a factor (1 - Y^m) subtracts the series shifted by m, its
    inverse 1 + Y^m + Y^2m + ... adds it cumulatively."""
    deg = len(c) - 1
    for m, e in f.items():
        for _ in range(e):
            c[m:] = map(sub, c[m:], c[: len(c) - m])
        for _ in range(-e):
            for i in range(m, deg + 1):
                c[i] += c[i - m]
    return c


def _expand(maps, start=(1,)):
    """For each map m -> g_m in `maps` in turn, the coefficients of the
    polynomial start(Y) prod_m (1 - Y^m)^g_m, ascending (start 1 unless
    given). Neighbouring maps share most factors (T[m][n+1] / T[m][n] is a
    few {k}), so each is the previous series cut or padded to the new degree
    times the factors (1 - Y^m) of the difference of the two maps
    (`_times`), unless that difference has no fewer factors than the new
    map, which then multiplies `start` afresh. Both are exact: the previous
    series is a polynomial, every step a ring operation cut at its degree."""
    last, c = {}, start
    for g in maps:
        deg = len(start) - 1 + sum(m * e for m, e in g.items())
        step = {m: g.get(m, 0) - last.get(m, 0) for m in g.keys() | last.keys()}
        if sum(map(abs, step.values())) < sum(map(abs, g.values())):
            c = _times(c[: deg + 1] + [0] * (deg + 1 - len(c)), step)
        else:
            c = _times([*start[: deg + 1]] + [0] * (deg + 1 - len(start)), g)
        last = g
        yield c


def _series(maps):
    """`_expand`'s series for the list `maps`, signed: prod_m (Y^m - 1)^g_m."""
    for g, c in zip(maps, _expand(maps)):
        yield [-x for x in c] if sum(g.values()) % 2 else c


def _limit(forms) -> tuple[int, int, int]:
    """(c_0 L, c_1 L, L): the value c_0 at X = -1 of the sum of the products
    (sign, power, factors) in `forms` and the coefficient c_1 of s^1 in the
    sum of their jets (module docstring), to which a product of order
    v >= -2 adds its terms at s^v up to s^(v+3), as integers over L > 0, the
    lcm of the products' denominators. PoleError when c_-2 or c_-1 is not 0;
    ValueError for a product of order below -2, whose s^4 term is not kept."""
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
    return jet[2], jet[3], lcm


def same_limit(a, b) -> bool:
    """Whether the exact matrices a and b at X = -1, each (rows, den), are
    equal: entry by entry, x / d == y / e iff x e == y d."""
    (rows_a, d), (rows_b, e) = a, b
    return all(x * e == y * d for u, v in zip(rows_a, rows_b, strict=True) for x, y in zip(u, v, strict=True))


def _over_denominator(forms):
    """(den, nums): the products (sign, power, factors) in `forms` over
    their least common denominator prod Phi_d(Y)^den_d, Y = X^2: den_d is
    the largest -E_d over the forms, E_d the sum of a form's f_m over the
    multiples m of d (`_y_factors`, `_y_cyclotomic`). Each numerator, in the
    order of forms, is its form's value times the denominator, X^a c(Y) as
    (a, c), c its coefficients in Y (ascending, the last nonzero). A
    numerator's factors are its form's plus the denominator's (`_factors`),
    which cancel in the step from the previous numerator or are the series
    it starts from (`_expand`); its sign is applied once."""
    terms, den = [_y_factors(*form) for form in forms], {}
    for _, _, f in terms:
        for d, e in _y_cyclotomic(f).items():
            if e < -den.get(d, 0):
                den[d] = -e
    base = _factors(den)
    start, odd = next(_expand([base])), sum(base.values()) % 2
    nums = zip(terms, _expand([f for _, _, f in terms], start))
    return den, [(a, [-y for y in c] if (s < 0) != (sum(f.values()) + odd) % 2 else c) for (s, a, f), c in nums]


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


def _at_two(c) -> int:
    """The value at 2 of the polynomial with coefficients c, ascending."""
    return sum(x << i for i, x in enumerate(c))


def _divided(c, phi):
    """The coefficients of c / phi for the monic phi, or None where phi does
    not divide c; both ascending, c's last nonzero."""
    rem, n = list(c), len(phi) - 1
    terms = [(i, b) for i, b in enumerate(phi[:-1]) if b]
    q = [0] * max(len(rem) - n, 0)
    for k in range(len(rem) - 1, n - 1, -1):
        if x := rem[k]:
            q[k - n] = x
            for i, b in terms:
                rem[k - n + i] -= x * b
    return None if any(rem[:n]) else q


def _sum_factors(forms):
    """(a, c, f): the sum of the products (sign, power, factors) in `forms` as
    X^a c(Y) prod_m (Y^m - 1)^f_m, Y = X^2, in lowest terms: c its integer
    coefficients in Y, ascending, c(0) != 0 and c prime to the denominator,
    the Phi_d(Y) of negative exponent in prod_m (Y^m - 1)^f_m; 0 as
    (0, [], {}). A product is read off its factors (`_y_factors`) with
    c = [sign], in lowest terms as it stands (module docstring). A longer
    sum is put over its least common denominator (`_over_denominator`), the
    numerators are added in Y, and each Phi_d(Y) is divided out of the sum as
    often as it goes and the denominator has it, as is the power of Y the sum
    shares. A division is tried only where Phi_d(2) divides c(2), as
    Phi_d | c implies. ValueError for a sum whose numerators' powers of X
    differ in parity: it is not X^a times a function of Y."""
    if len(forms) == 1:
        s, a, f = _y_factors(*forms[0])
        return a, [s], f
    den, nums = _over_denominator(forms)
    t = min(a for a, _ in nums)
    if any((a - t) % 2 for a, _ in nums):
        raise ValueError("a sum with powers of X of both parities is not X^a times a function of X^2")
    c = [0] * max((a - t) // 2 + len(y) for a, y in nums)
    for a, y in nums:
        k = (a - t) // 2
        c[k : k + len(y)] = map(add, c[k : k + len(y)], y)
    nonzero = [i for i, x in enumerate(c) if x]
    if not nonzero:
        return 0, [], {}
    v, num = nonzero[0], c[nonzero[0] : nonzero[-1] + 1]
    at_two = _at_two(num)
    for d, e in den.items():
        phi = _cyclotomic(d)
        phi_two = _at_two(phi)
        while e and not at_two % phi_two and (q := _divided(num, phi)) is not None:
            num, at_two, e = q, at_two // phi_two, e - 1
        den[d] = e
    return t + 2 * v, num, {m: -e for m, e in _factors(den).items()}


def _sum_forms(entries) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The canonical forms over Q(X) of the sums of products in `entries`, in
    order, each a pair (num, den) of integer coefficient tuples in X,
    ascending, with no trailing zero, coprime and den monic; 0 is
    ((), (1,)). X^a c(Y) prod_m (Y^m - 1)^f_m (`_sum_factors`) is
    X^a c(Y) up(Y) / down(Y), with up and down the products of its Phi_d(Y)
    of positive and of negative exponent, each expanded from the previous
    entry's (`_series`). Only here are the coefficients in Y interleaved into
    X, with X^|a| on the side the sign of a puts it."""
    sums = [_sum_factors(forms) for forms in entries]
    downs = [_factors({d: -e for d, e in _y_cyclotomic(f).items() if e < 0}) for _, _, f in sums]
    ups = [{m: f.get(m, 0) + g.get(m, 0) for m in f.keys() | g.keys()} for (_, _, f), g in zip(sums, downs)]

    def interleaved(c, a):  # X^max(a, 0) c(X^2)
        out = [0] * (max(a, 0) + 2 * len(c) - 1)
        out[max(a, 0) :: 2] = c
        return tuple(out)

    out = []
    for (a, c, _), up, down in zip(sums, _series(ups), _series(downs)):
        # c(Y) up(Y): a product's c is its sign, and a longer sum has no factor above (`_sum_factors`)
        num = [c[0] * y for y in up] if len(c) == 1 else c
        out.append((interleaved(num, a), interleaved(down, -a)) if c else ((), (1,)))
    return out
