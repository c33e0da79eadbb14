"""Reference implementations for the tests: polynomials over Z, elements and
matrices of Q(X) in canonical form and their JSON, polynomial sums and
products, Q(X) arithmetic by polynomial gcd, products of quantum integers by that arithmetic
and by their cyclotomic exponents, monomials and the identity matrix, exact
values and slopes at a rational point (values entrywise for a matrix, naming
the entry of a pole), the exact values at X = -1 that the program holds in
integers, read as Fractions, the integer forms in Y = X^2 that the exact
checks take, in coefficient lists and as the checks hold them, and their
height bounds in Python integers, the eigenvalue lambda_{c+k}, the build of y, z' and M^(n) by that
arithmetic, exact matrix inverse, the substitution X -> X^-1 and word
products over Q(X), the braid and center checks by Kronecker substitution,
T and T* by the column recurrence through M^(n), the oracle from direct raw factorial
products, the rescaling character, the q-factorial, the twist eigenvalue and
the pairing ratio over Q(X), the root A_p of a level, complex values by Horner's rule, symbolic
matrices and the form maps of `repbuild` evaluated at A_p in decimal
arithmetic, the near-pole errors those maps predict, the basis rescaling
alpha_n of the classical target, and the entrywise max-modulus norm of a
float matrix. None of these is on a production path; the tests compare the
production code, whose matrices `built` and `twists` name, against them."""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from torusrep import repbuild
from torusrep.errors import BadPError, NearPoleError, PoleError
from torusrep.mcg import Gen, Word
from torusrep.numeric import DEFAULT_TOLERANCE, PSetting
from torusrep.qsymbols import _cyclotomic, _divisors, _factors, _limit, _rhat_form, _sum_forms, _times
from torusrep.repbuild import _integer_checks, _twist_factors


# --- polynomials over Z, Q(X) in canonical form, and matrices over Q(X) ----------


class Poly:
    """A univariate polynomial over Z, stored densely by ascending degree with
    trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"polynomial coefficients must be ints, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _raw(cs):
        """Unchecked constructor for int coefficients; trailing zeros are
        trimmed."""
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        p = object.__new__(Poly)
        p.coeffs = tuple(cs[:n])
        return p

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def valuation(self):
        """Multiplicity of the root 0 (0 for the zero polynomial)."""
        return next((i for i, c in enumerate(self.coeffs) if c), 0)

    def unshift(self, k):
        """Divide by X^k, assuming valuation >= k."""
        return Poly._raw(self.coeffs[k:]) if k else self

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs})"

    def exact_div(self, other):
        """The quotient in Z[X] of a division known to be exact, such as one by
        a primitive divisor over Q (Gauss's lemma); ArithmeticError if the
        division is not exact in Z[X]."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.lead
        terms = [(i, bc) for i, bc in enumerate(other.coeffs[:-1]) if bc]
        q = [0] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if lb == 1:
                qc = c
            elif lb == -1:
                qc = -c
            else:
                qc = c // lb
                if qc * lb != c:
                    raise ArithmeticError("division was not exact")
            q[k - db] = qc
            shift = k - db
            for i, bc in terms:
                rem[shift + i] -= qc * bc
            rem[k] = 0
        if any(rem[:db]):
            raise ArithmeticError("division was not exact")
        return Poly._raw(q)


class RatFunc:
    """An element of Q(X) in the canonical form of Frac(Z[X]): num and den in
    Z[X] with no common factor, polynomial or integer, and den with a positive
    leading coefficient. The constructor takes num and den already in that
    form and does not reduce (`reduced` does); an int or Fraction is taken as
    the constant it is."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num, den = Poly((num.numerator,)), Poly((num.denominator,))
        self.num = num
        self.den = Poly((1,)) if den is None else den

    @staticmethod
    def zero():
        return RatFunc(Poly())

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RatFunc({self.num.coeffs}, {self.den.coeffs})"


class FMatrix:
    """An immutable matrix over Q(X), a tuple of row tuples; int and Fraction
    entries are taken as constants."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(e if isinstance(e, RatFunc) else RatFunc(e) for e in r) for r in rows)

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, FMatrix) and self.rows == other.rows


def form_of(pair) -> RatFunc:
    """A canonical form (num, den) of `qsymbols._sum_forms` as a RatFunc: two
    tuples of ints without a trailing zero (asserted)."""
    num, den = (Poly(c) for c in pair)
    assert (num.coeffs, den.coeffs) == pair, pair
    return RatFunc(num, den)


def fmatrix_of(rows) -> FMatrix:
    """The rows of canonical forms that `repbuild._matrix` gives as an
    FMatrix."""
    return FMatrix(tuple(tuple(map(form_of, row)) for row in rows))


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}


def fmatrix_to_obj(m: FMatrix, name: str | None = None, N: int | None = None) -> dict:
    """The JSON object symbolic `matrices` emits, for any matrix over Q(X)."""
    obj = {"n_rows": m.n_rows, "n_cols": m.n_cols, "entries": [[ratfunc_to_obj(e) for e in row] for row in m.rows]}
    if name is not None:
        obj["matrix_name"] = name
    if N is not None:
        obj["N"] = N
    return obj


# --- polynomial addition, subtraction, scaling, shifts and multiplication ----------
#
# Nothing in `torusrep` adds, subtracts, scales, shifts up or multiplies
# polynomials; the Q(X) reference arithmetic below does.


def poly_add(a: Poly, b: Poly) -> Poly:
    out = list(a.coeffs) + [0] * max(len(b.coeffs) - len(a.coeffs), 0)
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Poly._raw(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    out = list(a.coeffs) + [0] * max(len(b.coeffs) - len(a.coeffs), 0)
    for i, c in enumerate(b.coeffs):
        out[i] -= c
    return Poly._raw(out)


def poly_scale(a: Poly, s: int) -> Poly:
    return Poly._raw([c * s for c in a.coeffs])


def poly_shift(a: Poly, k: int) -> Poly:
    """a X^k for k >= 0."""
    return Poly._raw([0] * k + list(a.coeffs))

_KARATSUBA_CUTOFF = 48  # below this, schoolbook beats Kronecker packing


def _int_mul(f, g):
    """Multiply two dense int coefficient lists (ascending degree)."""
    if min(len(f), len(g)) < _KARATSUBA_CUTOFF:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return out
    return _kronecker_mul(f, g)


def _pack(coeffs, width):
    return int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in coeffs), "little"
    )


def _unpack(packed, width, count):
    raw = packed.to_bytes(width * count + width, "little")
    return [
        int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i in range(count)
    ]


def _kronecker_mul(f, g):
    """Multiply via Kronecker substitution: pack into big ints and let CPython's
    integer multiplication do the convolution. Signs are handled by splitting
    each operand into positive and negative parts (four unsigned products)."""
    mf = max(abs(c) for c in f)
    mg = max(abs(c) for c in g)
    bound = mf * mg * min(len(f), len(g))
    width = (bound.bit_length() + 2 + 7) // 8  # +1 guard bit for pairwise sums
    fp = [c if c > 0 else 0 for c in f]
    fn = [-c if c < 0 else 0 for c in f]
    gp = [c if c > 0 else 0 for c in g]
    gn = [-c if c < 0 else 0 for c in g]
    pfp, pfn = _pack(fp, width), _pack(fn, width)
    pgp, pgn = _pack(gp, width), _pack(gn, width)
    n_out = len(f) + len(g) - 1
    pos = _unpack(pfp * pgp + pfn * pgn, width, n_out)
    neg = _unpack(pfp * pgn + pfn * pgp, width, n_out)
    return [a - b for a, b in zip(pos, neg)]


def poly_mul(a: Poly, b: Poly) -> Poly:
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly()
    if len(x) == 1:
        return poly_scale(b, x[0])
    if len(y) == 1:
        return poly_scale(a, y[0])
    return Poly._raw(_int_mul(x, y))


# --- Q(X) arithmetic by polynomial gcd ------------------------------------------
#
# Every result is reduced to the canonical form of `RatFunc` (num and den
# coprime in Z[X], den with a positive leading coefficient) by the gcd of the
# primitive polynomial remainder sequence. Operands may be ints or Fractions.


def _content(coeffs):
    g = 0
    for c in coeffs:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g or 1


def _primitive(coeffs):
    """Divide out the content and force a positive leading coefficient."""
    g = _content(coeffs)
    if coeffs[-1] < 0:
        g = -g
    if g != 1:
        coeffs = [c // g for c in coeffs]
    return coeffs


def _prem(a, b):
    """A pseudo-remainder of int coefficient lists: some nonzero scalar
    multiple of (a mod b), which is all the primitive-PRS gcd needs."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r[:-1]]
        for i in range(db):
            r[shift + i] -= lead * b[i]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over Q, normalized primitive with positive leading coefficient
    (monic whenever the inputs are monic)."""
    if a.is_zero or b.is_zero:
        return Poly(_primitive(list((a or b).coeffs))) if (a or b) else Poly()
    v = min(a.valuation, b.valuation)
    a = _primitive(list(a.unshift(a.valuation).coeffs))
    b = _primitive(list(b.unshift(b.valuation).coeffs))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
    return poly_shift(Poly(b if len(b) > 1 else [1]), v)


def _monicize(num: Poly, den: Poly) -> RatFunc:
    """num / den for num and den coprime over Q, divided by their common
    integer content and signed so that den's leading coefficient is
    positive."""
    g = math.gcd(_content(num.coeffs), _content(den.coeffs))
    if den.lead < 0:
        g = -g
    if g != 1:
        num, den = Poly([c // g for c in num.coeffs]), Poly([c // g for c in den.coeffs])
    return RatFunc(num, den)


def reduced(num: Poly, den: Poly = Poly((1,))) -> RatFunc:
    """num / den in canonical form."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero function")
    if num.is_zero:
        return RatFunc.zero()
    v = min(num.valuation, den.valuation)
    num, den = num.unshift(v), den.unshift(v)
    g = poly_gcd(num, den)
    return _monicize(num.exact_div(g), den.exact_div(g))


def _lift(a) -> RatFunc:
    return RatFunc(a) if isinstance(a, (int, Fraction)) else a


def neg(a) -> RatFunc:
    a = _lift(a)
    return RatFunc(poly_scale(a.num, -1), a.den)


def add(a, b) -> RatFunc:
    """a + b over the lcm of the denominators, cancelling only what the sum
    can share with their gcd."""
    a, b = _lift(a), _lift(b)
    if a.is_zero or b.is_zero:
        return b if a.is_zero else a
    g = poly_gcd(a.den, b.den)
    da, db = a.den.exact_div(g), b.den.exact_div(g)
    num = poly_add(poly_mul(a.num, db), poly_mul(b.num, da))
    if num.is_zero:
        return RatFunc.zero()
    h = poly_gcd(num, g)
    return _monicize(num.exact_div(h), poly_mul(da, b.den).exact_div(h))


def sub(a, b) -> RatFunc:
    return add(a, neg(b))


def mul(a, b) -> RatFunc:
    """a * b with the cross gcds cancelled before multiplying."""
    a, b = _lift(a), _lift(b)
    if a.is_zero or b.is_zero:
        return RatFunc.zero()
    g1, g2 = poly_gcd(a.num, b.den), poly_gcd(b.num, a.den)
    num = poly_mul(a.num.exact_div(g1), b.num.exact_div(g2))
    return _monicize(num, poly_mul(a.den.exact_div(g2), b.den.exact_div(g1)))


def reciprocal(a) -> RatFunc:
    a = _lift(a)
    if a.is_zero:
        raise ZeroDivisionError("division by the zero function")
    return _monicize(a.den, a.num)


def div(a, b) -> RatFunc:
    return mul(a, reciprocal(b))


def monomial(k: int, c: int = 1) -> Poly:
    """c X^k for k >= 0."""
    return Poly((0,) * k + (c,))


def identity(n: int) -> FMatrix:
    """The n x n identity matrix over Q(X)."""
    return FMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def signed_power(n: int) -> RatFunc:
    """(-X)^n for any integer n; negative n puts X^|n| in the denominator."""
    sign = -1 if n % 2 else 1
    if n >= 0:
        return RatFunc(monomial(n, sign))
    return RatFunc(Poly((sign,)), monomial(-n))


def qint(n: int) -> RatFunc:
    """Quantum integer {n} = (-X)^n - (-X)^(-n)."""
    return sub(signed_power(n), signed_power(-n))


def qint_plus(n: int) -> RatFunc:
    """{n}+ = (-X)^n + (-X)^(-n)."""
    return add(signed_power(n), signed_power(-n))


def product_over_qx(sign: int, power: int, factors) -> RatFunc:
    """sign (-X)^power prod {k}^e ({k}+^e where plus) over the triples
    (k, plus, e) in factors, by Q(X) arithmetic."""
    out = mul(sign, signed_power(power))
    for k, plus, e in factors:
        f = qint_plus(k) if plus else qint(k)
        for _ in range(abs(e)):
            out = mul(out, f) if e > 0 else div(out, f)
    return out


def fm_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}")
    out = []
    for ra in a.rows:
        row = []
        for cb in zip(*b.rows):
            acc = RatFunc.zero()
            for x, y in zip(ra, cb):
                if x and y:
                    acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(tuple(row))
    return FMatrix(tuple(out))


def bar(f: RatFunc) -> RatFunc:
    """f(X^-1) in canonical form: num(X^-1)/den(X^-1) is the reversed
    numerator over the reversed denominator times X^(deg den - deg num)."""
    if f.is_zero:
        return f
    num, den = Poly(f.num.coeffs[::-1]), Poly(f.den.coeffs[::-1])
    shift = f.den.degree - f.num.degree
    return reduced(poly_shift(num, shift), den) if shift >= 0 else reduced(num, poly_shift(den, -shift))


def fm_scale(m: FMatrix, s) -> FMatrix:
    return FMatrix(tuple(tuple(mul(s, e) for e in r) for r in m.rows))


def fm_sub(a: FMatrix, b: FMatrix) -> FMatrix:
    return FMatrix(tuple(tuple(sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)))


def lcm_form(m: FMatrix):
    """(P, D) with m = P / D, for any matrix over Q(X), the integer forms the
    exact checks take (`conjugated_form` gives those of the generators, which
    `repbuild._integer_form` reads off the factor lists): D the lcm in Z[X] of the entry
    denominators by gcd, P the matrix of num * (D / den) as integer
    coefficient lists. A canonical denominator may carry an integer content
    (1/(2X) has den 2X), so the gcd taken out of each product is the
    primitive gcd times the gcd of the contents; with the primitive gcd alone
    the contents multiply up, as in lcm(4X, 6X) = 24X, and P and D outgrow
    the exact checks' limits."""
    den = Poly((1,))
    for d in dict.fromkeys(e.den for row in m.rows for e in row):
        g = poly_scale(poly_gcd(den, d), math.gcd(_content(den.coeffs), _content(d.coeffs)))
        den = poly_mul(den, d.exact_div(g))
    return [[list(poly_mul(e.num, den.exact_div(e.den)).coeffs) for e in row] for row in m.rows], list(den.coeffs)


def conjugated_form(p, d):
    """(P', D') as `repbuild._integer_form` gives them, from the (P, D) of
    `lcm_form` of a matrix m whose entry (i, j) is X^(floor(i/2) + floor(j/2))
    times a function of X^2 over D: P' / D' = E m E^-1 with
    E = diag(X^floor(i/2)), P and D both times the least X^u that makes every
    polynomial one in Y = X^2, each a list of its coefficients in Y."""
    def valuation(f):
        return next(k for k, c in enumerate(f) if c)

    def in_y(f, k):  # X^k f, k + valuation(f) >= 0, in Y
        x = [0] * k + f if k >= 0 else f[-k:]
        assert not any(x[1::2]), "terms of both parities"
        return x[::2]

    low = min([valuation(d)] + [valuation(f) + i // 2 - j // 2
                                for i, row in enumerate(p) for j, f in enumerate(row) if any(f)])
    u = (low - valuation(d)) % 2 - low  # the least u >= -low with u + valuation(d) even
    return [[in_y(f, u + i // 2 - j // 2) if any(f) else [] for j, f in enumerate(row)]
            for i, row in enumerate(p)], in_y(d, u)


def held(p, d):
    """(P, D) given as coefficient lists, ascending (`lcm_form`,
    `conjugated_form`), as the exact checks hold them
    (`repbuild._integer_form`): each polynomial f = Y^v c(Y) as (v, c), v
    the degree of its lowest nonzero coefficient and c its coefficients from
    there on; 0 as (0, c) with c all zero, [] for an empty list."""
    def one(f):
        v = next((k for k, x in enumerate(f) if x), 0)
        return v, list(f[v:])

    return [[one(f) for f in row] for row in p], one(d)


def padded(f):
    """The coefficient list, ascending, of the polynomial (v, c) = Y^v c(Y)
    that the exact checks hold: [] for 0, else v zeros and c."""
    v, c = f
    return [0] * v + list(c) if any(c) else []


def in_y(f):
    """(t, c) with f = X^t c(X^2), for a nonzero integer polynomial f (its
    coefficients, ascending) whose terms have one parity: c the coefficients
    in Y = X^2 from the lowest."""
    t = next(k for k, c in enumerate(f) if c)
    assert not any(f[t + 1 :: 2]), "terms of both parities"
    return t, list(f[t::2])


def ratfunc_from_obj(obj: dict) -> RatFunc:
    return reduced(Poly([int(s) for s in obj["num"]]), Poly([int(s) for s in obj["den"]]))


def fmatrix_from_obj(obj: dict) -> FMatrix:
    return FMatrix(tuple(tuple(ratfunc_from_obj(e) for e in row) for row in obj["entries"]))


# --- products over a common denominator by Moebius inversion --------------------


def _exponents(sign: int, power: int, factors):
    """sign * (-X)^power * prod {k}^e, with {k}+^e where `plus`, over the
    triples (k, plus, e) in `factors` (k >= 1), as (s, a, exps): the value is
    s X^a prod Phi_d^e_d over the exponents d -> e_d in exps, as
    {k} = (-1)^k X^-k prod_{d | 2k} Phi_d and
    {k}+ = (-1)^k X^-k prod_{d | 4k, d !| 2k} Phi_d."""
    odd, xpow, exps = power, power, {}
    for k, plus, e in factors:
        odd += k * e
        xpow -= k * e
        for d in _divisors(4 * k if plus else 2 * k):
            if not plus or (2 * k) % d:
                exps[d] = exps.get(d, 0) + e
    return (-sign if odd % 2 else sign), xpow, exps


def moebius_over_denominator(forms):
    """`qsymbols._over_denominator` worked in X: each product's cyclotomic
    exponents (`_exponents`), their maxima the denominator, and
    each numerator's factors (1 - X^m)^f_m by Moebius inversion of its
    exponents plus the denominator's (`qsymbols._factors`), expanded as a
    cut power series in X, each from its neighbour's where that is shorter."""
    terms = [_exponents(*form) for form in forms]
    xpow, den = 0, {}
    for _, a, exps in terms:
        xpow = max(xpow, -a)
        for d, e in exps.items():
            if e < 0:
                den[d] = max(den.get(d, 0), -e)
    nums, last, c = [], {}, [1]
    for s, a, exps in terms:
        exps = {d: exps.get(d, 0) + den.get(d, 0) for d in exps.keys() | den.keys()}
        f = _factors(exps)
        deg = sum(m * e for m, e in f.items())
        step = {m: f.get(m, 0) - last.get(m, 0) for m in f.keys() | last.keys()}
        if sum(map(abs, step.values())) < sum(map(abs, f.values())):
            c = _times(c[: deg + 1] + [0] * (deg + 1 - len(c)), step)
        else:
            c = _times([1] + [0] * deg, f)
        if exps.get(1, 0) % 2:  # prod Phi_d^e_d = (-1)^e_1 prod (1 - X^m)^f_m
            s = -s
        nums.append(Poly._raw([0] * (a + xpow) + [s * x for x in c]))
        last = f
    return xpow, den, nums


# --- values at a point by Horner's rule -----------------------------------------


def root(s: PSetting) -> complex:
    """A_p = -exp(2 pi i k/p) of level s: a primitive 2p-th root of unity with
    (-A_p)^p = 1, tending to -1 as p grows (for k = 1)."""
    return -cmath.exp(2j * cmath.pi * s.k / s.p)


def horner(poly: Poly, x):
    """poly at x by Horner's rule: exact for an int or Fraction x, CPython
    complex arithmetic for a complex one."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def horner_value(f: RatFunc, x) -> complex:
    """f at the complex point x: Horner on its canonical numerator and
    denominator, then their quotient. A reference for entries of low degree
    only: on high-degree ones it loses digits (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 5)."""
    x = complex(x)
    return horner(f.num, x) / horner(f.den, x)


def horner_matrix(mat: FMatrix, x) -> np.ndarray:
    """`horner_value` entry by entry, as an r x c complex array."""
    out = np.zeros((mat.n_rows, mat.n_cols), dtype=complex)
    for i, row in enumerate(mat.rows):
        out[i] = [horner_value(e, x) for e in row]
    return out


def eval_exact(f: RatFunc, x):
    """f at the rational point x; PoleError where f's canonical denominator
    vanishes."""
    dv = horner(f.den, x)
    if dv == 0:
        raise PoleError(f"pole at X = {x}")
    return Fraction(horner(f.num, x)) / Fraction(dv)


def slope_exact(f: RatFunc, x):
    """df/dX at the rational point x, (num' den - num den') / den^2 on f's
    canonical form; PoleError where its denominator vanishes."""
    def derivative(p: Poly) -> Poly:
        return Poly([k * c for k, c in enumerate(p.coeffs)][1:])

    dv = horner(f.den, x)
    if dv == 0:
        raise PoleError(f"pole at X = {x}")
    top = horner(derivative(f.num), x) * dv - horner(f.num, x) * horner(derivative(f.den), x)
    return Fraction(top) / Fraction(dv) ** 2


def classical_limit(mat: FMatrix):
    """Entrywise `eval_exact` at X = -1; the PoleError names the entry."""
    out = []
    for i, row in enumerate(mat.rows):
        vals = []
        for j, e in enumerate(row):
            try:
                vals.append(eval_exact(e, -1))
            except PoleError:
                raise PoleError(f"entry ({i}, {j}) has a pole at X = -1", entry=(i, j))
        out.append(tuple(vals))
    return tuple(out)


def fractions(limit):
    """An exact matrix at X = -1 as the program holds it, a pair (rows, den) of
    integer rows over a positive integer denominator, as rows of Fractions."""
    rows, den = limit
    assert type(den) is int and den > 0 and all(type(x) is int for row in rows for x in row)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def jet(forms):
    """(c_0, c_1) of `qsymbols._limit`, which gives them as integers over
    their lcm L, as Fractions."""
    c0, c1, lcm = _limit(forms)
    assert type(lcm) is int and lcm > 0
    return Fraction(c0, lcm), Fraction(c1, lcm)


# --- y, z' and M^(n) by Q(X) arithmetic -----------------------------------------


def lambda_shifted(k: int, N: int) -> RatFunc:
    """The curve-operator eigenvalue lambda_{c+k} = -{2N-2k-1}+."""
    return neg(qint_plus(2 * N - 2 * k - 1))


def build_y(N: int, z: FMatrix) -> FMatrix:
    """y[m][l] = rhat(l, m) * z[l][m], formed only where z[l][m] is nonzero."""
    return pairing_transpose(N, z)


def build_zprime(y: FMatrix, z: FMatrix) -> FMatrix:
    """(X * y@z - X^(-1) * z@y) / {2} by matrix products over Q(X)."""
    x = RatFunc(Poly((0, 1)))
    diff = fm_sub(fm_scale(fm_mul(y, z), x), fm_scale(fm_mul(z, y), reciprocal(x)))
    return fm_scale(diff, reciprocal(qint(2)))


def build_m(n: int, N: int, zprime: FMatrix) -> FMatrix:
    """M^(n) = (z' - lambda_{c+n} I) / {n+1} entry by entry over Q(X)."""
    lam, inv = lambda_shifted(n, N), reciprocal(qint(n + 1))
    return FMatrix(
        tuple(
            tuple(mul(sub(e, lam) if l == m else e, inv) for l, e in enumerate(row))
            for m, row in enumerate(zprime.rows)
        )
    )


# --- exact inverse and equality -------------------------------------------------


class SingularError(ArithmeticError):
    """Matrix inversion of a matrix whose determinant is the zero function."""


def fm_inv(a: FMatrix) -> FMatrix:
    """Exact inverse by Gauss-Jordan elimination, pivoting on the nonzero entry
    of smallest degree to limit intermediate growth."""
    n = a.n_rows
    if n != a.n_cols:
        raise ValueError("inverse of a non-square matrix")
    one, zero = RatFunc(1), RatFunc.zero()
    work = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(a.rows)]
    for col in range(n):
        pivot_row = None
        pivot_size = None
        for r in range(col, n):
            e = work[r][col]
            if not e.is_zero:
                size = e.num.degree + e.den.degree
                if pivot_size is None or size < pivot_size:
                    pivot_row, pivot_size = r, size
        if pivot_row is None:
            raise SingularError("matrix determinant is the zero function")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv = reciprocal(work[col][col])
        work[col] = [mul(e, inv) for e in work[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f.is_zero:
                continue
            work[r] = [sub(e, mul(f, p)) for e, p in zip(work[r], work[col])]
    return FMatrix(tuple(tuple(row[n:]) for row in work))


def fm_eq(a: FMatrix, b: FMatrix) -> bool:
    return a.n_rows == b.n_rows and a.n_cols == b.n_cols and a.rows == b.rows


# --- quantum symbols no production path uses ------------------------------------


def qfact(n: int) -> RatFunc:
    """{n}! = {1}{2}...{n}, with {0}! = 1 and {n}! = 0 for negative n."""
    out = RatFunc.zero() if n < 0 else RatFunc(1)
    for k in range(1, n + 1):
        out = mul(out, qint(k))
    return out


def mu(n: int) -> RatFunc:
    """Twist eigenvalue mu_n = (-X)^(n(n+2))."""
    return signed_power(n * (n + 2))


def rhat(n: int, m: int, N: int) -> RatFunc:
    """The pairing ratio rhat(n, m) in canonical form, from its product form
    (`qsymbols._rhat_form`, `sum_form`)."""
    return sum_form([_rhat_form(n, m, N)])


def sum_form(forms) -> RatFunc:
    """The canonical form of the sum of the products in `forms`, as the build
    gives it (`qsymbols._sum_forms`)."""
    return form_of(_sum_forms([forms])[0])


def sum_over_qx(forms) -> RatFunc:
    """The sum of the products in `forms` by Q(X) arithmetic
    (`product_over_qx`), whatever the parities of their powers of X."""
    out = RatFunc.zero()
    for form in forms:
        out = add(out, product_over_qx(*form))
    return out


# --- T and T* by the column recurrence -----------------------------------------


def pairing_transpose(N: int, a: FMatrix) -> FMatrix:
    """out[i][j] = rhat(j, i) * a[j][i], formed only where a[j][i] is nonzero."""
    zero = RatFunc.zero()
    return FMatrix(
        tuple(
            tuple(zero if a[j][i].is_zero else mul(rhat(j, i, N), a[j][i]) for j in range(N))
            for i in range(N)
        )
    )


def built(what: str, N: int, index: int | None = None) -> FMatrix:
    """The matrix that symbolic `matrices --what` emits: the canonical forms
    (`repbuild._matrix`) of its form map (`repbuild.forms`)."""
    return fmatrix_of(repbuild._matrix(N, repbuild.forms(what, N, index)))


def twists(N: int) -> tuple[FMatrix, FMatrix]:
    """The production (T, T*)."""
    return built("T", N), built("Tstar", N)


def recurrence_matrices(N: int) -> tuple[FMatrix, ...]:
    """The production M^(0), ..., M^(N-2)."""
    return tuple(built("M", N, n) for n in range(N - 1))


def recurrence_twists(N: int) -> tuple[FMatrix, FMatrix]:
    """(T, T*) as the column recurrence builds them: column n+1 of T is
    ((z' - lambda_{c+n} I) * column n) / {n+1} from column 0 = e, and
    T*[n][m] = rhat(m, n) * T[m][n]."""
    zprime = built("Zprime", N)
    cols = [[RatFunc.zero()] * N for _ in range(N)]
    cols[0][0] = RatFunc(1)
    for n in range(N - 1):
        prev = cols[n]
        lam = lambda_shifted(n, N)
        inv = reciprocal(qint(n + 1))
        nxt = []
        for m in range(N):
            acc = RatFunc.zero()
            for l in range(max(0, m - 1), min(N, m + 2)):
                if prev[l].is_zero:
                    continue
                e = sub(zprime[m][l], lam) if l == m else zprime[m][l]
                if not e.is_zero:
                    acc = add(acc, mul(e, prev[l]))
            nxt.append(mul(acc, inv))
        cols[n + 1] = nxt
    that = FMatrix(tuple(tuple(cols[n][m] for n in range(N)) for m in range(N)))
    return that, pairing_transpose(N, that)


# --- exact word products -------------------------------------------------------


def verify_braid(N: int) -> bool:
    """Exact braid relation T T* T == T* T T* in GL_N(Q(X))."""
    return braid_holds(*twists(N))


def braid_holds(t: FMatrix, tstar: FMatrix) -> bool:
    """The braid relation for any pair over Q(X), by `relation_checks`'
    decision procedure on their (P, D) forms by lcm."""
    return _integer_checks(*held(*lcm_form(t)), *held(*lcm_form(tstar)))[0]


def rep_of_word(w: Word, N: int) -> FMatrix:
    """Image of a mapping-class word: the ordered product of T/T* powers, with
    negative exponents through the exact inverse."""
    t, tstar = twists(N)
    out = identity(N)
    for gen, exp in w.letters:
        base = t if gen is Gen.TY else tstar
        if exp < 0:
            base = fm_inv(base)
        out = fm_mul(out, fm_power(base, abs(exp)))
    return out


def fm_power(base: FMatrix, e: int) -> FMatrix:
    """base^e for e >= 1 by square-and-multiply: O(log e) products."""
    out = None
    while True:
        if e & 1:
            out = base if out is None else fm_mul(out, base)
        e >>= 1
        if not e:
            return out
        base = fm_mul(base, base)


def changed_factor(t, tstar, N: int):
    """The form maps of T and T* (`repbuild._twist_factors`) with one factor
    changed, a mutation the exact checks and the twist limits must catch:
    T[0][1]'s {2N-1}+ read as {2N-1}."""
    t = {
        ij: [(sign, power, [(k, plus and (ij, k) != ((0, 1), 2 * N - 1), e) for k, plus, e in factors])
             for sign, power, factors in entry]
        for ij, entry in t.items()
    }
    return t, tstar


def flipped_curve_factor(z, y, i: int):
    """The form maps of z and y (`repbuild._curve_factors`) with factor i of
    y[0][1] = -{2N-2} {1}^-1 {2N-1}+ {1} read with its plus flag flipped, a
    mutation the recurrence-matrix limits must catch: the trailing {1} as
    {1}+ (i = -1) gives every M^(n) a pole, {2N-1}+ as {2N-1} (i = -2) other
    finite limits."""
    [(sign, power, factors)] = y[0, 1]
    k, plus, e = factors[i]
    y = {**y, (0, 1): [(sign, power, [*factors[:i], (k, not plus, e), *factors[i:][1:]])]}
    return z, y


# --- the exact checks by Kronecker substitution -------------------------------


def kronecker_relation_checks(t: FMatrix, tstar: FMatrix) -> tuple[bool, bool]:
    """`relation_checks` by Kronecker substitution: the (P, D) forms by lcm
    (`lcm_form`, those of `relation_checks` for the built generators) and the
    same height bounds, but each identity is decided by comparing Python-int
    matrices at X = B = 2^w with B above twice the larger bound, where an
    integer polynomial with coefficients below B/2 in absolute value is zero
    iff its value at B is zero. Both identities are evaluated, so a center
    verdict here never rests on the braid implying it."""
    pt, dt = lcm_form(t)
    ps, ds = lcm_form(tstar)
    w = (2 * max(exact_height_bound(*held(pt, dt), *held(ps, ds)))).bit_length()  # B = 2^w > 2 * bound

    pt, ps = (np.array(_eval_matrix_at(p, w), dtype=object) for p in (pt, ps))
    tst, sts = pt @ ps @ pt, ps @ pt @ ps
    braid = (tst * _eval_at(ds, w) == sts * _eval_at(dt, w)).all()
    c = tst @ tst
    center = (c @ pt == pt @ c).all() and (c @ ps == ps @ c).all()
    return bool(braid), bool(center)


def exact_height_bound(pt, dt, ps, ds) -> tuple[int, int]:
    """(braid, center): `repbuild._height_bound` in Python integers, from the
    integer forms as the exact checks hold them, each polynomial (v, c): the
    bounds on every coefficient of the difference of the two sides of each
    identity, ||gh||_1 <= ||g||_1 ||h||_1 through the matrices of entry
    l1-norms (numpy arrays of Python ints)."""
    nt, ns = (np.array([[sum(map(abs, c)) for _, c in row] for row in p], dtype=object) for p in (pt, ps))
    tst, sts = nt @ ns @ nt, ns @ nt @ ns
    c = tst @ tst
    return (
        (tst * sum(map(abs, ds[1])) + sts * sum(map(abs, dt[1]))).max(),
        max((c @ nt + nt @ c).max(), (c @ ns + ns @ c).max()),
    )


def _eval_at(coeffs, w: int) -> int:
    """Value of an integer polynomial at X = 2^w (Horner by shifts)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << w) + c
    return acc


def _eval_matrix_at(p, w: int):
    return [[_eval_at(q, w) for q in row] for row in p]


# --- the oracle from direct raw factorial products ------------------------------


class _DirectRawSymbols:
    """The oracle's symbols as first written: every factorial a direct product
    of fresh `cmath.exp` powers, O(p) per symbol (slow; reference only)."""

    def __init__(self, s, tol):
        self._w = 2.0 * math.pi * s.k / s.p
        self._tol = tol

    def power(self, n):
        return cmath.exp(1j * self._w * n)

    def qd(self, n):
        return self.power(n) - self.power(-n)

    def qp(self, n):
        return self.power(n) + self.power(-n)

    def lam(self, n):
        return -self.qp(2 * n + 2)

    def qd_fact(self, n):
        out = 1 + 0j
        for j in range(1, n + 1):
            out *= self.qd(j)
        return out

    def qd_dfact(self, n):
        out = 1 + 0j
        while n >= 1:
            out *= self.qd(n)
            n -= 2
        return out

    def qp_fact(self, n):
        out = 1 + 0j
        for j in range(1, n + 1):
            out *= self.qp(j)
        return out

    def guard(self, value, what):
        if abs(value) < self._tol:
            raise NearPoleError(f"{what} has magnitude {abs(value):.3e}")
        return value


def direct_oracle_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """(T, T*) at one level from the raw definitions, one level and one entry
    at a time: each pairing ratio the quotient of its full factorial products
    {m}! {2c+2n+1}!! {2c+n+1}+! / ({n}! {2c+2m+1}!! {2c+m+1}+!), then the
    skein-relation twist and the column recurrence. Its raw products overflow
    from about p = 10001."""
    N, c = s.N, s.c
    sym = _DirectRawSymbols(s, tol)

    def pairing_ratio(n, m):
        num = sym.qd_fact(m) * sym.qd_dfact(2 * c + 2 * n + 1) * sym.qp_fact(2 * c + n + 1)
        den = sym.qd_fact(n) * sym.qd_dfact(2 * c + 2 * m + 1) * sym.qp_fact(2 * c + m + 1)
        return num / sym.guard(den, f"pairing-ratio denominator ({n},{m})")

    z = np.zeros((N, N), dtype=complex)
    for m in range(N):
        z[m, m] = sym.lam(c + m)
        if m >= 1:
            z[m, m - 1] = sym.qd(m)
    ratios = np.array([[pairing_ratio(n, m) for m in range(N)] for n in range(N)])
    y = ratios.T * z.T  # y[m, l] = R(l, m) * z[l, m]
    a = -sym.power(1)  # A = -(-A)
    zprime = (a * (y @ z) - (z @ y) / a) / sym.guard(sym.qd(2), "{2}")
    cols = [np.zeros(N, dtype=complex) for _ in range(N)]
    cols[0][0] = 1.0
    for n in range(N - 1):
        m_n = (zprime - sym.lam(c + n) * np.eye(N)) / sym.guard(sym.qd(n + 1), f"{{{n + 1}}}")
        cols[n + 1] = m_n @ cols[n]
    t = np.column_stack(cols)
    return t, t.T / ratios


# --- the rescaling character ----------------------------------------------------


def exponent_sum(w: Word) -> int:
    return sum(e for _, e in w.letters)


def chi_p(w: Word, p: int, N: int, k: int = 1) -> complex:
    """Rescaling character: (-A_p)^(c(c+2) * exponent sum) with c = (p-1)/2 - N.
    A unit-modulus complex number; the angle is reduced mod p exactly before
    exponentiation."""
    if p % 2 == 0 or p < 2 * N + 1:
        raise BadPError(f"need odd p >= 2N+1 = {2 * N + 1}, got p = {p}")
    if math.gcd(k, p) != 1:
        raise BadPError(f"root index k = {k} is not coprime to p = {p}")
    c = (p - 1) // 2 - N
    e = (c * (c + 2) * exponent_sum(w)) % p
    # (-A_p) = exp(2 pi i k / p)
    return complex(math.cos(2 * math.pi * k * e / p), math.sin(2 * math.pi * k * e / p))


# --- high-precision evaluation at A_p -------------------------------------------


def _decimal_pi() -> Decimal:
    """pi by the series of the `decimal` module documentation."""
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    return s


def _decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x by their Taylor series, summed until they stop moving."""
    out = []
    for term, k in ((Decimal(1), 0), (x, 1)):
        total, last = term, None
        while total != last:
            last = total
            term = -term * x * x / ((k + 1) * (k + 2))
            k += 2
            total += term
        out.append(total)
    return out[0], out[1]


def decimal_at_root(mat: FMatrix, p: int, k: int = 1, digits: int = 50):
    """mat evaluated at A_p = -exp(2 pi i k/p) with `digits` significant
    digits: the root by Taylor series, each canonical numerator and
    denominator by Horner in complex decimal arithmetic, then their quotient.
    Entries are (re, im) pairs of Decimals."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        c, s = _decimal_cos_sin(2 * _decimal_pi() * k / p)
        xr, xi = -c, -s

        def horner(coeffs):
            re = im = Decimal(0)
            for a in reversed(coeffs):
                re, im = re * xr - im * xi + Decimal(a), re * xi + im * xr
            return re, im

        out = []
        for row in mat.rows:
            vals = []
            for e in row:
                (nr, ni), (dr, di) = horner(e.num.coeffs), horner(e.den.coeffs)
                d2 = dr * dr + di * di
                vals.append(((nr * dr + ni * di) / d2, (ni * dr - nr * di) / d2))
            out.append(vals)
        return out


_factor_lists = lru_cache(maxsize=None)(_twist_factors)


def decimal_forms(forms, p: int, k: int = 1, digits: int = 60):
    """A form map of `repbuild` ((i, j) -> list of products (sign, power,
    factors)) at A_p with `digits` significant
    digits: -A_p = omega = exp(2 pi i k/p) by Taylor series, one table of
    omega^j (j <= p/2, as omega^p = 1 and omega^-j is its conjugate) by
    repeated products, {j} = 2i Im omega^j, {j}+ = 2 Re omega^j, each
    product sign * omega^power * prod {j}^e, and each sum added term by term.
    A map (i, j) -> (re, im) of Decimals holding exactly the entries forms
    names."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        c, s = _decimal_cos_sin(2 * _decimal_pi() * (k % p) / p)
        powers, real = [(Decimal(1), Decimal(0))], {}  # omega^j; {j}/i or {j}+ to the e, by factor

        def omega(j):
            j %= p
            if 2 * j > p:  # the conjugate of omega^(p - j)
                re, im = omega(p - j)
                return re, -im
            while len(powers) <= j:
                re, im = powers[-1]
                powers.append((re * c - im * s, re * s + im * c))
            return powers[j]

        def product(sign, power, factors):
            mag, quarter = Decimal(sign), 0
            for f in factors:
                if f not in real:
                    re, im = omega(f[0])
                    real[f] = (2 * re if f[1] else 2 * im) ** f[2]
                mag *= real[f]
                quarter += 0 if f[1] else f[2]
            re, im = omega(power)
            for _ in range(quarter % 4):  # times i
                re, im = -im, re
            return mag * re, mag * im

        out = {}
        for ij, entry in forms.items():
            terms = [product(*form) for form in entry]
            out[ij] = sum(re for re, _ in terms), sum(im for _, im in terms)
        return out


def decimal_twists(N: int, p: int, k: int = 1, digits: int = 50):
    """T and T* at A_p straight from their factor lists
    (`repbuild._twist_factors`, `decimal_forms`): two maps (i, j) ->
    (re, im) of Decimals, one per generator."""
    return [decimal_forms(gen, p, k, digits) for gen in _factor_lists(N)]


def what_argv(what: str, index: int | None = None):
    """The `matrices` options that select the matrix `repbuild.forms(what, N,
    index)`."""
    return ["--what", what, *(["--index", str(index)] if what == "M" else [])]


def named(N: int):
    """(what, index) of every matrix `matrices --what` emits in dimension N
    but hN: M with each index."""
    return [(what, None) for what in ("T", "Tstar", "Z", "Y", "R", "Zprime")] + [("M", n) for n in range(N - 1)]


def predicted_form_pole(forms, s: PSetting, tol: float):
    """What `numeric.eval_forms` raises at level s, derived from each entry's
    reduced denominator in X, prod Phi_d^-e_d (e_d < 0): that of a single
    product's cyclotomic exponents (`_exponents`), or for a longer sum the
    Phi_d that divide the denominator of its canonical form (`sum_form`).
    (message, entry) for the first entry in row-major order with a divisor
    Phi_d of |Phi_d(A_p)| below tol, Phi_d evaluated by Horner in CPython
    complex arithmetic; None if no entry has one."""
    for (i, j), entry in sorted(forms.items()):
        if len(entry) == 1:
            exps = _exponents(*entry[0])[2]
        else:
            den = sum_form(entry).den
            exps = {d: -1 for d in range(1, den.degree + 1) if _divides(Poly(_cyclotomic(d)), den)}
        if any(e < 0 and abs(horner(Poly(_cyclotomic(d)), root(s))) < tol for d, e in exps.items()):
            return f"entry ({i}, {j}): a divisor is below {tol:g} at p = {s.p}", (i, j)
    return None


def _divides(a: Poly, b: Poly) -> bool:
    try:
        b.exact_div(a)
    except ArithmeticError:
        return False
    return True


def predicted_near_pole(N: int, levels, tol: float):
    """What `numeric.eval_twists` raises over the given levels, derived from
    the factor lists (`repbuild._twist_factors`): (message, entry, point) for
    the first level, there T before T*, and the first entry in row-major order
    with a divisor {j} or {j}+ of modulus below tol; None if no entry has
    one."""
    for point, s in enumerate(levels):
        for name, gen in zip(("T", "T*"), _factor_lists(N)):
            for (i, j), [(_, _, factors)] in gen.items():
                angles = [(2 * math.pi * (s.k * d % s.p) / s.p, plus) for d, plus, e in factors if e < 0]
                if any(abs(2 * (math.cos(a) if plus else math.sin(a))) < tol for a, plus in angles):
                    return f"{name} entry ({i}, {j}): a divisor is below {tol:g} at p = {s.p}", (i, j), point
    return None


def relative_error(approx: complex, exact) -> float:
    """|approx - exact| / |exact| for an exact (re, im) Decimal pair; 0.0 when
    both are zero, infinity when only exact is."""
    with localcontext() as ctx:
        ctx.prec = 60
        er, ei = exact
        dr, di = Decimal(approx.real) - er, Decimal(approx.imag) - ei
        size = er * er + ei * ei
        if not size:
            return 0.0 if approx == 0 else math.inf
        return float(((dr * dr + di * di) / size).sqrt())


def alpha(n: int, N: int) -> Fraction:
    """Basis rescaling alpha_n = 2^n / (n! (N-1-n)!) of `classical.hN_matrix`."""
    if not 0 <= n <= N - 1:
        raise ValueError(f"basis index n = {n} outside 0..{N - 1}")
    return Fraction(2**n, math.factorial(n) * math.factorial(N - 1 - n))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-modulus norm of a float matrix (0.0 when empty)."""
    return float(np.max(np.abs(m))) if m.size else 0.0

