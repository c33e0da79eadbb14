"""Exact arithmetic in Q(X): dense polynomials over exact rationals, reduced
fractions of them, and small matrices over the resulting field.

Coefficients are Python ints whenever possible and `fractions.Fraction`
otherwise; the quantum-integer pipeline stays integral throughout, which keeps
gcd reduction cheap. Every `RatFunc` is kept in canonical form at all times:
gcd(num, den) = 1 and den monic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError

# ---------------------------------------------------------------------------
# integer coefficient kernels
# ---------------------------------------------------------------------------

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


def _int_content(coeffs):
    g = 0
    for c in coeffs:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g or 1


def _int_primitive(coeffs):
    """Divide out the content and force a positive leading coefficient."""
    g = _int_content(coeffs)
    if coeffs[-1] < 0:
        g = -g
    if g != 1:
        coeffs = [c // g for c in coeffs]
    return coeffs


def _int_prem(a, b):
    """A pseudo-remainder of int coefficient lists: some nonzero scalar multiple
    of (a mod b). Only used inside the primitive-PRS gcd, so the scalar is
    irrelevant."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[-1]
        shift = dr - db
        r = [lb * c for c in r[:-1]]
        for i in range(db):
            r[shift + i] -= lead * b[i]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


def _int_gcd(a, b):
    """Primitive positive-lead gcd of two nonzero int coefficient lists via the
    primitive polynomial remainder sequence."""
    a = _int_primitive(list(a))
    b = _int_primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _int_prem(a, b)
        if not r:
            return b
        a, b = b, _int_primitive(r)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _norm_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, float):
        raise TypeError("exact polynomials do not accept float coefficients")
    return c


class Poly:
    """A univariate polynomial with exact rational coefficients, stored densely
    by ascending degree with trailing zeros trimmed."""

    __slots__ = ("coeffs", "_int")

    def __init__(self, coeffs=()):
        cs = [_norm_coeff(Fraction(c) if isinstance(c, str) else c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._int = all(isinstance(c, int) for c in cs)

    @staticmethod
    def _raw(cs, is_int=True):
        """Unchecked constructor for coefficients that need no normalisation:
        ints (the integer kernels' results) or, with `is_int` False, already
        normalised coefficients that are not all ints. Trailing zeros are
        trimmed."""
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        p = object.__new__(Poly)
        p.coeffs = tuple(cs[:n]) if n < len(cs) else tuple(cs)
        p._int = is_int
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c):
        return Poly((c,))

    @staticmethod
    def monomial(k, c=1):
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return Poly((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

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
        """Multiplicity of the root X = 0 (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def shift(self, k):
        """Multiply by X^k (k >= 0)."""
        if self.is_zero or k == 0:
            return self
        return Poly._raw((0,) * k + self.coeffs, self._int)

    def unshift(self, k):
        """Divide by X^k, assuming valuation >= k."""
        if k == 0 or self.is_zero:
            return self
        return Poly._raw(self.coeffs[k:], self._int)

    def is_integral(self):
        return self._int

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.coeffs), self._int)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        if self._int and other._int:
            return Poly._raw(out)
        return Poly(out)

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = list(a) + [0] * (n - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        if self._int and other._int:
            return Poly._raw(out)
        return Poly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        if self._int and other._int:
            return Poly._raw(_int_mul(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, s):
        if s == 0:
            return _P_ZERO
        if s == 1:
            return self
        if self._int and isinstance(s, int):
            return Poly._raw(tuple(c * s for c in self.coeffs))
        return Poly(tuple(c * s for c in self.coeffs))

    def divmod(self, other):
        """Exact long division: (quotient, remainder) over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _P_ZERO, self
        rem = list(self.coeffs)
        db = other.degree
        lb = other.lead
        is_int = self._int and other._int
        q = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if lb == 1:
                qc = c
            elif lb == -1:
                qc = -c
            elif isinstance(c, int) and isinstance(lb, int) and c % lb == 0:
                qc = c // lb
            else:
                qc = _norm_coeff(Fraction(c) / Fraction(lb))
                is_int = False
            q[k - db] = qc
            shift = k - db
            for i, bc in enumerate(other.coeffs[:-1]):
                rem[shift + i] -= qc * bc
            rem[k] = 0
        if is_int:
            return Poly._raw(q), Poly._raw(rem[:db])
        return Poly(q), Poly(rem[:db])

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ArithmeticError("division was not exact")
        return q

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """Horner evaluation, exact for int/Fraction x. (Complex evaluation is
        `numeric.eval_matrix`.)"""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "" if k == 0 else ("X" if k == 1 else f"X^{k}")
            if c == 1 and term:
                s = term
            elif c == -1 and term:
                s = f"-{term}"
            else:
                s = f"{c}" if not term else f"{c}*{term}"
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return out

    __repr__ = __str__


_P_ZERO = Poly(())
_P_ONE = Poly((1,))
_P_X = Poly((0, 1))


def _to_int_list(p: Poly):
    """Scale to an integer coefficient list (gcd is insensitive to scalars)."""
    if p.is_integral():
        return list(p.coeffs)
    lcm = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in p.coeffs]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over Q, normalized primitive with positive leading coefficient
    (monic-integer whenever the inputs are monic-integer)."""
    if a.is_zero:
        return Poly._raw(_int_primitive(_to_int_list(b))) if not b.is_zero else _P_ZERO
    if b.is_zero:
        return Poly._raw(_int_primitive(_to_int_list(a)))
    va, vb = a.valuation, b.valuation
    v = min(va, vb)
    ia = _to_int_list(a.unshift(va))
    ib = _to_int_list(b.unshift(vb))
    if len(ia) == 1 or len(ib) == 1:
        g = [1]  # a unit is the only common divisor once X-powers are stripped
    else:
        g = _int_gcd(ia, ib)
    return Poly._raw(g).shift(v)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def _monicize(num: Poly, den: Poly):
    lead = den.lead
    if lead == 1:
        return num, den
    if lead == -1:
        return -num, -den
    inv = Fraction(1, lead) if isinstance(lead, int) else 1 / lead
    return num.scale(inv), den.scale(inv)


class RatFunc:
    """An element of Q(X) in reduced canonical form: gcd(num, den) = 1 and den
    monic. All operations return reduced results."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _canonical=False):
        if isinstance(num, (int, Fraction)):
            num = Poly((num,))
        if den is None:
            den = _P_ONE
        elif isinstance(den, (int, Fraction)):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("division by the zero function")
        if not _canonical:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num: Poly, den: Poly):
        if num.is_zero:
            return _P_ZERO, _P_ONE
        vn, vd = num.valuation, den.valuation
        v = min(vn, vd)
        if v:
            num, den = num.unshift(v), den.unshift(v)
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        return _monicize(num, den)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero():
        return _RF_ZERO

    @staticmethod
    def one():
        return _RF_ONE

    @staticmethod
    def x():
        return _RF_X

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = poly_gcd(self.den, other.den)
        if g.degree == 0:
            num = self.num * other.den + other.num * self.den
            if num.is_zero:
                return _RF_ZERO
            return RatFunc(*_monicize(num, self.den * other.den), _canonical=True)
        da = self.den.exact_div(g)
        db = other.den.exact_div(g)
        num = self.num * db + other.num * da
        if num.is_zero:
            return _RF_ZERO
        h = poly_gcd(num, g)
        den = da * other.den
        if h.degree > 0:
            num = num.exact_div(h)
            den = den.exact_div(h)
        return RatFunc(*_monicize(num, den), _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if self.is_zero or other.is_zero:
            return _RF_ZERO
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        na = self.num.exact_div(g1) if g1.degree > 0 else self.num
        db = other.den.exact_div(g1) if g1.degree > 0 else other.den
        nb = other.num.exact_div(g2) if g2.degree > 0 else other.num
        da = self.den.exact_div(g2) if g2.degree > 0 else self.den
        return RatFunc(*_monicize(na * nb, da * db), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        return other / self

    def reciprocal(self):
        if self.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(*_monicize(self.den, self.num), _canonical=True)

    # -- evaluation ----------------------------------------------------------

    def eval_exact(self, x):
        """Evaluate at an exact rational point; PoleError on a genuine pole."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError("eval_exact expects an exact rational point")
        dv = self.den.eval(x)
        if dv == 0:
            raise PoleError(f"pole at X = {x}")
        nv = self.num.eval(x)
        return Fraction(nv) / Fraction(dv)

    # -- display -------------------------------------------------------------

    def __str__(self):
        if self.den == _P_ONE:
            return str(self.num)
        ns = str(self.num)
        if " " in ns:
            ns = f"({ns})"
        ds = str(self.den)
        if " " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


_RF_ZERO = RatFunc(_P_ZERO, _P_ONE, _canonical=True)
_RF_ONE = RatFunc(_P_ONE, _P_ONE, _canonical=True)
_RF_X = RatFunc(_P_X, _P_ONE, _canonical=True)


def signed_power(n: int) -> RatFunc:
    """(-X)^n for any integer n; negative n puts X^|n| in the denominator."""
    sign = -1 if n % 2 else 1
    if n >= 0:
        return RatFunc(Poly.monomial(n, sign), _P_ONE, _canonical=True)
    return RatFunc(Poly.const(sign), Poly.monomial(-n), _canonical=True)


# ---------------------------------------------------------------------------
# matrices over Q(X)
# ---------------------------------------------------------------------------


class FMatrix:
    """An immutable matrix over Q(X), stored as a tuple of row tuples."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(e if isinstance(e, RatFunc) else RatFunc(e) for e in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows

    @staticmethod
    def identity(n: int) -> FMatrix:
        return FMatrix(
            tuple(
                tuple(_RF_ONE if i == j else _RF_ZERO for j in range(n))
                for i in range(n)
            )
        )

    @property
    def n_rows(self):
        return len(self.rows)

    @property
    def n_cols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if isinstance(other, FMatrix):
            return fm_mul(self, other)
        return NotImplemented

    def scale(self, s: RatFunc) -> FMatrix:
        return FMatrix(tuple(tuple(s * e for e in r) for r in self.rows))

    def __add__(self, other):
        return FMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        return FMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)


def fm_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_rows}x{a.n_cols} times {b.n_rows}x{b.n_cols}")
    bt = list(zip(*b.rows))
    out = []
    for ra in a.rows:
        row = []
        for cb in bt:
            acc = _RF_ZERO
            for x, y in zip(ra, cb):
                if x.is_zero or y.is_zero:
                    continue
                acc = acc + x * y
            row.append(acc)
        out.append(tuple(row))
    return FMatrix(tuple(out))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {
        "num": [str(Fraction(c)) for c in f.num.coeffs],
        "den": [str(Fraction(c)) for c in f.den.coeffs],
    }


def ratfunc_from_obj(obj: dict) -> RatFunc:
    return RatFunc(
        Poly([Fraction(s) for s in obj["num"]]),
        Poly([Fraction(s) for s in obj["den"]]),
    )


def fmatrix_to_obj(m: FMatrix, name: str | None = None, N: int | None = None) -> dict:
    obj = {
        "n_rows": m.n_rows,
        "n_cols": m.n_cols,
        "entries": [[ratfunc_to_obj(e) for e in row] for row in m.rows],
    }
    if name is not None:
        obj["matrix_name"] = name
    if N is not None:
        obj["N"] = N
    return obj


def fmatrix_from_obj(obj: dict) -> FMatrix:
    return FMatrix(tuple(tuple(ratfunc_from_obj(e) for e in row) for row in obj["entries"]))
