"""Exact values in Q(X): dense polynomials over Z, and elements and small
matrices of Q(X) held in canonical form, which is how a form is printed.

A `Poly` divides exactly (by a power of its variable too), but is never added
to or multiplied by another: every sum needed is one of coefficient lists in
Y = X^2 (`qsymbols._sum_factors`), and every product one of cyclotomic
polynomials in Y, which `qsymbols._series` expands as one power series. A
`Poly` in X is made only to print a form, its coefficients in Y interleaved
(`qsymbols._sum_forms`).

Coefficients are Python ints only: the representations are integral
(Gilmer-Masbaum), and every entry built has a monic denominator. A `RatFunc`
is in the canonical form of Q(X) = Frac(Z[X]): num and den in Z[X] with no
common factor, polynomial or integer, and den with a positive leading
coefficient. For a monic den this is num and den coprime over Q with den
monic. Nothing here computes a common divisor or does field arithmetic:
`qsymbols` reaches the canonical form of every entry from its cyclotomic
factors in Y, and `repbuild` decides identities on integer polynomials.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


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
        """Unchecked constructor for int coefficients (the results of the
        arithmetic here and of `qsymbols`). Trailing zeros are trimmed."""
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        p = object.__new__(Poly)
        p.coeffs = tuple(cs[:n]) if n < len(cs) else tuple(cs)
        return p

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
        """Multiplicity of the root 0 (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def unshift(self, k):
        """Divide by the k-th power of the variable, assuming valuation >= k."""
        if k == 0 or self.is_zero:
            return self
        return Poly._raw(self.coeffs[k:])

    # -- arithmetic ---------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """An element of Q(X) in canonical form (module docstring). The
    constructor takes num and den already in that form, as the builders in
    `qsymbols` make them, and does not reduce; an int or Fraction is taken as
    the constant it is."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        if isinstance(num, (int, Fraction)):
            num, den = Poly((num.numerator,)), Poly((num.denominator,))
        if den.is_zero:
            raise ZeroDivisionError("division by the zero function")
        self.num = num
        self.den = den

    @staticmethod
    def zero():
        return _RF_ZERO

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


_RF_ZERO = RatFunc(_P_ZERO)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }


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
