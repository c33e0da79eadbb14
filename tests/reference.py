"""Reference implementations for the tests: exact matrix inverse and word
products over Q(X), the braid and center checks by Kronecker substitution,
T and T* by the column recurrence through M^(n), the oracle's z and M^(n),
the oracle from direct raw factorial products, the rescaling character, the q-factorial and twist eigenvalue, and symbolic
matrices evaluated at A_p in 50-digit decimal arithmetic. None of these is on a production path; the tests compare the
production code against them."""

from __future__ import annotations

import cmath
import math
from decimal import Decimal, localcontext

import numpy as np

from torusrep.errors import BadPError, NearPoleError
from torusrep.field import FMatrix, RatFunc, fm_mul, signed_power
from torusrep.mcg import Gen, Word
from torusrep.numeric import DEFAULT_TOLERANCE, PSetting, _oracle_block
from torusrep.qsymbols import QContext, lambda_shifted, qint, rhat
from torusrep.repbuild import (
    _clear_denominators,
    _height_bound,
    _int_matmul,
    _int_scale,
    build_repset,
    relation_checks,
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
    one, zero = RatFunc.one(), RatFunc.zero()
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
        inv = work[col][col].reciprocal()
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f.is_zero:
                continue
            work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    return FMatrix(tuple(tuple(row[n:]) for row in work))


def fm_eq(a: FMatrix, b: FMatrix) -> bool:
    return a.n_rows == b.n_rows and a.n_cols == b.n_cols and a.rows == b.rows


# --- quantum symbols no production path uses ------------------------------------


def qfact(n: int) -> RatFunc:
    """{n}! = {1}{2}...{n}, with {0}! = 1 and {n}! = 0 for negative n."""
    out = RatFunc.zero() if n < 0 else RatFunc.one()
    for k in range(1, n + 1):
        out = out * qint(k)
    return out


def mu(n: int) -> RatFunc:
    """Twist eigenvalue mu_n = (-X)^(n(n+2))."""
    return signed_power(n * (n + 2))


# --- T and T* by the column recurrence -----------------------------------------


def pairing_transpose(ctx: QContext, a: FMatrix) -> FMatrix:
    """out[i][j] = rhat(j, i) * a[j][i], formed only where a[j][i] is nonzero."""
    N = ctx.N
    zero = RatFunc.zero()
    return FMatrix(
        tuple(
            tuple(zero if a[j][i].is_zero else rhat(j, i, ctx) * a[j][i] for j in range(N))
            for i in range(N)
        )
    )


def recurrence_twists(ctx: QContext) -> tuple[FMatrix, FMatrix]:
    """(T, T*) as the column recurrence builds them: column n+1 of T is
    ((z' - lambda_{c+n} I) * column n) / {n+1} from column 0 = e, and
    T*[n][m] = rhat(m, n) * T[m][n]."""
    N = ctx.N
    zprime = build_repset(ctx).zprime_hat
    cols = [[RatFunc.zero()] * N for _ in range(N)]
    cols[0][0] = RatFunc.one()
    for n in range(N - 1):
        prev = cols[n]
        lam = lambda_shifted(n, ctx)
        inv = qint(n + 1).reciprocal()
        nxt = []
        for m in range(N):
            acc = RatFunc.zero()
            for l in range(max(0, m - 1), min(N, m + 2)):
                if prev[l].is_zero:
                    continue
                e = zprime[m][l] - lam if l == m else zprime[m][l]
                if not e.is_zero:
                    acc = acc + e * prev[l]
            nxt.append(acc * inv)
        cols[n + 1] = nxt
    that = FMatrix(tuple(tuple(cols[n][m] for n in range(N)) for m in range(N)))
    return that, pairing_transpose(ctx, that)


# --- exact word products -------------------------------------------------------


def verify_braid(ctx: QContext) -> bool:
    """Exact braid relation T T* T == T* T T* in GL_N(Q(X))."""
    rs = build_repset(ctx)
    return braid_holds(rs.t_hat, rs.tstar_hat)


def braid_holds(t: FMatrix, tstar: FMatrix) -> bool:
    return relation_checks(t, tstar)[0]


def rep_of_word(w: Word, ctx: QContext) -> FMatrix:
    """Image of a mapping-class word: the ordered product of T/T* powers, with
    negative exponents through the exact inverse."""
    rs = build_repset(ctx)
    out = FMatrix.identity(ctx.N)
    for gen, exp in w.letters:
        base = rs.t_hat if gen is Gen.TY else rs.tstar_hat
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


# --- the exact checks by Kronecker substitution -------------------------------


def kronecker_relation_checks(t: FMatrix, tstar: FMatrix) -> tuple[bool, bool]:
    """`relation_checks` by Kronecker substitution: the same (P, D) forms and
    height bound, but each identity is decided by comparing Python-int
    matrices at X = B = 2^w with B above twice the bound, where an integer
    polynomial with coefficients below B/2 in absolute value is zero iff its
    value at B is zero."""
    pt, dt = _clear_denominators(t)
    ps, ds = _clear_denominators(tstar)
    w = (2 * _height_bound(pt, dt, ps, ds)).bit_length()  # B = 2^w > 2 * bound

    pt, ps = _eval_matrix_at(pt, w), _eval_matrix_at(ps, w)
    tst = _int_matmul(_int_matmul(pt, ps), pt)
    sts = _int_matmul(_int_matmul(ps, pt), ps)
    braid = _int_scale(tst, _eval_at(ds, w)) == _int_scale(sts, _eval_at(dt, w))
    c = _int_matmul(tst, tst)
    center = (
        _int_matmul(c, pt) == _int_matmul(pt, c)
        and _int_matmul(c, ps) == _int_matmul(ps, c)
    )
    return braid, center


def _eval_at(coeffs, w: int) -> int:
    """Value of an integer polynomial at X = 2^w (Horner by shifts)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << w) + c
    return acc


def _eval_matrix_at(p, w: int):
    return [[_eval_at(q, w) for q in row] for row in p]


# --- the oracle's intermediate matrices -----------------------------------------


def oracle_m_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """The oracle's recurrence matrices M^(n), for structural spot checks."""
    return [m_n[0] for m_n in _oracle_block(s.N, [s], tol)[3]]


def oracle_z_matrix(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """The oracle's curve-operator matrix, for spot checks of the eigenvalues."""
    return _oracle_block(s.N, [s], tol)[0][0]


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
