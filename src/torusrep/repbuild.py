"""Construction of the level-independent symbolic matrices.

The curve-operator matrix z is lower bidiagonal; its Hopf transpose y, the
twisted operator z', and the tridiagonal column-recurrence matrices
M^(n) = (z' - lambda_{c+n} I) / {n+1} are assembled from it. The twist
generator That has column n+1 = M^(n) * column n starting from
e = (1, 0, ..., 0); it is formed as ((z' - lambda_{c+n} I) * column n) / {n+1},
so the inner products stay among Laurent polynomials and each column entry
pays one division. Tstar is recovered through the pairing ratios. Everything
lives in GL_N(Q(X)) and can be evaluated exactly at X = -1.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

from .errors import PoleError
from .field import FMatrix, Poly, RatFunc, fm_inv, fm_mul, poly_gcd
from .qsymbols import QContext, lambda_shifted, qint, rhat


def build_z(ctx: QContext) -> FMatrix:
    """Lower-bidiagonal matrix of the longitude curve operator: diagonal entry
    m is the shifted eigenvalue, subdiagonal entry (m, m-1) is {m}."""
    N = ctx.N
    rows = []
    for m in range(N):
        row = [RatFunc.zero()] * N
        row[m] = lambda_shifted(m, ctx)
        if m >= 1:
            row[m - 1] = qint(m)
        rows.append(tuple(row))
    return FMatrix(tuple(rows))


def build_y(ctx: QContext, z: FMatrix) -> FMatrix:
    """Meridian curve operator: the transpose of z through the Hopf pairing,
    y[m][l] = rhat(l, m) * z[l][m]."""
    return _pairing_transpose(ctx, z)


def build_zprime(ctx: QContext, y: FMatrix, z: FMatrix) -> FMatrix:
    """Image of the longitude under the meridian twist, via the skein relation:
    (X * y@z - X^(-1) * z@y) / {2}."""
    x = RatFunc.x()
    lhs = fm_mul(y, z).scale(x)
    rhs = fm_mul(z, y).scale(x.reciprocal())
    inv2 = qint(2).reciprocal()
    return (lhs - rhs).scale(inv2)


def build_m(n: int, ctx: QContext, zprime: FMatrix) -> FMatrix:
    """Column-recurrence matrix M^(n) = (z' - lambda_{c+n} I) / {n+1}."""
    if not 0 <= n <= ctx.N - 2:
        raise ValueError(f"recurrence index n = {n} outside 0..{ctx.N - 2}")
    N = ctx.N
    lam = lambda_shifted(n, ctx)
    inv = qint(n + 1).reciprocal()
    rows = []
    for m in range(N):
        row = list(zprime[m])
        row[m] = row[m] - lam
        rows.append(tuple(e * inv for e in row))
    return FMatrix(tuple(rows))


def build_tstar(ctx: QContext, that: FMatrix) -> FMatrix:
    """The second twist generator through the pairing: tstar[n][m] =
    that[m][n] / rhat(n, m) = rhat(m, n) * that[m][n]."""
    return _pairing_transpose(ctx, that)


def _pairing_transpose(ctx: QContext, a: FMatrix) -> FMatrix:
    """out[i][j] = rhat(j, i) * a[j][i]. The ratio is formed only where a[j][i]
    is nonzero: z is bidiagonal and That triangular, so most pairs are never
    needed."""
    N = ctx.N
    zero = RatFunc.zero()
    return FMatrix(
        tuple(
            tuple(zero if a[j][i].is_zero else rhat(j, i, ctx) * a[j][i] for j in range(N))
            for i in range(N)
        )
    )


@dataclasses.dataclass(frozen=True)
class RepSet:
    """All symbolic matrices for one dimension N, immutable once built."""

    ctx: QContext
    z_hat: FMatrix
    y_hat: FMatrix
    zprime_hat: FMatrix
    m_hat: tuple[FMatrix, ...]
    t_hat: FMatrix
    tstar_hat: FMatrix


@lru_cache(maxsize=None)
def build_repset(ctx: QContext) -> RepSet:
    N = ctx.N
    z = build_z(ctx)
    y = build_y(ctx, z)
    zprime = build_zprime(ctx, y, z)
    m_hat = tuple(build_m(n, ctx, zprime) for n in range(N - 1))

    # Column n+1 = M^(n) * column n, formed as ((z' - lambda_{c+n} I) *
    # column n) / {n+1}: z' and the columns have Laurent entries, so only the
    # final division pays a non-trivial gcd.
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
    tstar = build_tstar(ctx, that)
    return RepSet(ctx, z, y, zprime, m_hat, that, tstar)


def verify_braid(ctx: QContext) -> bool:
    """Exact braid relation That Tstar That == Tstar That Tstar in GL_N(Q(X))."""
    rs = build_repset(ctx)
    return _braid_holds(rs.t_hat, rs.tstar_hat)


def _braid_holds(t: FMatrix, tstar: FMatrix) -> bool:
    return relation_checks(t, tstar)[0]


def relation_checks(t: FMatrix, tstar: FMatrix) -> tuple[bool, bool]:
    """Exact checks over Q(X): (T T* T == T* T T*, the center C = (T T* T)^2
    commutes with T and with T*).

    Write T = P_T / D_T and T* = P_S / D_S with integer polynomial matrices P
    and integer polynomials D. Then the braid relation is
    D_S P_T P_S P_T == D_T P_S P_T P_S, and with C' = (P_T P_S P_T)^2 the
    center commutes iff C' P_T == P_T C' and C' P_S == P_S C' (both sides of
    a commutator share one denominator). Every coefficient of the difference
    of two sides is at most the sum of their l1-norms, bounded through the
    nonnegative matrices of entry norms (||fg||_1 <= ||f||_1 ||g||_1). With
    B = 2^w above twice the largest bound, an integer polynomial with
    coefficients below B/2 in absolute value is zero iff its value at B is
    zero, so both identities are decided exactly by comparing Python-int
    matrices at X = B (Kronecker substitution): no gcd, no probability."""
    pt, dt = _clear_denominators(t)
    ps, ds = _clear_denominators(tstar)
    nt, ns = _norms(pt), _norms(ps)
    ntst = _int_matmul(_int_matmul(nt, ns), nt)
    nsts = _int_matmul(_int_matmul(ns, nt), ns)
    nc = _int_matmul(ntst, ntst)
    bound = max(
        _max_sum(_int_scale(ntst, _l1(ds)), _int_scale(nsts, _l1(dt))),
        _max_sum(_int_matmul(nc, nt), _int_matmul(nt, nc)),
        _max_sum(_int_matmul(nc, ns), _int_matmul(ns, nc)),
    )
    w = (2 * bound).bit_length()  # B = 2^w > 2 * bound

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


def _clear_denominators(m: FMatrix):
    """(P, D) with m = P / D: D the lcm of the entry denominators times the
    integer lcm of the coefficient denominators, P a matrix of integer
    coefficient lists (ascending degree), D one such list."""
    dens = dict.fromkeys(e.den for row in m.rows for e in row)
    den = Poly.const(1)
    for d in dens:
        den = den * d.exact_div(poly_gcd(den, d))
    cofactor = {d: den.exact_div(d) for d in dens}
    nums = [[e.num * cofactor[e.den] for e in row] for row in m.rows]
    scale = math.lcm(
        *(c.denominator for p in (den, *(q for r in nums for q in r)) for c in p.coeffs)
    )
    return (
        [[[int(c * scale) for c in q.coeffs] for q in row] for row in nums],
        [int(c * scale) for c in den.coeffs],
    )


def _l1(coeffs) -> int:
    return sum(abs(c) for c in coeffs)


def _norms(p):
    return [[_l1(q) for q in row] for row in p]


def _eval_at(coeffs, w: int) -> int:
    """Value of an integer polynomial at X = 2^w (Horner by shifts)."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc << w) + c
    return acc


def _eval_matrix_at(p, w: int):
    return [[_eval_at(q, w) for q in row] for row in p]


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _int_scale(a, s: int):
    return [[s * x for x in row] for row in a]


def _max_sum(a, b) -> int:
    return max(x + y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rep_of_word(w, ctx: QContext) -> FMatrix:
    """Image of a mapping-class word: the ordered product of That/Tstar powers,
    with negative exponents through the exact inverse. An exact reference for
    the tests: the certificate scans form words numerically
    (`numeric.convergence_table`) and `verify` uses `relation_checks`."""
    rs = build_repset(ctx)
    return rep_of_word_in(w, rs)


@lru_cache(maxsize=None)
def _gen_inverse(ctx: QContext, which: str) -> FMatrix:
    rs = build_repset(ctx)
    return fm_inv(rs.t_hat if which == "t" else rs.tstar_hat)


def rep_of_word_in(w, rs: RepSet) -> FMatrix:
    from .mcg import Gen  # deferred: mcg has no dependency on this module

    out = FMatrix.identity(rs.ctx.N)
    for gen, exp in w.letters:
        if exp > 0:
            base = rs.t_hat if gen is Gen.TY else rs.tstar_hat
        else:
            base = _gen_inverse(rs.ctx, "t" if gen is Gen.TY else "ts")
        out = fm_mul(out, _fm_power(base, abs(exp)))
    return out


def _fm_power(base: FMatrix, e: int) -> FMatrix:
    """base^e for e >= 1 by square-and-multiply: O(log e) products."""
    out = None
    while True:
        if e & 1:
            out = base if out is None else fm_mul(out, base)
        e >>= 1
        if not e:
            return out
        base = fm_mul(base, base)


def classical_limit(mat: FMatrix):
    """Entrywise exact evaluation at X = -1; the PoleError names the entry."""
    out = []
    for i, row in enumerate(mat.rows):
        vals = []
        for j, e in enumerate(row):
            try:
                vals.append(e.eval_exact(-1))
            except PoleError:
                raise PoleError(f"entry ({i}, {j}) has a pole at X = -1", entry=(i, j))
        out.append(tuple(vals))
    return tuple(out)


def rational_matrix_eq(a, b) -> bool:
    """Exact equality of two rational matrices given as nested sequences."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if Fraction(x) != Fraction(y):
                return False
    return True
