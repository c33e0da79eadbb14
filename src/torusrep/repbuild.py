"""Construction of the level-independent symbolic matrices.

The twist generators are built straight from their closed product forms.
With [a, b] = {a}!/({b}! {a-b}!) and e(m, n) = -m(2N-1-m) - (N-1-m)(n-m),
for n >= m

    T[m][n]  = (-X)^e(m,n) [N-1-m, n-m] prod_{k=2N-n}^{2N-m-1} {k}+,
    T*[n][m] = T[m][n] / rhat(n, m)
             = (-1)^(n-m) (-X)^e(m,n) [N-1-m, n-m] prod_{j=m+1}^{n} {j}/{2N-2j},

and both vanish on the other side of the diagonal. At X = -1 these are the
factorial closed forms of `classical.closed_limits`. Each entry is a sign, a
power of X and cyclotomic exponents (`qsymbols._product_form`), so its
canonical form is read off with no gcd, division or recurrence.

The curve-operator matrix z is lower bidiagonal; its Hopf transpose y, the
twisted operator z', and the tridiagonal column-recurrence matrices
M^(n) = (z' - lambda_{c+n} I) / {n+1} (column n+1 of T is M^(n) times column
n) are assembled from it over Q(X), on first use only (by `verify` and
`matrices`; the certificate scans evaluate the product forms at A_p without
building anything). Everything lives in GL_N(Q(X)) and can be evaluated
exactly at X = -1.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property, lru_cache

from .errors import PoleError
from .field import FMatrix, Poly, RatFunc, fm_mul, poly_gcd
from .qsymbols import QContext, _product_form, lambda_shifted, qint, rhat


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
    y[m][l] = rhat(l, m) * z[l][m], formed only where z[l][m] is nonzero."""
    N = ctx.N
    zero = RatFunc.zero()
    return FMatrix(
        tuple(
            tuple(zero if z[l][m].is_zero else rhat(l, m, ctx) * z[l][m] for l in range(N))
            for m in range(N)
        )
    )


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


def _twist_factors(N: int):
    """The product forms of T and T* (module docstring), written down once for
    the exact build and for `numeric`'s evaluation at A_p: for each, the
    nonzero entries in row-major order as ((i, j), sign, power, factors), the
    entry being sign * (-X)^power * prod {k}^e ({k}+^e where plus) over the
    triples (k, plus, e) in factors."""
    t, tstar = [], []
    for m in range(N):
        for n in range(m, N):
            e = -m * (2 * N - 1 - m) - (N - 1 - m) * (n - m)
            # [N-1-m, n-m] = prod_{j=1}^{n-m} {N-1-n+j}/{j}
            binom = [(N - 1 - n + j, False, 1) for j in range(1, n - m + 1)]
            binom += [(j, False, -1) for j in range(1, n - m + 1)]
            plus = [(k, True, 1) for k in range(2 * N - n, 2 * N - m)]
            ratio = [(j, False, 1) for j in range(m + 1, n + 1)]
            ratio += [(2 * N - 2 * j, False, -1) for j in range(m + 1, n + 1)]
            t.append(((m, n), 1, e, binom + plus))
            tstar.append(((n, m), (-1) ** (n - m), e, binom + ratio))
    return t, sorted(tstar)


def _twists(N: int) -> tuple[FMatrix, FMatrix]:
    """(T, T*) entry by entry from their product forms (`_twist_factors`)."""
    out = []
    for entries in _twist_factors(N):
        rows = [[RatFunc.zero()] * N for _ in range(N)]
        for (i, j), sign, power, factors in entries:
            rows[i][j] = _product_form(sign, power, factors)
        out.append(FMatrix(tuple(map(tuple, rows))))
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class RepSet:
    """All symbolic matrices for one dimension N, immutable once built. The
    generators T and T* are built with the set; z, y, z' and the M^(n) on
    first use."""

    ctx: QContext
    t_hat: FMatrix
    tstar_hat: FMatrix

    @cached_property
    def z_hat(self) -> FMatrix:
        return build_z(self.ctx)

    @cached_property
    def y_hat(self) -> FMatrix:
        return build_y(self.ctx, self.z_hat)

    @cached_property
    def zprime_hat(self) -> FMatrix:
        return build_zprime(self.ctx, self.y_hat, self.z_hat)

    @cached_property
    def m_hat(self) -> tuple[FMatrix, ...]:
        return tuple(build_m(n, self.ctx, self.zprime_hat) for n in range(self.ctx.N - 1))


@lru_cache(maxsize=None)
def build_repset(ctx: QContext) -> RepSet:
    """The symbolic matrices of dimension N (the one build entry point)."""
    return RepSet(ctx, *_twists(ctx.N))


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
