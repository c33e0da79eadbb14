"""Reference implementations for the tests: exact word products over Q(X),
T and T* by the column recurrence through M^(n), the oracle's z and M^(n),
and the rescaling character. None of these is on a production path; the
tests compare the production code against them."""

from __future__ import annotations

import math

from torusrep.errors import BadPError
from torusrep.field import FMatrix, RatFunc, fm_inv, fm_mul
from torusrep.mcg import Gen, Word, exponent_sum
from torusrep.numeric import DEFAULT_TOLERANCE, PSetting, _oracle_build
from torusrep.qsymbols import QContext, lambda_shifted, qint, rhat
from torusrep.repbuild import build_repset, relation_checks


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


# --- the oracle's intermediate matrices -----------------------------------------


def oracle_m_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """The oracle's recurrence matrices M^(n), for structural spot checks."""
    return _oracle_build(s, tol)[3]


def oracle_z_matrix(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """The oracle's curve-operator matrix, for spot checks of the eigenvalues."""
    return _oracle_build(s, tol)[0]


# --- the rescaling character ----------------------------------------------------


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
