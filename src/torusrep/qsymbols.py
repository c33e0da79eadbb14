"""Quantum-integer calculus over Q(X).

All symbols live p-independently inside Q(X), with the building block
(-X)^n supplied by `field.signed_power`. The index-shifted eigenvalue and the
pairing ratio are the reflected forms valid at every primitive 2p-th root of
unity, which is what makes them independent of the level.

Products and quotients of the quantum integers {k} and {k}+ (the pairing
ratios here, the twist generators in `repbuild`) are formed from their
cyclotomic exponents by `_product_form`, with no gcd and no division.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

from .field import Poly, RatFunc, _int_mul, signed_power


@dataclasses.dataclass(frozen=True)
class QContext:
    """Fixes the representation dimension N >= 2 for one session."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")


@lru_cache(maxsize=None)
def qint(n: int) -> RatFunc:
    """Quantum integer {n} = (-X)^n - (-X)^(-n)."""
    return signed_power(n) - signed_power(-n)


@lru_cache(maxsize=None)
def qint_plus(n: int) -> RatFunc:
    """{n}+ = (-X)^n + (-X)^(-n)."""
    return signed_power(n) + signed_power(-n)


@lru_cache(maxsize=None)
def _lambda_shifted(k: int, N: int) -> RatFunc:
    return -qint_plus(2 * N - 2 * k - 1)


def lambda_shifted(k: int, ctx: QContext) -> RatFunc:
    """The curve-operator eigenvalue at shifted color index c + k, as the
    p-independent reflected form -((-X)^(2k+1-2N) + (-X)^(2N-2k-1)), which is
    -{2N-2k-1}+."""
    if not 0 <= k <= ctx.N - 1:
        raise ValueError(f"index k = {k} outside 0..{ctx.N - 1}")
    return _lambda_shifted(k, ctx.N)


def rhat(n: int, m: int, ctx: QContext) -> RatFunc:
    """Hopf-pairing norm ratio of basis vectors n and m. For n > m it is the
    telescoped product (-1)^(n-m) * prod_j {2N-2j}/{j} * prod_k {k}+ over
    j = m+1..n and k = 2N-n..2N-m-1; rhat(n, n) = 1 and rhat(m, n) =
    1/rhat(n, m)."""
    N = ctx.N
    if not (0 <= n <= N - 1 and 0 <= m <= N - 1):
        raise ValueError(f"indices ({n}, {m}) outside 0..{N - 1}")
    if n == m:
        return RatFunc.one()
    r = _rhat_below(max(n, m), min(n, m), N)
    return r if n > m else r.reciprocal()


@lru_cache(maxsize=None)
def _rhat_below(n: int, m: int, N: int) -> RatFunc:
    """rhat(n, m) for n > m, read off its cyclotomic exponents."""
    factors = [(2 * N - 2 * j, False, 1) for j in range(m + 1, n + 1)]
    factors += [(j, False, -1) for j in range(m + 1, n + 1)]
    factors += [(k, True, 1) for k in range(2 * N - n, 2 * N - m)]
    return _product_form((-1) ** (n - m), 0, factors)


# ---------------------------------------------------------------------------
# products of quantum integers by cyclotomic exponents
#
# X^(2k) - 1 = prod_{d | 2k} Phi_d and X^(2k) + 1 = prod_{d | 4k, d !| 2k}
# Phi_d, so for k >= 1
#   {k}  = (-1)^k X^-k prod_{d | 2k} Phi_d,
#   {k}+ = (-1)^k X^-k prod_{d | 4k, d !| 2k} Phi_d,
# and a product or quotient of such symbols is a sign, a power of X and a map
# d -> e_d of exponents that add. The Phi_d are distinct monic irreducibles,
# so collecting the positive exponents in the numerator and the negative ones
# in the denominator gives the canonical RatFunc (gcd 1, den monic) with no
# gcd and no division.
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
    """Coefficients of Phi_d (ascending degree). For d > 1, Phi_d = prod_{e | d}
    (1 - X^e)^moebius(d/e), expanded as a power series cut at degree phi(d):
    a factor (1 - X^e) subtracts the series shifted by e, its inverse
    1 + X^e + X^2e + ... adds it cumulatively."""
    if d == 1:
        return (-1, 1)
    deg = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    c = [1] + [0] * deg
    for e in _divisors(d):
        mu = _moebius(d // e)
        if mu == 1:
            for i in range(deg, e - 1, -1):
                c[i] -= c[i - e]
        elif mu == -1:
            for i in range(e, deg + 1):
                c[i] += c[i - e]
    return tuple(c)


def _poly_product(polys) -> list[int]:
    """Product of integer coefficient lists by a balanced tree of `_int_mul`,
    so the large products pair operands of similar length."""
    polys = list(polys) or [(1,)]
    while len(polys) > 1:
        paired = [_int_mul(a, b) for a, b in zip(polys[::2], polys[1::2])]
        polys = paired + polys[len(paired) * 2 :]
    return list(polys[0])


def _product_form(sign: int, power: int, factors) -> RatFunc:
    """sign * (-X)^power * prod {k}^e, with {k}+^e where `plus`, over the
    triples (k, plus, e) in `factors` (k >= 1), in canonical form: with a the
    net power of X, num = +-X^max(a, 0) prod_{e_d > 0} Phi_d^e_d and
    den = X^max(-a, 0) prod_{e_d < 0} Phi_d^-e_d."""
    odd, xpow, exps = power, power, {}
    for k, plus, e in factors:
        odd += k * e
        xpow -= k * e
        for d in _divisors(4 * k if plus else 2 * k):
            if not plus or (2 * k) % d:
                exps[d] = exps.get(d, 0) + e
    num = _poly_product(_cyclotomic(d) for d, e in exps.items() for _ in range(e))
    den = _poly_product(_cyclotomic(d) for d, e in exps.items() for _ in range(-e))
    if odd % 2:
        sign = -sign
    num = [0] * max(xpow, 0) + [sign * c for c in num]
    den = [0] * max(-xpow, 0) + den
    return RatFunc(Poly._raw(num), Poly._raw(den), _canonical=True)
