"""Quantum-integer calculus over Q(X).

All symbols live p-independently inside Q(X), with the building block
(-X)^n supplied by `field.signed_power`. The index-shifted eigenvalue and the
pairing ratio are the reflected forms valid at every primitive 2p-th root of
unity, which is what makes them independent of the level.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

from .field import RatFunc, signed_power


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
def qfact(n: int) -> RatFunc:
    """{n}! = {1}{2}...{n}, with {0}! = 1 and {n}! = 0 for negative n."""
    if n < 0:
        return RatFunc.zero()
    if n == 0:
        return RatFunc.one()
    return qfact(n - 1) * qint(n)


def mu(n: int) -> RatFunc:
    """Twist eigenvalue mu_n = (-X)^(n(n+2))."""
    return signed_power(n * (n + 2))


@lru_cache(maxsize=None)
def _lambda_shifted(k: int, N: int) -> RatFunc:
    return -(signed_power(-2 * N + 2 * k + 1) + signed_power(2 * N - 2 * k - 1))


def lambda_shifted(k: int, ctx: QContext) -> RatFunc:
    """The curve-operator eigenvalue at shifted color index c + k, as the
    p-independent reflected form -((-X)^(2k+1-2N) + (-X)^(2N-2k-1))."""
    if not 0 <= k <= ctx.N - 1:
        raise ValueError(f"index k = {k} outside 0..{ctx.N - 1}")
    return _lambda_shifted(k, ctx.N)


@lru_cache(maxsize=None)
def _rhat_step(j: int, N: int) -> RatFunc:
    """The adjacent ratio rhat(j, j - 1) = -{2N-2j}/{j} * {2N-j}+."""
    return -(qint(2 * N - 2 * j) / qint(j)) * qint_plus(2 * N - j)


@lru_cache(maxsize=None)
def _rhat_row(n: int, N: int) -> tuple[RatFunc, ...]:
    """(rhat(n, 0), ..., rhat(n, n)), filled downwards from rhat(n, n) = 1 by
    rhat(n, m) = rhat(n, m + 1) * rhat(m + 1, m)."""
    row = [RatFunc.one()]
    for m in range(n - 1, -1, -1):
        step = _rhat_step(m + 1, N)
        row.append(step if m == n - 1 else row[-1] * step)
    return tuple(reversed(row))


def rhat(n: int, m: int, ctx: QContext) -> RatFunc:
    """Hopf-pairing norm ratio of basis vectors n and m. For n > m it is the
    telescoped product (-1)^(n-m) * prod_j {2N-2j}/{j} * prod_k {k}+ over
    j = m+1..n and k = 2N-n..2N-m-1, built from the adjacent steps as
    rhat(n, m) = rhat(n, m + 1) * rhat(m + 1, m); rhat(n, n) = 1 and
    rhat(m, n) = 1/rhat(n, m)."""
    N = ctx.N
    if not (0 <= n <= N - 1 and 0 <= m <= N - 1):
        raise ValueError(f"indices ({n}, {m}) outside 0..{N - 1}")
    if n == m:
        return RatFunc.one()
    hi, lo = max(n, m), min(n, m)
    r = _rhat_step(hi, N) if hi == lo + 1 else _rhat_row(hi, N)[lo]
    return r if n > m else r.reciprocal()
