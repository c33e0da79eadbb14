"""The classical target of the limit: SL2(Z) acting on homogeneous polynomials
of degree N-1 in the rescaled basis alpha_n X^(N-n-1) Y^n, plus the factorial
closed forms used as independent comparison targets for the X = -1 limits.

Every matrix here is exact in the format of the X = -1 limits
(`qsymbols.same_limit`): a pair (rows, den) of integer rows over one positive
denominator, den = 2^(N-1) (N-1)! for h_N, as alpha_n = 2^n C(N-1, n) /
(N-1)!. A rational is made only where one is printed."""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial


class SL2(namedtuple("SL2", "a b c d")):
    """A 2x2 integer matrix of determinant 1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        self = super().__new__(cls, a, b, c, d)
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1: {self}")
        return self

    @property
    def trace(self) -> int:
        return self.a + self.d

    def is_plus_minus_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d and abs(self.a) == 1

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def _binomial_expand(u: int, v: int, k: int) -> list[int]:
    """Coefficients of (u*X + v*Y)^k by Y-degree: entry j multiplies X^(k-j) Y^j."""
    return [comb(k, j) * u ** (k - j) * v**j for j in range(k + 1)]


def hN_matrix(g: SL2, N: int):
    """Matrix of g acting on degree-(N-1) homogeneous polynomials in the
    rescaled basis, as (rows, den); column n holds the coordinates of the
    image of basis vector n, computed by exact binomial convolution; entry
    (m, n) is alpha_n c / alpha_m with alpha_n = 2^n / (n! (N-1-n)!), which
    is c 2^(N-1+n-m) m! (N-1-m)! C(N-1, n) over den = 2^(N-1) (N-1)!."""
    if N < 2:
        raise ValueError("N must be >= 2")
    f = [factorial(m) * factorial(N - 1 - m) for m in range(N)]
    cols = []
    for n in range(N):
        left = _binomial_expand(g.a, g.c, N - n - 1)
        right = _binomial_expand(g.b, g.d, n)
        coeff = [0] * N  # by Y-degree m
        for i, ci in enumerate(left):
            if ci:
                for j, cj in enumerate(right):
                    coeff[i + j] += ci * cj
        cols.append([c * 2 ** (N - 1 + n - m) * f[m] * comb(N - 1, n) for m, c in enumerate(coeff)])
    return tuple(tuple(cols[n][m] for n in range(N)) for m in range(N)), 2 ** (N - 1) * factorial(N - 1)


ClosedLimits = namedtuple("ClosedLimits", "that_limit tstar_limit r_limit m_limits")


def closed_limits(N: int) -> ClosedLimits:
    """Factorial closed forms of every X = -1 limit, assembled independently of
    the symbolic construction, each a pair (rows, den) (module docstring)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    rng = range(N)
    g = [factorial(k) * factorial(N - 1 - k) for k in rng]
    # T[m][n] = 2^(n-m) [N-1-m, n-m], T*[n][m] = (-1/2)^(n-m) [n, m] (m <= n),
    # R[n][m] = (-4)^(n-m) g(m) / g(n) with g(k) = k! (N-1-k)!, and (n+1) M^(n),
    # which is m, 2(N-2m-1) and -4(N-m-1) at (m, m-1), (m, m) and (m, m+1), over
    # 1, 2^(N-1), 4^(N-1) (N-1)! (as (N-1)! / g(n) = C(N-1, n)) and n+1
    that = tuple(tuple(2 ** (n - m) * comb(N - 1 - m, n - m) if m <= n else 0 for n in rng) for m in rng)
    tstar = tuple(tuple((-1) ** (n - m) * comb(n, m) * 2 ** (N - 1 - n + m) if m <= n else 0 for m in rng)
                  for n in rng)
    r = tuple(tuple((-1) ** abs(n - m) * 4 ** (N - 1 + n - m) * g[m] * comb(N - 1, n) for m in rng) for n in rng)
    band = tuple(tuple({m - 1: m, m: 2 * (N - 2 * m - 1), m + 1: -4 * (N - m - 1)}.get(l, 0) for l in rng)
                 for m in rng)
    return ClosedLimits((that, 1), (tstar, 2 ** (N - 1)), (r, 4 ** (N - 1) * factorial(N - 1)),
                        tuple((band, n + 1) for n in range(N - 1)))
