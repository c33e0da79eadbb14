"""The classical target of the limit: SL2(Z) acting on homogeneous polynomials
of degree N-1 in the rescaled basis alpha_n X^(N-n-1) Y^n, plus the factorial
closed forms used as independent comparison targets for the X = -1 limits."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb, factorial


@dataclasses.dataclass(frozen=True)
class SL2:
    """A 2x2 integer matrix of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self}")

    @staticmethod
    def identity() -> SL2:
        return SL2(1, 0, 0, 1)

    def __mul__(self, other: SL2) -> SL2:
        return SL2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> SL2:
        return SL2(self.d, -self.b, -self.c, self.a)

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


def hN_matrix(g: SL2, N: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of g acting on degree-(N-1) homogeneous polynomials in the
    rescaled basis; column n holds the coordinates of the image of basis
    vector n, computed by exact binomial convolution; entry (m, n) is
    alpha_n c / alpha_m with alpha_n = 2^n / (n! (N-1-n)!), formed as one
    integer quotient."""
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
        cols.append([Fraction(c * 2**n * f[m], 2**m * f[n]) for m, c in enumerate(coeff)])
    return tuple(tuple(cols[n][m] for n in range(N)) for m in range(N))


@dataclasses.dataclass(frozen=True)
class ClosedLimits:
    """Factorial closed forms of every X = -1 limit, assembled independently of
    the symbolic construction."""

    that_limit: tuple[tuple[Fraction, ...], ...]
    tstar_limit: tuple[tuple[Fraction, ...], ...]
    r_limit: tuple[tuple[Fraction, ...], ...]
    m_limits: tuple[tuple[tuple[Fraction, ...], ...], ...]


def closed_limits(N: int) -> ClosedLimits:
    if N < 2:
        raise ValueError("N must be >= 2")
    rng = range(N)
    g = [factorial(k) * factorial(N - 1 - k) for k in rng]
    # T[m][n] = 2^(n-m) [N-1-m, n-m], T*[n][m] = (-1/2)^(n-m) [n, m] (m <= n)
    # and R[n][m] = (-4)^(n-m) g(m) / g(n) with g(k) = k! (N-1-k)!
    that = tuple(tuple(Fraction(2 ** (n - m) * comb(N - 1 - m, n - m) if m <= n else 0) for n in rng) for m in rng)
    tstar = tuple(tuple(Fraction((-1) ** (n - m) * comb(n, m), 2 ** (n - m)) if m <= n else Fraction(0) for m in rng)
                  for n in rng)
    r = tuple(tuple(Fraction((-4) ** max(n - m, 0) * g[m], (-4) ** max(m - n, 0) * g[n]) for m in rng) for n in rng)
    ms = []
    for n in range(N - 1):
        rows = [[Fraction(0)] * N for _ in rng]
        for m in rng:  # (n + 1) M^(n)[m][l] at l = m - 1, m, m + 1
            for l, v in ((m - 1, m), (m, 2 * (N - 2 * m - 1)), (m + 1, -4 * (N - m - 1))):
                if 0 <= l < N:
                    rows[m][l] = Fraction(v, n + 1)
        ms.append(tuple(map(tuple, rows)))
    return ClosedLimits(that, tstar, r, tuple(ms))
