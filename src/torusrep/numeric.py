"""Everything level-dependent and floating point: the evaluation root, an
independent per-p oracle built straight from the level-dependent definitions,
the twist generators at A_p from their closed product forms, matrix
evaluation, spectral radii, convergence tables, and the infinite-order
certificate for pseudo-Anosov classes.

Per-level work is O(p + N^3) plus the dense N x N linear algebra: the oracle
tabulates its powers and factorials once per level, and the scans evaluate T
and T* from their product forms over a block of levels (`eval_twists`).
`eval_matrix` evaluates any symbolic matrix at one point, for `matrices --eval`.

The evaluation root is A_p = -exp(2 pi i k/p) with gcd(k, p) = 1 (default
k = 1), the primitive 2p-th root of unity closest to -1. Its defining property
(-A_p)^p = 1 is what collapses the shifted-index symbols to the p-independent
forms in `qsymbols`, so the oracle here must agree with the symbolic build
evaluated at A_p.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from functools import lru_cache

import numpy as np

from .classical import hN_matrix
from .errors import BadPError, ConvergenceError, NearPoleError, TooLargeError
from .field import FMatrix
from .mcg import Gen, NTClass, Word, classify, sl2_image, stretch_factor
from .repbuild import _twist_factors

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MARGIN = 1e-6
MAX_EIG_DIM = 32
BLOCK_LEVELS = 64  # levels evaluated together: memory O(BLOCK_LEVELS N^2)


def primitive_root(p: int, k: int = 1) -> complex:
    """A_p = -exp(2 pi i k/p): a primitive 2p-th root of unity with
    (-A_p)^p = 1, tending to -1 as p grows (for k = 1)."""
    return -cmath.exp(2j * cmath.pi * k / p)


@dataclasses.dataclass(frozen=True)
class PSetting:
    """One level: odd p >= 2N+1 with the derived color shift and root."""

    p: int
    N: int
    k: int = 1

    def __post_init__(self):
        if self.N < 2:
            raise BadPError(f"N must be >= 2, got {self.N}")
        if self.p % 2 == 0 or self.p < 2 * self.N + 1:
            raise BadPError(f"need odd p >= 2N+1 = {2 * self.N + 1}, got p = {self.p}")
        if math.gcd(self.k, self.p) != 1:
            raise BadPError(f"root index k = {self.k} is not coprime to p = {self.p}")

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    @property
    def c(self) -> int:
        return self.d - self.N

    @property
    def A(self) -> complex:
        return primitive_root(self.p, self.k)


class _RawSymbols:
    """Quantum symbols evaluated numerically at one root, with the color shift
    c appearing literally: the oracle side of the dual route. No reflection
    identities are used anywhere here.

    Per level it tabulates (-A)^n = exp(i w n) once for every |n| up to
    2c + 2N = p - 1, the largest index the definitions reach, each entry by
    `cmath.exp` with the exponent unreduced (so (-A)^p = 1 is never assumed),
    and then the prefix products {n}!, {n}!! and {n}+!. Every symbol, and so
    every pairing ratio, is then a table lookup: O(p) work per level instead of
    O(N^2 p)."""

    def __init__(self, s: PSetting, tol: float):
        w = 2.0 * math.pi * s.k / s.p  # angle of (-A)
        top = 2 * s.c + 2 * s.N
        # (-A)^0..(-A)^top, then (-A)^-top..(-A)^-1: Python's negative indexing
        # makes table[n] = (-A)^n for every |n| <= top
        table = [cmath.exp(1j * w * n) for n in range(top + 1)]
        table += [cmath.exp(1j * w * n) for n in range(-top, 0)]
        self.power = table.__getitem__  # (-A)^n
        self.qd_fact = _prefix_products(self.qd, top, 1).__getitem__  # {n}!
        self.qd_dfact = _prefix_products(self.qd, top, 2).__getitem__  # {n}!!
        self.qp_fact = _prefix_products(self.qp, top, 1).__getitem__  # {n}+!
        self._tol = tol

    def qd(self, n: int) -> complex:  # {n}
        return self.power(n) - self.power(-n)

    def qp(self, n: int) -> complex:  # {n}+
        return self.power(n) + self.power(-n)

    def lam(self, n: int) -> complex:  # curve-operator eigenvalue lambda_n
        return -self.qp(2 * n + 2)

    def guard(self, value: complex, what: str) -> complex:
        if abs(value) < self._tol:
            raise NearPoleError(f"{what} has magnitude {abs(value):.3e}")
        return value


def _prefix_products(f, top: int, step: int) -> list[complex]:
    """out[n] = f(n) f(n - step) ... down to f(1) or f(2) (out[0] = 1),
    multiplied in ascending order, for n = 0..top."""
    out = [1 + 0j] * (top + 1)
    for n in range(1, top + 1):
        out[n] = out[max(n - step, 0)] * f(n)
    return out


def _oracle_build(s: PSetting, tol: float):
    """Raw per-level construction behind `oracle_matrices`: returns
    (z, ratios, zprime, Ms, T, Tstar) as complex arrays (the tests spot-check
    z and the Ms too)."""
    N, c = s.N, s.c
    sym = _RawSymbols(s, tol)

    def pairing_ratio(n: int, m: int) -> complex:
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

    ms = []
    cols = [np.zeros(N, dtype=complex) for _ in range(N)]
    cols[0][0] = 1.0
    for n in range(N - 1):
        m_n = (zprime - sym.lam(c + n) * np.eye(N)) / sym.guard(
            sym.qd(n + 1), f"{{{n + 1}}}"
        )
        ms.append(m_n)
        cols[n + 1] = m_n @ cols[n]
    t = np.column_stack(cols)
    tstar = t.T / ratios  # tstar[n, m] = t[m, n] / R(n, m)
    return z, ratios, zprime, ms, t, tstar


def oracle_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """Independent per-level construction of (T, Tstar) from the raw
    definitions: eigenvalues -{2n+2}+ with the color shift appearing literally,
    raw factorial pairing ratios, the skein-relation twist, and the column
    recurrence. Returns two N x N complex arrays."""
    _, _, _, _, t, tstar = _oracle_build(s, tol)
    return t, tstar


def eval_matrix(mat: FMatrix, x: complex, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """Entrywise complex evaluation of a symbolic matrix at one point x, as an
    r x c array: Horner (`Poly.eval`) on numerator and denominator in CPython
    complex arithmetic, then their quotient. A denominator below `tol` in
    modulus raises NearPoleError for the first such entry in row-major
    order."""
    x = complex(x)
    out = np.empty((mat.n_rows, mat.n_cols), dtype=complex)
    for i, row in enumerate(mat.rows):
        for j, e in enumerate(row):
            den = e.den.eval(x)
            if abs(den) < tol:
                raise NearPoleError(
                    f"entry ({i}, {j}): denominator magnitude {abs(den):.3e} at X = {x}",
                    entry=(i, j),
                    point=0,
                )
            out[i, j] = e.num.eval(x) / den
    return out


@lru_cache(maxsize=None)
def _twist_plan(N: int):
    """`repbuild._twist_factors` as arrays per generator (T, then T*): entry
    rows, columns, powers of -X, quarter turns (i per {k} = 2i sin, two for a
    minus sign) and factor columns of the `eval_twists` table, 0-padded."""
    plans = []
    for entries in _twist_factors(N):
        ij, signs, powers, factors = zip(*entries)
        slots = [
            [k + (2 * N - 1) * plus + (4 * N - 1) * (e < 0) for k, plus, e in f for _ in range(abs(e))]
            for f in factors
        ]
        quarter = [sum(e for _, plus, e in f if not plus) + 1 - s for f, s in zip(factors, signs)]
        width = max(map(len, slots))
        padded = np.array([c + [0] * (width - len(c)) for c in slots], dtype=int)
        plans.append((*np.array(ij).T, np.array(powers), np.array(quarter) % 4, padded))
    return plans


def _cis(a, n):
    """(cos, sin) of 2 pi a/n for integer arrays a and n > 0, the angle
    reduced exactly in integers to the nearest quarter turn q and a rest
    |t| <= pi/4: each value is within about an ulp relative, small ones too."""
    a = a % n
    q = (4 * a + n // 2) // n
    t = (0.5 * math.pi) * ((4 * a - q * n) / n)
    c, s = np.cos(t), np.sin(t)
    q %= 4
    return np.choose(q, (c, -s, -c, s)), np.choose(q, (s, c, -s, -c))


def eval_twists(N: int, levels, tol: float = DEFAULT_TOLERANCE):
    """T and T* at the roots A_p of the given levels (PSettings of dimension
    N), as two L x N x N complex arrays, from their closed product forms
    (`repbuild._twist_factors`), without building anything exact.

    With -A_p = exp(i w), w = 2 pi k/p: (-A_p)^e = exp(i w e), {j} = 2i sin(w j)
    and {j}+ = 2 cos(w j), each angle reduced exactly (`_cis`). An entry is the
    product of its real factors and divisor reciprocals, slot by slot, times
    one unit complex for its sign, power of -X and i's: a few ulp per factor,
    and bit for bit the values of taking one level at a time.

    A divisor below `tol` in modulus (never below 2 sin(pi/p) at admissible
    levels) raises NearPoleError for the first such level (`point`), T before
    T*, first entry in row-major order (`entry`). A level too large for exact
    angle reduction in int64 raises BadPError."""
    top = max((s.p for s in levels), default=0)
    if top * (8 * N * N + 20) >= 2**63:  # bounds every integer formed below
        raise BadPError(f"level p = {top} is too large to reduce angles exactly in 64-bit integers")
    p = np.array([s.p for s in levels])[:, None]
    k = np.array([s.k % s.p for s in levels])[:, None]
    cos, sin = _cis(k * np.arange(1, 2 * N), p)
    vals = np.hstack([np.ones_like(cos[:, :1]), 2 * sin, 2 * cos])  # 1, {j}/i, {j}+
    table = np.hstack([vals, 1 / vals])
    small = np.hstack([np.zeros(vals.shape, bool), np.abs(vals) < tol])  # small divisors
    plans = _twist_plan(N)
    for lvl in np.flatnonzero(small.any(axis=1)):
        for name, (rows, cols, *_, slots) in zip(("T", "T*"), plans):
            hit = np.flatnonzero(small[lvl, slots].any(axis=1))
            if hit.size:
                i, j = int(rows[hit[0]]), int(cols[hit[0]])
                msg = f"{name} entry ({i}, {j}): a divisor is below {tol:g} at p = {levels[lvl].p}"
                raise NearPoleError(msg, entry=(i, j), point=int(lvl))
    gens = []
    for rows, cols, power, quarter, slots in plans:
        mag = np.ones((len(levels), len(rows)))
        for slot in slots.T:
            mag = mag * table[:, slot]
        re, im = _cis(4 * k * power + p * quarter, 4 * p)
        gen = np.zeros((len(levels), N, N), dtype=complex)
        gen.real[:, rows, cols], gen.imag[:, rows, cols] = mag * re, mag * im
        gens.append(gen)
    return tuple(gens)


def _blocks(levels):
    """Consecutive runs of at most BLOCK_LEVELS levels."""
    levels = list(levels)
    return (levels[i : i + BLOCK_LEVELS] for i in range(0, len(levels), BLOCK_LEVELS))


def oracle_deviation(N: int, levels, tol: float = DEFAULT_TOLERANCE) -> float:
    """Largest entrywise disagreement, over the given levels (PSettings of
    dimension N), between the closed-form generators the scans evaluate
    (`eval_twists`) and the oracle's, relative to the oracle matrix's size
    (floored at 1): max_abs(diff) / max(1, max_abs(oracle)). 0.0 for no
    levels, NaN if either side is not finite. Errors surface in level order,
    the closed form before the oracle at one level."""
    worst = 0.0
    for block in _blocks(levels):
        try:
            gens = eval_twists(N, block, tol)
        except NearPoleError as err:
            for s in block[: err.point]:  # an oracle failure at an earlier level
                oracle_matrices(s, tol)
            raise
        for i, s in enumerate(block):
            for sym, ora in zip(gens, oracle_matrices(s, tol)):
                worst = float(np.maximum(worst, max_abs(sym[i] - ora) / max(1.0, max_abs(ora))))
    return worst


def check_dimension(N: int) -> None:
    """Reject N above `MAX_EIG_DIM`, the limit of `amu`, `limit` and
    `verify`, before any work that grows with N."""
    if N > MAX_EIG_DIM:
        raise TooLargeError(f"dimension {N} exceeds bound {MAX_EIG_DIM}")


def spectral_radius(m: np.ndarray, max_dim: int = MAX_EIG_DIM) -> float:
    """Largest eigenvalue modulus of a small dense complex matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    if m.shape[0] > max_dim:
        raise ValueError(f"dimension {m.shape[0]} exceeds bound {max_dim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigenvalue solver failed: {err}") from None
    return float(np.max(np.abs(eigs)))


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-modulus norm used for all deviation measurements."""
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclasses.dataclass(frozen=True)
class TableRow:
    p: int
    spectral_radius: float
    deviation: float


@dataclasses.dataclass(frozen=True)
class AMUReport:
    """Certificate data for one word at one dimension. `p0_observed` is the
    smallest scanned level from which the spectral radius clears 1 + margin
    through the whole remaining scan; it is an empirical observation about the
    scanned range, not a claim about the true threshold."""

    word: Word
    N: int
    classification: NTClass
    stretch: float | None
    target_eig: float | None
    rows: tuple[TableRow, ...]
    p0_observed: int | None
    margin: float = DEFAULT_MARGIN


def _limit_matrix(w: Word, N: int) -> np.ndarray:
    return np.array(hN_matrix(sl2_image(w), N), dtype=complex)


def convergence_table(w: Word, N: int, p_list, tol: float = DEFAULT_TOLERANCE):
    """Per-level rows (p, spectral radius, deviation from the classical limit).

    Levels go in blocks of `BLOCK_LEVELS` (memory O(BLOCK_LEVELS N^2) for any
    range). Each block evaluates T and T* at its roots A_p from their closed
    product forms (`eval_twists`; nothing exact is built, nothing is Horner
    evaluated), inverts one where a letter has a negative exponent, and forms
    the word on the stack of levels: `matrix_power` per letter (cost
    logarithmic in the exponent) and `@` across letters. The rows are bit for
    bit those of one level at a time.

    The symbolic representation already carries the character rescaling (its
    generators are the matrices of the rescaled twists), so evaluating at A_p
    and comparing against the SL2(Z) action measures exactly the
    character-normalized distance of the underlying TQFT matrices.

    N above `MAX_EIG_DIM` is rejected before any evaluation
    (`check_dimension`)."""
    check_dimension(N)
    target = _limit_matrix(w, N)
    rows = []
    for block in _blocks(PSetting(p, N) for p in sorted(p_list)):
        t, tstar = eval_twists(N, block, tol)
        m_p = np.eye(N, dtype=complex)
        for gen, exp in w.letters:
            base = t if gen is Gen.TY else tstar
            if exp < 0:
                base = np.linalg.inv(base)
            m_p = m_p @ np.linalg.matrix_power(base, abs(exp))
        rows += [
            TableRow(
                p=s.p,
                spectral_radius=spectral_radius(m),
                deviation=max_abs(m - target),
            )
            for s, m in zip(block, m_p)
        ]
    return rows


def amu_certificate(
    w: Word,
    N: int,
    p_max: int,
    margin: float = DEFAULT_MARGIN,
    tol: float = DEFAULT_TOLERANCE,
) -> AMUReport:
    """Scan all odd levels in [2N+1, p_max] and report the certificate."""
    if p_max < 2 * N + 1:
        raise BadPError(f"p_max = {p_max} below the smallest level {2 * N + 1}")
    kind = classify(w)
    stretch = target = None
    if kind is NTClass.PSEUDO_ANOSOV:
        stretch = stretch_factor(sl2_image(w))
        target = stretch ** (N - 1)
    rows = tuple(convergence_table(w, N, range(2 * N + 1, p_max + 1, 2), tol))
    p0 = None
    if kind is NTClass.PSEUDO_ANOSOV:
        for row in reversed(rows):
            if row.spectral_radius > 1 + margin:
                p0 = row.p
            else:
                break
    return AMUReport(
        word=w,
        N=N,
        classification=kind,
        stretch=stretch,
        target_eig=target,
        rows=rows,
        p0_observed=p0,
        margin=margin,
    )
