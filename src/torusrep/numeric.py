"""Everything level-dependent and floating point: the evaluation root, an
independent per-p oracle built straight from the level-dependent definitions,
the twist generators at A_p from their closed product forms, matrix
evaluation, spectral radii, convergence tables, and the infinite-order
certificate for pseudo-Anosov classes.

Per-level work is O(N^3), whatever p is: the scans evaluate T and T* from
their product forms over a block of levels (`eval_twists`), and the oracle
builds them from the raw definitions over the same blocks (`_oracle_block`).
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


def _oracle_block(N: int, levels, tol: float = DEFAULT_TOLERANCE):
    """The raw construction behind `oracle_matrices` for a block of levels
    (PSettings of dimension N): (z, ratios, zprime, Ms, T, Tstar), each an
    L x N x N complex array with the level first (Ms a list of N - 1 of them).

    The symbols are the raw ones at A_p, with the color shift c appearing
    literally: (-A)^n = exp(i w n), w = 2 pi k/p, the exponent never reduced,
    {n} = (-A)^n - (-A)^-n and {n}+ = (-A)^n + (-A)^-n. Neither (-A)^p = 1 nor
    a reflection identity is used. z has the eigenvalues
    lambda_{c+m} = -{2c+2m+2}+ and the subdiagonal {m}. The pairing ratio
    R(n, m) = {m}! {2c+2n+1}!! {2c+n+1}+! / ({n}! {2c+2m+1}!! {2c+m+1}+!)
    telescopes to h(m)/h(n), h(n) = prod_{j<=n} {j} / ({2c+2j+1} {2c+j+1}+),
    so a level costs O(N) symbols and O(N^3) arithmetic whatever p is. Then
    y = (R o z)^T, z' = (A yz - zy/A)/{2}, M^(n) = (z' - lambda_{c+n})/{n+1},
    column n+1 of T is M^(n) times column n from column 0 = e, and
    T*[n, m] = T[m, n]/R(n, m). Every step is element-wise or a batched
    product, so each level's values are bit for bit those of taking it alone.

    A divisor ({2c+2j+1}, {2c+j+1}+, {2} or {n+1}: unit-circle sums of modulus
    at most 2) below `tol` in modulus raises NearPoleError for the first such
    level (`point`)."""
    w = np.array([2.0 * math.pi * s.k / s.p for s in levels])[:, None]  # angle of -A
    c = np.array([s.c for s in levels])[:, None]

    def power(n):  # (-A)^n
        return np.exp(1j * (w * n))

    def qd(n):  # {n}
        return power(n) - power(-n)

    def qp(n):  # {n}+
        return power(n) + power(-n)

    j, m = np.arange(1, N), np.arange(N)
    # the divisors: {2c+2j+1} and {2c+j+1}+ of the ratios, {1}..{N-1} and {2}
    index = (2 * c + 2 * j + 1, 2 * c + j + 1, np.arange(1, max(N, 3)) + 0 * c)
    odd, plus, low = qd(index[0]), qp(index[1]), qd(index[2])
    divisors = np.hstack([odd, plus, low])
    small = np.abs(divisors) < tol
    if small.any():
        lvl = int(np.flatnonzero(small.any(axis=1))[0])
        col = int(np.flatnonzero(small[lvl])[0])
        names = [fmt % k for fmt, ks in zip(("{%d}", "{%d}+", "{%d}"), index) for k in ks[lvl]]
        msg = f"oracle divisor {names[col]} has magnitude {abs(divisors[lvl, col]):.3e}"
        raise NearPoleError(f"{msg} at p = {levels[lvl].p}", point=lvl)

    h = np.cumprod(np.hstack([np.ones_like(w), low[:, : N - 1] / (odd * plus)]), axis=1)
    ratios = h[:, None, :] / h[:, :, None]  # R(n, m) = h(m)/h(n)
    lam = -qp(2 * (c + m) + 2)
    z = np.zeros((len(levels), N, N), dtype=complex)
    z[:, m, m] = lam
    z[:, j, j - 1] = low[:, : N - 1]
    y = (ratios * z).transpose(0, 2, 1)  # y[m, l] = R(l, m) z[l, m]

    a = -power(1)[:, :, None]  # A = -(-A)
    zprime = (a * (y @ z) - (z @ y) / a) / low[:, 1, None, None]
    ms = [(zprime - lam[:, n, None, None] * np.eye(N)) / low[:, n, None, None] for n in range(N - 1)]
    cols = [np.zeros((len(levels), N, 1), dtype=complex)]
    cols[0][:, 0] = 1.0
    for m_n in ms:
        cols.append(m_n @ cols[-1])
    t = np.concatenate(cols, axis=2)
    tstar = t.transpose(0, 2, 1) / ratios  # tstar[n, m] = t[m, n] / R(n, m)
    return z, ratios, zprime, ms, t, tstar


def oracle_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """Independent construction of (T, Tstar) at one level from the raw
    definitions (`_oracle_block` on a block of one): eigenvalues -{2n+2}+ with
    the color shift appearing literally, the raw factorial pairing ratios in
    their telescoped form, the skein-relation twist and the column
    recurrence. Returns two N x N complex arrays."""
    _, _, _, _, t, tstar = _oracle_block(s.N, [s], tol)
    return t[0], tstar[0]


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
    (`eval_twists`) and the oracle's (`_oracle_block`), relative to the oracle
    matrix's size (floored at 1): max_abs(diff) / max(1, max_abs(oracle)),
    both sides evaluated and reduced over blocks of levels in numpy. 0.0 for
    no levels, NaN if either side is not finite. Errors surface in level
    order, the closed form before the oracle at one level."""
    worst = 0.0
    for block in _blocks(levels):
        pairs, errors = [], []
        for evaluate in (eval_twists, _oracle_block):
            try:
                pairs.append(evaluate(N, block, tol)[-2:])
            except NearPoleError as err:
                errors.append(err)
        if errors:  # min keeps the closed form's error at a tie
            raise min(errors, key=lambda err: err.point)
        for sym, ora in zip(*pairs):
            diff = np.abs(sym - ora).max(axis=(1, 2))
            worst = np.maximum(worst, np.max(diff / np.maximum(1.0, np.abs(ora).max(axis=(1, 2)))))
    return float(worst)


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
