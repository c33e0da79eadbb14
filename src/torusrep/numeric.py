"""Everything level-dependent and floating point: the evaluation root, an
independent per-p oracle built straight from the level-dependent definitions,
the twist generators at A_p from their closed product forms, any form map at
one A_p (`eval_forms`), spectral radii, convergence tables, and the
infinite-order certificate for pseudo-Anosov classes.

Per-level work does not grow with p and runs on stacks of levels
(`block_levels`), at most `MAX_LEVELS` per scan: the scans evaluate T and T*
by ratio recurrences in O(N^2) (`eval_twists`), then words and one eigenvalue
call per stack in O(N^3); the oracle builds from the raw definitions in O(N^3).

The evaluation root is A_p = -exp(2 pi i k/p) with gcd(k, p) = 1 (default
k = 1), the primitive 2p-th root of unity closest to -1. Its defining property
(-A_p)^p = 1 is what collapses the shifted-index symbols to the p-independent
forms in `qsymbols`, so the oracle here must agree with the symbolic build
evaluated at A_p.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .classical import hN_matrix
from .errors import BadPError, ConvergenceError, NearPoleError, TooLargeError, float_range
from .mcg import Gen, NTClass, Word, classify, sl2_image, stretch_factor
from .qsymbols import _factors, _in_x, _sum_factors, _y_cyclotomic

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MARGIN = 1e-6
MAX_EIG_DIM = 32
MAX_LEVELS = 100_000
_QUARTER_SIGNS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


class PSetting(namedtuple("PSetting", "p N k")):
    """One level: odd p >= 2N+1 and a root index k coprime to p, which give
    the root A_p (module docstring), with the derived color shift c."""

    __slots__ = ()

    def __new__(cls, p: int, N: int, k: int = 1):
        if N < 2:
            raise BadPError(f"N must be >= 2, got {N}")
        if p % 2 == 0 or p < 2 * N + 1:
            raise BadPError(f"need odd p >= 2N+1 = {2 * N + 1}, got p = {p}")
        if math.gcd(k, p) != 1:
            raise BadPError(f"root index k = {k} is not coprime to p = {p}")
        return super().__new__(cls, p, N, k)

    @property
    def d(self) -> int:
        return (self.p - 1) // 2

    @property
    def c(self) -> int:
        return self.d - self.N


def _oracle_block(N: int, levels, tol: float = DEFAULT_TOLERANCE):
    """The raw construction behind `oracle_matrices` for a block of levels
    (PSettings of dimension N): (T, Tstar), two L x N x N complex arrays with
    the level first. z, the ratios and z' are L x N x N too, and each stack of
    M^(n) is formed in turn and dropped, so that memory is O(L N^2).

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

    cols = [np.zeros((len(levels), N, 1), dtype=complex)]
    cols[0][:, 0] = 1.0
    for n in range(N - 1):  # one stack of M^(n) alive at a time
        m_n = (zprime - lam[:, n, None, None] * np.eye(N)) / low[:, n, None, None]
        cols.append(m_n @ cols[-1])
    t = np.concatenate(cols, axis=2)
    tstar = t.transpose(0, 2, 1) / ratios  # tstar[n, m] = t[m, n] / R(n, m)
    return t, tstar


def oracle_matrices(s: PSetting, tol: float = DEFAULT_TOLERANCE):
    """Independent construction of (T, Tstar) at one level from the raw
    definitions (`_oracle_block` on a block of one): eigenvalues -{2n+2}+ with
    the color shift appearing literally, the raw factorial pairing ratios in
    their telescoped form, the skein-relation twist and the column
    recurrence. Returns two N x N complex arrays."""
    t, tstar = _oracle_block(s.N, [s], tol)
    return t[0], tstar[0]


def _cis(a, n):
    """(cos, sin) of 2 pi a/n for int64 arrays a and n > 0 with
    4|a| + n < 2^63, the angle reduced exactly in integers to the nearest
    quarter turn q and a rest |t| <= pi/4: each value is within about an ulp
    relative, small ones too."""
    q, r = np.divmod(4 * a + n // 2, n)  # 4a = q n + (r - n//2)
    t = (0.5 * math.pi) * ((r - n // 2) / n)
    c, s = np.cos(t), np.sin(t)
    q &= 3
    odd = (q & 1).astype(bool)  # turn (c, s) by q quarters: swap for odd q, then signs
    return np.where(odd, s, c) * _QUARTER_SIGNS[0, q], np.where(odd, c, s) * _QUARTER_SIGNS[1, q]


def eval_twists(N: int, levels, tol: float = DEFAULT_TOLERANCE):
    """T and T* at the roots A_p of the given levels (PSettings of dimension
    N), as two L x N x N complex arrays, in O(N^2) per level and without
    building anything exact, from recurrences that the closed forms of
    `repbuild`'s docstring give along each row, outward from the unit diagonal:

        T[m][n+1]  = T[m][n] (-A)^-(N-1-m) {N-1-n} {2N-1-n}+ / {n+1-m},
        T*[n+1][m] = -T*[n][m] (-A)^-(N-1-m) {N-1-n} {n+1} / ({n+1-m} {2N-2n-2}).

    With -A_p = exp(i w), w = 2 pi k/p, {j} = 2i sin(w j) and {j}+ = 2 cos(w j).
    The i's cancel, so each step but its power of -A is a real ratio, an entry
    is the running product (`cumprod`) of its row's ratios, and one unit
    complex (-A)^e(m,n) that T and T* share gives its phase. The 2N angles
    w j, j < 2N, and the N(N+1)/2 phases are reduced exactly in one `_cis`
    call. A ratio carries at most 7 relative errors of size eps
    (a reduced sine or cosine, or one operation), so an entry n - m steps
    from the diagonal is within about (8 (n - m) + 2) eps relative, to first
    order (Higham, ch. 3), whatever p is. Every operation is element-wise
    along the level axis: each level's values are bit for bit those of
    taking it alone.

    A divisor below `tol` in modulus (never below 2 sin(pi/p) at admissible
    levels) raises NearPoleError for the first such level (`point`), T before
    T*, first entry in row-major order (`entry`): {j}, j < N, first divides
    T[0][j], and {2N-2j} first divides T*[j][0]. A level too large for exact
    angle reduction in int64 raises BadPError."""
    top = max((s.p for s in levels), default=0)
    if top * (8 * N * N + 20) >= 2**63:  # bounds every integer formed below
        raise BadPError(f"level p = {top} is too large to reduce angles exactly in 64-bit integers")
    p = np.array([s.p for s in levels])[:, None]
    k = np.array([s.k % s.p for s in levels])[:, None]
    m, n = np.arange(N)[:, None], np.arange(N)  # the step into T[m][n], T*[n][m]
    rows, cols = np.nonzero(n >= m)
    phases = -rows * (2 * N - 1 - rows) - (N - 1 - rows) * (cols - rows)  # e(m, n), n >= m
    cos, sin = _cis(k * np.concatenate((np.arange(2 * N), phases)), p)  # column j < 2N: w j
    re, im, cos, sin = cos[:, 2 * N :], sin[:, 2 * N :], cos[:, : 2 * N], sin[:, : 2 * N]
    j = np.arange(1, N)
    low, even = (np.abs(2 * sin[:, d]) < tol for d in (j, 2 * N - 2 * j))
    failing = np.flatnonzero(low.any(axis=1) | even.any(axis=1))
    if failing.size:
        lvl = int(failing[0])
        if low[lvl].any():
            name, entry = "T", (0, 1 + int(np.argmax(low[lvl])))
        else:
            name, entry = "T*", (1 + int(np.argmax(even[lvl])), 0)
        msg = f"{name} entry {entry}: a divisor is below {tol:g} at p = {levels[lvl].p}"
        raise NearPoleError(msg, entry=entry, point=lvl)

    upper, col = n > m, np.maximum(n, 1)
    ratio = sin[:, None, N - n] / sin[:, np.where(upper, n - m, 1)]  # {N-n}/{n-m}
    steps = np.array([2 * cos[:, 2 * N - col], -sin[:, col] / sin[:, 2 * N - 2 * col]])
    mags = np.cumprod(np.where(upper, ratio * steps[:, :, None], 1.0), axis=-1)
    gens = np.zeros((2, len(levels), N, N), dtype=complex)
    for gen, mag, (i, j) in zip(gens, mags[:, :, rows, cols], ((rows, cols), (cols, rows))):
        gen.real[:, i, j], gen.imag[:, i, j] = mag * re, mag * im
    return gens[0], gens[1]


def eval_forms(N: int, forms, s: PSetting, tol: float = DEFAULT_TOLERANCE) -> np.ndarray:
    """The float twin of `repbuild.form_limit`: the N x N complex matrix of
    the entries of the form map `forms` at A_p of level s, zero off its keys.
    Each entry is read one way, as X^a c(Y) prod_m (Y^m - 1)^f_m, Y = X^2, in
    lowest terms (`qsymbols._sum_factors`): a product with c its sign, never
    expanded, a longer sum with c its numerator, out of which each Y - 1,
    which vanishes at X = -1 near A_p, is divided into f. With
    A = exp(2 pi i t/2p), t = p + 2k, Y^m - 1 = -(1 - A^2m) and 1 - A^m =
    -2i sin(theta_m) e^(i theta_m), theta_m = 2 pi m t/4p. So an entry is a
    product of sines, each within an ulp or so, times sum_j c_j A^2j and a
    phase, every angle an integer over 4p reduced exactly (`_cis`). A
    divisor Phi_d(A) in X of the entry's denominator (`qsymbols._in_x`),
    |Phi_d(A)| = prod_{m | d} |1 - A^m|^moebius(d/m), below `tol` in modulus
    raises NearPoleError for the first such entry in row-major order; a
    factor 1 - A^m that the numerator cancels is no divisor. A level too
    large for exact angle reduction in int64 raises BadPError."""
    n, t = 4 * s.p, s.p + 2 * s.k
    if 5 * n >= 2**63:  # bounds every integer `_cis` forms
        raise BadPError(f"level p = {s.p} is too large to reduce angles exactly in 64-bit integers")
    entries = []
    for ij, entry in sorted(forms.items()):
        a, c, f = _sum_factors(entry)
        while c and not sum(c):  # c(1) = 0: c = (Y - 1) q, q_j = -(c_0 + ... + c_j)
            c, f = [-x for x in accumulate(c[:-1])], {**f, 1: f.get(1, 0) + 1}
        den = [d for d, e in _in_x(_y_cyclotomic(f)).items() if e < 0]
        g, f = sum(f.values()), {2 * m: e for m, e in f.items() if e}  # the factors 1 - X^2m
        turn = 2 * a * t + 2 * s.p * g + sum(e * (m * t - s.p) for m, e in f.items())
        entries.append((ij, c, f, turn, den))
    top = max((m for _, _, f, _, _ in entries for m in f), default=0)
    sines = 2 * _cis(np.array([m * t % n for m in range(top + 1)]), n)[1]
    mant, expo = (x.tolist() for x in np.frexp(sines))
    # |Phi_d(A)| = prod_{m | d} |1 - A^m|^moebius(d/m), once for every d
    phi = {d: math.prod(abs(sines[m]) ** e for m, e in _factors({d: 1}).items()) for d in range(1, top + 1)}
    out = np.zeros((N, N), dtype=complex)
    for (i, j), c, f, turn, den in entries:
        if any(phi[d] < tol for d in den):
            raise NearPoleError(f"entry ({i}, {j}): a divisor is below {tol:g} at p = {s.p}", entry=(i, j), point=0)
        mag = math.ldexp(math.prod(mant[m] ** e for m, e in f.items()), sum(expo[m] * e for m, e in f.items()))
        cos, sin = _cis(np.array([(4 * x * t + turn) % n for x in range(len(c))], dtype=np.int64), n)
        out[i, j] = mag * complex(cos @ c, sin @ c)  # 0 for a sum that vanishes
    return out


def block_levels(N: int) -> int:
    """Levels per stack at dimension N: at most 64 MAX_EIG_DIM^2 matrix
    entries, so memory is bounded for any range (64 levels at N = 32)."""
    return max(1, 64 * MAX_EIG_DIM**2 // N**2)


def _blocks(N: int, levels):
    """Consecutive runs of at most `block_levels(N)` levels."""
    levels, size = list(levels), block_levels(N)
    return (levels[i : i + size] for i in range(0, len(levels), size))


def oracle_deviation(N: int, levels, tol: float = DEFAULT_TOLERANCE) -> float:
    """Largest entrywise disagreement, over the given levels (PSettings of
    dimension N), between the closed-form generators the scans evaluate
    (`eval_twists`) and the oracle's (`_oracle_block`), relative to the oracle
    matrix's size (floored at 1): max|diff| / max(1, max|oracle|),
    both sides evaluated and reduced over blocks of levels in numpy. 0.0 for
    no levels, NaN if either side is not finite. Errors surface in level
    order, the closed form before the oracle at one level."""
    worst = 0.0
    for block in _blocks(N, levels):
        pairs, errors = [], []
        for evaluate in (eval_twists, _oracle_block):
            try:
                pairs.append(evaluate(N, block, tol))
            except NearPoleError as err:
                errors.append(err)
        if errors:  # min keeps the closed form's error at a tie
            raise min(errors, key=lambda err: err.point)
        for sym, ora in zip(*pairs):
            diff = np.abs(sym - ora).max(axis=(1, 2))
            worst = np.maximum(worst, np.max(diff / np.maximum(1.0, np.abs(ora).max(axis=(1, 2)))))
    return float(worst)


def check_size(N: int, levels: int = 0) -> None:
    """Reject N below 2 or above `MAX_EIG_DIM` and a scan of more than
    `MAX_LEVELS` levels, the limits of every command, from the numbers alone,
    before any work that grows with them."""
    if N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N}")
    if N > MAX_EIG_DIM:
        raise TooLargeError(f"dimension {N} exceeds bound {MAX_EIG_DIM}")
    if levels > MAX_LEVELS:
        raise TooLargeError(f"scan of {levels} levels exceeds bound {MAX_LEVELS}")


def check_bound(name: str, value: float) -> None:
    """Reject a margin or tolerance that is negative or not finite: a NaN
    compares false with everything, and a negative or infinite bound makes
    every comparison with it go one way, so each would void its guard or
    certificate silently."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def spectral_radius(m: np.ndarray, levels):
    """The L largest eigenvalue moduli of an L x n x n stack of small dense
    complex matrices (n at most `MAX_EIG_DIM`), from one `eigvals` call. A
    non-finite stack raises ValueError naming the level p in `levels` of its
    first non-finite matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"stack of square matrices required, got shape {m.shape}")
    if m.shape[-1] > MAX_EIG_DIM:
        raise ValueError(f"dimension {m.shape[-1]} exceeds bound {MAX_EIG_DIM}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"matrix has non-finite entries at p = {levels[np.argmin(finite)]}")
    try:
        eigs = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigenvalue solver failed: {err}") from None
    return np.abs(eigs).max(axis=-1)


class TableRow(NamedTuple):
    p: int
    spectral_radius: float
    deviation: float


class AMUReport(NamedTuple):
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


def exact_floats(mat, what: str) -> np.ndarray:
    """The exact matrix (rows, den) in float64, x / den in Python ints being
    correctly rounded; TooLargeError naming `what` beyond the float range."""
    rows, den = mat
    with float_range(what):
        return np.array([[x / den for x in row] for row in rows])


def convergence_table(w: Word, N: int, p_list, tol: float = DEFAULT_TOLERANCE):
    """Per-level rows (p, spectral radius, deviation from the classical limit).

    Levels go in blocks (`block_levels`). Each block evaluates T and T* at its
    roots A_p from their closed product forms (`eval_twists`; nothing exact is
    built, nothing is Horner evaluated) and forms the word on the stack of
    levels: `matrix_power` per letter (cost logarithmic in the exponent) and
    `@` across letters. An inverse letter needs no solve: over Q(X),
    G(X)^-1 = E G(X^-1) E for G = T and T*, E = diag((-1)^i) (the bar
    involution of Blanchet-Habegger-Masbaum-Vogel), and X^-1 = conj(X) on the
    unit circle while the coefficients are real, so at A_p the inverse is
    E conj(G) E: a conjugation and sign flips, exact in floats, formed once
    per generator and block. One stacked `spectral_radius` call (ValueError
    naming p if not finite) and one max|M_p - h_N(w)| reduction give the
    rows, bit for bit those of one level at a time.

    The symbolic representation already carries the character rescaling (its
    generators are the matrices of the rescaled twists), so evaluating at A_p
    and comparing against the SL2(Z) action measures exactly the
    character-normalized distance of the underlying TQFT matrices.

    N above `MAX_EIG_DIM` and more than `MAX_LEVELS` levels are rejected
    before any evaluation (`check_size`), and a target h_N(w) beyond the
    float range with a TooLargeError."""
    check_size(N, len(p_list))
    target = exact_floats(hN_matrix(sl2_image(w), N), "an entry of the classical target h_N(w)")
    signs = (-1.0) ** np.add.outer(np.arange(N), np.arange(N))  # E X E = signs * X
    rows = []
    for block in _blocks(N, (PSetting(p, N) for p in sorted(p_list))):
        t, tstar = eval_twists(N, block, tol)
        bases = {(Gen.TY, 1): t, (Gen.TZ, 1): tstar}
        m_p = np.eye(N, dtype=complex)  # the empty word's, broadcast below
        for i, (gen, exp) in enumerate(w.letters):
            key = (gen, 1 if exp > 0 else -1)
            if key not in bases:  # G^-1 = E conj(G) E
                bases[key] = signs * bases[gen, 1].conj()
            power = np.linalg.matrix_power(bases[key], abs(exp))
            m_p = m_p @ power if i else power
        m_p = np.broadcast_to(m_p, (len(block), N, N))
        ps = [s.p for s in block]
        deviations = np.abs(m_p - target).max(axis=(1, 2))
        rows += map(TableRow, ps, spectral_radius(m_p, ps).tolist(), deviations.tolist())
    return rows


def amu_certificate(
    w: Word,
    N: int,
    p_max: int,
    margin: float = DEFAULT_MARGIN,
    tol: float = DEFAULT_TOLERANCE,
) -> AMUReport:
    """Scan all odd levels in [2N+1, p_max] and report the certificate; a
    negative or non-finite margin is refused first (`check_bound`)."""
    check_bound("margin", margin)
    if p_max < 2 * N + 1:
        raise BadPError(f"p_max = {p_max} below the smallest level {2 * N + 1}")
    kind = classify(w)
    stretch = target = None
    if kind is NTClass.PSEUDO_ANOSOV:
        stretch = stretch_factor(sl2_image(w))
        with float_range("the target eigenvalue stretch^(N-1)"):
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
