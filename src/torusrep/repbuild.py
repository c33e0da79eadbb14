"""The level-independent symbolic matrices, as maps of product forms.

The twist generators are written down from their closed product forms. With
[a, b] = {a}!/({b}! {a-b}!) and e(m, n) = -m(2N-1-m) - (N-1-m)(n-m), for
n >= m

    T[m][n]  = (-X)^e(m,n) [N-1-m, n-m] prod_{k=2N-n}^{2N-m-1} {k}+,
    T*[n][m] = T[m][n] / rhat(n, m)
             = (-1)^(n-m) (-X)^e(m,n) [N-1-m, n-m] prod_{j=m+1}^{n} {j}/{2N-2j},

and both vanish on the other side of the diagonal. At X = -1 these are the
factorial closed forms of `classical.closed_limits`.

The curve-operator matrix z is lower bidiagonal, with z[m][m] =
lambda_{c+m} = -{2N-2m-1}+ and z[m][m-1] = {m}; its Hopf transpose y is upper
bidiagonal, y[m][l] = rhat(l, m) z[l][m]. The twisted operator
z' = (X yz - X^-1 zy)/{2} has entries that are sums of at most four products
of those of y and z (`_zprime_terms`), and the tridiagonal column-recurrence
matrices M^(n) = (z' - lambda_{c+n} I) / {n+1} (column n+1 of T is M^(n)
times column n) have such sums with one more factor {n+1}^-1
(`_recurrence_terms`); they are Laurent polynomials.

Each of T, T*, z, y, the pairing ratios R[n][m] = rhat(n, m), z' and M^(n)
is one row-major map (i, j) -> list of products (sign, power, factors) of
its nonzero entries, the entry being the sum of the products
sign (-X)^power prod {k}^e ({k}+^e where plus) over the (k, plus, e) in
factors; an entry of T, T*, z, y or R is a list of one. `forms` selects the
map of the matrix `matrices --what` names. Three readers take a map and
nothing else: the canonical form over Q(X) (`_matrix`, by
`qsymbols._sum_forms`), the value at X = -1 (`form_limit`, by
`qsymbols._limit`) and the value at A_p (`numeric.eval_forms`). The exact
checks read the maps of T and T* as integer forms (`_integer_form`).
`matrices` builds over Q(X) only the matrix it emits, and only for a
symbolic value; `verify` builds nothing over Q(X), reads the maps of T, T*,
R and z' once each (the M^(n) at X = -1 off z', `recurrence_limits`), and
the certificate scans evaluate T and T* at A_p by recurrences
(`numeric.eval_twists`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleError, TooLargeError, float_range
from .qsymbols import _lambda_form, _limit, _over_denominator, _poly, _rhat_form, _sum_forms

_X_HALF = (-1, 1, [(2, False, -1)])  # X/{2}, X = -(-X)
_MINUS_INV_HALF = (1, -1, [(2, False, -1)])  # -X^-1/{2}


def _curve_factors(N: int):
    """The form maps of z and y (module docstring); y[m-1][m] =
    rhat(m, m-1) {m}."""
    z, y = {}, {}
    for m in range(N):
        if m:
            z[m, m - 1] = [(1, 0, [(m, False, 1)])]
            y[m - 1, m] = [(-1, 0, _rhat_form(m, m - 1, N)[2] + [(m, False, 1)])]
        z[m, m] = y[m, m] = [_lambda_form(m, N)]
    return z, y


def _ratio_factors(N: int):
    """The form map of the pairing-ratio matrix R[n][m] = rhat(n, m)."""
    return {(n, m): [_rhat_form(n, m, N)] for n in range(N) for m in range(N)}


def _matrix(N: int, forms):
    """The N x N rows of the canonical forms (num, den) of the entries of the
    form map `forms` (`qsymbols._sum_forms`), zero off its keys."""
    rows = [[((), (1,))] * N for _ in range(N)]
    for (i, j), entry in zip(forms, _sum_forms(forms.values())):
        rows[i][j] = entry
    return rows


def _zprime_terms(N: int):
    """(i, j) -> the products whose sum is z'[i][j]: by the skein relation
    z' = (X y@z - X^-1 z@y) / {2}, the products of the forms of y and z
    (`_curve_factors`) that meet at each (i, j)."""
    z, y = _curve_factors(N)
    terms = {}
    for (r, c, h), left, right in ((_X_HALF, y, z), (_MINUS_INV_HALF, z, y)):
        for (i, k), [(s, a, f)] in left.items():
            for (l, j), [(t, b, g)] in right.items():
                if k == l:
                    terms.setdefault((i, j), []).append((r * s * t, a + b + c, f + g + h))
    return terms


def _recurrence_terms(n: int, N: int, terms):
    """(i, j) -> the products whose sum is M^(n)[i][j], from z''s products
    `terms` (`_zprime_terms`): M^(n) = (z' - lambda_{c+n} I) / {n+1}."""
    inv = [(n + 1, False, -1)]
    out = {ij: [(s, a, f + inv) for s, a, f in forms] for ij, forms in terms.items()}
    sign, power, f = _lambda_form(n, N)
    for m in range(N):
        out.setdefault((m, m), []).append((-sign, power, f + inv))
    return out


def _twist_factors(N: int):
    """The form maps of T and T* (module docstring)."""
    t, tstar = {}, {}
    for m in range(N):
        for n in range(m, N):
            e = -m * (2 * N - 1 - m) - (N - 1 - m) * (n - m)
            # [N-1-m, n-m] = prod_{j=1}^{n-m} {N-1-n+j}/{j}
            binom = [(N - 1 - n + j, False, 1) for j in range(1, n - m + 1)]
            binom += [(j, False, -1) for j in range(1, n - m + 1)]
            plus = [(k, True, 1) for k in range(2 * N - n, 2 * N - m)]
            ratio = [(j, False, 1) for j in range(m + 1, n + 1)]
            ratio += [(2 * N - 2 * j, False, -1) for j in range(m + 1, n + 1)]
            t[m, n] = [(1, e, binom + plus)]
            tstar[n, m] = [((-1) ** (n - m), e, binom + ratio)]
    return t, dict(sorted(tstar.items()))


def forms(what: str, N: int, index: int | None = None):
    """The form map of the matrix `matrices --what` names in dimension N: T,
    Tstar, Z, Y, Zprime, R, or M, the recurrence matrix M^(index)."""
    if what in ("Zprime", "M"):
        terms = _zprime_terms(N)
        return terms if what == "Zprime" else _recurrence_terms(index, N, terms)
    if what == "R":
        return _ratio_factors(N)
    pair = _twist_factors(N) if what in ("T", "Tstar") else _curve_factors(N)
    return pair[what in ("Tstar", "Y")]


def relation_checks(N: int, twist) -> tuple[bool, bool]:
    """Exact checks over Q(X) of the generators of dimension N, from the form
    maps `twist` of T and T* (`_twist_factors`): (T T* T == T* T T*, the
    center C = (T T* T)^2 commutes with T and with T*).

    Both identities hold for T and T* iff they hold for E T E^-1 and
    E T* E^-1, E = diag(X^floor(i/2)), and these are matrices over Q(Y),
    Y = X^2: every symbol is X^-k times a polynomial in Y ({k} = X^-k (Y^k -
    1) and {k}+ = X^-k (Y^k + 1) up to sign), and entry (i, j) of T and T*
    is X^e g(Y) with e = floor(i/2) + floor(j/2) (mod 2) over its common
    denominator, which conjugation by E takes to an even e (the symmetry
    X -> -X of the generators). Write them P_T / D_T and P_S / D_S with P
    integer polynomial matrices and D_T, D_S integer polynomials in Y, the
    least common denominators of the product forms of T and T*, read straight
    from the factor lists (`_integer_form`). Then the braid relation is
    D_S P_T P_S P_T == D_T P_S P_T P_S, and with C' = (P_T P_S P_T)^2 the
    center commutes iff C' P_T == P_T C' and C' P_S == P_S C' (both sides of
    a commutator share one denominator).

    The braid identity implies the center one, as (T T* T)^2 is central in
    the braid group <T, T* | T T* T = T* T T*>. With A = P_T, B = P_S,
    d = D_T, e = D_S and W = ABA, suppose e ABA = d BAB. Then
    d BW = (d BAB) A = e WA and d WB = A (d BAB) = e AW, so
    d e W^2 A = d W (d BW) = d (e AW) W = d e A W^2 and
    d W^2 B = W (e AW) = (e WA) W = d B W^2. Z[Y] has no zero divisors and
    d, e are nonzero (they are denominators; `_integer_checks` refuses zero
    ones), so C' = W^2 commutes with A and with B. The center identity is
    therefore evaluated only when the braid identity fails; when it holds,
    the center verdict is True by this proof.

    Each identity says that a difference f of two integer polynomials
    vanishes, entry by entry, and is decided by multipoint evaluation modulo
    primes (`_integer_checks`):

    - every coefficient of f is at most `bound` in absolute value, the sum of
      the l1-norms of the two sides, bounded through the nonnegative matrices
      of entry norms (||gh||_1 <= ||g||_1 ||h||_1), one bound per identity,
      in float64 with a slack that keeps it above the exact one
      (`_height_bound`);
    - every nonzero coefficient of an entry f of the difference has its
      degree in the span [lo, hi] of that entry (`_spans`), so f = Y^lo g
      with deg g <= hi - lo; K is the largest hi - lo + 1 over the entries of
      that identity's difference, and a zero entry adds nothing;
    - f is evaluated at y = 1..K modulo primes q from `_PRIMES`, taken in
      order until their product exceeds 2 bound. As K < q, these are K
      distinct nonzero points of F_q. If f vanishes at all of them, then so
      does g, at more points than its degree: so g is 0 mod q, and q divides
      every coefficient of f. If every prime does, so does their product,
      and a multiple of it below the product in absolute value is 0;
    - the arithmetic mod q is float64 with every partial sum below 2^53, so
      BLAS computes it exactly (`_integer_checks` states the invariants and
      raises `TooLargeError` for an input that would break one).

    So the verdict is exact and deterministic, with no common divisor taken
    and no probability of a wrong answer."""
    (pt, dt), (ps, ds) = (_integer_form(entries, N) for entries in twist)
    return _integer_checks(pt, dt, ps, ds)


def _integer_form(forms, N: int):
    """(P, D) with P / D = E M E^-1, M the N x N matrix of the form map
    `forms`, whose entries are single products (`_twist_factors`), zero off
    its keys, and E = diag(X^floor(i/2)), each polynomial Y^v c(Y) in Y = X^2
    as (v, c), c its integer coefficients from the lowest nonzero one,
    ascending, and 0 as (0, []). Over the products' least common denominator
    den(Y) = prod Phi_d^e_d, e_d the largest exponents of their
    denominators, entry (i, j) of M is X^a c(Y) / den(Y)
    (`qsymbols._over_denominator`), so that of E M E^-1 is Y^k c(Y) / den(Y),
    2k = a + floor(i/2) - floor(j/2). P and D are those numerators and den
    times the one Y^s, s >= 0 the least that makes every k + s >= 0: (k + s, c)
    and (s, den). A ValueError names the first entry whose 2k is odd."""
    den, nums = _over_denominator(form for [form] in forms.values())
    shifts = []
    for (i, j), (a, _) in zip(forms, nums):
        k, odd = divmod(a + i // 2 - j // 2, 2)
        if odd:
            raise ValueError(f"entry ({i}, {j}) is not X^(floor(i/2) + floor(j/2)) times a function of X^2")
        shifts.append(k)
    s = max(0, -min(shifts))
    p = [[(0, [])] * N for _ in range(N)]
    for (i, j), k, (_, c) in zip(forms, shifts, nums):
        p[i][j] = (k + s, c)
    return p, (s, _poly(den))


# The largest primes below 2^20, in descending order: (q-1)^2 < 2^40, so a sum
# of up to 2^13 products of two residues stays below 2^53.
_PRIMES = (
    1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447, 1048433,
    1048423, 1048391, 1048387, 1048367, 1048361, 1048357, 1048343, 1048309,
)
# A block has at most 2^17 // max(N^2, top + 1) points (1899 at N = 8, 106 at
# N = 32), which bounds its arrays. Of 2^13..2^17, 2^17 took `verify --N 24`
# and `--N 32` the least time as processes, `--N 16` the most.
_BLOCK_CELLS = 2**17
_CHUNK = 64  # coefficients per matrix product in `_values`


def _integer_checks(pt, dt, ps, ds) -> tuple[bool, bool]:
    """`relation_checks` on the integer forms (P_T, D_T, P_S, D_S), every
    polynomial Y^v c(Y) as (v, c), v >= 0 and c its integer coefficients,
    ascending (`_integer_form`), D_T and D_S nonzero; the decision holds for
    integer polynomials in any one variable.

    The braid identity is decided first; the center identity, which it
    implies, only when it fails. The c's are laid out once as rows
    (`_coefficient_rows`) and scanned once for their nonzero mask, lengths
    and l1 norms, and per prime, blocks of the points y = 1..K are checked
    at once (`_check_block`), each of at most `_BLOCK_CELLS` //
    max(N^2, top + 1) points, top the largest v, and no more than the larger
    K: the block size bounds the arrays, y^0..y^top among them, not any sum.
    Each identity has its own K (`_spans`) and its own primes
    (`_height_bound`). The arithmetic is float64 on integers, exact because
    every coefficient is below 2^53 and every partial sum of products of
    residues, which lie in (-q, q) (`_mod`), stays below it: (`_CHUNK` + 1)
    (q-1)^2 in the evaluation (`_values`), N (q-1)^2 in an N x N product and
    2N (q-1)^2 in the difference of two, 2 (q-1)^2 in a difference of scaled
    sides. `TooLargeError` is raised, before anything is evaluated, for an
    input that would break one of these invariants, K < q, top < q, or the
    reach of the prime table for either identity, whether or not the center
    identity is then evaluated."""
    n = len(pt)
    with float_range("a coefficient or valuation of the exact checks"):
        where, lows, rows = _coefficient_rows(pt, dt, ps, ds)
    size = np.abs(rows)
    if size.max() >= 2**53:
        raise TooLargeError("exact checks need every coefficient below 2^53")
    lengths = ((size > 0) * np.arange(1, size.shape[1] + 1)).max(-1)  # up to the last nonzero
    points = [1 + int(max(0, (hi - lo).max())) for lo, hi in _spans(where, lows, lengths, n)]
    primes = [_primes_above(2 * bound) for bound in _height_bound(size.sum(-1), where, n)]
    if max(*points, lows.max()) >= min(map(min, primes)) or max(2 * n, _CHUNK + 1) * (_PRIMES[0] - 1) ** 2 >= 2**53:
        raise TooLargeError("exact checks need K < q, valuations below q and 2N (q-1)^2 < 2^53 for q near 2^20")
    if not (lengths[-2] and lengths[-1]) or lows.min() < 0:
        raise ValueError("exact checks need nonzero denominators D_T and D_S and no negative valuation")

    order = np.argsort(-lengths, kind="stable")  # longest first, as `_values` takes them
    rows, lengths, lows, back = rows[order], lengths[order], lows[order], np.argsort(order)
    block = max(1, min(_BLOCK_CELLS // max(n * n, int(lows.max()) + 1), max(points)))
    buf = np.zeros((2, block, n, n))

    def holds(center: bool, points: int, primes) -> bool:
        # per prime, blocks of the points y = 1..points at once; the first
        # block where the identity fails decides
        for prime in primes:
            q = float(prime)
            a = _mod(rows.copy(), q)
            for start in range(1, points + 1, block):
                y = np.arange(start, min(start + block, points + 1), dtype=np.float64)
                if not _check_block(_values(a, lengths, lows, y, q)[back], where, buf[:, : len(y)], q, center):
                    return False
        return True

    braid = holds(False, points[0], primes[0])
    return braid, braid or holds(True, points[1], primes[1])


def _coefficient_rows(pt, dt, ps, ds):
    """(where, lows, rows): the cells (m, i, j) of the nonzero entries of P_T
    (m = 0) and P_S (m = 1), the valuations v of those, D_T and D_S, and
    the float64 coefficients of their c's, row r's coefficient of Y^(v + k)
    at [r, k]."""
    cells, polys = [], []
    for m, p in enumerate((pt, ps)):
        for i, row in enumerate(p):
            for j, f in enumerate(row):
                if any(f[1]):
                    cells.append((m, i, j))
                    polys.append(f)
    polys += [dt, ds]
    rows = np.zeros((len(polys), max(len(c) for _, c in polys)))
    for r, (_, c) in enumerate(polys):
        rows[r, : len(c)] = c
    lows = np.array([v for v, _ in polys], dtype=np.intp)
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 3).T), lows, rows


def _spans(where, lows, lengths, n):
    """[(lo, hi)] for the braid and the center, arrays of shape (n, n) and
    (2, n, n): every nonzero coefficient of entry (i, j) of
    D_S P_T P_S P_T - D_T P_S P_T P_S, and of C' P - P C' for P = P_T, P_S,
    has its degree in [lo, hi] at (i, j), the hull of the spans of that entry
    on the two sides. Row r spans lows[r]..lows[r] + lengths[r] - 1, and the
    spans go through the products as (lo, -hi), both in (min, +). A zero
    entry has lo = inf and hi = -inf."""
    def product(a, b):  # of (lo, -hi) stacks of span matrices, broadcast
        return (a[..., None] + b[..., None, :, :]).min(-2)

    ends = np.where(lengths > 0, (lows, 1 - lows - lengths), np.inf)  # (lo, -hi) of each row
    p = np.full((2, 2, n, n), np.inf)  # of (P_T, P_S)
    p[:, where[0], where[1], where[2]] = ends[:, :-2]
    tst_sts = product(product(p, p[:, ::-1]), p)
    sides = tst_sts + ends[:, :-3:-1, None, None]  # (D_S TST, D_T STS)
    c = product(tst_sts[:, :1], tst_sts[:, :1])
    commutators = np.minimum(product(c, p), product(p, c))  # (C' P, P C')
    s = np.concatenate((sides.min(1, keepdims=True), commutators), 1)
    return [(s[0, 0], -s[1, 0]), (s[0, 1:], -s[1, 1:])]


def _height_bound(norms, where, n) -> tuple[float, float]:
    """(braid, center): bounds on every coefficient of the difference of the
    two sides of each identity, ||gh||_1 <= ||g||_1 ||h||_1 through the
    matrices of entry l1-norms, `norms` those of the rows at `where`, D_T's
    and D_S's. In float64 on nonnegative terms, each is within a relative
    7 gamma_L + gamma_(6N+4) < 2^-30 of the exact one (Higham, ch. 3; L <=
    K < 2^20 coefficients a row, N < 2^12), so times 1 + 2^-30 it bounds
    it: a Python float, which `_primes_above` compares with ints exactly,
    and inf beyond the prime table."""
    nt = np.zeros((2, n, n))
    nt[where] = norms[:-2]
    nt, ns = nt
    tst, sts = nt @ ns @ nt, ns @ nt @ ns
    c = tst @ tst
    braid = (tst * norms[-1] + sts * norms[-2]).max()
    center = max((c @ nt + nt @ c).max(), (c @ ns + ns @ c).max())
    return float(braid) * (1 + 2**-30), float(center) * (1 + 2**-30)


def _check_block(vals, where, buf, q: float, center: bool) -> bool:
    """The braid identity, or the center identity if `center`, at one block of
    points, from the values mod q of the nonzero entries of P_T and P_S (rows
    of vals, at `where`) and of D_T and D_S (its last two rows); buf holds the
    stacks of P_T and P_S, whose zero entries stay zero. The arrays of a
    block are freed when it returns."""
    buf[where[0], :, where[1], where[2]] = vals[:-2]
    p_t, p_s = buf
    d_t, d_s = vals[-2:, :, None, None]
    u = _mod(p_s @ p_t, q)
    tst = _mod(p_t @ u, q)
    if not center:
        return not _mod(tst * d_s - _mod(u @ p_s, q) * d_t, q).any()
    c = _mod(tst @ tst, q)
    commutators = c @ buf  # C P_T and C P_S
    commutators -= buf @ c
    return not _mod(commutators, q).any()


def _primes_above(height: float) -> tuple[int, ...]:
    """The shortest prefix of `_PRIMES` whose product exceeds `height`."""
    prod = 1
    for k, q in enumerate(_PRIMES, 1):
        prod *= q
        if prod > height:
            return _PRIMES[:k]
    raise TooLargeError("exact checks need a height bound within reach of the prime table")


def _values(a, lengths, lows, x, q: float):
    """The rows of a (coefficients mod q, ascending) at the points x, mod q,
    row r zero from its coefficient lengths[r] on, lengths descending, and
    times x^lows[r]: Horner in x^s over chunks of s = `_CHUNK` coefficients,
    each chunk one matrix product with x^0..x^(s-1) on the rows that reach
    it, which come first, then each row times its x^lows[r] from the same powers.
    Unlike one product with the whole Vandermonde matrix, this keeps the
    arrays and BLAS's packed copies at s rows, whatever the degree."""
    s = min(_CHUNK, a.shape[1])
    top = max(s, int(lows.max()))
    # x^0..x^top by doubling: rows k..2k-2 are rows 1..k-1 times row k-1 (x < q)
    powers = np.empty((top + 1, len(x)))
    powers[0], powers[1] = 1.0, x
    k = 2
    while k <= top:
        step = min(k - 1, top + 1 - k)
        _mod(np.multiply(powers[1 : step + 1], powers[k - 1], out=powers[k : k + step]), q)
        k += step
    starts = range((a.shape[1] - 1) // s * s, -1, -s)
    reach = np.searchsorted(-lengths, -np.array(starts))  # the rows longer than each start
    acc = np.zeros((len(a), len(x)))
    for k, r in zip(starts, reach.tolist()):
        part = acc[:r]  # the rows after r are still 0
        part *= powers[s]
        part += a[:r, k : k + s] @ powers[: min(s, a.shape[1] - k)]
        _mod(part, q)
    acc *= powers[lows]
    return _mod(acc, q)


def _mod(c, q: float):
    """c - q floor(c/q) in place, for a float64 array of integers with
    |c| < 2^53: a residue of c in (-q, q). The quotient c/q is correctly
    rounded, so its floor is the true one or one more. Every bound above
    holds for such residues, and one of them is 0 mod q iff it is 0."""
    f = c / q
    np.floor(f, out=f)
    f *= q
    c -= f
    return c


def form_limit(N: int, forms):
    """(rows, den): the N x N matrix of the values at X = -1 of the entries of
    the form map `forms` (`qsymbols._limit`), zero off its keys, as integer
    rows over den, the lcm of the entries' denominators; the PoleError names
    the first entry with a pole in row-major order."""
    jets = {}
    for (i, j), entry in sorted(forms.items()):
        try:
            jets[i, j] = _limit(entry)
        except PoleError:
            raise PoleError(f"entry ({i}, {j}) has a pole at X = -1", entry=(i, j))
    den = math.lcm(*(d for _, _, d in jets.values()))
    rows = [[0] * N for _ in range(N)]
    for (i, j), (c0, _, d) in jets.items():
        rows[i][j] = c0 * (den // d)
    return tuple(map(tuple, rows)), den


def recurrence_limits(N: int, terms):
    """M^(0), ..., M^(N-2) at X = -1, each (rows, den) as `form_limit` gives,
    from the jets (c_0, c_1) of z''s products `terms` (`_zprime_terms`,
    `qsymbols._limit`), read once. With s = log(-X), z' = Z_0 + Z_1 s + O(s^2)
    and lambda_{c+n} = l_0 + l_1 s + O(s^2), M^(n) = (z' - lambda_{c+n} I) /
    (2(n+1) s (1 + O(s^2))) is finite iff z' has no negative power of s and
    Z_0 = l_0 I, and then M^(n)(-1) = (Z_1 - l_1 I) / (2(n+1)), in integers
    over 2(n+1) L d, L the lcm of z''s jets and d that of lambda_{c+n}'s. The
    PoleError names the entry `form_limit` names, n by n."""
    jets = {(m, m): (0, 0, 1) for m in range(N)}
    for ij, entry in terms.items():
        try:
            jets[ij] = _limit(entry)
        except PoleError:
            jets[ij] = None
    lcm = math.lcm(*(jet[2] for jet in jets.values() if jet))
    jets = sorted((ij, jet and (jet[0] * (lcm // jet[2]), jet[1] * (lcm // jet[2]))) for ij, jet in jets.items())
    out = []
    for n in range(N - 1):
        l0, l1, d = _limit([_lambda_form(n, N)])
        rows = [[0] * N for _ in range(N)]
        for (i, j), jet in jets:
            if jet is None or jet[0] * d != (l0 * lcm if i == j else 0):
                raise PoleError(f"entry ({i}, {j}) has a pole at X = -1", entry=(i, j))
            rows[i][j] = jet[1] * d - (l1 * lcm if i == j else 0)
        out.append((tuple(map(tuple, rows)), 2 * (n + 1) * lcm * d))
    return tuple(out)
