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
checks read the maps of T and T* as integer forms (`_integer_form`), named T
and S in the two short programs that describe the braid relation and the
center (`_BRAID`, `_CENTER`), which one walk reads (`_walk`).
`matrices` builds over Q(X) only the matrix it emits, and only for a
symbolic value; `verify` builds nothing over Q(X), reads the maps of T, T*,
R and z' once each (the M^(n) at X = -1 off z', `recurrence_limits`), and
the certificate scans evaluate T and T* at A_p by recurrences
(`numeric.eval_twists`).
"""

from __future__ import annotations

import functools
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


# The identities of the exact checks, as programs over the integer forms T
# and S of T and T* (`relation_checks`, `_walk`)
_BRAID = ("U=ST", "W=TU", "V=US"), ("W=V",)  # D_S TST = D_T STS
_CENTER = ("U=ST", "W=TU", "C=WW"), ("CT=TC", "CS=SC")  # C = (TST)^2


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
    from the factor lists (`_integer_form`), and name them T and S.

    Each identity is a program over these names (`_walk`): steps that name
    the product of a word, and equations between two words, each side times
    the D_g of every generator g it holds fewer copies of than the other
    side, once a copy. The braid is U = ST, W = TU, V = US with W = V, that
    is D_S P_T P_S P_T == D_T P_S P_T P_S (`_BRAID`); the center is U = ST,
    W = TU, C = WW with CT = TC and CS = SC, C' = (P_T P_S P_T)^2 commuting
    with P_T and with P_S (`_CENTER`).

    The braid identity implies the center one, as (T T* T)^2 is central in
    the braid group <T, T* | T T* T = T* T T*>. With A = P_T, B = P_S,
    d = D_T, e = D_S and W = ABA, suppose e ABA = d BAB. Then
    d BW = (d BAB) A = e WA and d WB = A (d BAB) = e AW, so
    d e W^2 A = d W (d BW) = d (e AW) W = d e A W^2 and
    d W^2 B = W (e AW) = (e WA) W = d B W^2. Z[Y] has no zero divisors and
    d, e are nonzero (they are denominators; `_decide` refuses zero ones),
    so C' = W^2 commutes with A and with B. The center identity is
    therefore evaluated only when the braid identity fails; when it holds,
    the center verdict is True by this proof (`_integer_checks`).

    Each equation says that a difference f of two integer polynomial
    matrices vanishes, entry by entry, and is decided by multipoint
    evaluation modulo primes (`_decide`), from one walk over the program
    under three products:

    - (min, +) products of the entries' valuation spans put every nonzero
      coefficient of an entry of f in degrees lo..hi, so the entry is
      Y^lo g with deg g <= hi - lo; K is the largest hi - lo + 1 over the
      entries of the program's equations (`_reach`);
    - float64 products of the matrices of entry l1 norms
      (||gh||_1 <= ||g||_1 ||h||_1) bound every coefficient of f by
      `bound`, with a slack that keeps it above the exact one (`_reach`);
    - batched products mod q evaluate f at y = 1..K modulo primes q from
      `_PRIMES`, taken in order until their product exceeds 2 bound. As
      K < q, these are K distinct nonzero points of F_q. If f vanishes at
      all of them, then so does g, at more points than its degree: so g is
      0 mod q, and q divides every coefficient of f. If every prime does, so
      does their product, and a multiple of it below the product in absolute
      value is 0. The arithmetic is float64 with every partial sum below
      2^53, so BLAS computes it exactly (`_decide`).

    So the verdict is exact and deterministic, with no common divisor taken
    and no probability of a wrong answer."""
    return _integer_checks(N, dict(zip("TS", map(_integer_form, twist))))


def _integer_form(forms):
    """(P, D) with P / D = E M E^-1, M the matrix of the form map `forms`,
    whose entries are single products (`_twist_factors`), zero off its keys,
    and E = diag(X^floor(i/2)), each polynomial Y^v c(Y) in Y = X^2 as
    (v, c), c its integer coefficients, ascending, from the lowest nonzero
    one to the highest; P is the map (i, j) -> (v, c) on the keys of `forms`.
    Over the products' least common denominator den(Y) = prod Phi_d^e_d, e_d
    the largest exponents of their denominators, entry (i, j) of M is
    X^a c(Y) / den(Y) (`qsymbols._over_denominator`), so that of E M E^-1 is
    Y^k c(Y) / den(Y), 2k = a + floor(i/2) - floor(j/2). P and D are those
    numerators and den times the one Y^s, s >= 0 the least that makes every
    k + s >= 0: (k + s, c) and (s, den). A ValueError names the first entry
    whose 2k is odd."""
    den, nums = _over_denominator(form for [form] in forms.values())
    shifts = []
    for (i, j), (a, _) in zip(forms, nums):
        k, odd = divmod(a + i // 2 - j // 2, 2)
        if odd:
            raise ValueError(f"entry ({i}, {j}) is not X^(floor(i/2) + floor(j/2)) times a function of X^2")
        shifts.append(k)
    s = max(0, -min(shifts))
    return {ij: (k + s, c) for ij, k, (_, c) in zip(forms, shifts, nums)}, (s, _poly(den))


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


def _integer_checks(n: int, forms) -> tuple[bool, bool]:
    """`relation_checks` on the integer forms {"T": (P_T, D_T), "S": (P_S,
    D_S)} of dimension n (`_integer_form`): the braid identity is decided
    first, and the center identity, which it implies, only when it fails."""
    verdicts = _decide(n, forms, (_BRAID, _CENTER))
    braid = next(verdicts)
    return braid, braid or next(verdicts)


def _decide(n: int, forms, programs):
    """An iterator of whether each of `programs` (`_walk`) holds, each
    evaluated when it is asked for, over `forms`, a map from one-letter
    names to integer forms (P, D) of dimension n as `_integer_form` gives
    them, D nonzero; the decision holds for integer polynomials in any one
    variable.

    The c's are laid out once as rows, each row's length len(c)
    (`_coefficient_rows`), and scanned once for their largest coefficient
    and l1 norms. Each program has its own K and primes (`_reach`), and per
    prime, blocks of the points y = 1..K are checked at once (`_holds`),
    each of at most `_BLOCK_CELLS` // max(N^2, top + 1) points, top the
    largest v, and no more than the largest K: the block size bounds the
    arrays, y^0..y^top among them, not any sum. The arithmetic is float64
    on integers, exact because every coefficient is below 2^53 and every
    partial sum of products of residues, which lie in (-q, q) (`_mod`),
    stays below it: (`_CHUNK` + 1) (q-1)^2 in the evaluation (`_values`),
    N (q-1)^2 in a reduced N x N product, 2 (q-1)^2 in the difference of two
    sides, each a residue, or one times the reduced product of its
    denominators. `TooLargeError` is raised, before anything is evaluated,
    for an input that would break one of these invariants (asked with the
    margin 2N), K < q, top < q, the slack of a height bound or the reach of
    the prime table, for any of the programs, evaluated or not."""
    with float_range("a coefficient or valuation of the exact checks"):
        where, lows, lengths, rows = _coefficient_rows(forms.values())
    size = np.abs(rows)
    if size.max() >= 2**53:
        raise TooLargeError("exact checks need every coefficient below 2^53")
    spans = _generators(forms, where, np.stack((lows, 1 - lows - lengths), -1), np.full((len(forms), 2, n, n), np.inf))
    norms = _generators(forms, where, size.sum(-1), np.zeros((len(forms), n, n)))
    reach = [_reach(program, spans, norms, n, rows.shape[1]) for program in programs]
    points = [1 + int(max(0, *(-h.sum(0).min() for h in hulls))) for hulls, _ in reach]  # 1 + max(hi - lo)
    primes = [_primes_above(2 * bound) for _, bound in reach]
    if max(*points, lows.max()) >= min(map(min, primes)) or max(2 * n, _CHUNK + 1) * (_PRIMES[0] - 1) ** 2 >= 2**53:
        raise TooLargeError("exact checks need K < q, valuations below q and 2N (q-1)^2 < 2^53 for q near 2^20")
    if not all(any(c) for _, (_, c) in forms.values()) or lows.min() < 0:
        raise ValueError("exact checks need nonzero denominators and no negative valuation")

    order = np.argsort(-lengths, kind="stable")  # longest first, as `_values` takes them
    rows, lengths, lows, back = rows[order], lengths[order], lows[order], np.argsort(order)
    block = max(1, min(_BLOCK_CELLS // max(n * n, int(lows.max()) + 1), max(points)))
    buf = np.zeros((len(forms), block, n, n))  # zero off the entries of the P's

    def holds(program, points: int, primes) -> bool:
        # per prime, blocks of the points y = 1..points at once; the first
        # block where an equation fails decides
        for q in map(float, primes):
            a = _mod(rows.copy(), q)
            for start in range(1, points + 1, block):
                y = np.arange(start, min(start + block, points + 1), dtype=np.float64)
                if not _holds(program, _generators(forms, where, _values(a, lengths, lows, y, q)[back], buf[:, : len(y)]), q):
                    return False
        return True

    return map(holds, programs, points, primes)


def _coefficient_rows(forms):
    """(where, lows, lengths, rows): the cells (m, i, j) of the entries of the
    P of the m-th integer form (P, D) of `forms`, the valuations v and the
    lengths of the c's of those and then of each D, and the float64
    coefficients of the c's, row r's coefficient of Y^(v + k) at [r, k],
    zero from lengths[r] on."""
    cells = [(m, i, j) for m, (p, _) in enumerate(forms) for i, j in p]
    polys = [c for p, _ in forms for c in p.values()] + [d for _, d in forms]
    lengths = np.array([len(c) for _, c in polys], dtype=np.intp)
    rows = np.zeros((len(polys), lengths.max()))
    for r, (_, c) in enumerate(polys):
        rows[r, : len(c)] = c
    lows = np.array([v for v, _ in polys], dtype=np.intp)
    return tuple(np.array(cells, dtype=np.intp).reshape(-1, 3).T), lows, lengths, rows


def _generators(names, where, values, out):
    """name -> (P, D) for the forms `names` from `values`, one row per row of
    `_coefficient_rows`: each P an (..., n, n) array of `out`, which takes
    the values of its entries at `where` and keeps what it holds off them,
    and each D shaped to scale it."""
    out[where[0], ..., where[1], where[2]] = values[: len(where[0])]
    return {name: (out[m], d[..., None, None]) for m, (name, d) in enumerate(zip(names, values[len(where[0]) :]))}


def _walk(program, gens, product, scale):
    """The two sides of each equation of `program`, in order, from `gens`,
    the map name -> (P, D) of its generators. A program is a pair (steps,
    equations) of strings over one-letter names (`_BRAID`): a step "U=ST"
    names the `product` of the values of its word, left to right, formed
    once; an equation "W=V" gives two sides, each the value of its word
    `scale`d by the `product` of the D of every generator it holds fewer
    copies of than the other side, once a copy, if there is one, as a word
    holding c_g copies of each generator g is P_w / prod D_g^c_g."""
    steps, equations = program
    vals = {name: (p, name) for name, (p, _) in gens.items()}

    def value(word):  # (its product, the generators it holds, a copy a letter)
        return functools.reduce(lambda a, b: (product(a[0], b[0]), a[1] + b[1]), map(vals.__getitem__, word))

    for name, word in (step.split("=") for step in steps):
        vals[name] = value(word)
    for equation in equations:
        sides = [value(word) for word in equation.split("=")]
        dens = [[d for g, (_, d) in gens.items() for _ in range(theirs.count(g) - mine.count(g))]
                for (_, mine), (_, theirs) in zip(sides, sides[::-1])]
        yield [scale(v, functools.reduce(product, ds)) if ds else v for (v, _), ds in zip(sides, dens)]


def _product(a, b, q: float | None = None):
    """a @ b for stacks of float64 matrices, the engine's one matrix product:
    reduced by `_mod` when q is given (values mod q), as rounded when it is
    not (norms)."""
    return a @ b if q is None else _mod(a @ b, q)


def _reach(program, spans, norms, n: int, width: int):
    """(hulls, bound) of `program` (`_walk`) from its generators' (lo, -hi)
    valuation spans `spans` and entry l1 norms `norms` (`_generators`), of
    dimension n, with at most `width` coefficients a row. `hulls` holds, for
    each equation, the (lo, -hi) hull of its two sides' spans, by (min, +)
    products: every nonzero coefficient of an entry of their difference has
    its degree in lo..hi, and a zero entry has lo = inf and hi = -inf.

    The bound, on every coefficient of such a difference, is the largest
    over the equations of the sum of the two sides' norms, by float64
    products, times 1 + 2^-30. Every term is nonnegative, so a computed norm
    is at least (1 - u)^m times the exact one, u = 2^-53 and m the roundings
    on its longest path, which the walk counts: width - 1 in a row norm, n
    in a product beyond those of its factors (one in a product of two
    denominators, counted as n), one in a scaling, and two for the sum of
    two sides and the final factor. So the bound is above the exact one
    while gamma_m = m u / (1 - m u) <= 2^-30 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3); past that `TooLargeError`
    is raised, before any float64 product. The bound is a Python float,
    which `_primes_above` compares with ints exactly, and inf beyond the
    prime table."""
    m = 2 + max(map(max, _walk(program, dict.fromkeys(norms, (width - 1,) * 2), lambda a, b: a + b + n, lambda a, d: a + d + 1)))
    if (2**30 + 1) * m >= 2**53:  # gamma_m >= 2^-30
        raise TooLargeError("exact checks need a float64 height bound within 2^-30 of the exact one")
    hulls = [np.minimum(*sides) for sides in _walk(program, spans, lambda a, b: (a[..., None] + b[..., None, :, :]).min(-2), np.add)]
    return hulls, (1 + 2**-30) * max(float(np.add(*sides).max()) for sides in _walk(program, norms, _product, np.multiply))


def _holds(program, gens, q: float) -> bool:
    """Whether every equation of `program` holds mod q at one block of
    points, from the values mod q of its generators `gens` (`_generators`);
    the arrays of a block are freed when it returns."""
    return not any(_mod(a - b, q).any() for a, b in _walk(program, gens, functools.partial(_product, q=q), np.multiply))


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
