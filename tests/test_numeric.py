import cmath
import math

import numpy as np
import pytest

from torusrep.classical import SL2, hN_matrix
from torusrep.errors import BadPError, NearPoleError
from torusrep.field import FMatrix, Poly, RatFunc
from torusrep.cli import main
from torusrep.mcg import NTClass, parse_word, sl2_image, stretch_factor
from torusrep import numeric
from torusrep.numeric import (
    BLOCK_LEVELS,
    PSetting,
    amu_certificate,
    convergence_table,
    eval_twists,
    eval_matrix,
    max_abs,
    oracle_deviation,
    oracle_matrices,
    primitive_root,
    spectral_radius,
)
from torusrep.qsymbols import QContext
from torusrep.repbuild import build_repset, classical_limit

from reference import (
    chi_p,
    decimal_at_root,
    direct_oracle_matrices,
    oracle_m_matrices,
    oracle_z_matrix,
    relative_error,
    rep_of_word,
)

GOLDEN = (3 + math.sqrt(5)) / 2


def test_psetting_validation_and_derived():
    s = PSetting(11, 3)
    assert s.d == 5 and s.c == 2
    assert abs(s.A - primitive_root(11)) < 1e-15
    assert abs(abs(s.A) - 1) < 1e-15
    with pytest.raises(BadPError):
        PSetting(10, 3)
    with pytest.raises(BadPError):
        PSetting(5, 3)  # p < 2N+1
    with pytest.raises(BadPError):
        PSetting(9, 2, k=3)  # k not coprime to p


def test_oracle_column0_is_e():
    for N, p in ((2, 7), (4, 11)):
        t, _ = oracle_matrices(PSetting(p, N))
        e = np.zeros(N)
        e[0] = 1
        assert max_abs(t[:, 0] - e) < 1e-12


def test_oracle_m_tridiagonal():
    for N, p in ((3, 11), (4, 17)):
        for m_n in oracle_m_matrices(PSetting(p, N)):
            for m in range(N):
                for l in range(N):
                    if abs(m - l) >= 2:
                        assert abs(m_n[m, l]) < 1e-10


def test_oracle_z_diagonal_tends_to_minus_two():
    # the raw eigenvalues -{2(c+m)+2}+ approach -2 as p grows
    z = oracle_z_matrix(PSetting(4001, 3))
    assert max_abs(np.diag(z) + 2.0) < 1e-4


def test_oracle_equivalence_spot():
    for N, p in ((2, 7), (3, 7), (4, 51)):
        s = PSetting(p, N)
        rs = build_repset(QContext(N))
        t, tstar = oracle_matrices(s)
        assert max_abs(t - eval_matrix(rs.t_hat, s.A)) < 1e-10
        assert max_abs(tstar - eval_matrix(rs.tstar_hat, s.A)) < 1e-10


def test_oracle_equivalence_full_range():
    # N in {2,3,4}, every odd p from the boundary 2N+1 up to 51
    for N in (2, 3, 4):
        rs = build_repset(QContext(N))
        for p in range(2 * N + 1, 52, 2):
            s = PSetting(p, N)
            t, tstar = oracle_matrices(s)
            assert max_abs(t - eval_matrix(rs.t_hat, s.A)) < 1e-9, (N, p)
            assert max_abs(tstar - eval_matrix(rs.tstar_hat, s.A)) < 1e-9, (N, p)


def test_oracle_gate_is_relative_at_n10():
    # at N = 10, p = 195 the generators reach ~1e3 in size, so a correct build
    # disagrees with the oracle by more than 1e-9 absolute but ~1e-12 relative
    s = PSetting(195, 10)
    pairs = list(zip((g[0] for g in eval_twists(10, [s])), oracle_matrices(s)))
    assert max(max_abs(sym - ora) for sym, ora in pairs) > 1e-9
    rel = oracle_deviation(10, [s])
    assert rel == max(max_abs(sym - ora) / max(1.0, max_abs(ora)) for sym, ora in pairs)
    assert rel <= 1e-9


def test_eval_matrix_identity_and_near_pole():
    m = eval_matrix(FMatrix.identity(3), 1.0 + 0j)
    assert max_abs(m - np.eye(3)) == 0
    bad = FMatrix([[RatFunc(Poly((1,)), Poly((1, 1)))]])  # 1/(X+1)
    with pytest.raises(NearPoleError) as err:
        eval_matrix(bad, -1 + 0j)
    assert err.value.entry == (0, 0)


def test_eval_matrix_at_minus_one_matches_exact_limit():
    for N in (2, 3, 4):
        rs = build_repset(QContext(N))
        lim = np.array(
            [[float(e) for e in row] for row in classical_limit(rs.t_hat)]
        )
        assert max_abs(eval_matrix(rs.t_hat, -1 + 0j) - lim) < 1e-12


def test_spectral_radius_basics():
    assert abs(spectral_radius(np.eye(4)) - 1) < 1e-12
    assert abs(spectral_radius(np.diag([2.0, 0.5])) - 2) < 1e-12
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((40, 40)))
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius(np.array([[np.nan, 0], [0, 1]]))


def test_spectral_radius_of_hN_matches_stretch_power():
    g = sl2_image(parse_word("y z^-1"))
    lam = stretch_factor(g)
    for N in (2, 3, 4):
        m = np.array(hN_matrix(g, N), dtype=complex)
        assert abs(spectral_radius(m) - lam ** (N - 1)) < 1e-9


def test_unitarity_of_rescaling():
    w = parse_word("y^2 z^-1")
    for p in (7, 13):
        chi = chi_p(w, p, 2)
        assert abs(abs(chi) - 1) < 1e-12
        m = eval_matrix(rep_of_word(w, QContext(2)), PSetting(p, 2).A)
        assert abs(spectral_radius(m / chi) - spectral_radius(m)) < 1e-12


def test_braid_numerics_spot():
    for N, p in ((3, 11), (5, 13)):
        s = PSetting(p, N)
        rs = build_repset(QContext(N))
        t = eval_matrix(rs.t_hat, s.A)
        ts = eval_matrix(rs.tstar_hat, s.A)
        assert max_abs(t @ ts @ t - ts @ t @ ts) < 1e-10


def test_convergence_table_decreasing_deviation():
    w = parse_word("y z^-1")
    rows = convergence_table(w, 2, range(5, 102, 2))
    assert rows[0].p == 5 and rows[-1].p == 101
    assert rows[-1].deviation * 5 <= rows[0].deviation
    # regression lock from the first implementation run (measured 0.1281)
    assert rows[-1].deviation < 0.15


def test_convergence_table_twist_word():
    rows = convergence_table(parse_word("y"), 2, range(5, 102, 8 * 2))
    assert all(r.spectral_radius <= 1 + 1e-9 for r in rows)
    assert rows[-1].deviation < rows[0].deviation


def test_amu_certificate_pseudo_anosov():
    w = parse_word("y z^-1")
    for N in (2, 3):
        rep = amu_certificate(w, N, 101)
        assert rep.classification is NTClass.PSEUDO_ANOSOV
        assert rep.p0_observed is not None
        assert abs(rep.target_eig - GOLDEN ** (N - 1)) < 1e-9
        ps = [r.p for r in rep.rows]
        assert ps == sorted(ps) and ps[0] == 2 * N + 1 and ps[-1] == 101
        # every scanned level from p0 on clears the margin
        for row in rep.rows:
            if row.p >= rep.p0_observed:
                assert row.spectral_radius > 1 + rep.margin


def test_amu_certificate_non_pseudo_anosov():
    rep = amu_certificate(parse_word("y"), 3, 31)
    assert rep.classification is NTClass.REDUCIBLE_OR_CENTRAL
    assert rep.p0_observed is None and rep.stretch is None
    rep = amu_certificate(parse_word("y z y"), 2, 31)
    assert rep.classification is NTClass.PERIODIC
    assert rep.p0_observed is None


def test_amu_certificate_bad_pmax():
    with pytest.raises(BadPError):
        amu_certificate(parse_word("y"), 3, 5)


def test_boundary_level_included_and_clean():
    # p = 2N+1 gives color shift c = 0; the oracle must behave there
    for N in (2, 3, 4):
        s = PSetting(2 * N + 1, N)
        assert s.c == 0
        t, tstar = oracle_matrices(s)
        assert np.all(np.isfinite(t.view(float)))
        assert np.all(np.isfinite(tstar.view(float)))


def test_alternative_root_choice():
    # the equivalence holds at any admissible root: k = 2 also matches
    s = PSetting(11, 2, k=2)
    rs = build_repset(QContext(2))
    t, tstar = oracle_matrices(s)
    assert max_abs(t - eval_matrix(rs.t_hat, s.A)) < 1e-10
    assert max_abs(tstar - eval_matrix(rs.tstar_hat, s.A)) < 1e-10


@pytest.mark.parametrize("N, p0", [(6, 29), (8, 37)])
def test_long_word_p0_observed(N, p0):
    # the word product over Q(X) has degree ~850 at N = 8; evaluating it by
    # Horner on the unit circle gave spurious rows above 1 + margin (p0 = 13 at
    # N = 6, 17 at N = 8); 120-digit evaluations put p0 at 29 and 37
    rep = amu_certificate(parse_word("y^3 z^-2 y z^-5 y^2 z^-1"), N, 101)
    assert rep.p0_observed == p0


def test_long_power_matches_oracle_route():
    w = parse_word("y^200 z^-1")
    rows = convergence_table(w, 4, range(9, 42, 2))
    assert [r.p for r in rows] == list(range(9, 42, 2))
    for row in rows:
        t, tstar = oracle_matrices(PSetting(row.p, 4))
        ref = np.eye(4, dtype=complex)
        for _ in range(200):
            ref = ref @ t
        ref = ref @ np.linalg.inv(tstar)
        rho = spectral_radius(ref)
        assert abs(row.spectral_radius - rho) <= 1e-9 * rho, row.p


def test_huge_exponent_is_cheap(capsys):
    code = main(["amu", "--word", "y^1000000 z^-1", "--N", "4", "--pmax", "41"])
    assert code == 0
    assert "p0_observed=" in capsys.readouterr().out


# -- evaluation is bit for bit the scalar evaluation ---------------------------


def _scalar_eval(mat, x):
    """The scalar reference, entry by entry: Horner in CPython complex
    arithmetic on numerator and denominator, then their quotient."""

    def horner(poly):
        acc = 0j
        for c in reversed(poly.coeffs):
            acc = acc * x + c
        return acc

    return np.array([[horner(e.num) / horner(e.den) for e in row] for row in mat.rows])


def _bits(a):
    # integer view of the float parts: signed zeros (and NaN payloads) count
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("N", range(2, 9))
def test_eval_matrix_is_bit_identical_to_scalar(N):
    rs = build_repset(QContext(N))
    levels = range(2 * N + 1, 2 * N + 1 + 2 * (BLOCK_LEVELS + 3), 32)
    xs = [PSetting(p, N).A for p in levels] + [-1.0, 1.0, cmath.exp(1j), cmath.exp(-2.5j)]
    mats = [rs.z_hat, rs.y_hat, rs.zprime_hat, *rs.m_hat, rs.t_hat, rs.tstar_hat]
    for mat in mats:
        for k, x in enumerate(xs):
            got = eval_matrix(mat, x)
            assert got.shape == (N, N)
            assert np.array_equal(_bits(got), _bits(_scalar_eval(mat, complex(x)))), (N, k)


def test_eval_matrix_bit_identity_signed_zeros_and_fractions():
    # entries whose value has a zero real or imaginary part, a rational and a
    # big integer coefficient, a constant denominator and the zero function
    entries = [
        RatFunc(Poly((0, 1))),  # X
        RatFunc(Poly((1, 0, -6)), Poly((3,))),  # 1/3 - 2X^2
        RatFunc(Poly((1,)), Poly((0, 0, 1))),  # X^-2
        RatFunc(Poly((3 ** 40, -1)), Poly((2, 0, 1))),
        RatFunc(Poly(())),
        RatFunc(Poly((-1, 0, 1)), Poly((1, 1, 1))),
        RatFunc(Poly((-2, 1)), Poly((0, 1))),  # (X - 2)/X: a zero real part at 1 - i
        RatFunc(Poly((0, 0, 0, -1))),
        RatFunc(Poly((1, -1)), Poly((3, 1))),
    ]
    mat = FMatrix([entries[:3], entries[3:6], entries[6:]])
    xs = [1.0, -1.0, 1j, -1j, 1 + 1j, 1 - 1j, complex(2.0, -0.0), 0.3 - 0.4j, -2.5 + 0j, cmath.exp(2j)]
    for k, x in enumerate(xs):
        assert np.array_equal(_bits(eval_matrix(mat, x)), _bits(_scalar_eval(mat, complex(x)))), k


def _rows_level_by_level(w, N, levels):
    """convergence_table's rows built one level at a time, with the same
    evaluator and the same numpy calls."""
    target = np.array(hN_matrix(sl2_image(w), N), dtype=complex)
    rows = []
    for p in levels:
        t, tstar = (g[0] for g in eval_twists(N, [PSetting(p, N)]))
        m = np.eye(N, dtype=complex)
        for gen, exp in w.letters:
            base = t if gen.name == "TY" else tstar
            if exp < 0:
                base = np.linalg.inv(base)
            m = m @ np.linalg.matrix_power(base, abs(exp))
        rows.append((p, spectral_radius(m), max_abs(m - target)))
    return rows


@pytest.mark.parametrize("word, N", [("y z^-1", 3), ("y^3 z^-2 y", 4), ("z^5 y^-7", 2)])
def test_convergence_table_equals_level_by_level(word, N):
    w = parse_word(word)
    levels = range(2 * N + 1, 2 * N + 1 + 2 * (BLOCK_LEVELS + 5), 2)
    rows = convergence_table(w, N, levels)
    assert [(r.p, r.spectral_radius, r.deviation) for r in rows] == _rows_level_by_level(w, N, levels)


def test_eval_matrix_names_the_point_on_a_pole():
    m = FMatrix([[RatFunc(Poly((1,))), RatFunc(Poly((1,)), Poly((1, 1)))]])  # [1, 1/(X+1)]
    for x in (0.5, 2j, 3.0):
        eval_matrix(m, x)
    with pytest.raises(NearPoleError) as err:
        eval_matrix(m, -1.0)
    assert err.value.point == 0 and err.value.entry == (0, 1)
    assert str(err.value) == "entry (0, 1): denominator magnitude 0.000e+00 at X = (-1+0j)"
    # of two failing entries the first in row-major order is named
    two = FMatrix([[RatFunc(Poly((1,))), RatFunc(Poly((1,)), Poly((1, 1)))],
                   [RatFunc(Poly((1,)), Poly((-1, 0, 1))), RatFunc(Poly((1,)))]])
    with pytest.raises(NearPoleError) as err:
        eval_matrix(two, np.complex128(-1.0))
    assert err.value.point == 0 and err.value.entry == (0, 1)
    with pytest.raises(NearPoleError) as err:
        eval_matrix(two, 1.0)
    assert err.value.entry == (1, 0)


def test_errors_surface_in_level_order(monkeypatch):
    # At N = 4 the smallest divisor of T is {1} = 2i sin(2 pi/p), below
    # tol = 0.5 from p = 25 on; T* also divides by {6}, of modulus
    # 2 sin(pi/13) = 0.479 at p = 13, and no divisor of T* is below 0.56 at
    # p = 9 and 11. Over a block of levels the first failing level is named,
    # T* before a later T failure, as when the levels were taken one at a
    # time.
    levels = [PSetting(p, 4) for p in range(9, 43, 2)]
    with pytest.raises(NearPoleError) as err:
        eval_twists(4, levels, 0.5)
    assert err.value.point == levels.index(PSetting(13, 4)) and err.value.entry == (1, 0)
    assert str(err.value) == "T* entry (1, 0): a divisor is below 0.5 at p = 13"
    with pytest.raises(NearPoleError) as later:
        eval_twists(4, levels[-4:], 0.5)
    assert later.value.point == 0 and str(later.value).startswith("T entry (0, 1):")
    for s in levels:  # one level at a time: the same level fails first
        try:
            eval_twists(4, [s], 0.5)
        except NearPoleError as one:
            assert s.p == 13 and str(one) == str(err.value)
            break

    # between the closed form and the oracle, the first failing level comes
    # first, and at one level the closed form does
    def oracle_failing_from(p0):
        def oracle(N, block, tol):
            failing = [i for i, s in enumerate(block) if s.p >= p0]
            if failing:
                raise NearPoleError(f"oracle at p = {block[failing[0]].p}", point=failing[0])
            return (np.array([np.eye(N)] * len(block)),) * 2

        return oracle

    for p0, want in ((11, "oracle at p = 11"), (13, str(err.value)), (15, str(err.value))):
        monkeypatch.setattr(numeric, "_oracle_block", oracle_failing_from(p0))
        with pytest.raises(NearPoleError) as first:
            oracle_deviation(4, levels, 0.5)
        assert str(first.value) == want, p0


def test_oracle_names_its_first_failing_level():
    # {2c+j+1}+ = {2}+ = 2 cos(4 pi/9) = 0.347 at N = 4, p = 9 (c = 0): below
    # tol = 0.5 before any closed-form divisor is
    levels = [PSetting(p, 4) for p in range(9, 43, 2)]
    with pytest.raises(NearPoleError) as err:
        oracle_deviation(4, levels, 0.5)
    assert err.value.point == 0
    assert str(err.value) == "oracle divisor {2}+ has magnitude 3.473e-01 at p = 9"
    with pytest.raises(NearPoleError) as err:
        oracle_matrices(PSetting(9, 4), 0.5)
    assert err.value.point == 0


# -- the block oracle against the direct products it replaced ----------------


@pytest.mark.parametrize("N", range(2, 9))
def test_table_oracle_matches_direct_products(N):
    levels = sorted({2 * N + 1, 2 * N + 3, 2 * N + 5, 51, 101, 153, 201, 257, 301})
    block = numeric._oracle_block(N, [PSetting(p, N) for p in levels])[-2:]
    for i, p in enumerate(levels):
        for mine, ref in zip(block, direct_oracle_matrices(PSetting(p, N))):
            assert max_abs(mine[i] - ref) <= 1e-11 * max_abs(ref), (N, p)


def test_oracle_block_is_bit_identical_to_single_levels():
    for N in (2, 6, 12):
        levels = [PSetting(p, N, k) for p in range(2 * N + 1, 2 * N + 1 + 2 * (BLOCK_LEVELS + 3), 2) for k in (1, 2)]
        levels = [s for s in levels if math.gcd(s.k, s.p) == 1]
        z, ratios, zprime, ms, t, tstar = numeric._oracle_block(N, levels)
        for i, s in enumerate(levels):
            one = numeric._oracle_block(N, [s])
            for got, single in zip((z, ratios, zprime, *ms), (*one[:3], *one[3])):
                assert np.array_equal(_bits(got[i]), _bits(single[0])), (N, s)
            for got, single in zip((t, tstar), oracle_matrices(s)):
                assert np.array_equal(_bits(got[i]), _bits(single)), (N, s)


# -- the closed-form evaluator: accuracy and block independence --------------


@pytest.mark.parametrize(
    "N, p, k",
    [(4, 9, 1), (8, 17, 1), (12, 25, 1), (16, 33, 1), (12, 65, 1), (16, 101, 1), (16, 101, 100)],
)
def test_eval_twists_entrywise_accurate(N, p, k):
    # against a 50-digit evaluation of the canonical forms: every entry to
    # 1e-13 relative, where double-precision Horner on the same forms is 1e-9
    # (N = 12, p = 65) and 1e-5 (N = 16, p = 101) off; k = 100 reaches angles
    # 2 pi k e/p far outside one turn, so each must be reduced exactly
    rs = build_repset(QContext(N))
    s = PSetting(p, N, k)
    for got, mat in zip(eval_twists(N, [s]), (rs.t_hat, rs.tstar_hat)):
        ref = decimal_at_root(mat, p, k)
        worst = max(
            relative_error(complex(got[0, i, j]), ref[i][j]) for i in range(N) for j in range(N)
        )
        assert worst <= 1e-13, (N, p, k, worst)


@pytest.mark.parametrize("N", range(2, 11))
def test_eval_twists_matches_the_exact_build(N):
    # the scans' numbers are those of the matrices the exact checks prove
    rs = build_repset(QContext(N))
    levels = [PSetting(p, N) for p in (2 * N + 1, 4 * N + 3, 101)]
    t, tstar = eval_twists(N, levels)
    for i, s in enumerate(levels):
        for got, mat in ((t[i], rs.t_hat), (tstar[i], rs.tstar_hat)):
            want = eval_matrix(mat, s.A)
            assert max_abs(got - want) <= 1e-12 * max_abs(want), (N, s.p)


def test_eval_twists_block_is_bit_identical_to_single_levels():
    N = 6
    levels = [PSetting(p, N, k) for p in range(13, 13 + 2 * (BLOCK_LEVELS + 3), 2) for k in (1, 2)]
    levels = [s for s in levels if math.gcd(s.k, s.p) == 1]
    block = eval_twists(N, levels)
    for i, s in enumerate(levels):
        for got, one in zip(block, eval_twists(N, [s])):
            assert np.array_equal(_bits(got[i]), _bits(one[0])), s
