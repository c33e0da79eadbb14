import math
import time
from decimal import localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusrep.classical import SL2, hN_matrix
from torusrep.errors import BadPError, NearPoleError
from torusrep.cli import main
from torusrep.mcg import NTClass, parse_word, sl2_image, stretch_factor
from torusrep import numeric, repbuild
from torusrep.numeric import (
    AMUReport,
    PSetting,
    TableRow,
    amu_certificate,
    block_levels,
    convergence_table,
    eval_forms,
    eval_twists,
    exact_floats,
    oracle_deviation,
    oracle_matrices,
    spectral_radius,
)

from reference import (
    FMatrix,
    bar,
    chi_p,
    decimal_at_root,
    decimal_forms,
    decimal_twists,
    direct_oracle_matrices,
    fm_mul,
    fractions,
    horner_matrix,
    identity,
    max_abs,
    named,
    neg,
    predicted_form_pole,
    predicted_near_pole,
    relative_error,
    rep_of_word,
    root,
    twists,
    what_argv,
)

GOLDEN = (3 + math.sqrt(5)) / 2


def test_psetting_validation_and_derived():
    s = PSetting(11, 3)
    assert s.d == 5 and s.c == 2
    assert s == PSetting(11, 3, k=1) and hash(s) == hash(PSetting(p=11, N=3))
    assert s != PSetting(11, 3, k=2)
    assert repr(s) == "PSetting(p=11, N=3, k=1)"
    for field in ("p", "N", "k"):
        with pytest.raises(AttributeError):
            setattr(s, field, 13)
    assert s == PSetting(11, 3)
    for args, kwargs, message in (
        ((10, 3), {}, "need odd p >= 2N+1 = 7, got p = 10"),
        ((5, 3), {}, "need odd p >= 2N+1 = 7, got p = 5"),  # p < 2N+1
        ((9, 2), {"k": 3}, "root index k = 3 is not coprime to p = 9"),
        ((11, 1), {}, "N must be >= 2, got 1"),
        ((4, 1), {}, "N must be >= 2, got 1"),  # N is checked first
    ):
        with pytest.raises(BadPError) as err:
            PSetting(*args, **kwargs)
        assert type(err.value) is BadPError and str(err.value) == message


def test_scan_records_are_frozen_values():
    # rows and reports compare and hash by their fields, refuse assignment,
    # and print as Name(field=value, ...)
    row = TableRow(5, 1.5, 0.25)
    assert row == TableRow(p=5, spectral_radius=1.5, deviation=0.25)
    assert hash(row) == hash(TableRow(5, 1.5, 0.25)) and row != TableRow(7, 1.5, 0.25)
    assert repr(row) == "TableRow(p=5, spectral_radius=1.5, deviation=0.25)"
    report = AMUReport(parse_word("y"), 2, NTClass.REDUCIBLE_OR_CENTRAL, None, None, (row,), None)
    assert report.margin == numeric.DEFAULT_MARGIN
    twin = AMUReport(word=parse_word("y"), N=2, classification=NTClass.REDUCIBLE_OR_CENTRAL, stretch=None,
                     target_eig=None, rows=(TableRow(5, 1.5, 0.25),), p0_observed=None, margin=1e-6)
    assert report == twin and hash(report) == hash(twin)
    assert report != AMUReport(parse_word("y"), 2, NTClass.REDUCIBLE_OR_CENTRAL, None, None, (row,), None, 1e-3)
    assert repr(report) == (
        "AMUReport(word=Word(letters=((<Gen.TY: 'y'>, 1),)), N=2, "
        "classification=<NTClass.REDUCIBLE_OR_CENTRAL: 'ReducibleOrCentral'>, stretch=None, "
        "target_eig=None, rows=(TableRow(p=5, spectral_radius=1.5, deviation=0.25),), "
        "p0_observed=None, margin=1e-06)"
    )
    for record, field in ((row, "p"), (row, "deviation"), (report, "rows"), (report, "margin")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert row == TableRow(5, 1.5, 0.25) and report == twin


def test_oracle_column0_is_e():
    for N, p in ((2, 7), (4, 11)):
        t, _ = oracle_matrices(PSetting(p, N))
        e = np.zeros(N)
        e[0] = 1
        assert max_abs(t[:, 0] - e) < 1e-12


def test_oracle_twists_are_triangular():
    # each tridiagonal M^(n) extends column n of T by one row, from e, so T is
    # upper and T* lower triangular, their zeros exact in floats
    for N, p in ((3, 11), (4, 17)):
        t, tstar = oracle_matrices(PSetting(p, N))
        assert not np.tril(t, -1).any() and not np.triu(tstar, 1).any()


def test_oracle_twists_tend_to_the_classical_action():
    # the oracle's T and T* approach h_N of the generators at first order in
    # |A_p + 1| ~ 2 pi/p: ten times the level, a tenth of the distance
    for N in (3, 5):
        targets = [exact_floats(hN_matrix(g, N), "h_N") for g in (SL2(1, 1, 0, 1), SL2(1, 0, -1, 1))]
        dist = [[max_abs(g - h) for g, h in zip(oracle_matrices(PSetting(p, N)), targets)] for p in (4001, 40001)]
        for a, b in zip(*dist):
            assert 0.09 < b / a < 0.11, (N, a, b)


def test_oracle_equivalence_spot():
    for N, p in ((2, 7), (3, 7), (4, 51)):
        s = PSetting(p, N)
        t_sym, tstar_sym = twists(N)
        t, tstar = oracle_matrices(s)
        assert max_abs(t - horner_matrix(t_sym, root(s))) < 1e-10
        assert max_abs(tstar - horner_matrix(tstar_sym, root(s))) < 1e-10


def test_oracle_equivalence_full_range():
    # N in {2,3,4}, every odd p from the boundary 2N+1 up to 51
    for N in (2, 3, 4):
        t_sym, tstar_sym = twists(N)
        for p in range(2 * N + 1, 52, 2):
            s = PSetting(p, N)
            t, tstar = oracle_matrices(s)
            assert max_abs(t - horner_matrix(t_sym, root(s))) < 1e-9, (N, p)
            assert max_abs(tstar - horner_matrix(tstar_sym, root(s))) < 1e-9, (N, p)


def test_oracle_gate_is_relative_at_n10():
    # at N = 10, p = 195 the generators reach ~1e3 in size, so a correct build
    # disagrees with the oracle by more than 1e-9 absolute but ~1e-12 relative
    s = PSetting(195, 10)
    pairs = list(zip((g[0] for g in eval_twists(10, [s])), oracle_matrices(s)))
    assert max(max_abs(sym - ora) for sym, ora in pairs) > 1e-9
    rel = oracle_deviation(10, [s])
    assert rel == max(max_abs(sym - ora) / max(1.0, max_abs(ora)) for sym, ora in pairs)
    assert rel <= 1e-9


def test_spectral_radius_basics():
    assert abs(spectral_radius(np.eye(4)[None], [7])[0] - 1) < 1e-12
    assert abs(spectral_radius(np.diag([2.0, 0.5])[None], [7])[0] - 2) < 1e-12
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((1, 40, 40)), [7])
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((1, 2, 3)), [7])
    with pytest.raises(ValueError):
        spectral_radius(np.array([[[np.nan, 0], [0, 1]]]), [7])
    with pytest.raises(ValueError, match="stack"):
        spectral_radius(np.eye(2), [7])  # one matrix, not a stack


def test_spectral_radius_of_a_stack():
    stack = np.array([np.eye(3), np.diag([2.0, 0.5, 1.0]), np.diag([0.25, -3.0, 1j])])
    radii = spectral_radius(stack, [7, 9, 11])
    assert radii.shape == (3,) and np.allclose(radii, [1, 2, 3], rtol=1e-12)
    assert spectral_radius(stack[:0], []).shape == (0,)
    with pytest.raises(ValueError, match="exceeds bound 32"):
        spectral_radius(np.zeros((3, 40, 40)), [7, 9, 11])
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((3, 2, 3)), [7, 9, 11])
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((2, 3, 3, 3)), [7, 9])
    stack[1, 0, 2] = np.nan
    stack[2, 1, 1] = np.inf
    with pytest.raises(ValueError) as err:
        spectral_radius(stack, [7, 9, 11])
    assert str(err.value) == "matrix has non-finite entries at p = 9"


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-30, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_stacked_spectral_radius_is_bit_identical_to_one_matrix_at_a_time(seed, n, L, scale):
    rng = np.random.default_rng(seed)
    stack = (rng.standard_normal((L, n, n)) + 1j * rng.standard_normal((L, n, n))) * 10.0**scale
    stack[:, rng.random((n, n)) < 0.3] = 0  # some structure: zeros, triangular blocks
    radii = spectral_radius(stack, range(L))
    assert np.array_equal(radii, [np.abs(np.linalg.eigvals(m)).max() for m in stack])
    assert [spectral_radius(m[None], [0]).item() for m in stack] == radii.tolist()


def test_spectral_radius_of_hN_matches_stretch_power():
    g = sl2_image(parse_word("y z^-1"))
    lam = stretch_factor(g)
    for N in (2, 3, 4):
        m = np.array(fractions(hN_matrix(g, N)), dtype=complex)
        assert abs(spectral_radius(m[None], [0])[0] - lam ** (N - 1)) < 1e-9


def test_unitarity_of_rescaling():
    w = parse_word("y^2 z^-1")
    for p in (7, 13):
        chi = chi_p(w, p, 2)
        assert abs(abs(chi) - 1) < 1e-12
        m = horner_matrix(rep_of_word(w, 2), root(PSetting(p, 2)))
        radii = spectral_radius(np.array([m / chi, m]), [p, p])
        assert abs(radii[0] - radii[1]) < 1e-12


def test_braid_numerics_spot():
    for N, p in ((3, 11), (5, 13)):
        s = PSetting(p, N)
        t, ts = (horner_matrix(g, root(s)) for g in twists(N))
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
    t_sym, tstar_sym = twists(2)
    t, tstar = oracle_matrices(s)
    assert max_abs(t - horner_matrix(t_sym, root(s))) < 1e-10
    assert max_abs(tstar - horner_matrix(tstar_sym, root(s))) < 1e-10


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
        rho = spectral_radius(ref[None], [row.p])[0]
        assert abs(row.spectral_radius - rho) <= 1e-9 * rho, row.p


def test_huge_exponent_is_cheap(capsys):
    code = main(["amu", "--word", "y^1000000 z^-1", "--N", "4", "--pmax", "41"])
    assert code == 0
    assert "p0_observed=" in capsys.readouterr().out


def _rows_level_by_level(w, N, levels):
    """convergence_table's rows built one level at a time, with the same
    evaluator and the same numpy calls, but an inverse letter formed as the
    matrix product E conj(G) E, E = diag((-1)^i)."""
    target = np.array(fractions(hN_matrix(sl2_image(w), N)), dtype=complex)
    e = np.diag((-1.0) ** np.arange(N))
    rows = []
    for p in levels:
        t, tstar = (g[0] for g in eval_twists(N, [PSetting(p, N)]))
        m = np.eye(N, dtype=complex)
        for gen, exp in w.letters:
            base = t if gen.name == "TY" else tstar
            if exp < 0:
                base = e @ base.conj() @ e
            m = m @ np.linalg.matrix_power(base, abs(exp))
        rows.append((p, spectral_radius(m[None], [p]).item(), max_abs(m - target)))
    return rows


@pytest.mark.parametrize("word, N", [("y z^-1", 3), ("y^3 z^-2 y", 4), ("z^5 y^-7", 2), ("y^-2 z y^-3", 3)])
def test_convergence_table_equals_level_by_level(word, N, monkeypatch):
    w = parse_word(word)
    levels = range(2 * N + 1, 2 * N + 1 + 2 * (64 + 5), 2)
    want = _rows_level_by_level(w, N, levels)
    # one block under the real rule, then two with the blocks cut to 64 levels
    for size in (block_levels(N), 64):
        monkeypatch.setattr(numeric, "block_levels", lambda N: size)
        blocks = numeric._blocks(N, [PSetting(p, N) for p in levels])
        assert [len(b) for b in blocks] == ([69] if size > 69 else [64, 5])
        rows = convergence_table(w, N, levels)
        assert [(r.p, r.spectral_radius, r.deviation) for r in rows] == want, size


def test_scans_invert_no_matrix_numerically(monkeypatch, capsys):
    # inverse letters of both generators are read off eval_twists' stack as
    # E conj(G) E: no LAPACK inverse is taken on either scan
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg.inv was called")

    monkeypatch.setattr(np.linalg, "inv", refused)
    assert main(["amu", "--word", "y z^-2 y^-3 z", "--N", "5", "--pmax", "41"]) == 0
    assert main(["limit", "--word", "z^-1 y^-2 z^3", "--N", "4", "--p", "9..61"]) == 0
    assert "p0_observed=" in capsys.readouterr().out


# --- inverse letters in closed form: G(X)^-1 = E G(X^-1) E, E = diag((-1)^i) --
#
# Each check is run with E = diag(e^i) for e = -1, where it holds, and for
# e = 1 (E = I), where it must fail.


def _signs(N: int, e: float) -> np.ndarray:
    """E M E = _signs(N, e) * M entrywise, for E = diag(e^i)."""
    return e ** np.add.outer(np.arange(N), np.arange(N))


@pytest.mark.parametrize("N", range(2, 7))
def test_closed_form_inverse_is_exact_over_qx(N):
    for g in twists(N):
        for e, holds in ((-1, True), (1, False)):
            inv = FMatrix(tuple(tuple(bar(x) if e ** (i + j) > 0 else neg(bar(x)) for j, x in enumerate(row))
                                for i, row in enumerate(g.rows)))
            assert (fm_mul(g, inv) == identity(N)) is holds, (N, e)


@lru_cache(maxsize=None)
def _decimal_pair(N: int, p: int):
    """T and T* at A_p and at its conjugate A_p^-1 (k = 1 and k = p - 1) in
    50 digits, as maps (i, j) -> (re, im) of their nonzero entries."""
    return decimal_twists(N, p, 1), decimal_twists(N, p, p - 1)


def _decimal_residual(g, h, e: int):
    """max|G E H E - I| / (max|G| max|H|), in 60-digit arithmetic, for two
    maps (i, j) -> (re, im) of Decimals holding the nonzero entries."""
    with localcontext() as ctx:
        ctx.prec = 60
        rows = {}
        for (l, j), v in h.items():
            rows.setdefault(l, []).append((j, v))
        out = {}
        for (i, l), (ar, ai) in g.items():
            for j, (br, bi) in rows.get(l, ()):
                s, (re, im) = e ** (l + j), out.get((i, j), (0, 0))
                out[i, j] = re + s * (ar * br - ai * bi), im + s * (ar * bi + ai * br)

        def size(entries):
            return max((re * re + im * im).sqrt() for re, im in entries)

        residual = size((re - (i == j), im) for (i, j), (re, im) in out.items())
        return residual / (size(g.values()) * size(h.values()))


@pytest.mark.parametrize("N", [16, 24, 32])
def test_closed_form_inverse_holds_in_50_digits(N):
    for p in (2 * N + 1, 101, 2001):
        for g, h in zip(*_decimal_pair(N, p)):
            for e, holds in ((-1, True), (1, False)):
                assert (_decimal_residual(g, h, e) <= 1e-40) is holds, (N, p, e)


@pytest.mark.parametrize("N", [*range(2, 13), 16, 24, 32])
def test_closed_form_inverse_holds_in_floats(N):
    # |G E conj(G) E - I| <= 6.7e-16 |G| |conj(G)| over this grid
    levels = [PSetting(p, N, k) for p in (2 * N + 1, 2 * N + 3, 4 * N + 1, 101, 2001)
              for k in sorted({1, 2, (p - 1) // 2})]
    for g in eval_twists(N, levels):
        for e, holds in ((-1.0, True), (1.0, False)):
            inv = _signs(N, e) * g.conj()
            residual = np.abs(g @ inv - np.eye(N)).max(axis=(1, 2))
            size = np.abs(g).max(axis=(1, 2)) * np.abs(inv).max(axis=(1, 2))
            assert ((residual <= 1e-15 * size) == holds).all(), (N, e)


@pytest.mark.parametrize("N, p", [(24, 61), (32, 65), (32, 2001)])
def test_closed_form_inverse_matches_50_digits_where_lapack_does_not(N, p):
    # numpy.linalg.inv(T*) is 2.7e-6, 9.7e-5 and 1.3e-2 off entrywise here,
    # cond(T*) reaching 1.5e10 at p = 2001
    tstar = eval_twists(N, [PSetting(p, N)])[1][0]
    exact = {(i, j): (re, im) if (i + j) % 2 == 0 else (-re, -im)  # E T*(A^-1) E
             for (i, j), (re, im) in _decimal_pair(N, p)[1][1].items()}
    for e, holds in ((-1.0, True), (1.0, False)):
        inv = _signs(N, e) * tstar.conj()
        assert (max(relative_error(inv[ij], v) for ij, v in exact.items()) <= 1e-13) is holds, e
        assert not any(inv[i, j] for i in range(N) for j in range(N) if (i, j) not in exact)


def test_blocks_are_sized_by_matrix_entries():
    # 64 levels at N = 32 bounds the largest stack; every benchmark scan (at
    # most 145 levels at N <= 12) is one block
    assert block_levels(32) == 64
    levels = [PSetting(p, 32) for p in range(65, 65 + 2 * 200, 2)]
    assert [len(b) for b in numeric._blocks(32, levels)] == [64, 64, 64, 8]
    assert all(block_levels(N) >= 145 for N in range(2, 13))
    assert all(block_levels(N) * N * N <= 64 * 32 * 32 for N in range(2, 33))


def test_empty_word_scans_to_the_identity():
    rows = convergence_table(parse_word(""), 3, [7, 9, 11])
    assert [(r.p, r.spectral_radius, r.deviation) for r in rows] == [(p, 1.0, 0.0) for p in (7, 9, 11)]


def test_eval_forms_names_the_first_entry_below_the_tolerance(capsys):
    # `matrices --eval p=` with a divisor 1 - A_p^m of some entry below the
    # tolerance in modulus: exit 2 and the first such entry in row-major
    # order, as the factors of the entries predict; nothing printed
    seen = set()
    for N in range(2, 5):
        for what, index in named(N):
            forms = repbuild.forms(what, N, index)
            for p in (2 * N + 1, 2 * N + 9):
                for tol in ("0.3", "0.5", "1.5"):
                    want = predicted_form_pole(forms, PSetting(p, N), float(tol))
                    argv = ["matrices", "--N", str(N), *what_argv(what, index), "--eval", f"p={p}", "--tolerance", tol]
                    code, out, err = main(argv), *capsys.readouterr()
                    if want is None:
                        assert code == 0, argv
                        continue
                    seen.add(want[1])
                    assert (code, out, err) == (2, "", f"error: {want[0]}\n"), argv
                    with pytest.raises(NearPoleError) as pole:
                        eval_forms(N, forms, PSetting(p, N), float(tol))
                    assert (pole.value.entry, pole.value.point) == (want[1], 0)
    assert len(seen) > 5  # the guard trips, and not always at one entry


def test_eval_forms_guards_no_factor_its_numerator_cancels(capsys):
    # T[0][1] at N = 2 is (-X)^-1 {3}+ once its {1}/{1} cancels; {3}+ =
    # (1 - X^12)/(1 - X^6) up to a unit brings a factor 1 - X^6 with f_6 < 0,
    # but no divisor, so a tolerance of 1.5 refuses nothing
    argv = ["matrices", "--N", "2", "--what", "T", "--eval", "p=5"]
    assert main([*argv, "--tolerance", "1.5"]) == 0
    loose = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == loose


def test_eval_forms_refuses_a_small_divisor_of_the_reduced_denominator():
    # T*[15][0] at N = 32 has Phi_68 in its reduced denominator, and
    # |Phi_68(A_67)| = 0.0235
    forms = repbuild.forms("Tstar", 32)
    s = PSetting(67, 32)
    with pytest.raises(NearPoleError) as pole:
        eval_forms(32, forms, s, 0.03)
    assert (pole.value.entry, str(pole.value)) == ((15, 0), predicted_form_pole(forms, s, 0.03)[0])
    assert predicted_form_pole(forms, s, 0.02) is None
    assert np.isfinite(eval_forms(32, forms, s, 0.02)).all()


@pytest.mark.parametrize("N", [5, 11])
def test_eval_forms_divides_the_factors_one_plus_x_out_of_a_sum(N):
    # A_p nears -1 as p grows, where a sum's numerator with a factor 1 + X
    # left in cancels: summed as it stands, it put M^(N-2) 1.9e-12 (N = 5) and
    # 5.7e-12 (N = 11) relative off 60 digits at p = 200001
    s = PSetting(200001, N)
    for what, index in (("Zprime", None), ("M", 0), ("M", N - 2)):
        forms = repbuild.forms(what, N, index)
        got = eval_forms(N, forms, s)
        for (i, j), (re, im) in decimal_forms(forms, s.p).items():
            if abs(re) + abs(im) > 1e-40:
                assert relative_error(complex(got[i, j]), (re, im)) <= 1e-14, (what, index, i, j)


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


@pytest.mark.parametrize("N", range(2, 9))
def test_near_pole_errors_follow_the_factor_lists(N):
    # the error of every block p = p0..61 and tolerance is the one the
    # factor lists give: first level, T before T*, first row-major entry
    levels = [PSetting(p, N) for p in range(2 * N + 1, 62, 2)]
    for tol in (0.3, 0.5, 1.0, 3.0):
        for start in range(len(levels)):
            block = levels[start:]
            want = predicted_near_pole(N, block, tol)
            if want is None:
                eval_twists(N, block, tol)
                continue
            with pytest.raises(NearPoleError) as err:
                eval_twists(N, block, tol)
            assert (str(err.value), err.value.entry, err.value.point) == want, (N, tol, block[0].p)


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


def _bits(a):
    # integer view of the float parts: signed zeros (and NaN payloads) count
    return np.ascontiguousarray(a).view(np.uint64)


# -- the block oracle against the direct products it replaced ----------------


@pytest.mark.parametrize("N", range(2, 9))
def test_table_oracle_matches_direct_products(N):
    levels = sorted({2 * N + 1, 2 * N + 3, 2 * N + 5, 51, 101, 153, 201, 257, 301})
    block = numeric._oracle_block(N, [PSetting(p, N) for p in levels])
    for i, p in enumerate(levels):
        for mine, ref in zip(block, direct_oracle_matrices(PSetting(p, N))):
            assert max_abs(mine[i] - ref) <= 1e-11 * max_abs(ref), (N, p)


def test_oracle_block_is_bit_identical_to_single_levels():
    for N in (2, 6, 12):
        levels = [PSetting(p, N, k) for p in range(2 * N + 1, 2 * N + 1 + 2 * 67, 2) for k in (1, 2)]
        levels = [s for s in levels if math.gcd(s.k, s.p) == 1]
        t, tstar = numeric._oracle_block(N, levels)
        for i, s in enumerate(levels):
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
    s = PSetting(p, N, k)
    for got, mat in zip(eval_twists(N, [s]), twists(N)):
        ref = decimal_at_root(mat, p, k)
        worst = max(
            relative_error(complex(got[0, i, j]), ref[i][j]) for i in range(N) for j in range(N)
        )
        assert worst <= 1e-13, (N, p, k, worst)


def test_eval_twists_matches_the_factor_lists_at_scale():
    # the recurrences the scans run against each entry's factor list
    # (`repbuild._twist_factors`, the forms the exact checks prove) in 50
    # digits, at sizes where evaluating the expanded build is too slow and at
    # levels near 1e12, where a form through quotients of q-factorial
    # prefixes would go subnormal
    start = time.perf_counter()
    for N in (2, 8, 16, 32):
        for p in (2 * N + 1, 101, 10**6 + 3, 10**12 + 39):
            for k in (1, 2, 100):
                if math.gcd(k, p) != 1:
                    continue
                for got, ref in zip(eval_twists(N, [PSetting(p, N, k)]), decimal_twists(N, p, k)):
                    want = np.zeros((N, N), dtype=complex)  # rounded once, to 1.2e-16
                    for ij, (re, im) in ref.items():
                        want[ij] = complex(float(re), float(im))
                    assert np.array_equal(got[0] == 0, want == 0), (N, p, k)
                    worst = np.max(np.abs(got[0] - want) / np.where(want == 0, 1.0, np.abs(want)))
                    assert worst <= 1e-13, (N, p, k, worst)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("N", range(2, 11))
def test_eval_twists_matches_the_exact_build(N):
    # the scans' numbers are those of the matrices the exact checks prove
    t_sym, tstar_sym = twists(N)
    levels = [PSetting(p, N) for p in (2 * N + 1, 4 * N + 3, 101)]
    t, tstar = eval_twists(N, levels)
    for i, s in enumerate(levels):
        for got, mat in ((t[i], t_sym), (tstar[i], tstar_sym)):
            want = horner_matrix(mat, root(s))
            assert max_abs(got - want) <= 1e-12 * max_abs(want), (N, s.p)


def test_eval_twists_block_is_bit_identical_to_single_levels():
    N = 6
    levels = [PSetting(p, N, k) for p in range(13, 13 + 2 * 67, 2) for k in (1, 2)]
    levels = [s for s in levels if math.gcd(s.k, s.p) == 1]
    block = eval_twists(N, levels)
    for i, s in enumerate(levels):
        for got, one in zip(block, eval_twists(N, [s])):
            assert np.array_equal(_bits(got[i]), _bits(one[0])), s
