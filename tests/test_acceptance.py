"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one PASS/FAIL line (run with `pytest -s` to see the lines)."""

import math
from fractions import Fraction

import numpy as np

from torusrep.classical import SL2, closed_limits, hN_matrix
from torusrep.field import FMatrix, RatFunc, fm_mul
from torusrep.mcg import NTClass, parse_word, sl2_image
from torusrep.numeric import (
    PSetting,
    amu_certificate,
    eval_matrix,
    max_abs,
    oracle_matrices,
    spectral_radius,
)
from torusrep.qsymbols import QContext, rhat
from torusrep.repbuild import build_repset, classical_limit

from reference import braid_holds, fm_eq, rep_of_word, verify_braid

N_RANGE = range(2, 7)


def _report(num, label, ok):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_braid_relation_exact():
    ok = all(verify_braid(QContext(N)) for N in N_RANGE)
    _report(1, "braid relation exact, N=2..6", ok)


def test_criterion_2_classical_limits_exact():
    ok = True
    for N in N_RANGE:
        rs = build_repset(QContext(N))
        cl = closed_limits(N)
        t_lim = classical_limit(rs.t_hat)
        ts_lim = classical_limit(rs.tstar_hat)
        ok &= t_lim == cl.that_limit
        ok &= ts_lim == cl.tstar_limit
        ok &= t_lim == hN_matrix(SL2(1, 1, 0, 1), N)
        ok &= ts_lim == hN_matrix(SL2(1, 0, -1, 1), N)
    rs2 = build_repset(QContext(2))
    ok &= classical_limit(rs2.t_hat) == ((1, 2), (0, 1))
    ok &= classical_limit(rs2.tstar_hat) == ((1, 0), (Fraction(-1, 2), 1))
    _report(2, "twist limits equal closed forms and hN, N=2..6", ok)


def test_criterion_3_pairing_ratio_limits_exact():
    ok = True
    for N in N_RANGE:
        ctx = QContext(N)
        for n in range(N):
            for m in range(N):
                want = Fraction(
                    (-4) ** (n - m), 1
                ) if n >= m else 1 / Fraction((-4) ** (m - n), 1)
                want = want * Fraction(
                    math.factorial(m) * math.factorial(N - 1 - m),
                    math.factorial(n) * math.factorial(N - 1 - n),
                )
                ok &= rhat(n, m, ctx).eval_exact(-1) == want
    _report(3, "pairing-ratio limits exact, all pairs, N=2..6", ok)


def test_criterion_4_recurrence_limits_exact():
    ok = True
    for N in N_RANGE:
        rs = build_repset(QContext(N))
        for n in range(N - 1):
            lim = classical_limit(rs.m_hat[n])
            for m in range(N):
                for l in range(N):
                    if l == m - 1:
                        want = Fraction(m, n + 1)
                    elif l == m:
                        want = Fraction(2 * (N - 2 * m - 1), n + 1)
                    elif l == m + 1:
                        want = Fraction(-4 * (N - m - 1), n + 1)
                    else:
                        want = Fraction(0)
                    ok &= lim[m][l] == want
    _report(4, "recurrence-matrix limits exact, all n, N=2..6", ok)


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for N in (2, 3, 4):
        rs = build_repset(QContext(N))
        for p in range(2 * N + 1, 52, 2):
            s = PSetting(p, N)
            t, tstar = oracle_matrices(s)
            worst = max(
                worst,
                max_abs(t - eval_matrix(rs.t_hat, s.A)),
                max_abs(tstar - eval_matrix(rs.tstar_hat, s.A)),
            )
    _report(5, f"oracle equivalence < 1e-9 (worst {worst:.2e})", worst < 1e-9)


def test_criterion_6_amu_certificate_desk_scale():
    golden = (3 + math.sqrt(5)) / 2
    w = parse_word("y z^-1")
    g = sl2_image(w)
    ok = True
    for N in (2, 3):
        rep = amu_certificate(w, N, 101)
        ok &= rep.classification is NTClass.PSEUDO_ANOSOV
        ok &= rep.p0_observed is not None
        ok &= rep.rows[0].deviation >= 5 * rep.rows[-1].deviation
        radius = spectral_radius(np.array(hN_matrix(g, N), dtype=complex))
        ok &= abs(radius - golden ** (N - 1)) < 1e-9
    _report(6, "pseudo-Anosov certificate at p_max=101, N=2,3", ok)


def test_criterion_7_structural_suite():
    ok = True
    rng_words = [
        ("y z", "z^-1 y"),
        ("y^2 z^-1", "z y"),
        ("z^-2", "y^3 z"),
    ]
    for N in N_RANGE:
        u = hN_matrix(SL2(1, 1, 0, 1), N)
        v = hN_matrix(SL2(1, 0, -1, 1), N)

        def mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(N)) for j in range(N))
                for i in range(N)
            )

        for wa, wb in rng_words:
            ga, gb = sl2_image(parse_word(wa)), sl2_image(parse_word(wb))
            ok &= hN_matrix(ga * gb, N) == mul(hN_matrix(ga, N), hN_matrix(gb, N))
        uvu = mul(mul(u, v), u)
        ok &= mul(mul(uvu, uvu), mul(uvu, uvu)) == tuple(
            tuple(Fraction(int(i == j)) for j in range(N)) for i in range(N)
        )
        rs = build_repset(QContext(N))
        c = rep_of_word(parse_word("y z y y z y"), QContext(N))
        ok &= fm_eq(fm_mul(c, rs.t_hat), fm_mul(rs.t_hat, c))
        ok &= fm_eq(fm_mul(c, rs.tstar_hat), fm_mul(rs.tstar_hat, c))
    _report(7, "hN homomorphism, (UVU)^4 = I, centrality, N=2..6", ok)


def test_criterion_8_negative_controls():
    rs = build_repset(QContext(3))
    rows = [list(r) for r in rs.t_hat.rows]
    rows[0][0] = RatFunc.zero()
    corrupted_fails = not braid_holds(FMatrix(rows), rs.tstar_hat)

    no_spurious_p0 = True
    for text in ("y", "z^-3", "y z y", "y z y y z y"):
        rep = amu_certificate(parse_word(text), 2, 41)
        no_spurious_p0 &= rep.classification is not NTClass.PSEUDO_ANOSOV
        no_spurious_p0 &= rep.p0_observed is None
    _report(8, "negative controls", corrupted_fails and no_spurious_p0)
