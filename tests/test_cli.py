import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusrep
from torusrep import numeric, qsymbols, repbuild
from torusrep.cli import _poly_text, canonical_json, main
from torusrep.errors import TooLargeError
from torusrep.mcg import parse_word
from torusrep.qsymbols import _limit

from reference import (
    changed_factor,
    decimal_at_root,
    decimal_forms,
    flipped_curve_factor,
    fmatrix_from_obj,
    fmatrix_to_obj,
    named,
    poly_text,
    relative_error,
    twists,
    what_argv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrices_classical_t(capsys):
    code, out, _ = run(capsys, "matrices", "--N", "2", "--what", "T", "--eval", "x=-1")
    assert code == 0
    assert "[1,2]" in out and "[0,1]" in out


def test_matrices_classical_tstar(capsys):
    code, out, _ = run(capsys, "matrices", "--N", "2", "--what", "Tstar", "--eval", "x=-1")
    assert code == 0
    assert "[1,0]" in out and "[-1/2,1]" in out


def test_matrices_m_index(capsys):
    code, out, _ = run(
        capsys, "matrices", "--N", "3", "--what", "M", "--index", "0",
        "--eval", "x=-1", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0][0] == "4" and rows[0][1] == "-8" and rows[1][0] == "1"


def test_matrices_m_requires_index(capsys):
    code, _, err = run(capsys, "matrices", "--N", "3", "--what", "M")
    assert code == 2
    assert "--index" in err


def test_matrices_symbolic_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "matrices", "--N", "2", "--what", "T", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix_name"] == "T" and obj["N"] == 2
    # parse -> re-emit is byte-identical
    assert canonical_json(fmatrix_to_obj(fmatrix_from_obj(obj), name="T", N=2)) == out


def test_matrices_at_root(capsys):
    code, out, _ = run(
        capsys, "matrices", "--N", "2", "--what", "Z", "--eval", "p=7",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert {"re", "im"} == set(obj[1][0])


def test_matrices_hN_word(capsys):
    code, out, _ = run(
        capsys, "matrices", "--N", "2", "--what", "hN", "--word", "z",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["1,0", "-1/2,1"]


# SHA-256 of `matrices --format json --N 5 --eval E --what W` for every W
# (M with --index 0..3). The X = -1 entries were recorded from the build
# whose coefficients could be Fractions. The p = 31 entries were re-recorded
# once every matrix came from its factored form at exactly reduced angles
# (`numeric.eval_forms`), which moved their last bits: worst entry off 50
# digits 1.9e-16 -> 3.3e-16 (T), 2.1e-16 -> 2.4e-16 (T*), 1.5e-15 -> 1.8e-16
# (Z), 5.1e-15 -> 1.8e-16 (Y), 5.1e-15 -> 8.3e-16 (Zprime), 1.6e-13 -> 4e-16
# (R), 6.6e-15 -> 9.5e-16 (M0), 4.4e-15 -> 5.8e-16 (M1), 1.8e-15 -> 3.3e-16
# (M2) and 4.5e-15 -> 5.5e-16 (M3). T and R were re-recorded once a single
# product was read off its factors in Y = X^2 (`qsymbols._y_factors`), which
# multiplies them in another order: worst entry off 50 digits 3.3e-16 ->
# 3.7e-16 (T) and 4e-16 -> 4.8e-16 (R). Zprime and M0..M3 were re-recorded
# once a sum was read in Y = X^2 (`qsymbols._sum_factors`), its numerator's
# coefficients at A^2j and its factors Y - 1 divided out: worst entry off
# 50 digits 8.3e-16 -> 9.6e-16 (Zprime), 9.5e-16 -> 9.5e-16 (M0),
# 5.8e-16 -> 5e-16 (M1), 3.3e-16 -> 3.3e-16 (M2) and 5.5e-16 -> 5.5e-16 (M3).
EVAL_DIGESTS = {
    ("T", "p=31"): "794af945057c47d0dfc287f78bcec880a18eb8793a766e6c8cff0afb45731daa",
    ("Tstar", "p=31"): "2f9d227559f2ee43a9ec5ed9b587c1fd429e857c6479984264d3678bb4973544",
    ("Z", "p=31"): "0c4760f818db6a26dd4f7c0f99db89fa7a8221166c745699a6615c9b3a1e1571",
    ("Y", "p=31"): "b1518979b96a10ecf4659a10f8176e28e509a7c8506ffa9c125d75afe910d4d3",
    ("Zprime", "p=31"): "db041722fda75421689b12f407b38c995fd27619e1a2b08ebdccbab0ff074e42",
    ("R", "p=31"): "f00bbeea46dda68707a89bc4bd4e365b7c9a846dcef60cdca4c66022cd052b2f",
    ("M0", "p=31"): "01e9b0be101b2607dae70a92fa17e9b5dd8e60ca615de54e65aa8005d7dd82c4",
    ("M1", "p=31"): "450817dfff54a50c124b02b4efe8ab8aadf772a7779813e85c9fee6a767ea8a7",
    ("M2", "p=31"): "edf6eb242a06b0e320e969da3fe2c72d719b8f794deb2d8628ff42eeb04e3cf6",
    ("M3", "p=31"): "558a9df1c4936b06f6e3d54ef694c03db775b02c12dd18455e5d966d1e231cca",
    ("T", "x=-1"): "753b143b16f29ecd03d3706a94aefa0d91217e5067f4f9c811bf821ebfb76ce2",
    ("Tstar", "x=-1"): "f7291fa4b6ef10cf68b8b1ae0e712687bd4f74bd48646bff5ed47b68530294ca",
    ("Z", "x=-1"): "4947a98a76afda9b7b1a6afb83939a586eaf3ebf273b966f5ceb8889d8eb04cc",
    ("Y", "x=-1"): "4947a98a76afda9b7b1a6afb83939a586eaf3ebf273b966f5ceb8889d8eb04cc",
    ("Zprime", "x=-1"): "4947a98a76afda9b7b1a6afb83939a586eaf3ebf273b966f5ceb8889d8eb04cc",
    ("R", "x=-1"): "228cd7622ddfc3aa8315c2bd3dce4d4a2cc22aa1f2e25c723fa05009dfc31cc3",
    ("M0", "x=-1"): "c726723e6a47e00349500e82d7043f4e20d401621cfcb216cbd7214fc3b0923c",
    ("M1", "x=-1"): "f864598292e3668ce62a559f7706f709c90b0a2b0a558c62d6b7a57d28ec9edc",
    ("M2", "x=-1"): "4d4ff26d3b94925f304167353404b72aef0d7a605815c61a5c62bb589dfddeef",
    ("M3", "x=-1"): "e86d59b280ecd7cd46bf31205056d15d3a543df741939a64581490a4789969d6",
}


@pytest.mark.parametrize("what, ev", list(EVAL_DIGESTS))
def test_evaluated_matrices_pinned(capsys, what, ev):
    argv = ["matrices", "--format", "json", "--N", "5", "--eval", ev]
    argv += ["--what", "M", "--index", what[1:]] if what.startswith("M") else ["--what", what]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVAL_DIGESTS[what, ev]


# SHA-256 of symbolic `matrices --N 5 --what W --format F` for every W (M with
# --index 0..3), in the two formats that print the canonical forms as text
TEXT_DIGESTS = {
    ("T", "pretty"): "df4b0853b31c3064e442bc1e0d68519a3bbe60c7a93156a84f9df5bbb635ed61",
    ("Tstar", "pretty"): "37b06c2494745b77600fdce89fe9b5e9c16a393c20dd8d49276c0649ef8697da",
    ("Z", "pretty"): "5a881b788b350777cb42fcd73834170f4067381b395cfe0ce849978262ca3119",
    ("Y", "pretty"): "9a4110fb4c53012cb1390de73ec8df991eebd86b3e6357bae3dc5cb4955a1e8d",
    ("Zprime", "pretty"): "be623d633254085bb927567268a6c3af86c89806a48c990fa8812eaf8e247483",
    ("R", "pretty"): "0558fde245c5bcf516f91672bf1ae0f66f8cb967474cb9376fe8fbd0d6174100",
    ("M0", "pretty"): "2f550549d89775dae627b4ce45987e5ff8764282064335691e3598bdf8a924ff",
    ("M1", "pretty"): "c78f936d874458003f456a0f29be4bab6be7730f9fd70da65fcdf8e177f43ebe",
    ("M2", "pretty"): "6da1e917740b4145a51f9025d9fac179c7225c3545cf6f26021cb98f53633d18",
    ("M3", "pretty"): "ce65b267b7bc5042d86263e8072a56c420e3a732ded30fb7174bafbb3eed2af5",
    ("T", "csv"): "7fd7ff30a737c9cb558d6c9ef7058a1c35c081e0f0e6aaf3e0aae5a0e383d09d",
    ("Tstar", "csv"): "e71e75dac8fbfde2e3b7f27e49b23dabb021403752a99189787e3be329b3931c",
    ("Z", "csv"): "6f2cabef7e9883d363a1075a7e70863e29d57012e853c31fd02b8079d5e46cc6",
    ("Y", "csv"): "6ec9bc7d74a6aa76c4692c668d4f76a2d3086fa66192b198c7449b500cd88dd0",
    ("Zprime", "csv"): "accc3acb17a2eaccd63d8d4b391d7935cff3d88e43913b7d0a8eb5d80db24a11",
    ("R", "csv"): "bcf31932d4b776cfe7d345e846d777a321ab5aa2005bb686d9863d80626b0392",
    ("M0", "csv"): "05bbe08b44e9e210de0bd369cf03804355f5bf0d6c45c663ff6c8236650a17cb",
    ("M1", "csv"): "1cfa2b66df528b588ad9a2de42efcb256b015b4ce99c29d88afe036a3701ebfc",
    ("M2", "csv"): "077cdd2b83acf4229d5dd9328c4a3d14d709948b8cd281bbb5b1153e90d18b8a",
    ("M3", "csv"): "367b27ed282790f068fb9ab7c8e1c136394167c7838fd1ef756e8f0da89b0546",
}


@pytest.mark.parametrize("what, fmt", list(TEXT_DIGESTS))
def test_symbolic_text_pinned(capsys, what, fmt):
    argv = ["matrices", "--format", fmt, "--N", "5"]
    argv += ["--what", "M", "--index", what[1:]] if what.startswith("M") else ["--what", what]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[what, fmt]


def test_matrices_twists_at_root_are_accurate(capsys):
    # T and T* come from their product forms (`numeric.eval_forms`): Horner
    # on the expanded canonical form of T is 9e-6 relative off at N = 16,
    # p = 101
    for what, mat in zip(("T", "Tstar"), twists(16)):
        _, out, _ = run(capsys, "matrices", "--what", what, "--N", "16", "--eval", "p=101", "--format", "json")
        got, ref = json.loads(out), decimal_at_root(mat, 101)
        worst = max(
            relative_error(complex(e["re"], e["im"]), ref[i][j])
            for i, row in enumerate(got)
            for j, e in enumerate(row)
        )
        assert worst <= 1e-13, (what, worst)


@pytest.mark.parametrize("N", [*range(2, 13), 16, 24, 32])
def test_matrices_at_a_root_match_60_digits(capsys, N):
    # every --what at A_p from its factored form (`numeric.eval_forms`),
    # against its form map evaluated term by term in 60 digits, to 1e-12
    # relative; Horner on the expanded build was 1.1e-8 off for R at N = 12,
    # p = 25, and 2.9e8 at N = 32, p = 65. T and T* agree with the scans'
    # recurrences (`eval_twists`) to 1e-13.
    for what, index in (pair for pair in named(N) if pair[1] in (None, 0, N - 2)):
        forms = repbuild.forms(what, N, index)
        for p in (2 * N + 1, 101, *[20001] * (what in ("Zprime", "M"))):
            argv = ["matrices", "--N", str(N), *what_argv(what, index), "--eval", f"p={p}", "--format", "json"]
            code, out, _ = run(capsys, *argv)
            got = np.array([[complex(e["re"], e["im"]) for e in row] for row in json.loads(out)])
            want = np.zeros((N, N), dtype=complex)
            for ij, (re, im) in decimal_forms(forms, p).items():
                want[ij] = complex(float(re), float(im))
            zero = np.abs(want) < 1e-40  # a sum that vanishes identically
            assert code == 0 and (got[zero] == 0).all(), (what, index, p)
            assert (np.abs(got - want)[~zero] <= 1e-12 * np.abs(want[~zero])).all(), (what, index, p)
            if what in ("T", "Tstar"):
                scan = numeric.eval_twists(N, [numeric.PSetting(p, N)])[what == "Tstar"][0]
                assert (np.abs(got - scan) <= 1e-13 * np.abs(scan)).all(), (what, p)


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--N", "2..3", "--oracle", "--p", "5..13")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 14


def test_verify_corrupted_build_fails(capsys, monkeypatch):
    # one factor of T changed in the forms that the exact checks, the twist
    # limits and the build read
    factors = repbuild._twist_factors
    monkeypatch.setattr(repbuild, "_twist_factors", lambda N: changed_factor(*factors(N), N))
    for N in map(str, range(2, 9)):
        code, out, _ = run(capsys, "verify", "--N", N)
        assert code == 1
        assert "FAIL" in out
        assert f"FAIL  braid relation exact (N={N})" in out
        assert f"FAIL  center commutes with both generators (N={N})" in out
        assert f"FAIL  twist limits match closed forms and hN (N={N})" in out
        code, out, _ = run(capsys, "verify", "--N", N, "--format", "json")
        obj = json.loads(out)
        assert code == 1 and obj["ok"] is False
        failed = {c["name"] for c in obj["checks"] if not c["ok"]}
        assert {f"braid relation exact (N={N})", f"center commutes with both generators (N={N})"} <= failed


@pytest.mark.parametrize("N", range(2, 9))
def test_verify_fails_the_pairing_ratio_limits_on_a_changed_factor(capsys, monkeypatch, N):
    # R[1][0] with its factor {2N-1}+ read as {2N-1}: only that line fails
    ratios = repbuild._ratio_factors

    def changed(N):
        r = ratios(N)
        [(sign, power, factors)] = r[1, 0]
        r[1, 0] = [(sign, power, [(k, plus and k != 2 * N - 1, e) for k, plus, e in factors])]
        return r

    monkeypatch.setattr(repbuild, "_ratio_factors", changed)
    code, out, _ = run(capsys, "verify", "--N", str(N))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  pairing-ratio limits exact (N={N})"
    ]


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("i", [-1, -2], ids=["pole", "finite"])
def test_verify_fails_the_recurrence_limits_on_a_changed_curve_factor(capsys, monkeypatch, i, N):
    # a pole FAILs the line as a wrong limit does, instead of ending the run
    curves = repbuild._curve_factors
    monkeypatch.setattr(repbuild, "_curve_factors", lambda N: flipped_curve_factor(*curves(N), i))
    code, out, err = run(capsys, "verify", "--N", str(N))
    assert (code, err) == (1, "")
    assert f"FAIL  recurrence-matrix limits exact (N={N})" in out.splitlines()


@pytest.mark.parametrize("N", range(2, 9))
def test_verify_fails_the_twist_limits_on_a_changed_denominator(capsys, monkeypatch, N):
    # T*[1][0] times {1}+^-1 ({1}+ is 2 at X = -1): its limit halves while its
    # numerator over its own denominator stays as it was, so only a comparison
    # that reads the denominators FAILs it. The relation checks read the true
    # generators, so the twist line is the only one that sees the change.
    factors, checks = repbuild._twist_factors, repbuild.relation_checks

    def changed(N):
        t, tstar = factors(N)
        [(sign, power, f)] = tstar[1, 0]
        return t, {**tstar, (1, 0): [(sign, power, f + [(1, True, -1)])]}

    (c0, _, den), (d0, _, dden) = (_limit(twist[1][1, 0]) for twist in (factors(N), changed(N)))
    assert (d0, dden) == (c0, 2 * den)
    monkeypatch.setattr(repbuild, "_twist_factors", changed)
    monkeypatch.setattr(repbuild, "relation_checks", lambda N, twist: checks(N, factors(N)))
    code, out, err = run(capsys, "verify", "--N", str(N))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  twist limits match closed forms and hN (N={N})"
    ]


SKEIN_MUTATIONS = {
    "X for X^-1": {"_MINUS_INV_HALF": (1, 1, [(2, False, -1)])},
    "-X/{2} for X/{2}": {"_X_HALF": (1, 1, [(2, False, -1)])},
    "{1} for {2}": {"_X_HALF": (-1, 1, [(1, False, -1)]), "_MINUS_INV_HALF": (1, -1, [(1, False, -1)])},
}


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("mutation", SKEIN_MUTATIONS)
def test_verify_fails_the_recurrence_limits_on_a_changed_skein_constant(capsys, monkeypatch, mutation, N):
    # z' = (X yz - X^-1 zy) / {2} with one of its constants changed: only the
    # recurrence-matrix line fails (z' stays tridiagonal whatever they are)
    for name, value in SKEIN_MUTATIONS[mutation].items():
        monkeypatch.setattr(repbuild, name, value)
    code, out, err = run(capsys, "verify", "--N", str(N))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  recurrence-matrix limits exact (N={N})"
    ]


# products added to z' at (0, 2), off its tridiagonal: {1}^2 vanishes to the
# second order at X = -1, so the recurrence-matrix limits, which read the value
# and the slope there, stay 0 at (0, 2)
OFF_TRIDIAGONAL = {
    "nonzero": [(1, 0, [(1, False, 2)])],
    "cancelling": [(1, 0, [(1, False, 2)]), (-1, 0, [(1, False, 2)])],
}


@pytest.mark.parametrize("N", range(3, 9))
@pytest.mark.parametrize("added", OFF_TRIDIAGONAL)
def test_verify_fails_the_tridiagonal_line_on_a_product_off_it(capsys, monkeypatch, added, N):
    # only the tridiagonal line reads the sum at (0, 2) whole, and it FAILs
    # iff that sum is not zero, decided in Y with nothing built over Q(X)
    terms = repbuild._zprime_terms
    monkeypatch.setattr(repbuild, "_zprime_terms", lambda N: {**terms(N), (0, 2): OFF_TRIDIAGONAL[added]})
    made = sum_forms_calls(monkeypatch)
    code, out, err = run(capsys, "verify", "--N", str(N))
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    if added == "nonzero":
        assert (code, err, failed) == (1, "", [f"FAIL  recurrence matrices tridiagonal (N={N})"])
    else:
        assert (code, err, failed) == (0, "", [])
    assert made == []


# sha256 of `verify --N 2..12` and of `verify --N 2..12 --format json`
VERIFY_DIGESTS = {
    "pretty": "bd5eb34eca7b7e8eb3999fd45b14eb9d29bb8312cc62cfa8089c0670ee76b186",
    "json": "4f33b6cfa58596a9861679aaf113327d1e484b2d24342f3cf5dbab5b3e192cb1",
}


@pytest.mark.parametrize("fmt", VERIFY_DIGESTS)
def test_verify_output_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "verify", "--N", "2..12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[fmt]


def test_verify_json_carries_the_pretty_checks(capsys):
    code, out, _ = run(capsys, "verify", "--N", "2..3", "--oracle", "--p", "5..13", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert out == canonical_json(obj)
    assert (obj["N"], obj["tolerance"], obj["ok"]) == ("2..3", 1e-12, True)
    assert all(set(c) == {"name", "ok"} for c in obj["checks"])
    _, text, _ = run(capsys, "verify", "--N", "2..3", "--oracle", "--p", "5..13")
    assert text.splitlines() == ["# verify  N=2..3  tolerance=1e-12"] + [
        f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}" for c in obj["checks"]
    ]


def test_verify_rejects_csv(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--N", "3", "--format", "csv"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'csv'" in captured.err


def test_verify_oracle_fails_when_the_oracle_is_not_finite(capsys, monkeypatch):
    # a NaN must fail the gate, not vanish inside max()
    real = numeric._oracle_block

    def nan_oracle(N, block, tol):
        t, tstar = real(N, block, tol)
        tstar[:, 1, 0] = np.nan
        return t, tstar

    monkeypatch.setattr(numeric, "_oracle_block", nan_oracle)
    code, out, _ = run(capsys, "verify", "--N", "2", "--oracle", "--p", "10001")
    assert code == 1
    assert "FAIL  oracle equivalence over p=10001 (N=2, worst relative nan)" in out


def test_scan_names_the_level_whose_matrix_is_not_finite(capsys, monkeypatch):
    # a NaN at one level of a block fails the stacked eigenvalue call with an
    # error that names that level, not only "non-finite entries"
    real = numeric.eval_twists

    def nan_twists(N, block, tol):
        t, tstar = real(N, block, tol)
        t[[s.p for s in block].index(21), 0, 1] = np.nan
        return t, tstar

    monkeypatch.setattr(numeric, "eval_twists", nan_twists)
    for argv in (("amu", "--pmax", "41"), ("limit", "--p", "7..41")):
        code, out, err = run(capsys, argv[0], "--word", "y z^-1", "--N", "3", *argv[1:])
        assert code == 2 and out == ""
        assert err == "error: matrix has non-finite entries at p = 21\n"


def _worst_relative(out, p, N):
    head = f"oracle equivalence over p={p} (N={N}, worst relative "
    line = next(line for line in out.splitlines() if head in line)
    return line[:4], float(line.split(head)[1].rstrip(")"))


@pytest.mark.filterwarnings("error")
def test_verify_oracle_is_finite_and_cheap_at_large_levels(capsys):
    # the oracle's raw factorial products used to overflow to NaN from about
    # p = 10001; their telescoped quotient has N factors of modulus O(1)
    code, out, _ = run(capsys, "verify", "--N", "2", "--oracle", "--p", "10001")
    assert code == 0
    assert _worst_relative(out, 10001, 2)[0] == "PASS"
    start = time.perf_counter()
    _, out, _ = run(capsys, "verify", "--N", "2", "--oracle", "--p", "400001")
    assert time.perf_counter() - start < 0.5
    # finite, and a FAIL: the recurrence's float conditioning (1.3e-7 here)
    verdict, worst = _worst_relative(out, 400001, 2)
    assert verdict == "FAIL" and math.isfinite(worst)


def test_verify_oracle_guard_is_not_tripped_at_n14(capsys):
    # the absolute guard on the raw factorial products rejected correct data
    # at N = 14 from p = 359; each divisor now has modulus O(1)
    _, out, _ = run(capsys, "verify", "--N", "14", "--oracle", "--p", "359..401")
    assert _worst_relative(out, "359..401", 14)[0] == "PASS"


@pytest.mark.parametrize("N, p", [(4, "5..7"), (2, "4"), (3, "8")])
def test_verify_oracle_over_no_admissible_level_fails(capsys, N, p):
    # every level of --p is below 2N+1 (or there is no odd one): nothing was
    # compared, so the check cannot pass
    code, out, _ = run(capsys, "verify", "--N", str(N), "--oracle", "--p", p)
    assert code == 1
    line = f"FAIL  oracle equivalence over p={p} (N={N}): no odd level p >= 2N+1 = {2 * N + 1}"
    assert line in out.splitlines()
    code, out, _ = run(capsys, "verify", "--N", str(N), "--oracle", "--p", p, "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 1 and checks[-1] == {"name": line[6:], "ok": False}


def test_verify_oracle_fails_only_the_dimension_without_levels(capsys):
    # p = 5..7 holds admissible levels for N = 2 and 3 but none for N = 4
    code, out, _ = run(capsys, "verify", "--N", "2..4", "--oracle", "--p", "5..7")
    assert code == 1
    oracle = [line for line in out.splitlines() if "oracle" in line]
    assert [line[:4] for line in oracle] == ["PASS", "PASS", "FAIL"]


def test_limit_over_no_odd_level_is_an_error(capsys):
    code, out, err = run(capsys, "limit", "--word", "y z^-1", "--N", "2", "--p", "4")
    assert code == 2 and out == ""
    assert "--p 4 holds no odd level" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("matrices", "--N", "2", "--what", "T"),
        ("verify", "--N", "2"),
        ("limit", "--word", "y z^-1", "--N", "2", "--p", "5..9"),
    ],
)
def test_margin_only_on_amu(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--margin", "0.5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --margin" in capsys.readouterr().err


def sum_forms_calls(monkeypatch):
    """Record the calls of `qsymbols._sum_forms`, the one maker of canonical
    forms over Q(X), at both places it is bound."""
    calls, real = [], qsymbols._sum_forms

    def recorded(entries):
        calls.append(entries)
        return real(entries)

    for owner in (qsymbols, repbuild):
        monkeypatch.setattr(owner, "_sum_forms", recorded)
    return calls


def count_builds(monkeypatch):
    """Count the calls of `repbuild._matrix`, the one build over Q(X)."""
    calls, build = {"_matrix": 0}, repbuild._matrix

    def counted(*args):
        calls["_matrix"] += 1
        return build(*args)

    monkeypatch.setattr(repbuild, "_matrix", counted)
    return calls


def test_amu_builds_no_gcd_and_no_recurrence(capsys, monkeypatch):
    # The scans evaluate T and T* at A_p from their product forms: nothing
    # exact is built, so no z' and no M^(n) either.
    calls = count_builds(monkeypatch)
    code, out, _ = run(capsys, "amu", "--word", "y z^-1", "--N", "8", "--pmax", "41")
    assert code == 0 and "p0_observed=37" in out
    assert calls == {"_matrix": 0}


@pytest.mark.parametrize(
    "argv, built",
    [
        (("--what", "Z"), {"_matrix": 1}),
        (("--what", "Zprime", "--eval", "x=-1"), {}),  # off its sums of products
        (("--what", "T"), {"_matrix": 1}),
        (("--what", "Tstar", "--eval", "p=31"), {}),  # from the product forms
        (("--what", "M", "--index", "1"), {"_matrix": 1}),
        (("--what", "R"), {"_matrix": 1}),
        *((("--what", what, "--eval", "x=-1"), {}) for what in ("T", "Tstar", "Z", "Y", "R")),
        (("--what", "M", "--index", "1", "--eval", "x=-1"), {}),
        # at A_p every matrix is read off its factored form
        *((("--what", what, "--eval", "p=9"), {}) for what in ("T", "Tstar", "Z", "Y", "R", "Zprime")),
        (("--what", "M", "--index", "1", "--eval", "p=9"), {}),
    ],
)
def test_matrices_builds_only_what_it_emits(capsys, monkeypatch, argv, built):
    calls = count_builds(monkeypatch)
    code, _, _ = run(capsys, "matrices", "--N", "4", *argv)
    assert code == 0
    assert calls == {"_matrix": 0, **built}


def test_verify_builds_each_matrix_once_per_dimension(capsys, monkeypatch):
    # nothing over Q(X): T, T* and R are read at X = -1 off their product
    # forms and the M^(n) off z''s jets, so not one element of Q(X) is made;
    # the form maps of T and T* and of z' are read once per N, and no M^(n)
    # map is made
    calls = count_builds(monkeypatch)
    for name in ("_twist_factors", "_zprime_terms", "_recurrence_terms"):
        calls[name], real = 0, getattr(repbuild, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(repbuild, name, counted)
    made = sum_forms_calls(monkeypatch)
    code, _, _ = run(capsys, "verify", "--N", "2..5")
    assert code == 0
    assert calls == {"_matrix": 0, "_twist_factors": 4, "_zprime_terms": 4, "_recurrence_terms": 0}
    assert made == []


SMALL_N_ARGV = [
    *(("matrices", "--N", N, "--what", what) for N in ("1", "0")
      for what in ("T", "Tstar", "M", "Z", "Y", "Zprime", "R", "hN")),
    ("verify", "--N", "1"),
    ("verify", "--N", "0"),
    ("verify", "--N", "1..3"),
    ("verify", "--N", "0..3"),
    ("amu", "--word", "y z^-1", "--N", "1", "--pmax", "9"),
    ("amu", "--word", "y z^-1", "--N", "0", "--pmax", "9"),
    ("limit", "--word", "y z^-1", "--N", "1", "--p", "3..9"),
    ("limit", "--word", "y z^-1", "--N", "0", "--p", "3..9"),
]


@pytest.mark.parametrize("argv", SMALL_N_ARGV, ids=" ".join)
def test_every_command_rejects_n_below_two(capsys, monkeypatch, argv):
    # one message from the size gate, before anything is built or printed
    calls = count_builds(monkeypatch)
    code, out, err = run(capsys, *argv)
    N = argv[argv.index("--N") + 1].split("..")[0]
    assert (code, out, err) == (2, "", f"error: N must be an integer >= 2, got {N}\n")
    assert calls == {"_matrix": 0}


@pytest.mark.parametrize("index", ["-1", "3"])
def test_matrices_rejects_a_recurrence_index_outside_the_range(capsys, monkeypatch, index):
    calls = count_builds(monkeypatch)
    code, out, err = run(capsys, "matrices", "--N", "4", "--what", "M", "--index", index)
    assert (code, out, err) == (2, "", "error: --index must be in 0..2 for --what M\n")
    assert calls == {"_matrix": 0}


@pytest.mark.parametrize("what", ["T", "Tstar", "M", "Z", "Y", "Zprime", "R", "hN"])
@pytest.mark.parametrize("p", ["4", "8", "5"])
def test_matrices_rejects_a_level_that_is_even_or_below_2n_plus_1(capsys, monkeypatch, what, p):
    # hN too: it printed its rational matrix for any --eval p=
    calls = count_builds(monkeypatch)
    index = ["--index", "1"] if what == "M" else []
    code, out, err = run(capsys, "matrices", "--N", "3", "--what", what, *index, "--eval", f"p={p}")
    assert (code, out, err) == (2, "", f"error: need odd p >= 2N+1 = 7, got p = {p}\n")
    assert calls == {"_matrix": 0}


def test_amu_at_n24_is_fast_and_right(capsys):
    # double-precision Horner on the expanded forms put rho at p = 49 above
    # 1 + margin (1.037; the true value is 1) and p0_observed at 49
    start = time.perf_counter()
    code, out, _ = run(capsys, "amu", "--word", "y z^-1", "--N", "24", "--pmax", "61")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and "# p0_observed=51" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("amu", "--word", "y z^-1", "--N", "40", "--pmax", "81"),
        ("limit", "--word", "y z^-1", "--N", "40", "--p", "81..85"),
    ],
)
def test_scan_rejects_large_n_before_building(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "dimension 40 exceeds bound 32" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("dims", ["40", "2..40"])
def test_verify_rejects_large_n_before_building(capsys, dims):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--N", dims)
    assert code == 2 and out == ""
    assert "dimension 40 exceeds bound 32" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("what", ["T", "hN"])
def test_matrices_rejects_large_n_before_building(capsys, what):
    start = time.perf_counter()
    code, out, err = run(capsys, "matrices", "--N", "40", "--what", what)
    assert code == 2 and out == ""
    assert "dimension 40 exceeds bound 32" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("amu", "--word", "y z^-1", "--N", "2", "--pmax", str(10**12)),
        ("limit", "--word", "y z^-1", "--N", "2", "--p", f"5..{10**12}"),
        ("verify", "--N", "2", "--oracle", "--p", f"5..{10**12}"),
    ],
)
def test_scans_wider_than_the_level_cap_are_refused_at_once(capsys, argv):
    # 5e11 levels: refused from the range's length, before any level exists
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: scan of 499999999998 levels exceeds bound {numeric.MAX_LEVELS}\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "argv, what",
    [
        (("amu", "--word", f"y^{10**160} z^-1", "--N", "4", "--pmax", "11"), "the squared trace"),
        (("amu", "--word", f"y^{10**100} z^-1", "--N", "32", "--pmax", "65"), "the target eigenvalue"),
        (("limit", "--word", f"y^{10**400} z^-1", "--N", "4", "--p", "9..11"), "an entry of the classical target"),
        (("matrices", "--N", "3", "--what", "hN", "--word", f"y^{10**400}", "--eval", "p=7"), "a matrix entry"),
    ],
    ids=["stretch", "target_eig", "limit_target", "hN_at_p"],
)
def test_exponents_beyond_the_float_range_are_refused(capsys, argv, what):
    # the stretch factor, its power N-1 and h_N(w) are exact until they are
    # made floats: there a typed error, not an OverflowError
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what}") and err.endswith("is beyond the float range\n")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_negative_or_non_finite_margin_and_tolerance_are_refused(capsys, monkeypatch, value):
    # `amu --margin -1` certified p0_observed = 5 at a spectral radius of 1,
    # and a NaN or negative tolerance voided every near-pole guard: each is
    # refused before anything is built or evaluated
    started = sum_forms_calls(monkeypatch)

    def refused(*args):
        started.append(args)
        raise AssertionError("work began before the bound was checked")

    for owner, name in ((numeric, "eval_twists"), (numeric, "eval_forms"), (repbuild, "relation_checks")):
        monkeypatch.setattr(owner, name, refused)
    amu = ("amu", "--word", "y z^-1", "--N", "2", "--pmax", "5")
    cases = [((*amu, "--margin", value), "margin")] + [
        ((*argv, "--tolerance", value), "tolerance")
        for argv in (amu, ("limit", "--word", "y z^-1", "--N", "2", "--p", "5..9"), ("verify", "--N", "2"),
                     ("matrices", "--N", "2", "--what", "T", "--eval", "p=7"))
    ]
    for argv, name in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, started) == (2, "", []), argv
        assert err == f"error: {name} must be finite and >= 0, got {float(value)}\n", argv
    with pytest.raises(ValueError, match="margin must be finite"):
        numeric.amu_certificate(parse_word("y z^-1"), 2, 5, margin=float(value))


def test_level_cap_admits_the_widest_documented_scan():
    # `limit --N 2 --p 5..200001`, 99,999 levels, is the widest README or CI run
    assert len(range(5, 200002, 2)) <= numeric.MAX_LEVELS
    numeric.check_size(2, numeric.MAX_LEVELS)
    with pytest.raises(TooLargeError, match="scan of 100001 levels exceeds bound 100000"):
        numeric.check_size(2, numeric.MAX_LEVELS + 1)


def test_limit_rejects_a_level_too_large_for_exact_angles(capsys):
    # the angles 2 pi k e/p are reduced in 64-bit integers, which p = 1e18 + 1
    # would overflow: a typed error, not wrapped-around values
    code, out, err = run(capsys, "limit", "--word", "y z^-1", "--N", "2", "--p", str(10**18 + 1))
    assert code == 2 and out == ""
    assert "too large to reduce angles exactly" in err


def test_amu_pretty_and_json(capsys):
    code, out, _ = run(capsys, "amu", "--word", "y z^-1", "--N", "2", "--pmax", "31")
    assert code == 0
    assert "PseudoAnosov" in out and "p0_observed=13" in out
    assert "margin=1e-06" in out and "tolerance=1e-12" in out
    code, out, _ = run(
        capsys, "amu", "--word", "y z^-1", "--N", "2", "--pmax", "31",
        "--format", "json",
    )
    obj = json.loads(out)
    assert obj["classification"] == "PseudoAnosov"
    assert obj["p0_observed"] == 13
    assert len(obj["rows"]) == len(range(5, 32, 2))


AMU_KEYS = {"word", "N", "classification", "stretch", "target_eig", "margin", "tolerance", "p0_observed", "rows"}
LIMIT_KEYS = {"word", "N", "tolerance", "rows"}


@pytest.mark.parametrize("word", ["y z^-1", "y"], ids=["pseudo-Anosov", "reducible"])
@pytest.mark.parametrize(
    "argv, keys",
    [(("amu", "--pmax", "15"), AMU_KEYS), (("limit", "--p", "5..15"), LIMIT_KEYS)],
    ids=["amu", "limit"],
)
def test_scan_json_schema(capsys, word, argv, keys):
    # the keys and value types that `bench/refcheck.py` and other readers of
    # the JSON rely on: exactly these top-level keys, and rows of an int
    # level and two floats
    code, out, _ = run(capsys, argv[0], "--word", word, "--N", "2", *argv[1:], "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == keys
    assert obj["word"] == word and obj["N"] == 2 and obj["tolerance"] == 1e-12
    assert [row["p"] for row in obj["rows"]] == list(range(5, 16, 2))
    for row in obj["rows"]:
        assert set(row) == {"p", "spectral_radius", "deviation"}
        assert type(row["p"]) is int
        assert type(row["spectral_radius"]) is float and type(row["deviation"]) is float
    if argv[0] == "amu":
        assert type(obj["margin"]) is float
        if word == "y":
            assert (obj["classification"], obj["stretch"], obj["target_eig"], obj["p0_observed"]) == (
                "ReducibleOrCentral", None, None, None)
        else:
            assert obj["classification"] == "PseudoAnosov" and type(obj["p0_observed"]) is int
            assert type(obj["stretch"]) is float and type(obj["target_eig"]) is float


@pytest.mark.parametrize(
    "argv",
    [
        ("amu", "--word", "y z^-1", "--N", "3", "--pmax", "11"),
        ("limit", "--word", "y z^-1", "--N", "3", "--p", "7..11"),
    ],
    ids=lambda argv: argv[0],
)
def test_eigenvalue_solver_failure_is_an_error(capsys, monkeypatch, argv):
    # LAPACK failing to converge is an error (status 2, one line), not a
    # traceback with the status of a FAILed check
    def failed(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failed)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: eigenvalue solver failed: Eigenvalues did not converge\n"


def test_amu_non_pa_has_no_p0(capsys):
    code, out, _ = run(
        capsys, "amu", "--word", "y", "--N", "2", "--pmax", "31", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "ReducibleOrCentral"
    assert obj["p0_observed"] is None


def test_amu_parse_error_exit(capsys):
    code, _, err = run(capsys, "amu", "--word", "q", "--N", "2", "--pmax", "31")
    assert code == 2
    assert "position 0" in err


def test_limit_csv_header(capsys):
    code, out, _ = run(
        capsys, "limit", "--word", "y z^-1", "--N", "2", "--p", "5..21",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,spectral_radius,deviation"
    assert len(lines) == 1 + len(range(5, 22, 2))


@pytest.mark.parametrize("argv", [("amu", "--pmax", "21"), ("limit", "--p", "7..21")], ids=lambda argv: argv[0])
def test_scan_text_contract(capsys, argv):
    # pretty and csv: the # lines (amu in both formats, limit in pretty
    # only), the csv header, then the json rows to 12 significant digits
    cmd, *span = argv
    out = {fmt: run(capsys, cmd, "--word", "y z^-1", "--N", "3", *span, "--format", fmt)[1]
           for fmt in ("pretty", "csv", "json")}
    rows = [(r["p"], f"{r['spectral_radius']:.12g}", f"{r['deviation']:.12g}") for r in json.loads(out["json"])["rows"]]
    assert [r[0] for r in rows] == list(range(7, 22, 2))
    for fmt in ("pretty", "csv"):
        lines = out[fmt].splitlines()
        n_head = sum(line.startswith("#") for line in lines)
        assert all(line.startswith("#") for line in lines[:n_head])
        assert (n_head > 0) == (cmd == "amu" or fmt == "pretty")
        assert lines[n_head] == "p,spectral_radius,deviation"
        assert [(int(p), rho, dev) for p, rho, dev in (line.split(",") for line in lines[n_head + 1 :])] == rows


@pytest.mark.parametrize(
    "coeffs, text",
    [([], "0"), ([0, 0], "0"), ([-1], "-1"), ([0, -1], "-X"), ([3, 0, -2], "-2*X^2 + 3"),
     ([10**20, 1], "X + 100000000000000000000")],
)
def test_poly_text_cases(coeffs, text):
    assert _poly_text(coeffs) == text


@given(st.lists(st.integers(), max_size=8).filter(lambda c: not c or any(c)))
@settings(max_examples=300, deadline=None)
def test_poly_text_equals_the_reference_printer(coeffs):
    assert _poly_text(coeffs) == poly_text(coeffs)


def test_limit_deterministic(capsys):
    args = ("limit", "--word", "y z^-1", "--N", "3", "--p", "7..15", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.json"
    code, out, _ = run(
        capsys, "matrices", "--N", "2", "--what", "T", "--format", "json",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["matrix_name"] == "T"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrices", "--N", "2", "--what", "T", "--eval", "x=-1"),
        ("verify", "--N", "2"),
        ("amu", "--word", "y z^-1", "--N", "2", "--pmax", "9"),
        ("limit", "--word", "y z^-1", "--N", "2", "--p", "5..9"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_to_a_path_that_cannot_be_opened_is_an_error(tmp_path, capsys, argv):
    # a missing directory or a directory: one error line and status 2, as for
    # every error, not a traceback and the status of a FAILed check
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.endswith(f"{str(target)!r}\n") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_out_is_opened_before_any_work(tmp_path, capsys, monkeypatch):
    # as by a shell redirection, a path that cannot be opened is refused
    # before the work starts: at N = 32 neither the exact checks nor the
    # symbolic build of R is begun
    started = sum_forms_calls(monkeypatch)

    def refused(*args):
        started.append(args)
        raise AssertionError("the exact checks ran before --out was opened")

    monkeypatch.setattr(repbuild, "relation_checks", refused)
    target = tmp_path / "missing" / "x"
    for argv in (("verify", "--N", "32"), ("matrices", "--N", "32", "--what", "R")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out, started) == (2, "", [])
        assert err.startswith("error: ") and err.endswith(f"{str(target)!r}\n") and err.count("\n") == 1


def test_calls_in_one_process_print_what_each_prints_alone(capsys):
    # `main` parses every call with the one parser built at import: a call
    # after others, with other commands and options, prints what it prints
    # in a process of its own
    calls = [
        ("matrices", "--N", "3", "--what", "M", "--index", "0", "--format", "json"),
        ("verify", "--N", "2..3"),
        ("amu", "--word", "y z^-1", "--N", "3", "--pmax", "21"),
    ]
    together = [run(capsys, *argv) for argv in calls]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(torusrep.__file__))}
    for argv, got in zip(calls, together):
        alone = subprocess.run(
            [sys.executable, "-m", "torusrep.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
