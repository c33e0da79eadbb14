import hashlib
import json
import math
import time

import numpy as np
import pytest

from torusrep import field, numeric, repbuild
from torusrep.cli import canonical_json, main
from torusrep.field import FMatrix, fmatrix_from_obj, fmatrix_to_obj
from torusrep.qsymbols import QContext

from reference import decimal_at_root, relative_error


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
# (M with --index 0..3), recorded from the build whose coefficients could be
# Fractions and whose `eval_matrix` was a batched Horner over many points; T
# and T* at p = 31 re-recorded once they came from their product forms
# (`eval_twists`), which moved their last bits (4.3e-14 and 7e-16 relative).
EVAL_DIGESTS = {
    ("T", "p=31"): "c60d6a19cd7149a9749b65b3e9615adec57ddee1ced54d27fae0dd88ade13e79",
    ("Tstar", "p=31"): "afe0b6e7853cc94b206280c908a79b5183c813977851785583f39ad3aeb2d2a0",
    ("Z", "p=31"): "d8bcf1ef951e879c08ac235e6e1953c8048ee629a0903d5657e3d33c0f8db89a",
    ("Y", "p=31"): "974a965169cc76ab5f73ed89ecc5bd2709baab3b7a94e1527c226d671460b15d",
    ("Zprime", "p=31"): "79b02c6088a2d1b2a7349814b74347210a5e89810af83a5c6774950a91837bc5",
    ("R", "p=31"): "b6d66b5169980caae4487a058049d6d7f221c2751e9dd643e28b2338109eda0a",
    ("M0", "p=31"): "430ebc73345edfa875375abce4a27b8c56e0a75e1c40eb2c582360831bb682f5",
    ("M1", "p=31"): "32b5392decd95e0cde58f3a75c157cf28ade85d5931a93ec3041706dbd7b5f54",
    ("M2", "p=31"): "6ea731c1ceac62d65d8df95d3bb1cb6905ac9a8d8610837b70f0b5fdad53df55",
    ("M3", "p=31"): "a6427dfbe973500f215d10b49d87ba977f2faf94518f3e864a105e430a6f29f3",
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


def test_matrices_twists_at_root_are_accurate(capsys):
    # T and T* come from their product forms (`eval_twists`): Horner on the
    # expanded canonical form of T is 9e-6 relative off at N = 16, p = 101
    rs = repbuild.build_repset(QContext(16))
    for what, mat in (("T", rs.t_hat), ("Tstar", rs.tstar_hat)):
        _, out, _ = run(capsys, "matrices", "--what", what, "--N", "16", "--eval", "p=101", "--format", "json")
        got, ref = json.loads(out), decimal_at_root(mat, 101)
        worst = max(
            relative_error(complex(e["re"], e["im"]), ref[i][j])
            for i, row in enumerate(got)
            for j, e in enumerate(row)
        )
        assert worst <= 1e-13, (what, worst)


def test_verify_pass_and_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--N", "2..3", "--oracle", "--p", "5..13")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 14


def test_verify_corrupted_build_fails(capsys, monkeypatch):
    build = repbuild.build_repset

    def corrupted(ctx):
        rs = build(ctx)
        rows = [list(r) for r in rs.t_hat.rows]
        rows[0][0] = rs.t_hat[0][0] - 1
        return repbuild.RepSet(ctx, FMatrix(rows), rs.tstar_hat)

    monkeypatch.setattr(repbuild, "build_repset", corrupted)
    for N in ("2", "5"):
        code, out, _ = run(capsys, "verify", "--N", N)
        assert code == 1
        assert "FAIL" in out
        assert f"FAIL  braid relation exact (N={N})" in out
        assert f"FAIL  center commutes with both generators (N={N})" in out
        code, out, _ = run(capsys, "verify", "--N", N, "--format", "json")
        obj = json.loads(out)
        assert code == 1 and obj["ok"] is False
        failed = {c["name"] for c in obj["checks"] if not c["ok"]}
        assert {f"braid relation exact (N={N})", f"center commutes with both generators (N={N})"} <= failed


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
        *rest, t, tstar = real(N, block, tol)
        tstar[:, 1, 0] = np.nan
        return (*rest, t, tstar)

    monkeypatch.setattr(numeric, "_oracle_block", nan_oracle)
    code, out, _ = run(capsys, "verify", "--N", "2", "--oracle", "--p", "10001")
    assert code == 1
    assert "FAIL  oracle equivalence over p=10001 (N=2, worst relative nan)" in out


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


def test_amu_builds_no_gcd_and_no_recurrence(capsys, monkeypatch):
    # The scans evaluate T and T* at A_p from their product forms: nothing
    # exact is built, so no gcd, no z' and no M^(n) either.
    calls = {"poly_gcd": 0, "build_zprime": 0, "build_m": 0, "build_repset": 0, "_twists": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    repbuild.build_repset.cache_clear()
    counted(field, "poly_gcd")
    for name in ("build_zprime", "build_m", "build_repset", "_twists"):
        counted(repbuild, name)
    code, out, _ = run(capsys, "amu", "--word", "y z^-1", "--N", "8", "--pmax", "41")
    assert code == 0 and "p0_observed=37" in out
    assert calls == {"poly_gcd": 0, "build_zprime": 0, "build_m": 0, "build_repset": 0, "_twists": 0}


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
