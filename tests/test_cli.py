import json
import time

import pytest

from torusrep import field, repbuild
from torusrep.cli import canonical_json, main
from torusrep.field import FMatrix, fmatrix_from_obj, fmatrix_to_obj


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


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_verify_oracle_fails_when_the_oracle_is_not_finite(capsys):
    # at p = 10001 the oracle's raw factorial products overflow and its T*
    # is NaN; a NaN must fail the gate, not vanish inside max()
    code, out, _ = run(capsys, "verify", "--N", "2", "--oracle", "--p", "10001")
    assert code == 1
    assert "FAIL  oracle equivalence over p=10001 (N=2, worst relative nan)" in out


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
