"""Command-line front end.

Subcommands:
  matrices  build one named matrix and emit it (symbolic, at X = -1, or at A_p)
  verify    run the structural verification suites, one PASS/FAIL line each
  amu       infinite-order certificate for a word
  limit     convergence table for a word over a level range

Output formats: pretty (default), json (canonical, byte-stable), csv (not for
verify).
Exit status is 0 iff every requested check passed and no error occurred.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import classical, numeric, repbuild
from .errors import BadPError, NearPoleError, ParseError, PoleError
from .field import FMatrix, fmatrix_to_obj
from .mcg import parse_word, sl2_image
from .qsymbols import QContext, rhat


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_range(text: str, odd: bool = False):
    """`a..b` inclusive, or a single integer."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    step = 1
    if odd:
        if lo % 2 == 0:
            lo += 1
        step = 2
    return range(lo, hi + 1, step)


def _parse_eval(text: str):
    """--eval symbolic | x=-1 | p=<odd>"""
    if text == "symbolic":
        return ("symbolic", None)
    if text == "x=-1":
        return ("classical", None)
    if text.startswith("p="):
        return ("root", int(text[2:]))
    raise ValueError(f"bad --eval value {text!r} (use symbolic, x=-1, or p=<odd>)")


def _rational_obj(mat):
    return [[str(Fraction(e)) for e in row] for row in mat]


def _complex_obj(mat):
    return [[{"re": float(e.real), "im": float(e.imag)} for e in row] for row in mat]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_text(obj, fmt: str, header: str, sym: FMatrix | None = None) -> str:
    if fmt == "json":
        return canonical_json(obj)
    if sym is not None:
        lines = ["; ".join(str(e) for e in row) for row in sym.rows]
    else:
        rows = obj["entries"] if isinstance(obj, dict) else obj

        def cell(e):
            if isinstance(e, dict):
                return f"{e['re']:+.12g}{e['im']:+.12g}j"
            return str(e)

        lines = [",".join(cell(e) for e in row) for row in rows]
    if fmt == "csv":
        return "\n".join(lines) + "\n"
    return header + "\n" + "\n".join("  [" + line + "]" for line in lines) + "\n"


def cmd_matrices(args) -> int:
    mode, p = _parse_eval(args.eval)
    N = args.N
    ctx = QContext(N)
    what = args.what

    if what == "hN":
        word = parse_word(args.word)
        mat = classical.hN_matrix(sl2_image(word), N)
        if mode == "root":
            obj = _complex_obj([[complex(e) for e in row] for row in mat])
        else:
            obj = _rational_obj(mat)
        _emit(_matrix_text(obj, args.format, f"# hN  N={N}  word={word}"), args.out)
        return 0

    rs = repbuild.build_repset(ctx)
    named = {"T": "t_hat", "Tstar": "tstar_hat", "Z": "z_hat", "Y": "y_hat", "Zprime": "zprime_hat"}
    if what == "M":
        if args.index is None or not 0 <= args.index <= N - 2:
            raise ValueError(f"--index must be in 0..{N - 2} for --what M")
        sym = rs.m_hat[args.index]
        name = f"M{args.index}"
    elif what == "R":
        sym = FMatrix(
            tuple(tuple(rhat(n, m, ctx) for m in range(N)) for n in range(N))
        )
        name = "R"
    else:
        sym = getattr(rs, named[what])  # z, y and z' are built on first use
        name = what

    header = f"# {name}  N={N}  eval={args.eval}"
    if mode == "symbolic":
        obj = fmatrix_to_obj(sym, name=name, N=N)
        _emit(_matrix_text(obj, args.format, header, sym=sym), args.out)
        return 0
    if mode == "classical":
        obj = _rational_obj(repbuild.classical_limit(sym))
    elif what in ("T", "Tstar"):  # from the product forms, as the scans evaluate them
        t, tstar = numeric.eval_twists(N, [numeric.PSetting(p, N)], args.tolerance)
        obj = _complex_obj((t if what == "T" else tstar)[0])
    else:
        setting = numeric.PSetting(p, N)
        obj = _complex_obj(numeric.eval_matrix(sym, setting.A, args.tolerance))
    _emit(_matrix_text(obj, args.format, header), args.out)
    return 0


def cmd_verify(args) -> int:
    dims = _parse_range(args.N)
    numeric.check_dimension(dims[-1])  # before building anything
    checks = []  # (label, ok) in order
    for N in dims:
        ctx = QContext(N)
        rs = repbuild.build_repset(ctx)
        cl = classical.closed_limits(N)

        braid_ok, center_ok = repbuild.relation_checks(rs.t_hat, rs.tstar_hat)
        checks.append((f"braid relation exact (N={N})", braid_ok))

        try:
            t_lim = repbuild.classical_limit(rs.t_hat)
            ts_lim = repbuild.classical_limit(rs.tstar_hat)
            ok = (
                t_lim == cl.that_limit
                and ts_lim == cl.tstar_limit
                and t_lim == classical.hN_matrix(classical.SL2(1, 1, 0, 1), N)
                and ts_lim == classical.hN_matrix(classical.SL2(1, 0, -1, 1), N)
            )
        except PoleError:
            ok = False
        checks.append((f"twist limits match closed forms and hN (N={N})", ok))

        ok = all(
            rhat(n, m, ctx).eval_exact(-1) == cl.r_limit[n][m]
            for n in range(N)
            for m in range(N)
        )
        checks.append((f"pairing-ratio limits exact (N={N})", ok))

        ok = all(
            repbuild.classical_limit(rs.m_hat[n]) == cl.m_limits[n]
            for n in range(N - 1)
        )
        checks.append((f"recurrence-matrix limits exact (N={N})", ok))

        ok = all(
            rs.m_hat[n][m][l].is_zero
            for n in range(N - 1)
            for m in range(N)
            for l in range(N)
            if abs(m - l) >= 2
        )
        checks.append((f"recurrence matrices tridiagonal (N={N})", ok))

        checks.append((f"center commutes with both generators (N={N})", center_ok))

        if args.oracle:
            try:
                levels = [
                    numeric.PSetting(p, N)
                    for p in _parse_range(args.p, odd=True)
                    if p >= 2 * N + 1  # clamp sweeps to admissible levels
                ]
                worst = numeric.oracle_deviation(N, levels, args.tolerance)
                ok = worst <= 1e-9
                label = f"oracle equivalence over p={args.p} (N={N}, worst relative {worst:.2e})"
            except (BadPError, NearPoleError) as err:
                ok = False
                label = f"oracle equivalence over p={args.p} (N={N}): {err}"
            checks.append((label, ok))

    all_ok = all(ok for _, ok in checks)
    if args.format == "json":
        obj = {
            "N": args.N,
            "tolerance": args.tolerance,
            "checks": [{"name": label, "ok": bool(ok)} for label, ok in checks],
            "ok": all_ok,
        }
        text = canonical_json(obj)
    else:
        lines = [f"# verify  N={args.N}  tolerance={args.tolerance:g}"]
        lines += [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_ok else 1


def _rows_obj(rows) -> list[dict]:
    return [{"p": r.p, "spectral_radius": r.spectral_radius, "deviation": r.deviation} for r in rows]


def _rows_csv(rows) -> list[str]:
    return ["p,spectral_radius,deviation"] + [
        f"{r.p},{r.spectral_radius:.12g},{r.deviation:.12g}" for r in rows
    ]


def _report_text(report: numeric.AMUReport, fmt: str, tolerance: float) -> str:
    if fmt == "json":
        obj = {
            "word": str(report.word),
            "N": report.N,
            "classification": report.classification.value,
            "stretch": report.stretch,
            "target_eig": report.target_eig,
            "margin": report.margin,
            "tolerance": tolerance,
            "p0_observed": report.p0_observed,
            "rows": _rows_obj(report.rows),
        }
        return canonical_json(obj)
    head = [
        f"# word={report.word}  N={report.N}  classification={report.classification.value}",
        f"# margin={report.margin:g}  tolerance={tolerance:g}",
    ]
    if report.stretch is not None:
        head.append(
            f"# stretch={report.stretch:.12g}  target_eig={report.target_eig:.12g}"
        )
    head.append(f"# p0_observed={report.p0_observed}")
    return "\n".join(head + _rows_csv(report.rows)) + "\n"


def cmd_amu(args) -> int:
    word = parse_word(args.word)
    report = numeric.amu_certificate(
        word, args.N, args.pmax, margin=args.margin, tol=args.tolerance
    )
    _emit(_report_text(report, args.format, args.tolerance), args.out)
    return 0


def cmd_limit(args) -> int:
    word = parse_word(args.word)
    rows = numeric.convergence_table(word, args.N, _parse_range(args.p, odd=True), args.tolerance)
    if args.format == "json":
        obj = {"word": str(word), "N": args.N, "tolerance": args.tolerance, "rows": _rows_obj(rows)}
        text = canonical_json(obj)
    else:
        head = [f"# word={word}  N={args.N}  tolerance={args.tolerance:g}"]
        body = _rows_csv(rows)
        text = "\n".join(head + body if args.format == "pretty" else body) + "\n"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusrep",
        description="Exact quantum representations of the one-holed torus: "
        "build, verify, and certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("pretty", "json", "csv")):
        p.add_argument("--format", choices=formats, default="pretty")
        p.add_argument("--tolerance", type=float, default=numeric.DEFAULT_TOLERANCE,
                       help="near-pole tolerance for complex evaluation")
        p.add_argument("--out", default=None, help="write output to this path")

    p_m = sub.add_parser("matrices", help="emit one named matrix")
    p_m.add_argument("--N", type=int, required=True)
    p_m.add_argument("--what", required=True,
                     choices=("T", "Tstar", "M", "Z", "Y", "Zprime", "R", "hN"))
    p_m.add_argument("--index", type=int, default=None, help="recurrence index for --what M")
    p_m.add_argument("--word", default="y", help="word for --what hN")
    p_m.add_argument("--eval", default="symbolic", help="symbolic | x=-1 | p=<odd>")
    common(p_m)
    p_m.set_defaults(func=cmd_matrices)

    p_v = sub.add_parser("verify", help="run the verification suites")
    p_v.add_argument("--N", required=True, help="dimension or range a..b")
    p_v.add_argument("--oracle", action="store_true", help="also run the per-level oracle comparison")
    p_v.add_argument("--p", default="5..31", help="level range a..b for --oracle")
    common(p_v, formats=("pretty", "json"))
    p_v.set_defaults(func=cmd_verify)

    p_a = sub.add_parser("amu", help="infinite-order certificate for a word")
    p_a.add_argument("--word", required=True)
    p_a.add_argument("--N", type=int, required=True)
    p_a.add_argument("--pmax", type=int, required=True)
    p_a.add_argument("--margin", type=float, default=numeric.DEFAULT_MARGIN,
                     help="spectral-radius margin over 1 for the certificate")
    common(p_a)
    p_a.set_defaults(func=cmd_amu)

    p_l = sub.add_parser("limit", help="convergence table for a word")
    p_l.add_argument("--word", required=True)
    p_l.add_argument("--N", type=int, required=True)
    p_l.add_argument("--p", required=True, help="level range a..b (odd levels)")
    common(p_l)
    p_l.set_defaults(func=cmd_limit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (BadPError, PoleError, NearPoleError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
