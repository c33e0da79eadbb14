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
import contextlib
import json
import sys
from fractions import Fraction

from . import classical, numeric, repbuild
from .errors import BadPError, ConvergenceError, NearPoleError, PoleError, float_range
from .mcg import parse_word, sl2_image
from .qsymbols import _sum_factors, same_limit


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
    rows, den = mat
    return [[str(Fraction(x, den)) for x in row] for row in rows]


def _complex_obj(mat):
    with float_range("a matrix entry"):
        return [[{"re": float(e.real), "im": float(e.imag)} for e in row] for row in mat]


def _poly_text(coeffs) -> str:
    """The polynomial in X with integer coefficients `coeffs`, ascending, as
    text from its highest term."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        term = "" if k == 0 else ("X" if k == 1 else f"X^{k}")
        if c == 1 and term:
            s = term
        elif c == -1 and term:
            s = f"-{term}"
        else:
            s = f"{c}" if not term else f"{c}*{term}"
        parts.append(s)
    out = parts[0]
    for s in parts[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def _form_text(num, den) -> str:
    """The canonical form num / den (`qsymbols._sum_forms`) as text."""
    if den == (1,):
        return _poly_text(num)
    ns = _poly_text(num)
    if " " in ns:
        ns = f"({ns})"
    ds = _poly_text(den)
    if " " in ds:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _forms_obj(rows, name: str, N: int) -> dict:
    """The canonical JSON object of N x N rows of canonical forms."""
    return {
        "n_rows": N,
        "n_cols": N,
        "entries": [[{"num": [str(c) for c in num], "den": [str(c) for c in den]} for num, den in row]
                    for row in rows],
        "matrix_name": name,
        "N": N,
    }


def _matrix_text(obj, fmt: str, header: str, sym=None) -> str:
    if fmt == "json":
        return canonical_json(obj)
    if sym is not None:
        lines = ["; ".join(_form_text(*e) for e in row) for row in sym]
    else:
        def cell(e):
            if isinstance(e, dict):
                return f"{e['re']:+.12g}{e['im']:+.12g}j"
            return str(e)

        lines = [",".join(cell(e) for e in row) for row in obj]
    if fmt == "csv":
        return "\n".join(lines) + "\n"
    return header + "\n" + "\n".join("  [" + line + "]" for line in lines) + "\n"


def cmd_matrices(args, out) -> int:
    numeric.check_size(args.N)  # before building anything
    mode, p = _parse_eval(args.eval)
    N, what = args.N, args.what

    if what == "M" and (args.index is None or not 0 <= args.index <= N - 2):
        raise ValueError(f"--index must be in 0..{N - 2} for --what M")
    level = numeric.PSetting(p, N) if mode == "root" else None
    name = f"M{args.index}" if what == "M" else what
    header, sym = f"# {name}  N={N}  eval={args.eval}", None
    if what == "hN":
        word = parse_word(args.word)
        mat = classical.hN_matrix(sl2_image(word), N)
        obj = _complex_obj(numeric.exact_floats(mat, "a matrix entry")) if mode == "root" else _rational_obj(mat)
        header = f"# hN  N={N}  word={word}"
    else:  # symbolic: built over Q(X); otherwise read off the forms, with nothing built
        forms = repbuild.forms(what, N, args.index)
        if mode == "symbolic":
            sym = repbuild._matrix(N, forms)
            obj = _forms_obj(sym, name, N)
        elif mode == "classical":
            obj = _rational_obj(repbuild.form_limit(N, forms))
        else:
            obj = _complex_obj(numeric.eval_forms(N, forms, level, args.tolerance))
    out.write(_matrix_text(obj, args.format, header, sym=sym))
    return 0


def _limits_agree(read, *wants) -> bool:
    """Whether the exact matrices that `read` returns equal those of each of
    `wants`, in order (`same_limit`); False for a pole, as for a wrong limit."""
    try:
        got = read()
    except PoleError:
        return False
    return all(all(map(same_limit, got, want)) for want in wants)


def cmd_verify(args, out) -> int:
    dims = _parse_range(args.N)
    width = len(_parse_range(args.p, odd=True)) if args.oracle else 0
    numeric.check_size(dims[-1], width)  # both ends, before building anything
    numeric.check_size(dims[0])
    checks = []  # (label, ok) in order
    for N in dims:
        cl = classical.closed_limits(N)

        twist = repbuild._twist_factors(N)
        braid_ok, center_ok = repbuild.relation_checks(N, twist)
        checks.append((f"braid relation exact (N={N})", braid_ok))

        hn = [classical.hN_matrix(classical.SL2(*g), N) for g in ((1, 1, 0, 1), (1, 0, -1, 1))]
        ok = _limits_agree(lambda: [repbuild.form_limit(N, forms) for forms in twist],
                           (cl.that_limit, cl.tstar_limit), hn)
        checks.append((f"twist limits match closed forms and hN (N={N})", ok))
        ok = _limits_agree(lambda: [repbuild.form_limit(N, repbuild._ratio_factors(N))], [cl.r_limit])
        checks.append((f"pairing-ratio limits exact (N={N})", ok))
        terms = repbuild._zprime_terms(N)
        ok = _limits_agree(lambda: repbuild.recurrence_limits(N, terms), cl.m_limits)
        checks.append((f"recurrence-matrix limits exact (N={N})", ok))

        # M^(n) is z' / {n+1} off the diagonal: zero exactly where z' is
        ok = not any(_sum_factors(forms)[1] for (m, l), forms in terms.items() if abs(m - l) >= 2)
        checks.append((f"recurrence matrices tridiagonal (N={N})", ok))

        checks.append((f"center commutes with both generators (N={N})", center_ok))

        if args.oracle:
            try:
                levels = [
                    numeric.PSetting(p, N)
                    for p in _parse_range(args.p, odd=True)
                    if p >= 2 * N + 1  # clamp sweeps to admissible levels
                ]
                if not levels:
                    raise BadPError(f"no odd level p >= 2N+1 = {2 * N + 1}")
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
    out.write(text)
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


def cmd_amu(args, out) -> int:
    word = parse_word(args.word)
    report = numeric.amu_certificate(
        word, args.N, args.pmax, margin=args.margin, tol=args.tolerance
    )
    out.write(_report_text(report, args.format, args.tolerance))
    return 0


def cmd_limit(args, out) -> int:
    word = parse_word(args.word)
    levels = _parse_range(args.p, odd=True)
    if not levels:
        raise BadPError(f"--p {args.p} holds no odd level")
    rows = numeric.convergence_table(word, args.N, levels, args.tolerance)
    if args.format == "json":
        obj = {"word": str(word), "N": args.N, "tolerance": args.tolerance, "rows": _rows_obj(rows)}
        text = canonical_json(obj)
    else:
        head = [f"# word={word}  N={args.N}  tolerance={args.tolerance:g}"]
        body = _rows_csv(rows)
        text = "\n".join(head + body if args.format == "pretty" else body) + "\n"
    out.write(text)
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


_PARSER = build_parser()  # once per process; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        numeric.check_bound("tolerance", args.tolerance)
        # --out is opened before any work, as a shell redirection is
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            return args.func(args, out)
    except (BadPError, PoleError, NearPoleError, ConvergenceError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
