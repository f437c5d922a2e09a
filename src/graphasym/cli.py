"""Command line interface.

Every subcommand prints CSV by default (or JSON with --output json) and is
deterministic: identical invocations produce identical bytes.  Exit codes:
0 on success, 1 on usage errors and invalid input, including an empty n
range, a fit window with too few points and an output path that cannot be
written (one line on stderr), 2 when an internal verification fails.
`errata` and `tables` exit 2 after writing their output when an errata
finding does not verify.  `compare`'s exact column is c/g (or the count c
or g) rounded once at --precision-bits, then divided by the normalization.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import mpmath

from . import _poly, assembly, errata, fitting
from .errors import GraphAsymError, InsufficientPoints
from .graphs import connected_counts, recover_ak
from .ramanujan import d_coefficients, q_asym, q_exact
from .treepoly import t_value


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _emit_json(obj) -> int:
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    table = connected_counts(args.n_max, args.k_max)
    if args.output == "json":
        return _emit_json(
            {
                "n_max": table.n_max,
                "k_max": table.k_max,
                "counts": [
                    {"n": n, "m": m, "k": m - n, "count": str(c)}
                    for n, m, c in table.entries()
                ],
            }
        )
    for line in table.csv_rows():
        print(line)
    return 0


def _cmd_q(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError("q needs --n-max >= 1")
    rows = [(n, q_exact(n)) for n in range(1, args.n_max + 1)]
    if args.output == "json":
        return _emit_json({"q": [{"n": n, "value": str(v)} for n, v in rows]})
    print("n,q")
    for n, v in rows:
        print(f"{n},{v}")
    return 0


def _cmd_tpoly(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError("tpoly needs --n-max >= 1")
    rows = [(n, args.y, t_value(n, args.y)) for n in range(1, args.n_max + 1)]
    if args.output == "json":
        return _emit_json(
            {"t": [{"n": n, "y": y, "value": str(v)} for n, y, v in rows]}
        )
    print("n,y,t")
    for n, y, v in rows:
        print(f"{n},{y},{v}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    dec = assembly.decompose(args.k)
    if args.output == "json":
        return _emit_json(
            {
                "k": dec.k,
                "beta": {str(l): str(b) for l, b in dec.beta},
                "qterm": str(dec.qterm),
                "constant": "0",  # the split has no constant term (erratum excess_zero_constant)
                "verified_n_max": dec.verified_n_max,
            }
        )
    print("part,index,coefficient")
    for l, b in dec.beta:
        print(f"t,{l},{b}")
    print(f"q,,{dec.qterm}")
    print("const,,0")
    return 0


def _cmd_asym(args: argparse.Namespace) -> int:
    table = assembly.expansion_table(args.which, (args.k,), args.depth)
    if args.output == "json":
        return _emit_json(table.to_json_dict())
    for line in table.csv_rows():
        print(line)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    result = fitting.lsq_fit(
        args.k, args.degree, args.n_min, args.n_max, bits=args.precision_bits
    )
    symbols = fitting.two_window_symbols(result, args.max_denominator)
    d = result.to_json_dict()
    d["symbolic"] = ["?" if sym is None else str(sym) for sym in symbols]
    if args.output == "json":
        return _emit_json(d)
    print("j,power_of_n,estimate,symbolic")
    w = _writer(sys.stdout)
    for j, (est, sym) in enumerate(zip(d["estimates"], d["symbolic"])):
        w.writerow((j, str(Fraction(-j, 2)), est, sym))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.n_min < 1:
        raise ValueError("compare needs --n-min >= 1")
    if args.n_max < args.n_min:
        raise ValueError("compare needs --n-max >= --n-min")
    if args.precision_bits < 53:
        raise ValueError("compare needs --precision-bits >= 53")
    depths = tuple(int(d) for d in args.depths.split(","))
    series = assembly.expansion(args.which, args.k, max(depths))
    norm = assembly.normalization(args.which)
    bits = args.precision_bits
    header = ["n", "exact_normalized"]
    header += [f"approx_d{d}" for d in depths]
    header += [f"relerr_d{d}" for d in depths]
    out_rows = []
    n = args.n_min
    while n <= args.n_max:
        ev = norm.exact(args.k, n, bits)
        if not ev:
            raise ValueError(f"the exact value at n={n} is 0, so it has no relative error")
        with mpmath.workprec(bits):
            row = [str(n), mpmath.nstr(ev, 15)]
            approxs = [series.evaluate(n, bits, depth=d) for d in depths]
            row += [mpmath.nstr(a, 15) for a in approxs]
            row += [mpmath.nstr(abs(ev - a) / abs(ev), 6) for a in approxs]
        out_rows.append(row)
        n *= 2
    if args.output == "json":
        return _emit_json({"columns": header, "rows": out_rows})
    print(",".join(header))
    for row in out_rows:
        print(",".join(row))
    return 0


def _cmd_errata(args: argparse.Namespace) -> int:
    results = errata.verify_all()
    if args.output == "json":
        _emit_json(
            [
                {
                    "key": f.key,
                    "quantity": f.quantity,
                    "stated": f.stated,
                    "derived": f.derived,
                    "method": f.method,
                    "verified": results[f.key],
                }
                for f in errata.FINDINGS
            ]
        )
    else:
        _writer(sys.stdout).writerows(_errata_rows(results))
    return _errata_exit(results)


def _errata_exit(results: dict[str, bool]) -> int:
    """0 when every finding verifies; else one stderr line and exit 2."""
    failed = [key for key, ok in results.items() if not ok]
    if not failed:
        return 0
    print(f"verification error: findings not verified: {', '.join(failed)}", file=sys.stderr)
    return 2


def _errata_rows(results: dict[str, bool]) -> list[list[str]]:
    rows = [["key", "quantity", "stated", "derived", "verified"]]
    for f in errata.FINDINGS:
        rows.append([f.key, f.quantity, f.stated, f.derived, str(results[f.key])])
    return rows


def _tables_manifest() -> tuple[list[tuple[str, list[list[str]]]], dict[str, bool]]:
    """The canonical tables as (file name, rows), and the errata results."""
    files: list[tuple[str, list[list[str]]]] = []

    counts = connected_counts(10, 3)
    files.append(("counts.csv", [line.split(",") for line in counts.csv_rows()]))

    ak_rows = [["k", "degree", "value_at_1", "derivative_at_1", "coefficients"]]
    for k in range(1, 8):
        a = recover_ak(k)
        ak_rows.append(
            [
                str(k),
                str(_poly.degree(a)),
                str(_poly.evaluate(a, 1)),
                str(_poly.evaluate(_poly.derivative(a), 1)),
                " ".join(str(c) for c in a),
            ]
        )
    files.append(("excess_numerators.csv", ak_rows))

    d_rows = [["j", "coefficient"]]
    for j, c in enumerate(d_coefficients(5)):
        d_rows.append([str(j), str(c)])
    files.append(("d_expansion.csv", d_rows))

    def expansion_rows(kind: str, ks: tuple[int, ...], depth: int) -> list[list[str]]:
        table = assembly.expansion_table(kind, ks, depth)
        return [line.split(",") for line in table.csv_rows()]

    q_rows = [list(assembly.SERIES_COLUMNS)] + assembly.series_rows(q_asym(5))
    files.append(("q_expansion.csv", q_rows))

    files.append(("connected_expansion.csv", expansion_rows("connected", (0, 1, 2), 5)))
    files.append(("total_expansion.csv", expansion_rows("total", (-1, 0, 1), 5)))
    files.append(
        ("probability_expansion.csv", expansion_rows("probability", (-1, 0, 1), 4))
    )

    cross_rows = [["k", "a0_series", "a0_formula", "rel_a0", "ratio_series", "ratio_formula", "rel_ratio", "passed"]]
    for k in range(2, 8):
        r = assembly.fss_crosscheck(k)
        cross_rows.append(
            [
                str(r.k),
                r.a0_series,
                r.a0_formula,
                f"{r.rel_a0:.3e}",
                r.ratio_series,
                r.ratio_formula,
                f"{r.rel_ratio:.3e}",
                str(r.passed),
            ]
        )
    files.append(("crosscheck.csv", cross_rows))

    results = errata.verify_all()
    files.append(("errata.csv", _errata_rows(results)))
    return files, results


def _cmd_tables(args: argparse.Namespace) -> int:
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, results = _tables_manifest()
    for name, rows in files:
        path = out_dir / name
        with path.open("w", newline="") as fh:
            w = _writer(fh)
            w.writerows(rows)
        print(path)
    return _errata_exit(results)


_HANDLERS: dict[str, Callable[[argparse.Namespace], int]] = {
    "count": _cmd_count,
    "q": _cmd_q,
    "tpoly": _cmd_tpoly,
    "decompose": _cmd_decompose,
    "asym": _cmd_asym,
    "prob": _cmd_asym,
    "fit": _cmd_fit,
    "compare": _cmd_compare,
    "tables": _cmd_tables,
    "errata": _cmd_errata,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphasym",
        description="Exact and asymptotic enumeration of connected labelled graphs by excess.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact connected counts c(n, m)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k-max", type=int, default=2)

    p = sub.add_parser("q", help="exact values of Ramanujan's Q-function")
    p.add_argument("--n-max", type=int, required=True)

    p = sub.add_parser("tpoly", help="exact tree polynomial values t_n(y)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = sub.add_parser("decompose", help="tree-polynomial split of c(n, n+k)")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("asym", help="expansion rows for connected or all graphs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--depth",
        type=int,
        default=5,
        help="half-power rows below the leading one; for --which total, powers of 1/n "
        "(2*depth+2 half-power rows)",
    )
    p.add_argument("--which", choices=("connected", "total"), default="connected")

    p = sub.add_parser("prob", help="expansion of the connectedness probability")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(which="probability")

    p = sub.add_parser("fit", help="least-squares coefficient recovery")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--n-min", type=int, default=100)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--precision-bits", type=int, default=256)
    p.add_argument("--max-denominator", type=int, default=10000)

    p = sub.add_parser("compare", help="exact values against truncated expansions")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--which", choices=("connected", "total", "probability"), default="connected")
    p.add_argument("--depths", type=str, default="1,3,5")
    p.add_argument("--n-min", type=int, default=16)
    p.add_argument("--n-max", type=int, default=4096)
    p.add_argument(
        "--precision-bits", type=int, default=256,
        help="working precision; the exact column is c/g rounded once at it",
    )

    p = sub.add_parser("tables", help="write every canonical table as CSV")
    p.add_argument("--output-dir", type=str, default="tables")

    sub.add_parser("errata", help="corrections to commonly printed values")

    for sp in sub.choices.values():
        sp.add_argument("--output", choices=("csv", "json"), default="csv")
    return parser


def dispatch(args: argparse.Namespace) -> int:
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, InsufficientPoints, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphAsymError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    # exact values are the output, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    return dispatch(ns)


if __name__ == "__main__":
    sys.exit(main())
