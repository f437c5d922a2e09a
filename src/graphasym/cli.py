"""Command line interface.

Every subcommand but `tables` prints CSV by default (or JSON with --output
json) through one emitter, `_emit`; `tables` writes the same row lists as CSV
files.  This module alone decides the layout of every row and document, and
identical invocations produce identical bytes.  Exit codes: 0 on success, 1
on usage errors and invalid input, including an empty n range, a fit window
with too few points, a fit too ill-conditioned for its degree and precision,
and an output path that cannot be written (one line on stderr), 2 when an
internal verification fails.  `errata` and `tables` exit 2 after writing
their output when an errata finding does not verify; they alone load the
`errata` module, so no other command pays for its import.  `compare`'s exact
column is c/g (or the count c or g) rounded once at --precision-bits, then
divided by the normalization.

`main` freezes the heap the imports left (`gc.freeze`), which lives until exit,
so no collection walks it again, the one at exit included; the command's own
garbage is still collected.  `import graphasym` leaves the GC alone, and an
in-process caller of `main` keeps its heap frozen.
"""
from __future__ import annotations

import csv
import gc
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

import mpmath

from . import _poly, assembly, fitting
from .errors import GraphAsymError, IllConditioned, InsufficientPoints
from .graphs import connected_counts, excess_split, recover_ak
from .ramanujan import d_coefficients, q_asym, q_exact
from .treepoly import t_value


def _writer(stream):
    return csv.writer(stream, lineterminator="\n")


def _emit(args: SimpleNamespace, rows, document: Callable[[], object]) -> int:
    """Print `rows` (header first) as CSV, or under --output json what `document()` returns.

    `document` is called only for JSON, so a value is turned into text once.
    """
    if args.output == "json":
        import json  # here only: CSV commands never import it
        print(json.dumps(document(), indent=2, sort_keys=True))
    else:
        _writer(sys.stdout).writerows(rows)
    return 0


_SERIES_COLUMNS = ("j", "power_of_n", "coeff_rat", "coeff_xi_rat")


def _series_rows(series, *key) -> list[tuple]:
    """One row per slot of `series`: the `key` columns, then _SERIES_COLUMNS."""
    return [
        (*key, j, Fraction(series.lead - j, 2), c.rational_part(), c.xi_part())
        for j, c in enumerate(series.coeffs)
    ]


def _expansion_rows(kind: str, ks: Sequence[int], depth: int) -> list[tuple]:
    rows = [("k",) + _SERIES_COLUMNS]
    for k in ks:
        rows += _series_rows(assembly.expansion(kind, k, depth), k)
    return rows


def _count_rows(table) -> list[tuple]:
    return [("n", "m", "k", "count")] + [(n, m, m - n, c) for n, m, c in table.entries()]


def _errata_rows(results: dict[str, bool]) -> list[tuple]:
    from . import errata
    rows = [("key", "quantity", "stated", "derived", "verified")]
    for f in errata.FINDINGS:
        rows.append((f.key, f.quantity, f.stated, f.derived, results[f.key]))
    return rows


def _errata_exit(results: dict[str, bool]) -> int:
    """0 when every finding verifies; else one stderr line and exit 2."""
    failed = [key for key, ok in results.items() if not ok]
    if not failed:
        return 0
    print(f"verification error: findings not verified: {', '.join(failed)}", file=sys.stderr)
    return 2


def _cmd_count(args: SimpleNamespace) -> int:
    table = connected_counts(args.n_max, args.k_max)
    return _emit(args, _count_rows(table), lambda: {
        "n_max": table.n_max,
        "k_max": table.k_max,
        "counts": [
            {"n": n, "m": m, "k": m - n, "count": str(c)} for n, m, c in table.entries()
        ],
    })


def _cmd_q(args: SimpleNamespace) -> int:
    if args.n_max < 1:
        raise ValueError("q needs --n-max >= 1")
    values = [(n, q_exact(n)) for n in range(1, args.n_max + 1)]
    return _emit(args, [("n", "q")] + values, lambda: {
        "q": [{"n": n, "value": str(v)} for n, v in values],
    })


def _cmd_tpoly(args: SimpleNamespace) -> int:
    if args.n_max < 1:
        raise ValueError("tpoly needs --n-max >= 1")
    values = [(n, args.y, t_value(n, args.y)) for n in range(1, args.n_max + 1)]
    return _emit(args, [("n", "y", "t")] + values, lambda: {
        "t": [{"n": n, "y": y, "value": str(v)} for n, y, v in values],
    })


def _cmd_decompose(args: SimpleNamespace) -> int:
    dec = assembly.decompose(args.k)
    rows = [("part", "index", "coefficient")]
    rows += [("t", l, b) for l, b in dec.beta]
    rows += [("q", "", dec.qterm), ("const", "", 0)]
    return _emit(args, rows, lambda: {
        "k": dec.k,
        "beta": {str(l): str(b) for l, b in dec.beta},
        "qterm": str(dec.qterm),
        "constant": "0",  # the split has no constant term (erratum excess_zero_constant)
        "verified_n_max": assembly.VERIFY_N_MAX,
    })


def _cmd_asym(args: SimpleNamespace) -> int:
    rows = _expansion_rows(args.which, (args.k,), args.depth)
    return _emit(args, rows, lambda: {
        "kind": args.which,
        "normalization": assembly.normalization(args.which).description,
        "depth": args.depth,
        "rows": {str(args.k): assembly.expansion(args.which, args.k, args.depth).to_json_dict()},
    })


def _cmd_fit(args: SimpleNamespace) -> int:
    if args.max_denominator < 1:
        raise ValueError("fit needs --max-denominator >= 1")
    result = fitting.lsq_fit(
        args.k, args.degree, args.n_min, args.n_max, bits=args.precision_bits
    )
    symbols = fitting.two_window_symbols(result, args.max_denominator)
    symbolic = ["?" if sym is None else str(sym) for sym in symbols]
    digits = result.bits * 30103 // 100000 + 3  # decimal digits of `bits`, plus 3
    estimates = [mpmath.nstr(e, digits) for e in result.estimates]
    rows = [("j", "power_of_n", "estimate", "symbolic")]
    rows += [(j, Fraction(-j, 2), est, sym) for j, (est, sym) in enumerate(zip(estimates, symbolic))]
    return _emit(args, rows, lambda: {
        "k": result.k,
        "degree": result.degree,
        "n_min": result.n_min,
        "n_max": result.n_max,
        "npoints": result.npoints,
        "precision_bits": result.bits,
        "estimates": estimates,
        "residual_rms": mpmath.nstr(result.residual_rms, digits),
        "condition": mpmath.nstr(result.condition, 8),
        "symbolic": symbolic,
    })


def _cmd_compare(args: SimpleNamespace) -> int:
    if args.n_min < 1:
        raise ValueError("compare needs --n-min >= 1")
    if args.n_max < args.n_min:
        raise ValueError("compare needs --n-max >= --n-min")
    if args.precision_bits < 53:
        raise ValueError("compare needs --precision-bits >= 53")
    try:
        depths = tuple(int(d) for d in args.depths.split(","))
    except ValueError:
        raise ValueError("compare needs --depths as comma-separated integers") from None
    if min(depths) < 0:
        raise ValueError("compare needs every --depths entry >= 0")
    if len(set(depths)) < len(depths):
        raise ValueError("compare needs distinct --depths entries")
    series = assembly.expansion(args.which, args.k, max(depths)).truncate(max(depths))
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
            sums = series.partial_sums(n, bits)
            approxs = [sums[d] for d in depths]
            row += [mpmath.nstr(a, 15) for a in approxs]
            row += [mpmath.nstr(abs(ev - a) / abs(ev), 6) for a in approxs]
        out_rows.append(row)
        n *= 2
    return _emit(args, [header] + out_rows, lambda: {"columns": header, "rows": out_rows})


def _cmd_errata(args: SimpleNamespace) -> int:
    from . import errata
    results = errata.verify_all()
    _emit(args, _errata_rows(results), lambda: [
        {
            "key": f.key,
            "quantity": f.quantity,
            "stated": f.stated,
            "derived": f.derived,
            "method": f.method,
            "verified": results[f.key],
        }
        for f in errata.FINDINGS
    ])
    return _errata_exit(results)


def _tables_manifest() -> tuple[list[tuple[str, list]], dict[str, bool]]:
    """The canonical tables as (file name, rows), and the errata results."""
    from . import errata
    ak_rows = [("k", "degree", "value_at_1", "derivative_at_1", "coefficients")]
    for k in range(1, 8):
        a, gamma = recover_ak(k), excess_split(k)
        ak_rows.append((k, _poly.degree(a), gamma[0], -gamma[1], " ".join(str(c) for c in a)))
    cross_rows = [("k", "a0_series", "a0_formula", "rel_a0", "ratio_series", "ratio_formula", "rel_ratio", "passed")]
    for k in range(2, 8):
        r = assembly.fss_crosscheck(k)
        cross_rows.append((
            r.k,
            r.a0_series,
            r.a0_formula,
            f"{r.rel_a0:.3e}",
            r.ratio_series,
            r.ratio_formula,
            f"{r.rel_ratio:.3e}",
            r.passed,
        ))
    results = errata.verify_all()
    files = [
        ("counts.csv", _count_rows(connected_counts(10, 3))),
        ("excess_numerators.csv", ak_rows),
        ("d_expansion.csv", [("j", "coefficient")] + list(enumerate(d_coefficients(5)))),
        ("q_expansion.csv", [_SERIES_COLUMNS] + _series_rows(q_asym(5))),
        ("connected_expansion.csv", _expansion_rows("connected", (0, 1, 2), 5)),
        ("total_expansion.csv", _expansion_rows("total", (-1, 0, 1), 5)),
        ("probability_expansion.csv", _expansion_rows("probability", (-1, 0, 1), 4)),
        ("crosscheck.csv", cross_rows),
        ("errata.csv", _errata_rows(results)),
    ]
    return files, results


def _cmd_tables(args: SimpleNamespace) -> int:
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


_HANDLERS: dict[str, Callable[[SimpleNamespace], int]] = {
    "count": _cmd_count, "q": _cmd_q, "tpoly": _cmd_tpoly, "decompose": _cmd_decompose, "asym": _cmd_asym,
    "prob": _cmd_asym, "fit": _cmd_fit, "compare": _cmd_compare, "tables": _cmd_tables, "errata": _cmd_errata,
}


# Every command: its help line, the attributes it fixes, and its options as (flag, int or
# str or a tuple of choices, default[, help text]); a default of None marks a required option.
_OUTPUT = ("--output", ("csv", "json"), "csv")
_COMMANDS = {
    "count": ("exact connected counts c(n, m)", {}, [("--n-max", int, None), ("--k-max", int, 2), _OUTPUT]),
    "q": ("exact values of Ramanujan's Q-function", {}, [("--n-max", int, None), _OUTPUT]),
    "tpoly": ("exact tree polynomial values t_n(y)", {}, [("--n-max", int, None), ("--y", int, None), _OUTPUT]),
    "decompose": ("tree-polynomial split of c(n, n+k)", {}, [("--k", int, None), _OUTPUT]),
    "asym": ("expansion rows for connected or all graphs", {}, [("--k", int, None), ("--depth", int, 5,
        "half-power rows below the leading one; for --which total, powers of 1/n (2*depth+2 half-power rows)"),
        ("--which", ("connected", "total"), "connected"), _OUTPUT]),
    "prob": ("expansion of the connectedness probability", {"which": "probability"},
             [("--k", int, None), ("--depth", int, 4), _OUTPUT]),
    "fit": ("least-squares coefficient recovery", {}, [("--k", int, 0), ("--degree", int, 6), ("--n-min", int, 100),
        ("--n-max", int, 1000), ("--precision-bits", int, 256), ("--max-denominator", int, 10000), _OUTPUT]),
    "compare": ("exact values against truncated expansions", {}, [
        ("--k", int, 0), ("--which", ("connected", "total", "probability"), "connected"),
        ("--depths", str, "1,3,5", "truncation depths, each in half-power slots below the leading one for every "
         "--which; the total expansion has only integer powers of 1/n, so there an odd depth adds no term and "
         "the default 1,3,5 keeps 1, 2 and 3 terms"),
        ("--n-min", int, 16), ("--n-max", int, 4096),
        ("--precision-bits", int, 256, "working precision; the exact column is c/g rounded once at it"), _OUTPUT]),
    "errata": ("corrections to commonly printed values", {}, [_OUTPUT]),
    # writes CSV files and prints their paths, so it takes no --output
    "tables": ("write every canonical table as CSV", {}, [("--output-dir", str, "tables")]),
}
_OPTION_LIKE = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+")  # not "-", a negative number or a phrase


def _fail(prog: str, message: str):
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _print_help(commands):
    print("usage: graphasym <command> [options]")
    for command in commands:
        about, _, options = _COMMANDS[command]
        print(f"\n{command}: {about}")
        for flag, kind, default, *text in options:
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.__name__.upper()
            text.append("(required)" if default is None else f"(default: {default})")
            print(f"  {flag} {metavar}  " + " ".join(text))
    raise SystemExit(0)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """`argv` read against _COMMANDS; --help raises SystemExit(0), a bad argument SystemExit(2)."""
    if not argv:
        _fail("graphasym", "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _print_help(_COMMANDS)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail("graphasym", f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, fixed, options = _COMMANDS[command]
    prog, kinds = f"graphasym {command}", {flag: kind for flag, kind, *_ in options}
    values = {flag: default for flag, _, default, *_ in options}
    extras, tokens = [], iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            _print_help([command])
        flag, eq, value = token.partition("=")
        if flag not in kinds:
            extras.append(token)
            continue
        if not eq:  # the next token; a missing one reads as "--"
            value = next(tokens, "--")
            if _OPTION_LIKE.fullmatch(value):
                _fail(prog, f"argument {flag}: expected one argument")
        kind = kinds[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(prog, f"argument {flag}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            _fail(prog, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        values[flag] = value
    if None in values.values():
        _fail(prog, "the following arguments are required: " + ", ".join(f for f, v in values.items() if v is None))
    if extras:
        _fail("graphasym", f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **fixed, **{f[2:].replace("-", "_"): v for f, v in values.items()})


def dispatch(args: SimpleNamespace) -> int:
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, InsufficientPoints, IllConditioned, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphAsymError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    # exact values are the output, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    gc.freeze()  # the import heap lives until exit: no collection walks it again
    try:
        ns = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    return dispatch(ns)
