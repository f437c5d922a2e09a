"""Byte-level pins: every canonical table that `graphasym tables` writes, and
the expansions and exact values the tables do not reach.  Also checks that the
package rests no identity on an `assert` statement."""
import ast
import hashlib
import json
from pathlib import Path

import graphasym
from graphasym import (
    asym_c,
    asym_g,
    asym_p,
    d_asym,
    decompose,
    q_asym,
    recover_ak,
    stirling_series,
    t_value,
)
from graphasym.cli import main

from oracles import t_asym

SRC = Path(graphasym.__file__).parent

# sha256 of each file; all tables are exact, so the digests are
# machine-independent (the same ones scripts/reproduce_tables.py prints)
DIGESTS = {
    "connected_expansion.csv": "fc3b9f65922c06d5d67f780406dfac8b7d28a70976807740de049a9e24389229",
    "counts.csv": "aaac2dfdd21d65bde921b68105172c08b5905f43434fe196d381f0b525ba47a7",
    "crosscheck.csv": "1cf43535a44a7fe2795f2c325a4759f826da7d716862d3771f886e1a48c2468b",
    "d_expansion.csv": "c618004191c16c03dfb7b95559627556fe474db42e03f8ea5f8433958a8a1313",
    "errata.csv": "418db7514940c3c2b485da5c41014c2c9ecc05fca4f8a2799b63d9e240a487c2",
    "excess_numerators.csv": "4936e3980f315eb5b48a63e6741014904b8bfc85a493fcb515e3b19c307995e9",
    "probability_expansion.csv": "17d2811c28119a5524c713a2ac20391bda66116ca157cd65a1627ab5ea4f2d19",
    "q_expansion.csv": "8ebe4ecc86e026cc55d4c09aeecc166c872aa598a663d1c459da36c5c3542014",
    "total_expansion.csv": "35a6604954410c04240b24136234c5f5effee687a11cb370dda1f349687b4aea",
}


def test_tables_are_byte_identical(tmp_path, capsys):
    assert main(["tables", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")
    }
    assert written == DIGESTS


# sha256 over the str of expansions and exact values the tables do not reach:
# asym_c to k = 8 and depth 8, asym_p, t_asym on both sides of y = 0, t_value
# and decomposition values up to n = 600
EXPANSIONS_AND_VALUES = "2ec97ea0d93abfd69152e6905dc4f4525c2c8ebf9ef19641c810c3de5f2578ea"


def test_expansions_and_values_are_byte_identical():
    lines = [str(asym_c(k, 8)) for k in range(0, 9)]
    lines += [str(asym_p(k, 6)) for k in range(0, 7)]
    lines += [str(t_asym(y, 9)) for y in range(-6, 12) if y != 0]
    lines += [str(t_value(n, y)) for y in range(-8, 14) for n in (1, 2, 3, 7, 30, 200)]
    lines += [str(decompose(k).evaluate(n)) for k in range(0, 6) for n in (1, 5, 13, 100, 600)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXPANSIONS_AND_VALUES


# sha256 over the str of the A_k coefficient tuples for k = 1..12, recorded
# from the table-and-series elimination, a route independent of the recurrence
EXCESS_NUMERATORS = "8670df816a417f56ca0b470c5325c8fbfc076143b273aeea7792c2093b00efa8"


def test_excess_numerators_are_byte_identical():
    lines = [str(recover_ak(k)) for k in range(1, 13)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == EXCESS_NUMERATORS


# sha256 over the str of A_k for k = 13..30 and then of asym_c(k, 8) for
# k = 9..30, recorded from the exact-rational kernels on Fraction objects
REACH = "9da0bb6387ea157477805ecd8f46b7c4cfbab17d97569761326e9834b70b2674"


def test_reach_in_k_is_byte_identical():
    lines = [str(recover_ak(k)) for k in range(13, 31)]
    lines += [str(asym_c(k, 8)) for k in range(9, 31)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == REACH


# sha256 over the str of asym_c(60, 12), recorded from the forward per-index
# recurrence and the per-index fold of the decomposition: tree indices up to
# 180, past the k = 30 the digest above reaches
REACH_60 = "65980c025e8da57766dc5ca767196cf625a4be1b09ef98f30de83527b5d46cd8"


def test_reach_at_excess_60_is_byte_identical():
    digest = hashlib.sha256(str(asym_c(60, 12)).encode()).hexdigest()
    assert digest == REACH_60


# sha256 over the str of asym_g(k, 16) for k = -1..8, then stirling_series at
# depths 7 and 15; recorded from the falling-factorial (Faulhaber) route, which
# is independent of the Stirling-at-N, N-m and m route
TOTAL_EXPANSIONS = "0c6f99c119bab6f7e7e0ebd63870ff3e5c8365159c9185495e7c0838471a284b"


def test_total_expansions_are_byte_identical():
    lines = [str(asym_g(k, 16)) for k in range(-1, 9)]
    lines += [str(stirling_series(d)) for d in (7, 15)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == TOTAL_EXPANSIONS


# sha256 over the str of asym_g(k, d) for k = -1..30 and d = 0, 1, 7, 24 in
# turn; recorded from the route that merged the three Stirling formulas by hand
WIDE_TOTAL_EXPANSIONS = "1cbe34cdf9e3e92c00a7b095ae9d343dd50b5cf91fcb33207a0bcabd9893c8d5"


def test_total_expansions_over_wide_excess_and_depth_are_byte_identical():
    lines = [str(asym_g(k, d)) for k in range(-1, 31) for d in (0, 1, 7, 24)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WIDE_TOTAL_EXPANSIONS


# sha256 over the str and then the sorted-key JSON of each of asym_c(k, 12)
# for k = -1..30, asym_p(k, 10) and asym_g(k, 16) in turn for k = -1..8,
# q_asym(12) and d_asym(6): the coefficient ring's printing and JSON at
# depths and excesses the tables and the CLI pins do not reach
SERIES_STR_AND_JSON = "89b71150c62a96ae9d4327025a93ef2e0057462f8f2e781fc4d8c05dec137cb1"


def test_series_str_and_json_are_byte_identical():
    series = [asym_c(k, 12) for k in range(-1, 31)]
    series += [s for k in range(-1, 9) for s in (asym_p(k, 10), asym_g(k, 16))]
    series += [q_asym(12), d_asym(6)]
    lines = [
        line
        for s in series
        for line in (str(s), json.dumps(s.to_json_dict(), sort_keys=True))
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SERIES_STR_AND_JSON


# sha256 over "<argv> <output> <exit code>\n" and then the stdout of each run,
# every argument list below once with --output csv and once with --output json
CLI_OUTPUTS = "45ba42d9e0583c096bfb34efd80da7ed5a39a3763361d136e029bf174727f451"
CLI_RUNS = (
    [["count", "--n-max", "12", "--k-max", "3"]]
    + [["decompose", "--k", str(k)] for k in range(0, 8)]
    + [["asym", "--k", str(k)] for k in range(1, 5)]
    + [["asym", "--k", str(k), "--which", "total"] for k in range(1, 5)]
    + [["prob", "--k", str(k)] for k in range(0, 3)]
    + [["fit", "--k", "1", "--n-min", "100", "--n-max", "600"]]
    + [["compare", "--which", which] for which in ("connected", "total", "probability")]
    + [["compare", "--which", "probability", "--k", "2", "--precision-bits", "53"]]
    + [["errata"]]
)


def _cli_digest(capsys, runs) -> str:
    h = hashlib.sha256()
    for argv in runs:
        for out in ("csv", "json"):
            rc = main(argv + ["--output", out])
            h.update(f"{' '.join(argv)} {out} {rc}\n".encode())
            h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


def test_cli_outputs_are_byte_identical(capsys):
    assert _cli_digest(capsys, CLI_RUNS) == CLI_OUTPUTS


# the same over three fit runs the list above does not reach: the defaults
# (k = 0, n = 100..1000), the README example, and k = 2 at degree 9 and 384 bits
FIT_OUTPUTS = "fa18557a6594b58eb95b899f75a2bcfee6c71472046af4c4c9232353e26459a5"
FIT_RUNS = (
    ["fit"],
    ["fit", "--k", "0", "--degree", "4", "--n-min", "100", "--n-max", "220", "--precision-bits", "128"],
    ["fit", "--k", "2", "--n-min", "50", "--n-max", "300", "--degree", "9", "--precision-bits", "384"],
)


def test_fit_outputs_are_byte_identical(capsys):
    assert _cli_digest(capsys, FIT_RUNS) == FIT_OUTPUTS


# the same over the exact-value commands neither list reaches: Q(n) and the
# tree polynomial on both sides of y = 0 and at y = 0 itself
VALUE_OUTPUTS = "08e25614f4db53cd6c46cc32998b824fcac93a1fb571ed47aa80ab76897e08a6"
VALUE_RUNS = (
    [["q", "--n-max", "12"]]
    + [["tpoly", "--n-max", "8", "--y", str(y)] for y in (-3, 0, 4)]
)


def test_value_outputs_are_byte_identical(capsys):
    assert _cli_digest(capsys, VALUE_RUNS) == VALUE_OUTPUTS


def test_the_package_has_no_assert_statement():
    # `python -O` strips assert statements, so no identity may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
