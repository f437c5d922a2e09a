"""Command-line interface: golden output, determinism, exit codes."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import graphasym
from graphasym import assembly, errata, fitting, q_exact, ramanujan, treepoly
from graphasym.assembly import normalization
from graphasym.cli import build_parser, main

import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count_csv(capsys):
    code, out, err = run(capsys, "count", "--n-max", "6", "--k-max", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,m,k,count"
    assert "5,5,0,222" in lines
    assert "6,6,0,3660" in lines
    assert "4,5,1,6" in lines
    assert "6,7,1,5700" in lines


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n-max", "4", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    entries = {(e["n"], e["m"]): e["count"] for e in doc["counts"]}
    assert entries[(4, 3)] == "16"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "asym", "--k", "1", "--depth", "5")
    _, second, _ = run(capsys, "asym", "--k", "1", "--depth", "5")
    assert first == second


def test_q_command(capsys):
    code, out, _ = run(capsys, "q", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q"
    assert lines[1] == "1,1"
    assert lines[2] == "2,3/2"
    assert lines[4] == "4,71/32"


def test_tpoly_command(capsys):
    code, out, _ = run(capsys, "tpoly", "--n-max", "6", "--y", "-1")
    assert code == 0
    assert "6,-1,-7776" in out.splitlines()


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--k", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "part,index,coefficient"
    assert "t,3,5/24" in lines
    assert "q,,0" in lines
    assert lines[-1] == "const,,0"  # erratum excess_zero_constant: there is no constant term
    code, out, _ = run(capsys, "decompose", "--k", "-1")
    assert (code, out.splitlines()) == (0, ["part,index,coefficient", "t,-2,-1/2", "q,,0", "const,,0"])


def test_asym_command_connected(capsys):
    code, out, _ = run(capsys, "asym", "--k", "1", "--depth", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,j,power_of_n,coeff_rat,coeff_xi_rat"
    assert "1,0,0,5/24,0" in lines
    assert "1,1,-1/2,0,-7/24" in lines  # -7 xi/24 at n^(-1/2)
    assert "1,4,-2,-79/3240,0" in lines


def test_asym_command_json(capsys):
    code, out, _ = run(capsys, "asym", "--k", "0", "--depth", "3")
    assert code == 0
    assert "0,0,0,0,1/4" in out.splitlines()  # xi/4 at n^0
    code, out, _ = run(capsys, "asym", "--k", "0", "--depth", "3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "connected"
    assert doc["normalization"] == "n**(n + (3k-1)/2)"
    assert set(doc["rows"]) == {"0"}


def test_asym_command_total(capsys):
    code, out, _ = run(capsys, "asym", "--k", "-1", "--depth", "3", "--which", "total")
    assert code == 0
    assert "-1,2,-1,7/4,0" in out.splitlines()


def test_prob_command(capsys):
    code, out, _ = run(capsys, "prob", "--k", "0", "--depth", "4")
    assert code == 0
    lines = out.splitlines()
    assert "0,0,0,0,1/4" in lines       # xi/4 leading term
    assert "0,2,-1,0,1/3" in lines      # the corrected +xi/3 entry


def test_errata_command(capsys):
    code, out, _ = run(capsys, "errata")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # header + six findings
    assert all(line.endswith("True") for line in lines[1:])
    keys = {line.split(",")[0] for line in lines[1:]}
    assert keys == {
        "tree_value_at_one",
        "excess_zero_constant",
        "q_coefficient_n1",
        "q_coefficient_n2",
        "connected_k0_n52",
        "probability_k0_n1",
    }


def test_a_finding_that_does_not_verify_exits_2_after_its_output(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(errata._VERIFIERS, "q_coefficient_n1", lambda: False)
    code, out, err = run(capsys, "errata")
    assert code == 2
    rows = out.splitlines()
    assert len(rows) == 7
    assert [r for r in rows if r.endswith("False")] == [
        next(r for r in rows if r.startswith("q_coefficient_n1,"))
    ]
    assert err.count("\n") == 1 and "q_coefficient_n1" in err
    code, out, _ = run(capsys, "errata", "--output", "json")
    assert code == 2
    assert [f["key"] for f in json.loads(out) if not f["verified"]] == ["q_coefficient_n1"]
    # tables writes every file, errata.csv with the False row, then exits 2
    code, out, _ = run(capsys, "tables", "--output-dir", str(tmp_path))
    assert code == 2
    assert len(out.splitlines()) == 9
    assert "q_coefficient_n1" in next(
        r for r in (tmp_path / "errata.csv").read_text().splitlines() if r.endswith("False")
    )


def _python(*args):
    """Run a fresh interpreter on this checkout's package; return its stdout lines."""
    src = str(Path(graphasym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_Q3 = ["n,q", "1,1", "2,3/2", "3,17/9"]


def test_python_dash_m_runs_the_cli():
    assert _python("-m", "graphasym", "q", "--n-max", "3") == _Q3


def test_main_freezes_the_import_heap_and_still_collects_new_garbage():
    # the package import leaves the GC alone; main moves the import heap into
    # the permanent generation, keeps the GC on, and a cycle made afterwards
    # is still reclaimed
    probe = (
        "import gc, weakref\n"
        "import graphasym.cli\n"
        "print(gc.get_freeze_count())\n"
        "code = graphasym.cli.main(['q', '--n-max', '3'])\n"
        "print(code, gc.get_freeze_count() > 0, gc.isenabled())\n"
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.self = node\n"
        "alive = weakref.ref(node)\n"
        "del node\n"
        "gc.collect()\n"
        "print(alive() is None)\n"
    )
    assert _python("-c", probe) == ["0", *_Q3, "0 True True", "True"]


def test_a_csv_command_does_not_import_json():
    probe = (
        "import sys\n"
        "import graphasym.cli\n"
        "graphasym.cli.main(['q', '--n-max', '3'])\n"
        "print('json' in sys.modules)\n"
    )
    assert _python("-c", probe) == [*_Q3, "False"]


def test_only_errata_and_tables_load_the_errata_module(tmp_path):
    runs = [
        ["compare", "--k", "1", "--n-max", "64"],
        ["fit", "--n-min", "20", "--n-max", "40"],
        ["q", "--n-max", "3"],
        ["errata"],
    ]
    probe = (
        "import contextlib, io, sys\n"
        "import graphasym.cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = graphasym.cli.main(argv.split('|'))\n"
        "    print(argv.split('|')[0], code, 'graphasym.errata' in sys.modules)\n"
    )
    assert _python("-c", probe, *("|".join(argv) for argv in runs)) == [
        "compare 0 False", "fit 0 False", "q 0 False", "errata 0 True"
    ]
    assert _python("-c", probe, f"tables|--output-dir|{tmp_path}") == ["tables 0 True"]


def test_compare_command(capsys):
    code, out, _ = run(
        capsys, "compare", "--k", "0", "--depths", "1,3",
        "--n-min", "16", "--n-max", "64",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,exact_normalized,approx_d1,approx_d3,relerr_d1,relerr_d3"
    assert len(lines) == 4  # n = 16, 32, 64
    assert lines[1].startswith("16,")


def test_compare_rounds_the_probability_once(capsys):
    # the exact column is c/g rounded once at --precision-bits, then divided by
    # the normalization; rounding the reduced numerator and then the quotient
    # printed 0.181501445922845 in the cell below at 53 bits
    # at n <= 40 the enclosure is often exact; 1 and 2 bits are the smallest precisions
    prob = normalization("probability")
    cases = [(32, 2), (512, 1), (1024, 0), (4096, 2)]
    cases += [(n, k) for n in range(2, 41) for k in (-1, 0, 2) if n + k <= n * (n - 1) // 2]
    for n, k in cases:
        p = oracles.exact_probability(n, k)
        for bits in (1, 2, 53, 64, 256):
            with mpmath.workprec(bits):
                want = mpmath.mpf(oracles.round_to_bits(p, bits)) / prob.evaluate(k, n, bits)
            assert prob.exact(k, n, bits) == want, (n, k, bits)
    code, out, _ = run(
        capsys, "compare", "--which", "probability", "--k", "2", "--depths", "1",
        "--n-min", "4096", "--n-max", "4096", "--precision-bits", "53",
    )
    assert code == 0
    with mpmath.workprec(600):
        p = oracles.round_to_bits(oracles.exact_probability(4096, 2), 600)
        reference = mpmath.nstr(mpmath.mpf(p) / prob.evaluate(2, 4096, 600), 15)
    assert out.splitlines()[1].split(",")[1] == reference == "0.181501445922844"


def test_fit_command(capsys):
    code, out, _ = run(
        capsys, "fit", "--k", "0", "--degree", "4", "--n-min", "100", "--n-max", "220",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j,power_of_n,estimate,symbolic"
    assert lines[1].split(",")[3] == "xi/4"
    assert lines[2].split(",")[3] == "-7/6"
    assert lines[2].split(",")[1] == "-1/2"
    # late coefficients carry window bias and must be declined, not guessed
    assert lines[4].split(",")[3] == "?"


def test_tables_command(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "tables", "--output-dir", str(out_dir))
    assert code == 0
    written = {p.name for p in out_dir.iterdir()}
    assert {
        "counts.csv",
        "excess_numerators.csv",
        "d_expansion.csv",
        "q_expansion.csv",
        "connected_expansion.csv",
        "total_expansion.csv",
        "probability_expansion.csv",
        "crosscheck.csv",
        "errata.csv",
    } <= written
    counts = (out_dir / "counts.csv").read_text().splitlines()
    assert counts[0] == "n,m,k,count"
    assert "5,5,0,222" in counts
    # every written path is reported on stdout
    for name in written:
        assert name in out


def test_fit_json(capsys, monkeypatch):
    # the fit reads 1 + 2 n**(-1/2) in place of the normalized exact counts
    with mpmath.workprec(256):
        vals = {n: 1 + 2 / mpmath.sqrt(n) for n in range(100, 141)}
    synthetic = SimpleNamespace(exact=lambda k, n, bits: vals[n])
    monkeypatch.setattr(fitting, "normalization", lambda kind: synthetic)
    code, out, _ = run(
        capsys, "fit", "--k", "0", "--degree", "1", "--n-min", "100", "--n-max", "140",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 1
    assert doc["npoints"] == 41
    assert isinstance(doc["estimates"][0], str)
    assert float(doc["estimates"][0]) == pytest.approx(1.0, abs=1e-12)


def test_tables_takes_no_output_format(tmp_path, capsys, monkeypatch):
    # nor does it read --output as an abbreviation of --output-dir
    monkeypatch.chdir(tmp_path)
    for argv in (["--output", "json"], ["--output", "json", "--output-dir", "out"]):
        code, out, err = run(capsys, "tables", *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --output json" in err
    assert list(tmp_path.iterdir()) == []


def test_domain_error_exit_code(capsys):
    # a fit window with too few points is a usage error, not a failed check
    code, out, err = run(capsys, "fit", "--n-min", "100", "--n-max", "103")
    assert code == 1
    assert "points" in err


def test_usage_error_exit_code(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "count" in out and "errata" in out


def test_parser_covers_all_commands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        and hasattr(a, "choices") and a.choices
    )
    assert set(sub.choices) == {
        "count", "q", "tpoly", "decompose", "asym", "prob",
        "fit", "compare", "tables", "errata",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n-max", "0"],
        ["asym", "--k", "-2"],
        ["asym", "--k", "1", "--depth", "-1"],
        ["decompose", "--k", "-2"],
        ["compare", "--depths", "x"],
        ["compare", "--depths", "1,"],
        ["compare", "--depths", ""],
        ["fit", "--degree", "0", "--n-min", "100", "--n-max", "100"],
        ["fit", "--n-min", "0", "--n-max", "10", "--degree", "2"],
        ["compare", "--which", "total", "--k", "0", "--n-min", "0", "--n-max", "8"],
        ["fit", "--degree", "-1", "--n-min", "10", "--n-max", "20"],
        ["fit", "--precision-bits", "0"],
        ["fit", "--precision-bits", "1"],
        ["compare", "--precision-bits", "0"],
        ["compare", "--precision-bits", "-5"],
        ["tables", "--output-dir", "/dev/null/x"],
        # an empty n range is an input error, not a header-only table
        ["q", "--n-max", "0"],
        ["tpoly", "--n-max", "0", "--y", "2"],
        ["compare", "--n-min", "64", "--n-max", "32"],
        # c(1, 1) = 0 has no relative error
        ["compare", "--n-min", "1", "--n-max", "1"],
        # C(1, 3) = 0: no graphs on 2 nodes with 3 edges
        ["compare", "--which", "probability", "--k", "1", "--n-min", "2", "--n-max", "2"],
        # a negative depth keeps no term; it is not a slice from the end
        ["compare", "--k", "1", "--depths", "3,2,-2", "--n-min", "64", "--n-max", "128"],
        ["asym", "--k", "0", "--which", "total", "--depth", "-1"],
        # argparse's own errors: the error line without the usage block
        ["bogus"],
        ["count", "--n-max", "x"],
        ["count"],
        ["tables", "--output", "json"],
        ["fit", "--k", "-2"],
        # an ill-conditioned fit comes from the degree and precision asked for
        ["fit", "--k", "0", "--degree", "30", "--n-min", "100", "--n-max", "130",
         "--precision-bits", "64"],
        # a repeated depth would print its columns twice
        ["compare", "--depths", "1,3,1", "--n-min", "16", "--n-max", "32"],
    ],
)
def test_bad_input_is_one_line_not_a_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("depths", ["1,", "", "1,x"])
def test_unreadable_depths_name_the_flag(capsys, depths):
    code, out, err = run(capsys, "compare", "--depths", depths)
    assert (code, out) == (1, "")
    assert err == "error: compare needs --depths as comma-separated integers\n"


def test_repeated_depths_are_rejected(capsys):
    code, out, err = run(capsys, "compare", "--depths", "1,1", "--n-min", "16", "--n-max", "32")
    assert (code, out, err) == (1, "", "error: compare needs distinct --depths entries\n")


def test_a_fit_below_excess_minus_one_says_the_excess_is_empty(capsys):
    code, out, err = run(capsys, "fit", "--k", "-2")
    assert (code, out, err) == (1, "", "error: excess below -1 is empty\n")


@pytest.mark.parametrize("max_denominator", ["0", "-3"])
def test_a_max_denominator_below_one_is_rejected_before_any_count(capsys, max_denominator):
    before = ramanujan.q_scaled.cache_info()
    code, out, err = run(capsys, "fit", "--max-denominator", max_denominator)
    assert (code, out, err) == (1, "", "error: fit needs --max-denominator >= 1\n")
    assert ramanujan.q_scaled.cache_info() == before


def test_a_fit_degree_over_the_condition_bound_is_rejected_before_any_count(capsys):
    before = ramanujan.q_scaled.cache_info()
    code, out, err = run(capsys, "fit", "--degree", "900")
    assert (code, out) == (1, "")
    assert err == "error: degree 900: condition estimate >= 2**899 exceeds 2**128\n"
    assert ramanujan.q_scaled.cache_info() == before


@pytest.mark.parametrize("argv, first", [
    # no connected graph has n + 3 edges on n <= 4 nodes, or n + 40 on n <= 10
    (("--k", "3", "--degree", "1", "--n-min", "1", "--n-max", "4"), 5),
    (("--k", "40", "--degree", "1", "--n-min", "3", "--n-max", "4"), 11),
])
def test_a_fit_on_a_window_of_zero_counts_is_rejected_before_any_count(capsys, argv, first):
    before = ramanujan.q_scaled.cache_info()
    code, out, err = run(capsys, "fit", *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"error: c(n, n+{argv[1]}) is 0 for every n <= 4; the first nonzero count is at n = {first}\n"
    )
    assert ramanujan.q_scaled.cache_info() == before


def test_exact_values_print_past_the_default_digit_limit(capsys):
    # q_exact(1500) has a numerator of about 4700 digits
    code, out, err = run(capsys, "q", "--n-max", "1500")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == f"1500,{q_exact(1500)}"


def test_a_failed_tree_value_check_at_large_n_is_a_short_verification_error(capsys, monkeypatch):
    # an off-by-one Q past n = 1000 leaves t_1001(4) a half-integer; the report
    # must name the remainder, not the 3000-digit value
    q_scaled = treepoly.q_scaled
    monkeypatch.setattr(treepoly, "q_scaled", lambda n: q_scaled(n) + (n > 1000))
    code, out, err = run(capsys, "tpoly", "--n-max", "1200", "--y", "4")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("verification error")
    assert len(lines[0]) < 300


def _off_by_one_head(monkeypatch):
    q_head = assembly.q_head

    def shifted(n, prec):
        head = q_head(n, prec)
        return head if head is None else (head[0], head[1], head[2] + (n > 1000))

    monkeypatch.setattr(assembly, "q_head", shifted)


def _off_by_one_residue(monkeypatch):
    q_scaled_mod = treepoly.q_scaled_mod
    monkeypatch.setattr(
        treepoly, "q_scaled_mod", lambda n, head, m: (q_scaled_mod(n, head, m) + (n > 1000)) % m
    )


@pytest.mark.parametrize("perturb", [_off_by_one_head, _off_by_one_residue])
def test_a_failed_count_check_on_q_head_is_a_short_verification_error(capsys, monkeypatch, perturb):
    # past n = 1000 compare rounds c from a head of Q(n), and the integrality
    # check runs on residues there; it must see an error in the head's sum
    # or in the residue of the rest
    perturb(monkeypatch)
    code, out, err = run(capsys, "compare", "--which", "probability", "--k", "1", "--n-max", "8192")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("verification error: tree-polynomial normal form is not an integer at n=1024")
    assert len(lines[0]) < 300


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi)


# every flag of every subcommand except `tables`, which writes files; the
# bounds keep one run well under a second, and the flags under "always" are
# drawn on every run because their defaults are the slow full-size windows
_ARGV_FLAGS = {
    "count": {"--n-max": _ints(-2, 14), "--k-max": _ints(-3, 4)},
    "q": {"--n-max": _ints(-2, 120)},
    "tpoly": {"--n-max": _ints(-2, 40), "--y": _ints(-12, 12)},
    "decompose": {"--k": _ints(-3, 10)},
    "asym": {
        "--k": _ints(-3, 6),
        "--depth": _ints(-2, 6),
        "--which": st.sampled_from(["connected", "total", "probability"]),
    },
    "prob": {"--k": _ints(-3, 4), "--depth": _ints(-2, 5)},
    "fit": {
        "--k": _ints(-2, 2),
        "--degree": _ints(-2, 4),
        "--n-min": _ints(-2, 60),
        "--precision-bits": _ints(-8, 160),
        "--max-denominator": _ints(-2, 500),
    },
    "compare": {
        "--k": _ints(-2, 3),
        "--which": st.sampled_from(["connected", "total", "probability"]),
        "--depths": st.sampled_from(["1", "1,3", "0,2,4", "", "-1", "2,x"]),
        "--n-min": _ints(-2, 64),
        "--precision-bits": _ints(-8, 160),
    },
    "errata": {},
}
_ALWAYS = {"fit": {"--n-max": _ints(-2, 80)}, "compare": {"--n-max": _ints(-2, 300)}}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    argv = [command]
    for flag, values in _ALWAYS.get(command, {}).items():
        argv += [flag, str(draw(values))]
    for flag, values in _ARGV_FLAGS[command].items():
        if draw(st.booleans()):
            argv += [flag, str(draw(st.one_of(values, st.just("x"))))]
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(["csv", "json", "xml"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_random_argv_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
