"""Smoke tests: every experiment script runs to exit 0 on small arguments,
rejects bad arguments with a usage error, and reproduce_tables fails with
the exit code of a failing `tables`."""
import importlib.util
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import graphasym
from graphasym import errata

from test_golden import DIGESTS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_fit_conjectures_runs(capsys):
    argv = ["--k-values", "1", "--degree", "4", "--n-min", "100", "--n-max", "140", "--bits", "128"]
    assert _main("fit_conjectures")(argv) == 0
    assert "every identified coefficient matches" in capsys.readouterr().out


def test_compare_exact_asym_runs(capsys):
    assert _main("compare_exact_asym")(["--k", "1", "--n-max", "256"]) == 0
    assert "expected slopes" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--depths", "x"], ["--depths", "1,-2"], ["--depths", "1,1"], ["--n-min", "64", "--n-max", "32"],
    ["--bits", "52"], ["--k", "-2"],
])
def test_compare_exact_asym_rejects_bad_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _main("compare_exact_asym")(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("n_min", ["0", "-3"])
def test_compare_exact_asym_rejects_n_min_below_one(n_min):
    # doubling from such an n_min never passes n_max, and without the check
    # the script grows a list without end: it runs in a child process with
    # 256 MiB of address space and a timeout
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    src = str(Path(graphasym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_exact_asym.py"), "--n-min", n_min, "--n-max", "64"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1].endswith("error: --n-min must be >= 1")


@pytest.mark.parametrize("argv", [
    ["--k-values", "x"], ["--k-values", "1,-2"], ["--degree", "-1"], ["--n-min", "0"],
    ["--n-min", "200", "--n-max", "100"], ["--bits", "52"], ["--max-denominator", "0"],
])
def test_fit_conjectures_rejects_bad_arguments(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _main("fit_conjectures")(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--degree", "40", "--bits", "64"], "error: degree 40: condition estimate >= 2**39 exceeds 2**32\n"),
    (["--n-min", "100", "--n-max", "105"], "error: 6 points cannot fix 10 coefficients\n"),
])
def test_fit_conjectures_reports_a_fit_it_cannot_make_in_one_line(capsys, argv, message):
    assert _main("fit_conjectures")(["--k-values", "1"] + argv) == 1
    assert capsys.readouterr().err == message


def test_reproduce_tables_prints_the_golden_digests(tmp_path, capsys):
    assert _main("reproduce_tables")(["--output-dir", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    printed = {row[0]: row[2] for row in rows if len(row) == 3 and row[0].endswith(".csv")}
    assert printed == DIGESTS


def test_reproduce_tables_returns_2_without_digests_when_a_finding_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(errata._VERIFIERS, "q_coefficient_n1", lambda: False)
    assert _main("reproduce_tables")(["--output-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    # only the paths `tables` wrote, no digest table after them
    assert len(out.splitlines()) == 9
    assert all(line.startswith(str(tmp_path)) for line in out.splitlines())
    assert "table generation failed with exit code 2" in err
