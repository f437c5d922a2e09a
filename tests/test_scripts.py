"""Smoke tests: every experiment script runs to exit 0 on small arguments,
and reproduce_tables fails with the exit code of a failing `tables`."""
import importlib.util
from pathlib import Path

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
