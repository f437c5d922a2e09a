"""The immutable value records: construction, immutability, equality, hash,
repr and cached properties, for every record class of the package; and the
modules that importing the package must not load."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphasym
from graphasym import (
    AsymSeries,
    CountTable,
    CrosscheckReport,
    Decomposition,
    FitResult,
    Normalization,
    SymConst,
    TreePolyNormalForm,
    connected_counts,
    decompose,
    errata,
    fss_crosscheck,
    lsq_fit,
    normalization,
    t_normal_form,
)
from graphasym._record import Record
from graphasym.errata import Finding

# each record class with an instance the package builds and its fields in order
RECORDS = [
    (SymConst, lambda: SymConst.xi(Fraction(-1, 3)), ("rat", "is_xi")),
    (
        AsymSeries,
        lambda: AsymSeries.build(1, [SymConst.xi(1), 0, SymConst.xi(Fraction(2, 3))]),
        ("lead", "rats", "parity"),
    ),
    (Decomposition, lambda: decompose(2), ("k", "beta", "qterm")),
    (
        CrosscheckReport,
        lambda: fss_crosscheck(2),
        ("k", "a0_series", "a0_formula", "rel_a0", "ratio_series", "ratio_formula",
         "rel_ratio", "tolerance", "passed"),
    ),
    (Normalization, lambda: normalization("total"), ("kind", "description")),
    (CountTable, lambda: connected_counts(5, 1), ("n_max", "k_max", "rows")),
    (TreePolyNormalForm, lambda: t_normal_form(3), ("p", "r", "e")),
    (
        FitResult,
        lambda: lsq_fit(0, 2, 100, 110, bits=64),
        ("k", "degree", "n_min", "n_max", "npoints", "bits", "estimates", "residual_rms",
         "condition", "xs", "ys"),
    ),
    (Finding, lambda: errata.FINDINGS[2], ("key", "quantity", "stated", "derived", "method")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_a_record_is_built_by_position_or_keyword_in_field_order(cls, make, fields):
    x = make()
    assert type(x) is cls
    values = [getattr(x, f) for f in fields]
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert by_position == x and by_keyword == x
    assert hash(by_position) == hash(by_keyword) == hash(x)
    assert repr(x) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    if cls not in (SymConst, TreePolyNormalForm):  # their last field has a default
        with pytest.raises(TypeError):
            cls(*values[:-1])  # a field missing
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(*values, values[0])  # one field too many


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_a_record_cannot_be_changed(cls, make, fields):
    x = make()
    before = repr(x)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == before


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_a_record_equals_only_records_of_its_own_class(cls, make, fields):
    x = make()
    values = tuple(getattr(x, f) for f in fields)
    assert x != values and values != x
    assert x != list(values)
    # a record class of another name over the same fields, values and hashes
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(fields, object)})(*values)
    assert hash(twin) == hash(x)
    assert twin != x and x != twin


def test_fields_with_defaults():
    assert SymConst(Fraction(1)).is_xi is False
    assert SymConst(rat=Fraction(1)) == SymConst(Fraction(1), False)
    assert SymConst(Fraction(1)) != (Fraction(1), False)
    assert SymConst(Fraction(2), is_xi=True) == SymConst.xi(2)
    empty = TreePolyNormalForm()
    assert (empty.p, empty.r, empty.e) == ((), (), ())
    assert TreePolyNormalForm(r=(0, 1)) == TreePolyNormalForm((), (0, 1), ())
    with pytest.raises(TypeError):
        TreePolyNormalForm(q=(1,))  # no such field


def test_an_asymptotic_series_needs_a_slot():
    with pytest.raises(ValueError, match="at least one slot"):
        AsymSeries(0, (), 0)
    with pytest.raises(ValueError, match="at least one slot"):
        AsymSeries(lead=0, rats=(), parity=0)


def test_cached_properties_are_computed_once_and_leave_equality_alone():
    dec = decompose(2)
    assert dec.normal_form is decompose(2).normal_form
    form = t_normal_form(5)
    fresh = TreePolyNormalForm(form.p, form.r, form.e)
    assert form.integer_parts is form.integer_parts
    # a cached value on one side does not break equality or hash
    assert fresh == form and hash(fresh) == hash(form)
    assert fresh.integer_parts == form.integer_parts
    with pytest.raises(AttributeError):
        dec.normal_form = None


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_package_loads_no_code_generation_modules():
    # each of these costs import time on every cold command and none is used;
    # the check is on sys.modules, not on timing, so it is deterministic
    probe = (
        "import sys\n"
        f"heavy = {HEAVY!r}\n"
        "import graphasym\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "import graphasym.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    src = str(Path(graphasym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_the_command_line_loads_no_argument_parser():
    # argparse, and the gettext and locale it loads for its messages, cost
    # about 7 ms on every cold command; the CLI reads its arguments itself
    probe = (
        "import contextlib, io, sys\n"
        "import graphasym.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [graphasym.cli.main(['q', '--n-max', '2']), graphasym.cli.main(['errata'])]\n"
        "print(codes, sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    src = str(Path(graphasym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0] []"]
