"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints its verdict on the real stdout (bypassing capture) so the
full list of lines is visible in any pytest run, then asserts.  Criteria 06
and 08 check published coefficient tables that contain one wrong entry each.
Every other entry must equal the derived coefficient; each wrong one must be
the recorded erratum, re-verified by the errata check and by an independent
oracle.  Run only this gate with:

    pytest tests/test_acceptance.py -v
"""
from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from graphasym import (
    _poly,
    AsymSeries,
    Series,
    SymConst,
    asym_c,
    asym_g,
    asym_p,
    connected_counts,
    d_coefficients,
    decompose,
    exact_count_via_t,
    fss_crosscheck,
    lsq_fit,
    q_asym,
    q_exact,
    recover_ak,
    reconstruct_symbolic,
    t_value,
    tree_function,
)
from graphasym.errata import FINDINGS, verify_finding
from graphasym.graphs import connected_rows

import oracles

F = Fraction
RAT = SymConst.rational
XI = SymConst.xi


@pytest.fixture
def emit(capfd):
    """Verdict printer that bypasses pytest's fd capture."""

    def _emit(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            sys.stdout.write(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}\n")
            sys.stdout.flush()

    return _emit


# -- criterion 1: golden exact counts and table runtime ----------------------

GOLDEN_COUNTS = {
    (2, 1): 1,
    (3, 2): 3,
    (3, 3): 1,
    (4, 3): 16,
    (4, 4): 15,
    (4, 5): 6,
    (4, 6): 1,
    (5, 5): 222,
    (6, 6): 3660,
    (5, 6): 205,
    (6, 7): 5700,
}


def test_criterion_01_golden_counts(emit):
    connected_rows.cache_clear()
    connected_counts.cache_clear()
    t0 = time.perf_counter()
    table = connected_counts(30, 5)
    elapsed = time.perf_counter() - t0

    bad = [(n, m) for (n, m), c in GOLDEN_COUNTS.items() if table.get(n, m) != c]
    tree_bad = [n for n in range(1, 31) if table.get(n, n - 1) != n ** max(n - 2, 0)]
    ok = not bad and not tree_bad and elapsed < 5.0
    emit(
        1,
        ok,
        f"{len(GOLDEN_COUNTS)} golden counts, c(n,n-1)=n^(n-2) for n<=30, "
        f"full n<=30 k<=5 table in {elapsed:.2f}s (limit 5s)",
    )
    assert not bad, f"golden count mismatches at {bad}"
    assert not tree_bad, f"tree-count formula fails at n={tree_bad}"
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"


# -- criterion 2: tree-polynomial route vs bivariate-log oracle --------------


def test_criterion_02_dual_route_counts(emit):
    n_max, k_max = 30, 5
    rows = oracles.connected_counts_via_log(n_max, n_max + k_max)
    checked = 0
    for n in range(1, n_max + 1):
        fn = math.factorial(n)
        for k in range(0, k_max + 1):
            expected = rows[n][n + k] * fn
            assert expected.denominator == 1
            got = exact_count_via_t(n, k)
            assert got == expected, f"c({n},{n}+{k}): split {got} vs log-oracle {expected}"
            checked += 1
    emit(2, True, f"exact_count_via_t equals log-oracle on {checked} cells (n<=30, 0<=k<=5)")


# -- criterion 3: A_k(1) and A_k'(1) table ------------------------------------

AK_AT_ONE = {
    1: F(5, 24),
    2: F(5, 16),
    3: F(1105, 1152),
    4: F(565, 128),
    5: F(82825, 3072),
    6: F(19675, 96),
    7: F(1282031525, 688128),
}
AK_PRIME_AT_ONE = {
    1: F(19, 24),
    2: F(65, 48),
    3: F(1945, 384),
    4: F(21295, 768),
    5: F(603965, 3072),
    6: F(10454075, 6144),
    7: F(1705122725, 98304),
}


def test_criterion_03_ak_values(emit):
    bad = []
    for k in range(1, 8):
        a = recover_ak(k)
        at_one, prime_at_one = _poly.evaluate(a, 1), _poly.evaluate(_poly.derivative(a), 1)
        if at_one != AK_AT_ONE[k] or prime_at_one != AK_PRIME_AT_ONE[k]:
            bad.append(k)
    ok = not bad
    emit(3, ok, "A_k(1), A_k'(1) exact for k=1..7 incl. A_6(1)=19675/96, A_7'(1)=1705122725/98304")
    assert not bad, f"A_k mismatches at k={bad}"


# -- criterion 4: difference-function coefficients ----------------------------

D_COEFFS = (
    F(2, 3),
    F(8, 135),
    F(-16, 2835),
    F(-32, 8505),
    F(17984, 12629925),
    F(668288, 492567075),
)


def test_criterion_04_d_coefficients(emit):
    got = d_coefficients(5)
    ok = got == D_COEFFS
    emit(4, ok, "D coefficients exact through n^-5: 2/3, 8/135, -16/2835, -32/8505, ...")
    assert got == D_COEFFS, f"derived {got}"


# -- criterion 5: Q expansion values and remainder scaling --------------------


def _q_remainder_ladder(series: AsymSeries, j_terms: int, ns) -> list[mpmath.mpf]:
    """|Q(n) - partial sum of the first j_terms series terms| on the ladder."""
    out = []
    with mpmath.workprec(1024):
        for n in ns:
            q = q_exact(n)
            val = mpmath.mpf(q.numerator) / q.denominator
            part = mpmath.mpf(0)
            for j in range(j_terms):
                c = series.coeffs[j].evaluate(1024)
                part += c * mpmath.power(n, mpmath.mpf(series.lead - j) / 2)
            out.append(abs(val - part))
    return out


def test_criterion_05_q_expansion(emit):
    series = q_asym(5)
    printed = {1: XI(F(1, 2)), 0: RAT(F(-1, 3)), -1: XI(F(1, 24)), -3: XI(F(1, 576))}
    pos_bad = [h for h, c in printed.items() if series.coefficient_at(h) != c]
    derived_bad = [
        h
        for h, c in ((-2, RAT(F(-4, 135))), (-4, RAT(F(8, 2835))))
        if series.coefficient_at(h) != c
    ]

    # Remainder scaling: dropping the series after j terms must leave an error
    # that decays like n^-(j-lead)/2, within 20 percent of the expected
    # exponent, and each added derived term must shrink the error pointwise.
    ns = (128, 256, 512, 1024, 2048, 4096)
    scaling_ok = True
    for j_with in (4, 6):  # term counts ending just after n^-1 and n^-2
        before = _q_remainder_ladder(series, j_with - 1, ns)
        after = _q_remainder_ladder(series, j_with, ns)
        if not all(a < b for a, b in zip(after, before)):
            scaling_ok = False
        for rems, terms in ((before, j_with - 1), (after, j_with)):
            expected = mpmath.mpf(terms - series.lead) / 2
            measured = mpmath.log(rems[0] / rems[-1]) / mpmath.log(ns[-1] / ns[0])
            if abs(measured - expected) > mpmath.mpf("0.2") * expected:
                scaling_ok = False

    errata_ok = (
        verify_finding("q_coefficient_n1")
        and verify_finding("q_coefficient_n2")
        and {f.key: f.stated for f in FINDINGS}.get("q_coefficient_n1") == "-4/35"
        and {f.key: f.stated for f in FINDINGS}.get("q_coefficient_n2") == "8/235"
    )
    ok = not pos_bad and not derived_bad and scaling_ok and errata_ok
    emit(
        5,
        ok,
        "Q row xi/2, -1/3, xi/24, xi/576 in place; derived -4/135, 8/2835 pass "
        "remainder scaling on n=128..4096; -4/35, 8/235 flagged in errata",
    )
    assert not pos_bad, f"printed Q coefficients wrong at half-exponents {pos_bad}"
    assert not derived_bad, f"derived Q coefficients wrong at half-exponents {derived_bad}"
    assert scaling_ok, "remainder scaling outside 20% of the expected exponent"
    assert errata_ok, "printed -4/35 / 8/235 not flagged by the errata checks"


# -- criteria 6 and 8: printed tables with recorded misprints -------------------

FINDING = {f.key: f for f in FINDINGS}

# Printed cells known to be wrong, (k, half-exponent) -> errata key.
C_TABLE_MISPRINTS = {(0, -5): "connected_k0_n52"}
P_TABLE_MISPRINTS = {(0, -2): "probability_k0_n1"}

_ORACLE_NS = (1024, 4096)


def _audit_printed_table(table, derive, misprints):
    """Compare a frozen printed table with the derived expansion, cell by cell.

    Every cell not in `misprints` must equal the derived coefficient.  Every
    cell in it must differ from the derived coefficient, the printed and the
    derived value must be the ones its finding records, and the finding's own
    check must pass.  Returns the derived coefficient of every cell, the set
    of cells that differ, and a list of failures.
    """
    derived_at = {}
    mismatched = set()
    for k, row in table.items():
        series = derive(k)
        for j, printed in enumerate(row):
            derived_at[(k, -j)] = series.coefficient_at(-j)
            if derived_at[(k, -j)] != printed:
                mismatched.add((k, -j))

    failures = []
    for k, h in sorted(mismatched - misprints.keys()):
        failures.append(
            f"k={k}, n^{h/2:g}: printed {table[k][-h]} vs derived {derived_at[(k, h)]}, "
            "not a recorded erratum"
        )
    for (k, h), key in sorted(misprints.items()):
        printed, derived, finding = table[k][-h], derived_at[(k, h)], FINDING[key]
        where = f"k={k}, n^{h/2:g} ({key})"
        if (k, h) not in mismatched:
            failures.append(f"{where}: listed as a misprint, but both sides are {derived}")
            continue
        if str(printed) != finding.stated:
            failures.append(f"{where}: printed {printed}, finding states {finding.stated}")
        if str(derived) != finding.derived:
            failures.append(f"{where}: derived {derived}, finding records {finding.derived}")
        if not verify_finding(key):
            failures.append(f"{where}: errata check does not separate {derived} from {printed}")
    return derived_at, mismatched, failures


def _oracle_remainders(scaled_exact, row, j):
    """(x(n) - sum_{i<j} row[i] n**(-i/2)) * n**(j/2) at each n in _ORACLE_NS.

    x(n) = scaled_exact(n) is an oracle value over the row's normalization, so
    the result tends to the true coefficient of n**(-j/2) as n grows.
    """
    out = []
    with mpmath.workprec(256):
        for n in _ORACLE_NS:
            partial = sum(
                row[i].evaluate(256) * mpmath.power(n, -mpmath.mpf(i) / 2) for i in range(j)
            )
            out.append((scaled_exact(n) - partial) * mpmath.power(n, mpmath.mpf(j) / 2))
    return out


def _oracle_confirms(remainders, derived) -> bool:
    """Remainders carry the derived sign, approach it, and end within 5% of it."""
    d = derived.evaluate(256)
    errors = [abs(r - d) for r in remainders]
    return (
        all(mpmath.sign(r) == mpmath.sign(d) for r in remainders)
        and all(b < a for a, b in zip(errors, errors[1:]))
        and errors[-1] < abs(d) / 20
    )


def _fmt(values) -> str:
    return ", ".join(mpmath.nstr(v, 4) for v in values)


def _table_verdict(derived_at, mismatched, table, misprints, remainders, confirmed) -> str:
    cells = "; ".join(
        f"{key}: printed {table[k][-h]}, derived {derived_at[(k, h)]}"
        for (k, h), key in sorted(misprints.items())
    )
    return (
        f"{len(derived_at) - len(mismatched)}/{len(derived_at)} printed entries match; "
        f"{len(misprints)} misprint {'confirmed' if confirmed else 'NOT confirmed'} ({cells}; "
        f"errata check and unicyclic-sum remainder {_fmt(remainders)} at "
        f"n={_ORACLE_NS[0]}, {_ORACLE_NS[-1]})"
    )


# -- criterion 6: connected-count expansion table ------------------------------

PRINTED_C_TABLE = {
    0: (XI(F(1, 4)), RAT(F(-7, 6)), XI(F(1, 48)), RAT(F(131, 270)), XI(F(1, 1152)), RAT(F(-4, 2835))),
    1: (RAT(F(5, 24)), XI(F(-7, 24)), RAT(F(25, 36)), XI(F(-7, 288)), RAT(F(-79, 3240)), XI(F(-7, 6912))),
    2: (XI(F(5, 256)), RAT(F(-35, 144)), XI(F(1559, 9216)), RAT(F(-55, 144)), XI(F(33055, 221184)), RAT(F(-41971, 136080))),
}
LITERATURE_LEADING = {2: XI(F(5, 256)), 3: RAT(F(221, 24192)), 4: XI(F(113, 196608))}


def test_criterion_06_connected_expansion_table(emit):
    oracle_bad = [n for n in (4, 5, 6) if oracles.unicyclic_count(n) != GOLDEN_COUNTS[(n, n)]]
    assert not oracle_bad, f"unicyclic oracle disagrees with the golden counts at n={oracle_bad}"

    derived_at, mismatched, failures = _audit_printed_table(
        PRINTED_C_TABLE, lambda k: asym_c(k, 5), C_TABLE_MISPRINTS
    )
    # c(n, n) / n**(n - 1/2) is the k = 0 row's normalization.
    remainders = _oracle_remainders(
        lambda n: mpmath.mpf(oracles.unicyclic_count(n)) / mpmath.power(n, n - mpmath.mpf(1) / 2),
        PRINTED_C_TABLE[0],
        5,
    )
    oracle_ok = _oracle_confirms(remainders, derived_at[(0, -5)])
    leading_bad = [
        k for k, c in LITERATURE_LEADING.items() if asym_c(k, 0).coefficient_at(0) != c
    ]
    confirmed = not failures and oracle_ok
    emit(
        6,
        confirmed and not leading_bad,
        _table_verdict(
            derived_at, mismatched, PRINTED_C_TABLE, C_TABLE_MISPRINTS, remainders, confirmed
        )
        + "; literature leads k=2,3,4 reproduced",
    )
    assert not leading_bad, f"literature leading coefficients wrong for k={leading_bad}"
    assert not failures, "printed connected table: " + "; ".join(failures)
    assert oracle_ok, (
        "unicyclic-sum remainder at n^-5/2 does not approach the derived "
        f"{derived_at[(0, -5)]}: {_fmt(remainders)} at n={_ORACLE_NS}"
    )


# -- criterion 7: total-graph expansion table ----------------------------------

PRINTED_G_TABLE = {
    -1: (F(1, 1), F(7, 4), F(259, 96), F(22393, 5760), F(54359, 10240), F(52279961, 7741440)),
    0: (F(1, 2), F(-5, 8), F(-53, 192), F(-4067, 11520), F(-9817, 20480), F(-10813867, 15482880)),
    1: (F(1, 4), F(-21, 16), F(811, 384), F(-43187, 23040), F(159571, 73728), F(-55568731, 30965760)),
}


def test_criterion_07_total_expansion_table(emit):
    mismatches = []
    for k, row in PRINTED_G_TABLE.items():
        series = asym_g(k, 5)
        for j, printed in enumerate(row):
            if series.coefficient_at(-2 * j) != RAT(printed):
                mismatches.append((k, j))
    leading_bad = [
        k
        for k in range(-1, 9)
        if asym_g(k, 0).coefficient_at(0) != RAT(F(1, 2 ** (k + 1)))
    ]
    ok = not mismatches and not leading_bad
    emit(
        7,
        ok,
        "all 18 printed entries k=-1,0,1 through n^-5 match; leading 1/2^(k+1) "
        "symbolic for k<=8",
    )
    assert not mismatches, f"total-graph expansion mismatches at {mismatches}"
    assert not leading_bad, f"leading coefficient not 1/2^(k+1) for k={leading_bad}"


# -- criterion 8: connectivity-probability expansion table ----------------------

PRINTED_P_TABLE = {
    -1: (RAT(F(1, 2)), RAT(0), RAT(F(-7, 8)), RAT(0), RAT(F(35, 192))),
    0: (XI(F(1, 4)), RAT(F(-7, 6)), XI(F(-1, 3)), RAT(F(-1051, 1080)), XI(F(5, 9))),
    1: (RAT(F(5, 12)), XI(F(-7, 12)), RAT(F(515, 144)), XI(F(-28, 9)), RAT(F(788347, 51840))),
}


def test_criterion_08_probability_expansion_table(emit):
    derived_at, mismatched, failures = _audit_printed_table(
        PRINTED_P_TABLE, lambda k: asym_p(k, 4), P_TABLE_MISPRINTS
    )

    def scaled_probability(n):
        # 2**n exp(2 - n) sqrt(2 pi) is the k = 0 row's normalization.
        p = oracles.unicyclic_probability(n)
        return (mpmath.mpf(p.numerator) / p.denominator) / (
            mpmath.power(2, n) * mpmath.exp(2 - n) * mpmath.sqrt(2 * mpmath.pi)
        )

    remainders = _oracle_remainders(scaled_probability, PRINTED_P_TABLE[0], 2)
    oracle_ok = _oracle_confirms(remainders, derived_at[(0, -2)])
    confirmed = not failures and oracle_ok
    emit(
        8,
        confirmed,
        _table_verdict(
            derived_at, mismatched, PRINTED_P_TABLE, P_TABLE_MISPRINTS, remainders, confirmed
        ),
    )
    assert not failures, "printed probability table: " + "; ".join(failures)
    assert oracle_ok, (
        "unicyclic-sum remainder at n^-1 does not approach the derived "
        f"{derived_at[(0, -2)]}: {_fmt(remainders)} at n={_ORACLE_NS}"
    )


# -- criterion 9: second-order cross-check against the Airy-constant formula ----


def test_criterion_09_fss_crosscheck(emit):
    worst = 0.0
    for k in range(2, 8):
        report = fss_crosscheck(k)
        assert report.passed and report.tolerance == 1e-12
        worst = max(worst, float(report.rel_a0), float(report.rel_ratio))
    emit(9, True, f"two-term formula matches series for k=2..7, worst rel err {worst:.2e} (tol 1e-12)")


# -- criterion 10: closed-form splits at excess 0 and 1 -------------------------


def test_criterion_10_splits(emit):
    table = connected_counts(12, 1)
    bad0 = []
    for n in range(3, 13):
        split = q_exact(n) * n ** (n - 1) / 2 + t_value(n, -1) - F(t_value(n, -2), 4)
        if split != table.get(n, n) or split + F(3, 2) == table.get(n, n):
            bad0.append(n)

    dec = decompose(1)
    bad1 = []
    for n in range(4, 13):
        if dec.evaluate(n) != table.get(n, n + 1):
            bad1.append(n)
        # the split must rely on t_n(1) = n^n; substituting the misprinted
        # value 1 has to break it
        beta = dict(dec.beta)
        alt = dec.evaluate(n) - beta[1] * t_value(n, 1) + beta[1] * 1
        if alt == table.get(n, n + 1):
            bad1.append(n)

    keys = {f.key for f in FINDINGS}
    errata_ok = (
        "excess_zero_constant" in keys
        and "tree_value_at_one" in keys
        and verify_finding("excess_zero_constant")
        and verify_finding("tree_value_at_one")
    )
    ok = not bad0 and not bad1 and errata_ok
    emit(
        10,
        ok,
        "c(n,n) split exact without '+3/2' (3<=n<=12); excess-1 split with t_n(1)=n^n "
        "exact (4<=n<=12); both corrections in errata",
    )
    assert not bad0, f"excess-0 split fails at n={bad0}"
    assert not bad1, f"excess-1 split fails at n={bad1}"
    assert errata_ok


# -- criterion 11: least-squares recovery of expansion coefficients -------------


def test_criterion_11_fit_recovery(emit):
    t0 = time.perf_counter()
    reports = []
    for k in (0, 1):
        expected = [asym_c(k, 2).coefficient_at(-j) for j in range(3)]
        result = lsq_fit(k, degree=6, n_min=100, n_max=1000)
        for j in range(3):
            target = expected[j].evaluate(result.bits)
            rel = abs((result.estimates[j] - target) / target)
            assert rel < 1e-3, f"k={k}, coefficient {j}: rel error {mpmath.nstr(rel, 5)}"
            sym = reconstruct_symbolic(result.estimates[j], max_denominator=10000, tolerance=1e-4)
            assert sym == expected[j], f"k={k}, coefficient {j}: reconstructed {sym}"
            reports.append(float(rel))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    emit(
        11,
        ok,
        f"degree-6 fits on n in [100,1000] recover first three coefficients for k=0,1 "
        f"(worst rel err {max(reports):.1e} < 1e-3), symbolic forms identified, "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert ok, f"fit pipeline took {elapsed:.1f}s"


# -- criterion 12: structural property checks -----------------------------------


def _pseudo_series(rng, order: int) -> Series:
    return Series(
        [F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(order + 1)]
    )


def test_criterion_12_property_checks(emit):
    import random

    rng = random.Random(20260815)
    order = 8
    one = Series.one(order)
    zero = Series.zero(order)
    for _ in range(40):
        a, b, c = (_pseudo_series(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a * one == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

        s = Series((F(0),) + a.coeffs()[1:])  # zero constant term
        assert s.exp().log() == s
        assert (one + s).log().exp() == one + s

    t = tree_function(40)
    assert Series.variable(40) * t.exp() == t

    assert oracles.t_recurrence_check(50, -5, 10)

    parity_bad = []
    for k in range(-1, 4):
        series = asym_c(k, 6)
        for idx, coef in enumerate(series.coeffs):
            if coef.is_zero():
                continue
            if (idx + k) % 2 == 0:
                if coef != XI(coef.xi_part()):
                    parity_bad.append((k, idx))
            elif coef != RAT(coef.rational_part()):
                parity_bad.append((k, idx))
    assert not parity_bad, f"xi-parity violated at {parity_bad}"

    emit(
        12,
        True,
        "series ring laws, exp/log inversion, T=z*e^T (order 40), tree recurrence "
        "(n<=50, y in [-5,10]), xi-parity of connected rows: all exact",
    )
