"""Exact connected-graph counts and the excess numerators A_k."""
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphasym import _poly, connected_counts, graphs, recover_ak
from graphasym.cli import main
from graphasym.errors import VerificationFailure
from graphasym.graphs import _wright_step, connected_rows

import oracles

F = Fraction


def test_counts_match_exhaustive_enumeration():
    rows = connected_rows(6, 15)
    for n in range(1, 7):
        for m in range(0, comb(n, 2) + 1):
            assert rows[n][m] == oracles.brute_force_connected(n, m), (n, m)


# (requests in order, the ones that build, the tables kept after them)
CUT_SEQUENCES = [
    # ascending: every request is wider than the last, so each builds and covers the one before
    ([(5, 7), (9, 12), (12, 14), (12, 20)], [(5, 7), (9, 12), (12, 14), (12, 20)], [(12, 20)]),
    # descending: (10, 13) and the rest are cut from (12, 20)
    ([(12, 20), (10, 13), (9, 12), (5, 7)], [(12, 20)], [(12, 20)]),
    # (6, 15) after (12, 14) is wider than anything built and must build; (9, 12) and (4, 18) are cut
    ([(12, 14), (6, 15), (9, 12), (12, 20), (10, 13), (4, 18)], [(12, 14), (6, 15), (12, 20)], [(12, 20)]),
    # (9, 12) after (6, 15) has more rows than it, and (10, 13) is cut from (12, 14)
    ([(6, 15), (9, 12), (12, 14), (10, 13)], [(6, 15), (9, 12), (12, 14)], [(6, 15), (12, 14)]),
]


def test_counts_match_log_oracle(monkeypatch):
    built = []
    build_rows = graphs._build_rows
    monkeypatch.setattr(graphs, "_build_rows", lambda n, w: built.append((n, w)) or build_rows(n, w))
    log_rows = oracles.connected_counts_via_log(12, 20)
    for requests, builds, kept in CUT_SEQUENCES:
        connected_rows.cache_clear()
        built.clear()
        for n_max, w_cap in requests:
            rows = connected_rows(n_max, w_cap)
            assert len(rows) == n_max + 1 and {len(row) for row in rows} == {w_cap + 1}, (n_max, w_cap)
            for n in range(1, n_max + 1):
                for m in range(w_cap + 1):
                    expected = log_rows[n][m] * factorial(n)
                    assert expected.denominator == 1
                    assert rows[n][m] == expected, (requests, n_max, w_cap, n, m)
        assert built == builds, requests
        assert [(len(t) - 1, len(t[0]) - 1) for t in graphs._built] == kept, requests


def test_wpoly_bounds():
    connected_rows(9, 12)  # so (5, 7) is cut from a wider table
    rows = connected_rows(5, 7)
    assert rows[4][7] == 0  # above binom(4,2)
    with pytest.raises(IndexError):
        rows[5][8]  # beyond the tracked w power


def test_count_table_access_rules():
    table = connected_counts(8, 2)
    assert table.get(5, 5) == 222
    assert table.get(5, 3) == 0  # below the tree count
    assert table.get(4, 6) == 1  # complete graph, within k_max because 6 = binom(4,2)
    assert table.get(4, 7) == 0  # above binom(4,2)
    with pytest.raises(KeyError):
        table.get(9, 9)  # n beyond the table
    with pytest.raises(KeyError):
        table.get(8, 11)  # m beyond n + k_max but below binom(8,2)


def test_count_table_csv(capsys):
    # the CSV of `graphasym count` is the table's entries, one row each, in order
    table = connected_counts(6, 2)
    assert main(["count", "--n-max", "6", "--k-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,k,count"
    assert "5,5,0,222" in lines
    assert "6,7,1,5700" in lines
    assert lines[1:] == [f"{n},{m},{m - n},{c}" for n, m, c in table.entries()]


def test_recover_ak_table_values():
    at_one = {
        1: F(5, 24), 2: F(5, 16), 3: F(1105, 1152), 4: F(565, 128),
        5: F(82825, 3072), 6: F(19675, 96), 7: F(1282031525, 688128),
    }
    prime_at_one = {
        1: F(19, 24), 2: F(65, 48), 3: F(1945, 384), 4: F(21295, 768),
        5: F(603965, 3072), 6: F(10454075, 6144), 7: F(1705122725, 98304),
    }
    for k in range(1, 8):
        a = recover_ak(k)
        assert _poly.evaluate(a, 1) == at_one[k]
        assert _poly.evaluate(_poly.derivative(a), 1) == prime_at_one[k]


def test_recover_a1_polynomial():
    # W_1 (1-T)^3 = (6 T^4 - T^5)/24 exactly
    a = recover_ak(1)
    assert a == (0, 0, 0, 0, F(1, 4), F(-1, 24))
    assert _poly.evaluate(a, F(0)) == 0


def test_wright_step_checks_its_leftover_equation():
    a1 = recover_ak(1)
    assert _wright_step([a1]) == recover_ak(2)
    # one equation of the step is over-determined; a wrong top coefficient of
    # A_1 leaves no A_2 that satisfies it
    corrupted = a1[:-1] + (a1[-1] + 1,)
    with pytest.raises(VerificationFailure, match="inconsistent at T"):
        _wright_step([corrupted])



def test_wright_step_equals_the_fraction_object_step_for_a1_to_a12():
    lower = []
    for k in range(1, 13):
        got = _wright_step(lower)
        assert got == oracles.wright_step_by_fractions(lower) == recover_ak(k)
        assert all(type(c) is F for c in got)
        lower.append(got)


@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
    st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=50),
        st.builds(F, st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool)),
    ),
)
@settings(max_examples=60, deadline=None)
def test_wright_step_on_perturbed_input_equals_the_fraction_object_step(k, data, delta):
    # a perturbed A_i (including one with a zero top coefficient) must give
    # the same A_{k+1} or the same inconsistency report on both routes
    lower = [list(recover_ak(i)) for i in range(1, k + 1)]
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lower[i]) - 1))
    lower[i][j] += delta
    lower = [tuple(a) for a in lower]
    outcomes = []
    for step in (_wright_step, oracles.wright_step_by_fractions):
        try:
            outcomes.append(step(lower))
        except VerificationFailure as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
