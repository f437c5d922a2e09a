"""Exact connected-graph counts and the excess splits and numerators A_k."""
import re
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphasym import _poly, assembly, connected_counts, graphs, recover_ak
from graphasym.cli import main
from graphasym.errors import VerificationFailure
from graphasym.graphs import connected_rows, excess_split

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
        assert _poly.evaluate(oracles.derivative(a), 1) == prime_at_one[k]


def test_recover_a1_polynomial():
    # W_1 (1-T)^3 = (6 T^4 - T^5)/24 exactly
    a = recover_ak(1)
    assert a == (0, 0, 0, 0, F(1, 4), F(-1, 24))
    assert _poly.evaluate(a, F(0)) == 0


def test_the_split_step_checks_its_leftover_equation():
    g1 = graphs._split(1)
    assert graphs._split_step([g1]) == graphs._split(2)
    # equation r = 3k+3 (s**-1) holds no unknown; a wrong top coefficient of
    # gamma_1 leaves no gamma_2 that satisfies it
    nums, den = g1
    corrupted = (nums[:-1] + (nums[-1] + den,), den)
    with pytest.raises(VerificationFailure, match=r"W_2 fails its leftover equation at s\*\*-1: "):
        graphs._split_step([corrupted])


def test_the_split_step_re_expanded_equals_the_fraction_object_step_in_t_for_a1_to_a12():
    splits = []
    for k in range(1, 13):
        nums, den = graphs._split_step(splits)
        got = tuple(F(c, den) for c in nums)
        assert _poly.over_one_denominator(got) == (list(nums), den)  # den is the least common one
        assert got == excess_split(k)
        lower = [recover_ak(i) for i in range(1, k)]
        assert oracles.reflect(got) == oracles.wright_step_by_fractions(lower) == recover_ak(k)
        splits.append((nums, den))


@given(
    st.integers(min_value=1, max_value=6),
    st.data(),
    st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=50),
        st.builds(F, st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool)),
    ),
)
@settings(max_examples=60, deadline=None)
def test_the_split_step_on_perturbed_input_agrees_with_the_fraction_object_step_in_t(k, data, delta):
    # a perturbed A_i (including one with a zero top coefficient) must give the
    # same A_{k+1} on both routes, or make both raise
    lower = [list(recover_ak(i)) for i in range(1, k + 1)]
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(lower[i]) - 1))
    lower[i][j] += delta
    lower = [tuple(a) for a in lower]
    try:
        nums, den = graphs._split_step([_poly.over_one_denominator(oracles.reflect(a)) for a in lower])
        via_s = oracles.reflect(tuple(F(c, den) for c in nums))
    except VerificationFailure:
        via_s = None
    try:
        via_t = oracles.wright_step_by_fractions(lower)
    except VerificationFailure:
        via_t = None
    assert via_s == via_t


LEFTOVER = r"Wright's recurrence for W_\d+ fails its leftover equation at s\*\*{}: \S+ != \S+"
CONSTANT = r"the split of W_1 has a z\*\*0 term: A_1\(0\) = \S+"


# (text of graphs.py, its mutant, the message of `decompose --k 8`, and the power of s of
# the leftover equation that the mutant's steps alone trip by k = 8, without the z**0 check)
@pytest.mark.parametrize(
    "text, mutant, message, power",
    [
        # one more in the top coefficient of the pair product theta W_0 theta W_k: the
        # backward sweep solves it into gamma_{3k+3..3k+5}, whose sum shows it at once,
        # and the next step's equation r = 3k+3 a step later
        ("_poly.kronecker(bi, bj), den", "[*_poly.kronecker(bi, bj)[:-1], _poly.kronecker(bi, bj)[-1] + (i == 0)], den",
         CONSTANT, -1),
        # one more in its coefficient at r = 3k+3, the leftover equation that holds gamma_{3k+2};
        # one at r < 2k+3 dies out in the forward sweep by r = 2k+3, where gamma_{r-1} drops out
        ("_poly.kronecker(bi, bj), den", "[*(p := _poly.kronecker(bi, bj))[:-4], p[-4] + (i == 0), *p[-3:]], den",
         LEFTOVER.format(-1), -1),
        # theta W_0 = T**4 / (2 (1-T)**2), one power of T too many: rhs runs past r = 3k+6
        ("_THETA_W0 = ([1, -3, 3, -1], 2)", "_THETA_W0 = ([1, -4, 6, -4, 1], 2)", LEFTOVER.format(3), 3),
        # k+4 for k+3, the divisor of the first backward equation, r = 3k+6
        ("(r, r - 2 * k - 3, 3 * k + 3 - r)", "(r, r - 2 * k - 3 + (r == 3 * k + 6), 3 * k + 3 - r)", CONSTANT, -1),
        # k+2 for k+1, the divisor of the last one, r = 3k+4, moves only gamma_{3k+3}, the
        # s**0 term of W_{k+1}: no leftover equation reads it, nor the n <= 12 counts, as
        # t_n(0) = 0 for n >= 1, but decompose prints it
        ("(r, r - 2 * k - 3, 3 * k + 3 - r)", "(r, r - 2 * k - 3 + (r == 3 * k + 4), 3 * k + 3 - r)", CONSTANT, None),
    ],
    ids=["pair-product-top", "pair-product-at-3k+3", "theta-w0", "first-backward-divisor", "last-backward-divisor"],
)
def test_a_mutant_of_the_split_step_makes_decompose_exit_2(monkeypatch, capsys, text, mutant, message, power):
    module = oracles.mutant_module(graphs, text, mutant)
    monkeypatch.setattr(assembly, "excess_split", module.excess_split)
    assembly.decompose.cache_clear()
    try:
        assert main(["decompose", "--k", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(f"verification error: {message}\n", err)
    finally:
        assembly.decompose.cache_clear()
    splits = []
    try:
        for _ in range(8):
            splits.append(module._split_step(splits))
    except VerificationFailure as exc:
        assert re.fullmatch(LEFTOVER.format(power), str(exc))
    else:
        assert power is None
