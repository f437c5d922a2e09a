"""Ramanujan's Q-function: exact values, the R counterpart, and expansions."""
from fractions import Fraction
from math import prod

import mpmath
from hypothesis import given, settings, strategies as st

from graphasym import SymConst, d_coefficients, q_asym, q_exact, ramanujan, stirling_series
from graphasym.ramanujan import d_asym, delta_log_series, q_head, q_scaled, q_scaled_mod

import oracles

F = Fraction


@given(st.integers(min_value=1, max_value=80))
@settings(max_examples=40, deadline=None)
def test_q_exact_matches_direct_sum(n):
    assert q_exact(n) == oracles.q_direct(n)


def test_q_scaled_matches_the_term_by_term_loop():
    # n <= 129 is one leaf of the product tree; n = 300 splits two levels
    # deep, 1000 three and 4096 five
    for n in list(range(1, 301)) + [1000, 4096]:
        assert q_scaled(n) == oracles.q_scaled_by_loop(n), n


def _q_split_by_definition(n, a, c):
    # P = prod_{a<=j<c} (n-j), T = sum_{a<=m<c} prod_{a<=j<=m} (n-j) n**(c-1-m)
    terms = [prod(n - j for j in range(a, m + 1)) * n ** (c - 1 - m) for m in range(a, c)]
    return prod(n - j for j in range(a, c)), sum(terms)


def test_q_split_matches_its_defining_sum():
    # every length mod 4 (the leaf's four-term steps and the 0-3 left over),
    # lengths at the leaf size and either side of it, and ranges that split
    leaf = ramanujan._Q_LEAF
    lengths = [*range(0, 13), leaf - 1, leaf, leaf + 1, 2 * leaf + 3, 3 * leaf + 2]
    for n in (7, 40, 600, 65537):
        for a in (0, 1, 5):
            for length in lengths:
                c = a + length
                assert ramanujan._q_split(n, a, c) == _q_split_by_definition(n, a, c), (n, a, c)


def test_q_scaled_matches_the_residue_loop_at_compare_sizes():
    # the integer checks in `TreePolyNormalForm.value_at` cannot see an error
    # in Q(n) that the form's denominator divides (t_n(3) has denominator 1),
    # so the sizes `compare` reaches are pinned here against a plain O(n) loop
    for n in (8192, 65536):
        assert q_scaled(n) % oracles.PRIME == oracles.q_scaled_mod(n), n


# primes, powers of two and others up to about 3000
HEAD_NS = (1, 2, 3, 4, 5, 31, 64, 97, 100, 512, 777, 1024, 1031, 2048, 2999, 3000)


def test_q_head_encloses_q_within_its_precision(monkeypatch):
    monkeypatch.setattr(ramanujan, "_HEAD_SHARE", float("inf"))  # a head at every n
    for n in HEAD_NS:
        for prec in (2, 53, 320, 576):
            length, p, t = q_head(n, prec)
            scale = n ** (length - 1)
            low = F(scale + t, scale)
            high = F(length * (scale + t) + p * (n - length), length * scale)
            assert low <= F(q_scaled(n), n**n) <= high, (n, prec)
            assert high - low < F(1, 2**prec), (n, prec)


def test_q_head_is_taken_only_where_it_is_well_short_of_n():
    # fit's windows (n <= 600 at 256 bits) keep the whole sum; compare's
    # large n sum under half of the terms
    assert all(q_head(n, 320) is None for n in range(100, 601))
    for n in (4096, 8192, 65536):
        assert q_head(n, 320)[0] < n / 2


def test_q_scaled_mod_carries_the_head_on_to_the_whole_sum(monkeypatch):
    # 24 n**2 is the modulus of excess 1, which the head's product reaches;
    # the prime is one it never reaches, so the loop runs to n - 1
    monkeypatch.setattr(ramanujan, "_HEAD_SHARE", float("inf"))
    for n in HEAD_NS:
        head = q_head(n, 53)
        for modulus in (1, 2, 24 * n * n, 3**40, oracles.PRIME):
            assert q_scaled_mod(n, head, modulus) == q_scaled(n) % modulus, (n, modulus)


def test_q_scaled_mod_walks_heads_of_every_length_mod_4():
    # the walk after the head joins `_q_split`'s leaves of up to _Q_LEAF
    # terms, whose four-term steps leave 0-3 single ones; any 6 consecutive
    # factors make p 0 modulo 720 = 6!, for most of these heads at a step
    # inside a leaf.  Tails n - K of a leaf less one, one leaf, a leaf and
    # one, and two leaves and three cross the leaf boundaries.  Modulo the
    # prime 263, p first turns 0 at n = 410 when n - j = 263, tail step
    # 136-147 of these heads: inside the second leaf.
    leaf = ramanujan._Q_LEAF
    heads = [(n, length) for n in (37, 38, 39, 40, 41, 97, 410) for length in range(1, 13)]
    heads += [(n, n - tail) for n in (300, 521) for tail in (leaf - 1, leaf, leaf + 1, 2 * leaf + 3)]
    for n, length in heads:
        head = (length, *ramanujan._q_split(n, 1, length))
        for modulus in (1, 2, 263, 720, 24 * n * n, oracles.PRIME):
            assert q_scaled_mod(n, head, modulus) == q_scaled(n) % modulus, (n, length, modulus)


def test_q_scaled_mod_matches_the_residue_loop_at_compare_sizes():
    for n in (8192, 65536):
        assert q_scaled_mod(n, q_head(n, 320), oracles.PRIME) == oracles.q_scaled_mod(n), n


def test_q_small_values():
    assert q_exact(1) == 1
    assert q_exact(2) == F(3, 2)
    assert q_exact(3) == F(17, 9)
    assert q_exact(4) == F(71, 32)


def test_q_generating_function_identity():
    # sum_n Q(n) n^(n-1) z^n / n! = -log(1 - T)
    assert oracles.q_egf_check(12)


def test_q_plus_r_is_the_factorial_ratio():
    for n in (5, 20, 60):
        q = q_exact(n)
        with mpmath.workprec(256):
            total = mpmath.mpf(q.numerator) / q.denominator + oracles.r_numeric(n, 256)
            exact = mpmath.factorial(n) * mpmath.exp(n) / mpmath.power(n, n)
            assert abs(total - exact) / exact < mpmath.mpf(2) ** -200


def test_difference_log_series():
    s = delta_log_series(20)
    assert s[0] == 0
    assert s[1] == F(2, 3)
    # numeric check of the whole truncation at delta = 1/10
    with mpmath.workprec(128):
        delta = mpmath.mpf(1) / 10
        direct = mpmath.log(
            delta**2 / (2 * (1 - (1 + delta) * mpmath.exp(-delta)))
        )
        truncated = sum(
            mpmath.mpf(c.numerator) / c.denominator * delta**j
            for j, c in enumerate(s.coeffs())
        )
        assert abs(direct - truncated) < mpmath.mpf(10) ** -19


def test_d_coefficients_exact():
    assert d_coefficients(5) == (
        F(2, 3),
        F(8, 135),
        F(-16, 2835),
        F(-32, 8505),
        F(17984, 12629925),
        F(668288, 492567075),
    )


def test_d_numeric_converges_to_expansion():
    series = d_asym(3)
    for n in (100, 400):
        approx = series.evaluate(n, bits=256)
        assert abs(oracles.d_numeric(n, 256) - approx) < mpmath.mpf(n) ** -4 * 100


def test_q_asym_row():
    series = q_asym(5)
    expected = [
        SymConst.xi(F(1, 2)),
        SymConst.rational(F(-1, 3)),
        SymConst.xi(F(1, 24)),
        SymConst.rational(F(-4, 135)),
        SymConst.xi(F(1, 576)),
        SymConst.rational(F(8, 2835)),
    ]
    assert series.lead == 1
    assert list(series.coeffs) == expected


def test_q_asym_numeric():
    series = q_asym(5)
    n = 512
    q = q_exact(n)
    with mpmath.workprec(512):
        exact = mpmath.mpf(q.numerator) / q.denominator
        assert abs(exact - series.evaluate(n, bits=512)) < mpmath.mpf(n) ** F(-5, 2) * 10


def test_q_asym_consistent_with_stirling_and_d():
    # 2 Q = (n! e^n / n^n) - D  termwise on the overlapping slots
    q = q_asym(5)
    s = stirling_series(6)
    d = d_asym(3)
    for h in range(-4, 2):
        for part in (SymConst.rational_part, SymConst.xi_part):
            want = part(s.coefficient_at(h)) - part(d.coefficient_at(h))
            assert 2 * part(q.coefficient_at(h)) == want


def test_a_shallower_q_expansion_is_cut_from_the_deepest_build(monkeypatch):
    fresh = []
    for d in range(12):
        q_asym.cache_clear()
        fresh.append(q_asym(d))
    q_asym.cache_clear()
    q_asym(12)
    assert [q_asym(d) for d in range(12)] == fresh
    # shallow then deep: the deeper request builds (and checks) again, a shallower one after it is cut
    builds = []
    stirling = ramanujan.stirling_series
    monkeypatch.setattr(ramanujan, "stirling_series", lambda depth: builds.append(depth) or stirling(depth))
    q_asym.cache_clear()
    assert [q_asym(3), q_asym(9), q_asym(5)] == [fresh[3], fresh[9], fresh[5]]
    assert builds == [3, 9]
