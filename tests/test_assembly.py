"""Count decompositions, the three asymptotic families, and cross-checks."""
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import fone, from_int, from_man_exp, to_rational
from mpmath.libmp.libmpi import mpi_div

from graphasym import (
    AsymSeries,
    Series,
    SymConst,
    TreePolyNormalForm,
    asym_c,
    asym_g,
    asym_p,
    connected_counts,
    decompose,
    exact_count_via_t,
    exact_total,
    fss_crosscheck,
    recover_ak,
    t_normal_form,
)
from graphasym import _poly, assembly, graphs, ramanujan, treepoly
from graphasym.assembly import expansion, normalization
from graphasym.cli import main
from graphasym.errors import CrosscheckFailure, VerificationFailure
from graphasym.graphs import connected_rows, excess_split
from graphasym.ramanujan import q_asym, q_scaled

import oracles

F = Fraction
RAT = SymConst.rational
XI = SymConst.xi


def test_decompose_excess_minus_one():
    # W_{-1} = T - T**2/2 = -(1-T)**2/2 + 1/2, so trees are -t_n(-2)/2
    dec = decompose(-1)
    assert dec.qterm == 0
    assert dict(dec.beta) == {-2: F(-1, 2)}
    assert [dec.evaluate(n) for n in range(1, 41)] == [n ** max(n - 2, 0) for n in range(1, 41)]
    with pytest.raises(ValueError, match=r"^excess below -1 is empty$"):
        decompose(-2)


def test_decompose_excess_zero():
    dec = decompose(0)
    assert dec.qterm == F(1, 2)
    assert dict(dec.beta) == {-1: F(1), -2: F(-1, 4)}


def test_decompose_excess_one():
    dec = decompose(1)
    assert dec.qterm == 0
    assert dict(dec.beta) == {
        3: F(5, 24),
        2: F(-19, 24),
        1: F(13, 12),
        0: F(-7, 12),
        -1: F(1, 24),
        -2: F(1, 24),
    }


def test_decompositions_reproduce_counts_beyond_construction_check():
    table = connected_counts(16, 4)
    for k in range(0, 5):
        dec = decompose(k)
        for n in range(1, 17):
            assert dec.evaluate(n) == table.get(n, n + k), (n, k)


def test_decompositions_pin_every_coefficient_of_a_k_up_to_k_9():
    # c(n, n+k) first sees a_j of A_k at n = j, and deg A_k = 3k + 2 <= 29, so
    # n <= 30 pins every coefficient; the n <= 12 run-time check in decompose()
    # and Wright's leftover equations all miss some a_13.. for k >= 8, and its
    # A_k(1) check misses errors that cancel in the sum
    table = connected_counts(30, 9)
    for k in range(1, 10):
        dec = decompose(k)
        for n in range(1, 31):
            assert dec.evaluate(n) == table.get(n, n + k), (n, k)


def test_the_leading_split_coefficients_are_the_log_e_coefficients():
    # gamma_0 = A_k(1) is the coefficient of t_n(3k), the top index of the split
    want = [F(5, 24), F(5, 16), F(1105, 1152), F(565, 128)]
    assert list(assembly._log_e(4)[1:]) == want
    assert [decompose(k).beta[-1] for k in range(1, 5)] == [(3 * k, w) for k, w in enumerate(want, 1)]
    # and Wright's recurrence agrees with the series well past the excesses decompose sees here
    assert [_poly.evaluate(recover_ak(k), 1) for k in range(1, 51)] == list(assembly._log_e(64)[1:51])


def test_the_slope_of_each_numerator_at_one_is_the_conjectured_series_coefficient():
    # A_k'(1) = [u**k] F(u)/E(u), a conjecture found by a fit (see oracles)
    got = [_poly.evaluate(oracles.derivative(recover_ak(k)), 1) for k in range(1, 51)]
    assert got[:2] == [F(19, 24), F(65, 48)]
    assert got == oracles.ak_slopes_at_one(50)[1:]


@pytest.mark.parametrize("k, index", [(8, 13), (30, -1)])
def test_a_numerator_wrong_past_the_count_table_fails_decompose(monkeypatch, capsys, k, index):
    # a_13 of A_8 first shows in c(13, 21), and A_30's top coefficient at n = 92,
    # both past the n <= 12 table check; A_k(1) moves with either
    asym_c(k, 8)  # a row deeper than the command's, kept on the unpatched decompose(k)
    a = list(recover_ak(k))
    a[index] += 1
    wrong = oracles.reflect(tuple(a))
    monkeypatch.setattr(assembly, "excess_split", lambda j: wrong if j == k else excess_split(j))
    decompose.cache_clear()
    try:
        assert main(["asym", "--k", str(k)]) == 2
        assert capsys.readouterr().err.startswith(f"verification error: A_{k}(1) = ")
    finally:
        decompose.cache_clear()


def test_decompositions_match_the_recurrence_oracle_past_the_runtime_check():
    # decompose() checks itself against the edge recurrence only for n <= 12
    t = lru_cache(maxsize=None)(oracles.t_by_recurrence)
    for k in range(0, 6):
        dec = decompose(k)
        for n in list(range(13, 41)) + [300]:
            want = (
                sum(b * t(n, l) for l, b in dec.beta)
                + dec.qterm * oracles.q_direct(n) * n ** (n - 1)
            )
            assert dec.evaluate(n) == want, (n, k)


def test_decomposition_forms_are_sums_of_tree_polynomial_forms():
    # the normal form is linear: fold each index on its own, then add part by part
    for k in range(0, 31):
        dec = decompose(k)
        parts = [[F(0)], [dec.qterm], [F(0)]]
        for l, b in dec.beta:
            form = t_normal_form(l)
            for acc, part in zip(parts, (form.p, form.r, form.e)):
                acc += [F(0)] * (len(part) - len(acc))
                for i, c in enumerate(part):
                    acc[i] += b * c
        assert dec.normal_form == TreePolyNormalForm(*(_poly._strip(tuple(a)) for a in parts)), k


def test_exact_count_via_t():
    table = connected_counts(14, 3)
    for n in range(1, 15):
        assert exact_count_via_t(n, -1) == n ** max(n - 2, 0)
        for k in range(0, 4):
            assert exact_count_via_t(n, k) == table.get(n, n + k)


def test_connected_expansion_rows():
    rows = {
        0: (XI(F(1, 4)), RAT(F(-7, 6)), XI(F(1, 48)), RAT(F(131, 270)),
            XI(F(1, 1152)), RAT(F(4, 2835))),
        1: (RAT(F(5, 24)), XI(F(-7, 24)), RAT(F(25, 36)), XI(F(-7, 288)),
            RAT(F(-79, 3240)), XI(F(-7, 6912))),
        2: (XI(F(5, 256)), RAT(F(-35, 144)), XI(F(1559, 9216)), RAT(F(-55, 144)),
            XI(F(33055, 221184)), RAT(F(-41971, 136080))),
    }
    for k, row in rows.items():
        series = asym_c(k, 5)
        assert series.lead == 0
        for j, c in enumerate(row):
            assert series.coefficient_at(-j) == c, (k, j)


def test_connected_expansion_higher_excess_leading_terms():
    assert asym_c(3, 1).coefficient_at(0) == RAT(F(221, 24192))
    assert asym_c(3, 1).coefficient_at(-1) == XI(F(-35, 1536))
    assert asym_c(4, 0).coefficient_at(0) == XI(F(113, 196608))


def _fresh_connected(k, depth):
    decompose.cache_clear()
    return asym_c(k, depth)


def test_a_shallower_connected_row_is_cut_from_the_deepest_build(monkeypatch):
    fresh = {(k, d): _fresh_connected(k, d) for k in range(-1, 9) for d in range(9)}
    builds = []
    expansion = TreePolyNormalForm.expansion
    monkeypatch.setattr(
        TreePolyNormalForm, "expansion", lambda form, floor: builds.append(floor) or expansion(form, floor)
    )
    decompose.cache_clear()
    # deepest first: one expansion per k, every shallower row its cut
    for k in range(-1, 9):
        assert [asym_c(k, d) for d in range(8, -1, -1)] == [fresh[k, d] for d in range(8, -1, -1)], k
    assert len(builds) == 10
    # shallow first: each deeper depth rebuilds, and a shallower one after that is cut from it
    decompose.cache_clear()
    builds.clear()
    for k in (-1, 2, 8):
        assert [asym_c(k, d) for d in (3, 8, 5, 1)] == [fresh[k, d] for d in (3, 8, 5, 1)], k
    assert len(builds) == 6


def test_count_tables_and_q_expansions_are_built_once_per_doubling(monkeypatch):
    tables, qs = [], []
    build_rows, stirling = graphs._build_rows, ramanujan.stirling_series
    monkeypatch.setattr(graphs, "_build_rows", lambda n, w: tables.append((n, w)) or build_rows(n, w))
    monkeypatch.setattr(ramanujan, "stirling_series", lambda d: qs.append(d) or stirling(d))
    for fn in (connected_rows, decompose, q_asym):
        fn.cache_clear()
    # the check tables are asked for at excess 4 (k = 2, 3) and 8 (k = 4..7); 0 and 1 are cut
    for k in (2, 3, 4, 5, 6, 7, 0, 1):
        decompose(k)
    assert tables == [(12, 16), (12, 20)]
    # the Q depth falls as k rises, so the first expansion is the deepest
    for k in range(2, 8):
        asym_c(k, 8)
    assert len(qs) == 1
    # a lone request builds exactly what it asks for
    tables.clear()
    connected_rows.cache_clear()
    connected_counts(30, 5)
    assert tables == [(30, 35)]


def test_connected_expansion_tree_case_is_exact():
    series = asym_c(-1, 3)
    assert series.coefficient_at(0) == RAT(1)
    assert all(series.coefficient_at(-j).is_zero() for j in range(1, 4))


def test_connected_expansion_numeric():
    n = 2048
    for k, tol in ((0, 1e-8), (1, 1e-8), (2, 1e-7)):
        series = asym_c(k, 5)
        c = exact_count_via_t(n, k)
        with mpmath.workprec(512):
            exact = mpmath.mpf(c) / normalization("connected").evaluate(k, n, 512)
            approx = series.evaluate(n, bits=512)
            assert abs(exact - approx) / exact < tol, k


def test_total_expansion_rows():
    rows = {
        -1: (F(1), F(7, 4), F(259, 96), F(22393, 5760), F(54359, 10240),
             F(52279961, 7741440)),
        0: (F(1, 2), F(-5, 8), F(-53, 192), F(-4067, 11520), F(-9817, 20480),
            F(-10813867, 15482880)),
        1: (F(1, 4), F(-21, 16), F(811, 384), F(-43187, 23040), F(159571, 73728),
            F(-55568731, 30965760)),
    }
    for k, row in rows.items():
        series = asym_g(k, 5)
        for j, c in enumerate(row):
            assert series.coefficient_at(-2 * j) == RAT(c), (k, j)
            if j:  # odd half-powers vanish: the expansion is in whole powers
                assert series.coefficient_at(-2 * j + 1).is_zero()


def test_total_expansion_leading_term_general_k():
    for k in range(-1, 9):
        assert asym_g(k, 0).coefficient_at(0) == RAT(F(1, 2 ** (k + 1)))


def _stirling_total(k, depth):
    """`asym_g(k, depth)` by Stirling's formula at k itself, not by the edge ratio from k = -1."""
    ratio = assembly._ln_total(k, depth).exp().scale(F(1, 2 ** (k + 1)))
    return AsymSeries.from_u_polynomial(ratio.coeffs(), 0, -(2 * depth + 1))


def _ratio_defects(k, depth, total=_stirling_total):
    """2 (1 + (k+1)u) G_{k+1}(u) - (1 - 3u - 2ku**2) G_k(u), slots u**0..u**depth.

    G_k is the u-series (u = 1/n) on the even slots of `total(k, depth)`,
    two independent Stirling builds by default (`asym_g` takes the identity
    as its route, so on it the check would be a tautology).
    g(n, m+1) / g(n, m) = (N - m)/(m + 1) with N = n(n-1)/2 and m = n + k,
    so over the normalizations G_{k+1}/G_k = (1 - 3u - 2ku**2) / (2 (1 +
    (k+1)u)), and every defect is 0.
    """
    lo, hi = ([total(e, depth).coefficient_at(-2 * i).rational_part() for i in range(depth + 1)]
              for e in (k, k + 1))
    at = lambda c, i: c[i] if i >= 0 else 0  # noqa: E731
    return [
        2 * hi[i] + 2 * (k + 1) * at(hi, i - 1) - (lo[i] - 3 * at(lo, i - 1) - 2 * k * at(lo, i - 2))
        for i in range(depth + 1)
    ]


def test_successive_totals_satisfy_the_binomial_ratio_identity():
    for k in range(-1, 12):
        for depth in (0, 3, 8, 16):
            assert not any(_ratio_defects(k, depth)), (k, depth)
    assert not any(_ratio_defects(30, 24))


def test_each_total_is_the_stirling_build_at_its_own_excess(monkeypatch):
    cases = [(k, d) for k in range(-1, 12) for d in (0, 3, 8, 16)] + [(30, 24), (300, 8), (1000, 8)]
    for k, depth in cases:
        assert asym_g(k, depth) == _stirling_total(k, depth), (k, depth)
    calls = []
    ln_factorial = assembly._ln_factorial
    monkeypatch.setattr(assembly, "_ln_factorial", lambda *args: calls.append(args) or ln_factorial(*args))
    asym_g.cache_clear()
    assembly._total_base.cache_clear()
    for k in range(0, 7):
        asym_g(k, 3)
    # one Stirling build of G_{-1} at depth 3 serves every excess
    assert len(calls) == 3


def test_a_wrong_exp_coefficient_passes_the_total_checks_and_fails_the_ratio_identity(monkeypatch, capsys):
    exp = Series.exp

    def off_at_u3(self):
        c = list(exp(self).coeffs())
        c[3:4] = [x + F(1, 7) for x in c[3:4]]
        return Series(c)

    monkeypatch.setattr(Series, "exp", off_at_u3)
    # the Stirling builds at k = 0 and 1: every ledger term still cancels, so
    # no check fires; G_0 and G_1 move at u**3 by 1/14 and 1/28, which cancel
    # in the identity's u**3 slot and not in its u**4 slot
    assert any(_ratio_defects(0, 5))
    # production builds G_{-1} alone, and takes its log back
    asym_g.cache_clear()
    assembly._total_base.cache_clear()
    try:
        assert main(["asym", "--k", "0", "--which", "total"]) == 2
    finally:
        asym_g.cache_clear()
        assembly._total_base.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "verification error: total at excess -1: log exp of its series is off by 1/7 at u**3\n"


def _perturb_m(poly, p, q, depth):
    # m = (1+(k+1)u) n
    return ((1, poly[1] + 1) if p == 1 else poly), p, q, depth


def _perturb_difference(poly, p, q, depth):
    # N - m = (1-2u-2ku**2) n**2/2
    return ((1, -2, poly[2]) if poly[:2] == (1, -3) else poly), p, q, depth


@pytest.mark.parametrize("perturb, term", [
    (_perturb_difference, "the n**1 ln n term fails to cancel: -1"),
    (_perturb_m, "the n**0 ln n term fails to cancel: -1"),
])
def test_a_wrong_factorial_fails_its_cancellation_check(monkeypatch, capsys, perturb, term):
    ln_factorial = assembly._ln_factorial
    monkeypatch.setattr(assembly, "_ln_factorial", lambda *args: ln_factorial(*perturb(*args)))
    for k in (-1, 0, 1, 5):
        for depth in (0, 4):
            with pytest.raises(VerificationFailure, match=rf"^excess-{k} total: {re.escape(term)}$"):
                assembly._ln_total(k, depth)
    asym_g.cache_clear()
    assembly._total_base.cache_clear()
    try:
        # production builds only G_{-1} by Stirling's formula, so the check fires there
        assert main(["asym", "--k", "1", "--which", "total"]) == 2
    finally:
        asym_g.cache_clear()
        assembly._total_base.cache_clear()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"verification error: excess--1 total: {term}\n"


def test_a_wrong_ln_2_weight_fails_its_check(monkeypatch):
    ln_factorial = assembly._ln_factorial

    def off_by_ln_2(poly, p, q, depth):
        ledger, rest = ln_factorial(poly, p, q, depth)
        return {**ledger, (0, "ln 2"): ledger[0, "ln 2"] + (p == 1)}, rest

    monkeypatch.setattr(assembly, "_ln_factorial", off_by_ln_2)
    with pytest.raises(VerificationFailure, match=r"^excess-1 total: ln 2 weight -3 is not -\(k\+1\)$"):
        assembly._ln_total(1, 3)


def test_total_expansion_numeric():
    n = 1024
    for k in (-1, 0, 1, 2):
        series = asym_g(k, 4)
        g = exact_total(n, k)
        with mpmath.workprec(1024):
            exact = mpmath.mpf(g) / normalization("total").evaluate(k, n, 1024)
            approx = series.evaluate(n, bits=1024)
            # remainder ~ c n^-5 with c growing with k; observed <= 4.3e-13
            assert abs(exact - approx) / exact < 1e-11, k


def test_probability_expansion_rows():
    rows = {
        -1: (RAT(F(1, 2)), RAT(0), RAT(F(-7, 8)), RAT(0), RAT(F(35, 192))),
        0: (XI(F(1, 4)), RAT(F(-7, 6)), XI(F(1, 3)), RAT(F(-1051, 1080)),
            XI(F(5, 9))),
        1: (RAT(F(5, 12)), XI(F(-7, 12)), RAT(F(515, 144)), XI(F(-28, 9)),
            RAT(F(788347, 51840))),
    }
    for k, row in rows.items():
        series = asym_p(k, 4)
        for j, c in enumerate(row):
            assert series.coefficient_at(-j) == c, (k, j)


def test_probability_expansion_numeric():
    n = 1024
    for k in (-1, 0, 1):
        series = asym_p(k, 4)
        p = oracles.exact_probability(n, k)
        with mpmath.workprec(1024):
            exact = (mpmath.mpf(p.numerator) / p.denominator) / normalization(
                "probability"
            ).evaluate(k, n, 1024)
            approx = series.evaluate(n, bits=1024)
            # remainder ~ c n^(-5/2) with c up to ~70 at k=1; observed <= 2.2e-6
            assert abs(exact - approx) / abs(exact) < 2e-5, k


def test_probability_is_quotient_of_families():
    # P = c/g, so the three normalized families must recombine numerically
    n, k = 512, 1
    with mpmath.workprec(512):
        lhs = oracles.exact_probability(n, k)
        lhs = mpmath.mpf(lhs.numerator) / lhs.denominator
        rhs = mpmath.mpf(exact_count_via_t(n, k)) / exact_total(n, k)
        assert abs(lhs - rhs) / lhs < mpmath.mpf(2) ** -400


def test_exact_total_and_probability():
    assert exact_total(5, 0) == comb(10, 5) == 252
    assert oracles.exact_probability(5, 0) == F(222, 252)
    assert oracles.exact_value("connected", 5, 0) == 222
    assert oracles.exact_value("total", 5, 0) == 252
    assert oracles.exact_value("probability", 5, 0) == F(222, 252)


def test_normalized_exact_values_build_no_fraction(monkeypatch):
    # the exact pair is rounded once, unreduced: reducing c/g was a gcd of two
    # ~110,000-bit integers at n = 8192
    k, n = 1, 1024
    decompose(k)  # the split and its normal form are built over Fractions once

    def no_fraction(*args):
        raise AssertionError("a Fraction was built on the route to mpf")

    monkeypatch.setattr(assembly, "Fraction", no_fraction)
    for kind in ("connected", "total", "probability"):
        assert normalization(kind).exact(k, n, 256) > 0, kind


BITS = st.sampled_from([53, 64, 100, 256, 512])


def _rounded_by_oracle(num, den, bits):
    return from_man_exp(*oracles.round_to_bits(F(num, den), bits))


@given(st.integers(0, 2**700), st.integers(1, 2**700), BITS)
@settings(max_examples=300, deadline=None)
@example(0, 1, 53)
@example(0, 3**400, 512)
def test_round_quotient_is_the_nearest_float(num, den, bits):
    assert assembly._round_quotient(num, den, bits) == _rounded_by_oracle(num, den, bits)
    assert assembly._round_quotient(num, 1, bits) == _rounded_by_oracle(num, 1, bits)


@given(st.integers(1, 12), st.integers(1, 2**300), BITS)
@settings(max_examples=100, deadline=None)
def test_round_quotient_of_numerators_with_many_trailing_zero_bits(j, den, bits):
    # n**(n-1) at n = 2**j, the connected count's factor, is a power of two
    num = (2**j) ** (2**j - 1)
    for a in (num, num * 3, num * 3 - 2**j):
        assert assembly._round_quotient(a, 1, bits) == _rounded_by_oracle(a, 1, bits)
        assert assembly._round_quotient(a, den, bits) == _rounded_by_oracle(a, den, bits)


@given(st.integers(0, 2**600), st.integers(-700, 700), st.integers(1, 2**200), BITS)
@settings(max_examples=300, deadline=None)
def test_round_quotient_breaks_exact_ties_to_even(odd, e, d, bits):
    # q 2**e with q odd of bits + 1 bits lies halfway between two neighbours
    q = (2**bits | odd % 2**bits) | 1
    num, den = (q * d << e, d) if e >= 0 else (q * d, d << -e)
    assert assembly._round_quotient(num, den, bits) == _rounded_by_oracle(num, den, bits)


@st.composite
def _binomials(draw):
    big_n = draw(st.one_of(st.integers(0, 3000), st.integers(0, 10**9)))
    m = draw(st.one_of(
        st.sampled_from([0, big_n]),
        st.integers(0, min(big_n, 64)),
        st.integers(0, min(big_n, 3000)),
        st.integers(max(big_n - 3000, big_n // 2), big_n),
    ))
    return big_n, m, draw(st.integers(2, 400))


def _fraction(x):
    sign, man, exp, _ = x
    assert sign == 0
    return F(man << exp) if exp >= 0 else F(man, 1 << -exp)


@pytest.mark.parametrize("start", [1, 2, 10**9])
@pytest.mark.parametrize("length", [0, 1, 127, 128, 129, 256, 257])
def test_product_interval_is_the_exact_product_at_a_precision_that_holds_it(start, length):
    # at that precision no end rounds, so a leaf that drops or repeats an int,
    # at a leaf boundary or inside one, shows as a different integer
    exact = prod(range(start, start + length))
    lo, hi = assembly._product_interval(start, start + length, exact.bit_length())
    assert lo == hi == from_int(exact)  # (fone, fone) for length 0


@given(_binomials())
@settings(max_examples=200, deadline=None)
@example((0, 0, 117))
@example((10**9, 10**9, 117))
@example((10**9, 64, 2))
@example((3000, 2990, 2))
# j at the leaf boundaries: one full leaf, one leaf and one int, two leaves and one int
@example((10**9, 128, 117))
@example((3000, 2871, 53))
@example((10**9, 257, 320))
def test_binomial_enclosure_holds_within_its_bound(case):
    big_n, m, prec = case
    j = min(m, big_n - m)
    exact_falling = prod(range(big_n - j + 1, big_n + 1))
    falling = assembly._product_interval(big_n - j + 1, big_n + 1, prec)
    fact = assembly._product_interval(1, j + 1, prec)
    # each end is rounded at most 2 max(1, 2j / leaf) - 1 times by a product
    # (its loop makes 2 ceil(j / leaf) - 1), and once more by the quotient; a
    # rounding moves an end outwards by under one ulp, a relative
    # u = 2**-(prec-1), so after t of them
    # hi/lo <= ((1+u)/(1-u))**t <= (1-tu)**-2
    unit, tree = 1 << (prec - 1), 2 * max(1, 2 * j // assembly._PRODUCT_LEAF) - 1
    for (lo, hi), exact, t in (
        (falling, exact_falling, tree),
        (fact, factorial(j), tree),
        (mpi_div(falling, fact, prec), comb(big_n, m), 2 * tree + 1),
    ):
        lo, hi = _fraction(lo), _fraction(hi)
        assert lo <= exact <= hi
        if t < unit:
            assert hi * (unit - t) ** 2 <= lo * unit**2
    if j <= assembly._PRODUCT_LEAF and exact_falling.bit_length() <= prec:
        # one leaf each that fits in prec bits (j! <= the falling product): nothing is rounded
        assert falling == (from_int(exact_falling),) * 2
        assert fact == (from_int(factorial(j)),) * 2


def _counting_comb(monkeypatch):
    calls = []
    monkeypatch.setattr(assembly, "comb", lambda a, b: calls.append((a, b)) or comb(a, b))
    return calls


def test_an_undecided_enclosure_falls_back_to_the_exact_binomial(monkeypatch):
    # a guard below zero leaves the enclosure wider than an ulp whenever a node
    # is floored, so its ends never round alike and every value takes the
    # exact route
    grid = [(kind, k, n, bits)
            for kind in ("probability", "total")
            for n in (32, 512, 4096) for k in (0, 1, 2) for bits in (53, 64, 256)]
    unforced = {case: normalization(case[0]).exact(*case[1:]) for case in grid}
    for k in (0, 1, 2):
        decompose(k)  # its gamma_j use comb
    calls = _counting_comb(monkeypatch)
    monkeypatch.setattr(assembly, "_GUARD_BITS", -8)
    for kind, k, n, bits in grid:
        before = len(calls)
        got = normalization(kind).exact(k, n, bits)
        assert len(calls) > before, (kind, k, n, bits)
        with mpmath.workprec(bits):
            value = mpmath.mpf(oracles.round_to_bits(oracles.exact_value(kind, n, k), bits))
            want = value / normalization(kind).evaluate(k, n, bits)
        assert got == unforced[kind, k, n, bits] == want, (kind, k, n, bits)


def _unnormalized(monkeypatch):
    # with every normalization 1, `exact` returns the rounded value itself
    monkeypatch.setattr(assembly.Normalization, "_normalizer", lambda self, k, n, bits: fone)


def test_the_probability_enclosure_rounds_c_outwards(monkeypatch):
    # two guard bits leave the enclosure so narrow a margin that an end of c
    # rounded inwards decides some values wrongly; at 64 guard bits only a
    # value within about 2**-64 of a rounding boundary would show it
    monkeypatch.setattr(assembly, "_GUARD_BITS", 2)
    _unnormalized(monkeypatch)
    count_interval, enclosed = assembly._count_interval, []

    def counted(*args):
        value = count_interval(*args)
        enclosed.append(value is not None)
        return value

    monkeypatch.setattr(assembly, "_count_interval", counted)
    for n in range(2, 65):
        for k in range(-1, 4):
            if n + k > n * (n - 1) // 2:
                continue
            exact = oracles.exact_probability(n, k)
            for bits in range(1, 13):
                want = _rounded_by_oracle(exact.numerator, exact.denominator, bits)
                got = normalization("probability").exact(k, n, bits)
                assert got == mpmath.mp.make_mpf(want), (n, k, bits)
    # a third of the cases enclose c; were none to, this would test the exact route alone
    assert sum(enclosed) > len(enclosed) / 4


def test_normalized_exact_values_build_no_binomial(monkeypatch):
    # the enclosure decides at n = 4096; C(N, m) would be ~50,000 bits
    for k in (0, 1, 2):
        decompose(k)  # its gamma_j use comb
    calls = _counting_comb(monkeypatch)
    for kind in ("probability", "total"):
        for k in (0, 1, 2):
            for bits in (53, 256):
                assert normalization(kind).exact(k, 4096, bits) > 0
    assert calls == []


# primes, powers of two and others up to about 3000
ENCLOSURE_NS = (2, 3, 5, 16, 97, 128, 777, 1024, 1031, 2048, 2999)


def test_affine_q_intervals_hold_at_any_head_length():
    # `q_head` picks K so long that the tail bound lies below an ulp; a short
    # head makes the bound, and the order of the ends for b < 0, show
    for n in (2, 97, 1024, 1031):
        q = F(q_scaled(n), n**n)
        for length in sorted({2, 5, n // 3, n // 2, n} - {0, 1}):
            if length > n:
                continue
            head = (length, *ramanujan._q_split(n, 1, length))
            for a, b, m in ((0, 1, 1), (5, -3, 7), (-2, 14, 24)):
                lo, hi = (F(*to_rational(end)) for end in assembly._affine_q_interval(n, a, b, m, head, 64))
                assert lo <= (a + b * q) / m <= hi, (n, length, a, b, m)
                if length == n:  # no tail: only the two roundings
                    assert hi - lo <= abs(hi) / 2**62


def test_count_enclosures_hold_and_round_like_the_exact_values(monkeypatch):
    # every n takes Q's head here, the small ones with K = n (a point for Q)
    monkeypatch.setattr(ramanujan, "_HEAD_SHARE", float("inf"))
    _unnormalized(monkeypatch)
    for n in ENCLOSURE_NS:
        assert all(assembly._count_interval(n, -1, prec) is None for prec in (8, 320))  # no Q
        for bits in (1, 53, 512):
            assert assembly._round_q(n, bits) == assembly._round_quotient(q_scaled(n), n**n, bits)
        for k in range(0, 6):
            c = exact_count_via_t(n, k)
            for prec in (8, 53, 320):
                lo, hi = (F(*to_rational(end)) for end in assembly._count_interval(n, k, prec))
                assert lo <= c <= hi, (n, k, prec)
            for bits in (1, 53, 256):
                want = assembly._round_quotient(c, 1, bits)
                assert normalization("connected").exact(k, n, bits) == mpmath.mp.make_mpf(want)
                if n + k <= n * (n - 1) // 2:
                    want = assembly._round_quotient(c, exact_total(n, k), bits)
                    got = normalization("probability").exact(k, n, bits)
                    assert got == mpmath.mp.make_mpf(want), (n, k, bits)


def test_where_c_is_exact_the_probability_encloses_no_binomial(monkeypatch):
    # below `q_head`'s threshold, and for k = -1 (no Q), c/g is the exact pair's quotient
    _unnormalized(monkeypatch)
    product_interval, calls = assembly._product_interval, []
    monkeypatch.setattr(
        assembly, "_product_interval", lambda *args: calls.append(args) or product_interval(*args)
    )
    for n, k in ((512, 0), (512, 1), (512, 2), (512, -1), (4096, -1)):
        assert assembly._count_interval(n, k, 256 + assembly._GUARD_BITS) is None
        exact = oracles.exact_probability(n, k)
        want = _rounded_by_oracle(exact.numerator, exact.denominator, 256)
        assert normalization("probability").exact(k, n, 256) == mpmath.mp.make_mpf(want), (n, k)
    assert calls == []


def _counting_q(monkeypatch):
    calls = []
    for module in (treepoly, assembly):
        monkeypatch.setattr(module, "q_scaled", lambda n: calls.append(n) or q_scaled(n))
    return calls


def test_rounded_counts_at_large_n_sum_no_whole_q(monkeypatch):
    # Q(8192) summed whole is a 106,000-bit integer; its head is a quarter of it
    for k in (0, 1, 2):
        decompose(k)  # checked against the count table through q_scaled
    calls = _counting_q(monkeypatch)
    for kind in ("connected", "probability"):
        for n in (4096, 8192):
            for k in (0, 1, 2):
                for bits in (53, 256):
                    assert normalization(kind).exact(k, n, bits) > 0
    for n in (4096, 8192):
        assert assembly._round_q(n, 512)
    assert calls == []


def test_an_undecided_count_enclosure_falls_back_to_the_exact_count(monkeypatch):
    # as for the binomial: a guard below zero never lets the ends agree
    grid = [(kind, k, n, bits)
            for kind in ("connected", "probability")
            for n in (2048, 4096) for k in (0, 1, 2) for bits in (53, 64, 256)]
    unforced = {case: normalization(case[0]).exact(*case[1:]) for case in grid}
    for k in (0, 1, 2):
        decompose(k)
    calls = _counting_q(monkeypatch)
    monkeypatch.setattr(assembly, "_GUARD_BITS", -8)
    for kind, k, n, bits in grid:
        before = len(calls)
        got = normalization(kind).exact(k, n, bits)
        assert len(calls) > before, (kind, k, n, bits)
        with mpmath.workprec(bits):
            value = mpmath.mpf(oracles.round_to_bits(oracles.exact_value(kind, n, k), bits))
            want = value / normalization(kind).evaluate(k, n, bits)
        assert got == unforced[kind, k, n, bits] == want, (kind, k, n, bits)


def test_a_negative_count_is_a_verification_failure_on_either_route(monkeypatch):
    # the split's value negated is still an integer, so only the sign check sees it
    affine_at = TreePolyNormalForm.affine_at

    def negated(self, n):
        a, b, m = affine_at(self, n)
        return -a, -b, m

    monkeypatch.setattr(TreePolyNormalForm, "affine_at", negated)
    for n in (40, 4096):  # the exact count, then Q's head
        for kind in ("connected", "probability"):
            with pytest.raises(VerificationFailure, match=rf"^negative count at n={n}, k=1$"):
                normalization(kind).exact(1, n)


def test_a_precision_below_one_bit_is_a_value_error():
    # mpmath's from_man_exp never returns at a negative precision
    for kind in ("connected", "total", "probability"):
        for bits in (-5, 0):
            with pytest.raises(ValueError, match=r"^the precision needs bits >= 1$"):
                normalization(kind).exact(1, 40, bits)
            with pytest.raises(ValueError, match=r"^the precision needs bits >= 1$"):
                normalization(kind).evaluate(1, 40, bits)


def test_fewer_than_one_node_is_a_value_error():
    # n = 0 used to end in mpmath's bare ZeroDivisionError, or a number
    for kind in ("connected", "total", "probability"):
        for n in (0, -3):
            with pytest.raises(ValueError, match=r"^the normalizations need n >= 1$"):
                normalization(kind).exact(0, n)
            with pytest.raises(ValueError, match=r"^the normalizations need n >= 1$"):
                normalization(kind).evaluate(0, n)


NORMALIZATION_NS = (*range(1, 41), 100, 601, 777, 1024, 4096, 65537)


def test_normalizations_match_their_mpf_formulas_bit_for_bit():
    # bits <= 2 round the exponent n + (3k-1)/2 itself, and half-integer
    # exponents take mpf_pow's square-root route
    for kind in ("connected", "total", "probability"):
        for bits in (1, 2, 3, 53, 256, 512):
            for k in range(-1, 7):
                for n in NORMALIZATION_NS:
                    got = normalization(kind).evaluate(k, n, bits)
                    want = oracles.normalization_by_mpf(kind, k, n, bits)
                    assert got._mpf_ == want._mpf_, (kind, bits, k, n)


def test_normalization_errors_come_in_their_order():
    # n first, then the precision, then the kind
    unknown = assembly.Normalization("unknown", "")
    for method in (unknown.evaluate, unknown.exact):
        with pytest.raises(ValueError, match=r"^the normalizations need n >= 1$"):
            method(1, 0, 0)
        with pytest.raises(ValueError, match=r"^the precision needs bits >= 1$"):
            method(1, 40, 0)
        with pytest.raises(ValueError, match=r"^unknown normalization kind 'unknown'$"):
            method(1, 40, 53)


def test_probability_with_no_graphs_is_a_value_error():
    # C(1, 3) = 0 graphs on 2 nodes with 3 edges: no division by zero
    with pytest.raises(ValueError, match=r"^no graphs with n=2, m=3$"):
        normalization("probability").exact(1, 2)
    assert normalization("total").exact(1, 2) == 0
    with pytest.raises(ValueError):
        normalization("total").exact(5, -3)


def test_fss_crosscheck_report():
    report = fss_crosscheck(2)
    assert report.passed
    assert report.k == 2
    assert float(report.rel_a0) < 1e-12
    assert float(report.rel_ratio) < 1e-12
    assert report.tolerance == 1e-12


def test_fss_crosscheck_failure_path(monkeypatch):
    monkeypatch.setattr(assembly, "_CROSSCHECK_BITS", 64)
    monkeypatch.setattr(assembly, "_CROSSCHECK_TOLERANCE", 1e-60)
    with pytest.raises(CrosscheckFailure):
        fss_crosscheck(2)


def test_expansion_dispatch():
    assert expansion("connected", 1, 2).coefficient_at(0) == RAT(F(5, 24))
    assert expansion("total", 0, 1).coefficient_at(0) == RAT(F(1, 2))
    assert expansion("probability", -1, 1).coefficient_at(0) == RAT(F(1, 2))
    with pytest.raises(KeyError):
        expansion("nonsense", 0, 1)
