"""Exact constants (rationals and rationals times xi = sqrt(2*pi)) and half-power series."""
import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from graphasym import AsymSeries, Series, SymConst, assembly, bernoulli, stirling_series, symbolic
from graphasym.cli import main
from graphasym.errors import OrderMismatch, OutsideRing, VerificationFailure

import oracles

F = Fraction
RAT = SymConst.rational
XI = SymConst.xi

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
sym_consts = st.one_of(small_fractions.map(RAT), small_fractions.map(XI))


@st.composite
def asym_series(draw, parity=None, xi_free=False):
    """A series on one xi parity (drawn unless given); xi_free zeroes its xi slots."""
    lead = draw(st.integers(min_value=-3, max_value=3))
    if parity is None:
        parity = draw(st.integers(min_value=0, max_value=1))
    coeffs = []
    for j, r in enumerate(draw(st.lists(small_fractions, min_size=1, max_size=5))):
        if (lead - j + parity) % 2 == 0:
            coeffs.append(RAT(r))
        else:
            coeffs.append(0 if xi_free else XI(r))
    return AsymSeries.build(lead, coeffs)


def same_parity(count, xi_free=False):
    return st.integers(min_value=0, max_value=1).flatmap(
        lambda p: st.tuples(*[asym_series(p, xi_free) for _ in range(count)])
    )


def agree(x, y):
    """x and y have the same coefficients wherever both are known."""
    top = max(x.lead, y.lead)
    for h in range(max(x.known_floor, y.known_floor), top + 1):
        assert x.coefficient_at(h) == y.coefficient_at(h), h


@given(same_parity(3), same_parity(2, xi_free=True))
@settings(max_examples=60, deadline=None)
def test_asym_series_ring_laws(abc, xy):
    a, b, c = abc
    x, y = xy
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == AsymSeries.zero(a.known_floor)
    assert a * x == x * a
    assert (a * x) * y == a * (x * y)
    agree(x * (a + b), x * a + x * b)
    agree(a * (x + y), a * x + a * y)
    assert a.scale(F(3, 2)) == a * AsymSeries.build(0, [F(3, 2)] + [0] * a.depth)
    if not x.is_zero():
        assert (a * x) / x == a.truncate(min(a.depth, x.depth))


@pytest.mark.parametrize(
    "leaves_the_ring",
    [
        # xi * xi = 2 pi
        lambda: AsymSeries.build(1, [XI(1)]) * AsymSeries.build(0, [RAT(1), XI(2)]),
        lambda: AsymSeries.build(0, [RAT(1), XI(2)]) / AsymSeries.build(0, [RAT(1), XI(1)]),
        lambda: AsymSeries.build(0, [RAT(1), RAT(2)]),
        lambda: AsymSeries.build(0, [RAT(1)]) + AsymSeries.build(0, [XI(1)]),
    ],
    ids=["xi-times-xi", "xi-divisor", "mixed-build", "mixed-sum"],
)
def test_leaving_the_ring_raises(leaves_the_ring):
    with pytest.raises(OutsideRing):
        leaves_the_ring()


def test_zero_is_canonical():
    assert RAT(0) == XI(0) == SymConst.zero()
    assert SymConst.zero().to_json_dict() == {"terms": []}
    assert str(XI(0)) == "0"
    assert AsymSeries.build(2, [XI(0), 0]) == AsymSeries.build(1, [RAT(0)]) == AsymSeries.zero(1)
    xi_one = AsymSeries.build(0, [XI(1)])
    assert AsymSeries.build(0, [1]).scale(0) + xi_one == xi_one  # zero adds to either parity


def test_part_extraction():
    assert RAT(F(2, 3)).rational_part() == F(2, 3)
    assert RAT(F(2, 3)).xi_part() == 0
    assert XI(F(-1, 4)).xi_part() == F(-1, 4)
    assert XI(F(-1, 4)).rational_part() == 0


def test_str_forms():
    assert str(XI(F(1, 4))) == "xi/4"
    assert str(XI(F(-7, 24))) == "-7*xi/24"
    assert str(XI(-1)) == "-xi"
    assert str(XI(3)) == "3*xi"
    assert str(RAT(F(-4, 2835))) == "-4/2835"
    assert str(SymConst.zero()) == "0"


@given(sym_consts)
@settings(max_examples=40, deadline=None)
def test_symconst_json_roundtrip(c):
    assert oracles.sym_const_from_json(json.loads(json.dumps(c.to_json_dict()))) == c


# ---- AsymSeries -------------------------------------------------------------


def test_build_and_coefficient_access():
    s = AsymSeries.build(1, [XI(F(1, 2)), RAT(F(-1, 3)), XI(F(1, 24))])
    assert s.lead == 1
    assert s.depth == 2
    assert s.known_floor == -1
    assert s.coefficient_at(1) == XI(F(1, 2))
    assert s.coefficient_at(0) == RAT(F(-1, 3))
    assert s.coefficient_at(5) == SymConst.zero()  # above the lead
    with pytest.raises(OrderMismatch):
        s.coefficient_at(-2)  # below the known floor


def test_from_u_polynomial_slots_and_floor():
    # p(u) = 1 + 2u + 3u^2 at n^(0/2): terms land at slots 0, -2, -4
    s = AsymSeries.from_u_polynomial([1, 2, 3], 0, -4)
    assert s.coefficient_at(0) == RAT(1)
    assert s.coefficient_at(-1) == SymConst.zero()
    assert s.coefficient_at(-2) == RAT(2)
    assert s.coefficient_at(-4) == RAT(3)
    # a floor above a term silently drops it
    t = AsymSeries.from_u_polynomial([1, 2, 3], 0, -2)
    assert t.known_floor == -2
    with pytest.raises(OrderMismatch):
        t.coefficient_at(-4)
    with pytest.raises(ValueError):
        AsymSeries.from_u_polynomial([1], 0, 1)


@given(same_parity(2))
@settings(max_examples=50, deadline=None)
def test_add_floor_is_max_of_floors(ab):
    a, b = ab
    s = a + b
    assert s.known_floor == max(a.known_floor, b.known_floor)
    for h in range(s.known_floor, max(a.lead, b.lead) + 1):
        for part in (SymConst.rational_part, SymConst.xi_part):
            want = part(a.coefficient_at(h)) + part(b.coefficient_at(h))
            assert part(s.coefficient_at(h)) == want


@given(asym_series(), asym_series(xi_free=True))
@settings(max_examples=50, deadline=None)
def test_mul_floor_accounts_for_unknown_tails(a, b):
    s = a * b
    assert s.known_floor == max(a.known_floor + b.lead, b.known_floor + a.lead)
    assert s.lead == a.lead + b.lead
    # spot-check the leading slot: b's is rational, so the product has a's kind
    head, r = a.coefficient_at(a.lead), b.coefficient_at(b.lead).rational_part()
    assert s.coefficient_at(s.lead) == (XI if head.is_xi else RAT)(head.rat * r)


def test_mul_exact_small_case():
    a = AsymSeries.build(0, [RAT(1), XI(2)])  # 1 + 2 xi/sqrt(n) + O(1/n)
    b = AsymSeries.build(0, [RAT(3), 0, RAT(4)])
    s = a * b
    assert s.coefficient_at(0) == RAT(3)
    assert s.coefficient_at(-1) == XI(6)
    assert s.known_floor == -1  # the n^-1 slot is contaminated by unknown tails


def test_division_inverts_multiplication():
    a = AsymSeries.build(0, [RAT(2), XI(F(1, 3)), RAT(F(-1, 7)), XI(2), RAT(5)])
    b = AsymSeries.build(-1, [RAT(3), 0, RAT(F(2, 5)), 0, RAT(1)])
    q = (a * b) / b
    for h in range(q.known_floor, 1):
        assert q.coefficient_at(h) == a.coefficient_at(h)


def test_shift_scale_truncate_power():
    s = AsymSeries.build(0, [RAT(1), XI(2), RAT(3)])
    assert s.shift(3).lead == 3
    assert s.shift(3).coefficient_at(3) == RAT(1)
    assert s.shift(3).coefficient_at(2) == XI(2)
    assert s.scale(F(1, 2)).coefficient_at(0) == RAT(F(1, 2))
    assert s.truncate(1).depth == 1
    with pytest.raises(OrderMismatch):
        s.truncate(5)
    with pytest.raises(ValueError):
        s.truncate(-1)  # a negative slice would count from the end
    prod = s * AsymSeries.build(0, [RAT(1), 0, RAT(2)])
    assert prod.coefficient_at(0) == RAT(1)
    assert prod.coefficient_at(-1) == XI(2)
    assert prod.coefficient_at(-2) == RAT(5)


def test_evaluate_matches_manual_sum():
    s = AsymSeries.build(1, [XI(F(1, 2)), RAT(F(-1, 3)), XI(F(1, 24))])
    n = 100
    with mpmath.workprec(128):
        xi = mpmath.sqrt(2 * mpmath.pi)
        assert abs(XI().evaluate(128) - xi) < mpmath.mpf(2) ** -120
        manual = xi / 2 * mpmath.sqrt(n) - mpmath.mpf(1) / 3 + xi / 24 / mpmath.sqrt(n)
        assert abs(s.evaluate(n, bits=128) - manual) < mpmath.mpf(2) ** -100
        # depth cutoff drops trailing terms
        short = xi / 2 * mpmath.sqrt(n) - mpmath.mpf(1) / 3
        assert abs(s.evaluate(n, bits=128, depth=1) - short) < mpmath.mpf(2) ** -100


@pytest.mark.parametrize("kind", ["connected", "total", "probability"])
@pytest.mark.parametrize("k", range(-1, 5))
def test_each_partial_sum_is_its_cut_evaluated_alone_bit_for_bit(kind, k):
    series = assembly.expansion(kind, k, 8)
    for bits in (53, 256, 512):
        for n in (1, 3, 64, 4096, 2**20):
            sums = series.partial_sums(n, bits)
            assert len(sums) == series.depth + 1
            for d, got in enumerate(sums):
                want = oracles.evaluate_by_slots(series.truncate(d), n, bits)._mpf_
                assert got._mpf_ == want, (bits, n, d)
                assert series.evaluate(n, bits, depth=d)._mpf_ == want, (bits, n, d)


@given(asym_series())
@settings(max_examples=40, deadline=None)
def test_asym_series_json_roundtrip(s):
    assert oracles.asym_series_from_json(json.loads(json.dumps(s.to_json_dict()))) == s


# ---- Bernoulli numbers and the factorial ratio ------------------------------


def test_bernoulli_values():
    expected = {0: F(1), 1: F(-1, 2), 2: F(1, 6), 3: F(0), 4: F(-1, 30),
                6: F(1, 42), 8: F(-1, 30), 10: F(5, 66), 12: F(-691, 2730)}
    for m, v in expected.items():
        assert bernoulli(m) == v


def test_stirling_series_coefficients():
    s = stirling_series(6)
    assert s.lead == 1
    assert s.coefficient_at(1) == XI(1)
    assert s.coefficient_at(0) == SymConst.zero()
    assert s.coefficient_at(-1) == XI(F(1, 12))
    assert s.coefficient_at(-3) == XI(F(1, 288))
    assert s.coefficient_at(-5) == XI(F(-139, 51840))


def test_stirling_series_numeric():
    # n! e^n / n^n against the expansion at n = 50
    n = 50
    with mpmath.workprec(256):
        exact = mpmath.factorial(n) * mpmath.exp(n) / mpmath.power(n, n)
        approx = stirling_series(8).evaluate(n, bits=256)
        assert abs(exact - approx) / exact < 1e-11


def test_stirling_tail_is_the_weighted_sum_of_odd_powers():
    y = Series([F(0), F(2), F(-1, 3), F(5, 7), F(0), F(1, 11), F(-4)])
    want, power = Series.zero(6), y
    for i in range(1, 4):
        want = want + power.scale(bernoulli(2 * i) / (2 * i * (2 * i - 1)))
        power = power * y * y
    assert symbolic.stirling_tail(y) == want
    # the functional-equation check pins every weight through y**39
    assert symbolic._tail_weights(20)[:3] == (F(1, 12), F(-1, 360), F(1, 1260))


_RIGHT_WEIGHT = symbolic._tail_weight


@pytest.mark.parametrize(
    "mutant, argv, power",
    [
        # 2i(2i+1) in place of 2i(2i-1): `asym --k 0 --which total` printed a
        # wrong n**-1 term and exited 0 before the check
        (lambda i: bernoulli(2 * i) / (2 * i * (2 * i + 1)), [], 2),
        # 10**-6 too much in the y**9 weight, which only depth 9 and beyond reads
        (lambda i: _RIGHT_WEIGHT(i) + (F(1, 10**6) if i == 5 else 0), ["--depth", "10"], 10),
    ],
)
def test_a_wrong_stirling_weight_fails_gamma_functional_equation(
    monkeypatch, capsys, mutant, argv, power
):
    monkeypatch.setattr(symbolic, "_tail_weight", mutant)
    symbolic._tail_weights.cache_clear()
    assembly.asym_g.cache_clear()
    assembly._total_base.cache_clear()
    try:
        at_power = rf"Gamma\(x\+1\) = x Gamma\(x\) at u\*\*{power}:"
        with pytest.raises(VerificationFailure, match=at_power):
            symbolic.stirling_tail(Series.variable(11))
        assert main(["asym", "--k", "0", "--which", "total", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("verification error: the Stirling tail fails")
        assert err.count("\n") == 1
    finally:
        symbolic._tail_weights.cache_clear()
        assembly.asym_g.cache_clear()
        assembly._total_base.cache_clear()
