"""Tree polynomials t_n(y): exact values, normal forms, asymptotics."""
from fractions import Fraction
from math import lcm

import mpmath
from hypothesis import given, settings, strategies as st

from graphasym import (
    egf_coefficient,
    q_exact,
    t_normal_form,
    t_value,
)
from graphasym import _poly
from graphasym.treepoly import t_combination

import oracles
from oracles import t_asym

F = Fraction


def test_special_values():
    for n in range(1, 13):
        assert t_value(n, 0) == 0
        assert t_value(n, 1) == n ** n
        assert F(t_value(n, 2)) == n ** n * (1 + q_exact(n))
        assert t_value(n, -1) == -(n ** (n - 1))
    # t_n(-2) = -2 n^(n-2); for n = 1 that is -2 * 1^(-1) = -2
    assert t_value(1, -2) == -2
    for n in range(2, 13):
        assert t_value(n, -2) == -2 * n ** (n - 2)


def test_values_match_series_route():
    for y in range(-6, 9):
        s = oracles.t_series(y, 16)
        for n in range(1, 17):
            assert egf_coefficient(s, n) == t_value(n, y), (n, y)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-8, max_value=12).filter(lambda y: y != 0),
)
@settings(max_examples=80, deadline=None)
def test_two_term_recurrence(n, y):
    # y t_n(y+2) = n t_n(y) + y t_n(y+1)
    assert y * t_value(n, y + 2) == n * t_value(n, y) + y * t_value(n, y + 1)


def test_recurrence_check_helper():
    assert oracles.t_recurrence_check(25, -4, 8)


def test_values_are_integers():
    for n in range(1, 20):
        for y in range(-6, 9):
            assert isinstance(t_value(n, y), int)


def test_normal_forms_evaluate_to_exact_values():
    for y in range(-6, 9):
        form = t_normal_form(y)
        for n in range(1, 31):
            assert form.value_at(n) == oracles.t_by_recurrence(n, y), (n, y)


def test_values_at_an_index_past_the_recursion_limit():
    for n in (1, 7, 30):
        assert t_value(n, 1100) == oracles.t_by_recurrence(n, 1100), n


def test_normal_form_shapes():
    # n^(n-1) (p(n) + r(n) Q(n) + e(1/n)): e alone for y <= 0, p and r for y >= 1
    negative = t_normal_form(-3)
    assert negative.p == negative.r == () and negative.e
    positive = t_normal_form(4)
    assert positive.p and positive.r and positive.e == ()
    # t_n(2) = n^n (1 + Q(n)) = n^(n-1) (n + n Q(n)): p = r = n
    form = t_normal_form(2)
    assert form.p == (0, 1)
    assert form.r == (0, 1)
    assert form.e == ()


def test_asymptotic_expansion_numeric():
    # t_asym(y, .) expands t_n(y) / n^n in half powers of n
    for y, depth, tol in ((3, 9, 1e-9), (-3, 6, 1e-12), (5, 9, 1e-7)):
        series = t_asym(y, depth)
        n = 600
        with mpmath.workprec(512):
            exact = mpmath.mpf(t_value(n, y)) / mpmath.power(n, n)
            approx = series.evaluate(n, bits=512)
            assert abs(exact - approx) / abs(exact) < tol, y


def test_asymptotic_leading_terms():
    from graphasym import SymConst

    # t_n(1) = n^n exactly
    s1 = t_asym(1, 4)
    assert s1.lead == 0
    assert s1.coefficient_at(0) == SymConst.rational(1)
    # t_n(3) = n^n (n + 1 + Q(n)), so the polynomial part leads
    s3 = t_asym(3, 4)
    assert s3.lead == 2
    assert s3.coefficient_at(2) == SymConst.rational(1)
    assert s3.coefficient_at(1) == SymConst.xi(F(1, 2))
    assert s3.coefficient_at(0) == SymConst.rational(F(2, 3))


def _form_value(form, n):
    """n**(n-1) (p(n) + r(n) Q(n) + e(1/n)) in Fractions, without the integer evaluator."""
    inner = _poly.evaluate(form.p, n) + _poly.evaluate(form.e, F(1, n))
    return n ** (n - 1) * (inner + _poly.evaluate(form.r, n) * oracles.q_direct(n))


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=24)


@given(
    st.lists(st.tuples(st.integers(min_value=-6, max_value=40), _RATIONALS), max_size=6),
    _RATIONALS,
)
@settings(max_examples=40, deadline=None)
def test_a_combination_is_the_sum_of_its_terms(terms, qterm):
    # sum b t_n(y) + qterm Q(n) n**(n-1), term by term through the recurrence oracle
    form = t_combination(tuple(terms), qterm)
    scale = lcm(qterm.denominator, *(b.denominator for _, b in terms))
    whole = t_combination(tuple((y, b * scale) for y, b in terms), qterm * scale)
    for n in range(1, 21):
        want = qterm * n ** (n - 1) * oracles.q_direct(n)
        want += sum(b * oracles.t_by_recurrence(n, y) for y, b in terms)
        assert _form_value(form, n) == want, (n, terms, qterm)
        assert whole.value_at(n) == scale * want, (n, terms, qterm)
