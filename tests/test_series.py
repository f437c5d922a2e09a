"""Ring laws and analytic inverses for the truncated power-series type."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from graphasym import Series, _poly, egf_coefficient, tree_function
from graphasym.errors import ConstantTermError

import oracles

F = Fraction

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
series_st = st.lists(small_fractions, min_size=1, max_size=9).map(Series)

# coefficient lists with runs of zeros and with huge numerators and
# denominators of either sign (Fraction moves a negative denominator's sign
# into the numerator), for the integer kernels against the Fraction loops
_rationals = st.one_of(
    small_fractions,
    st.builds(F, st.integers(-10**40, 10**40), st.integers(-10**40, 10**40).filter(bool)),
)
_with_zero_runs = st.lists(
    st.tuples(_rationals, st.integers(min_value=0, max_value=4)), min_size=1, max_size=6
).map(lambda runs: [x for c, zeros in runs for x in [c] + [F(0)] * zeros][:13])


def unit_series(s: Series) -> Series:
    """Force a unit constant term so log/inverse are defined."""
    return Series((F(1),) + s.coeffs()[1:])


def nilpotent_series(s: Series) -> Series:
    """Force a zero constant term so exp is defined."""
    return Series((F(0),) + s.coeffs()[1:])


@given(series_st, series_st, series_st)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    order = min(a.order, b.order, c.order)
    a, b, c = (Series(s.coeffs()[: order + 1]) for s in (a, b, c))
    zero, one = Series.zero(order), Series.one(order)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a
    assert a - a == zero
    assert -(-a) == a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert a * zero == zero
    assert a * (b + c) == a * b + a * c


@given(series_st)
@settings(max_examples=60, deadline=None)
def test_exp_log_inverse_each_other(a):
    s = nilpotent_series(a)
    assert s.exp().log() == s
    u = unit_series(a)
    assert u.log().exp() == u
    assert u * u.inverse() == Series.one(a.order)


def test_domain_errors():
    z = Series.variable(4)
    with pytest.raises(ConstantTermError):
        z.log()  # needs a unit constant
    with pytest.raises(ConstantTermError):
        z.inverse()
    with pytest.raises(ConstantTermError):
        Series.one(4).exp()  # needs a zero constant
    with pytest.raises(IndexError):
        z[5]
    # mixed orders truncate to the shorter operand
    assert (z + Series.variable(7)).order == 4


def test_tree_function_satisfies_functional_equation():
    t = tree_function(40)
    assert Series.variable(40) * t.exp() == t
    for n in range(1, 41):
        assert egf_coefficient(t, n) == n ** (n - 1)


def test_constructors_and_accessors():
    s = Series([F(1, n + 1) for n in range(4)])
    assert s.coeffs() == (F(1), F(1, 2), F(1, 3), F(1, 4))
    assert s.order == 3
    assert s[2] == F(1, 3)
    assert Series.variable(2).coeffs() == (0, 1, 0)


def test_scale_and_arithmetic_with_scalars():
    s = Series([1, 2, 3]).scale(F(1, 2))
    assert s.coeffs() == (F(1, 2), F(1), F(3, 2))


@given(_with_zero_runs, _with_zero_runs)
@settings(max_examples=150, deadline=None)
# orders 0 and 1: the log of a constant stays order 0 (its solve has no step)
@example([F(3)], [F(2)])
@example([F(0)], [F(0)])
@example([F(2), F(-1, 3)], [F(5, 7), F(1)])
@example([F(1), F(0)], [F(-4)])
def test_integer_kernels_equal_the_fraction_object_loops(p, q):
    # mismatched orders: the product truncates to the shorter operand
    a, b = Series(p), Series(q)
    unit = Series([F(1)] + p[1:])
    nilpotent = Series([F(0)] + p[1:])
    pairs = [
        (a * b, oracles.series_mul_by_fractions(a, b)),
        (unit.log(), oracles.series_log_by_fractions(unit)),
        (nilpotent.exp(), oracles.series_exp_by_fractions(nilpotent)),
    ]
    if q[0] != 0:
        pairs.append((b.inverse(), oracles.series_inverse_by_fractions(b)))
    for got, want in pairs:
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs())


def test_kronecker_leaves_room_for_a_sum_of_many_full_products():
    # every coefficient at the largest magnitude: the middle one, -200 m**2, needs
    # the bits of the length on top of those of the two coefficients
    m = 2**64 - 1
    assert _poly.kronecker([m] * 200, [-m] * 200) == _poly.convolve([m] * 200, [-m] * 200)


@given(_with_zero_runs, _with_zero_runs, st.integers(min_value=0, max_value=30))
@settings(max_examples=150, deadline=None)
def test_convolve_over_one_denominator_equals_the_fraction_product(p, q, size):
    pn, pd = _poly.over_one_denominator(p)
    qn, qd = _poly.over_one_denominator(q)
    assert pd > 0 and qd > 0
    assert [F(n, pd) for n in pn] == p
    full = _poly.convolve(pn, qn)
    product = _poly._strip(tuple(F(n, pd * qd) for n in full))
    assert product == oracles.poly_mul_by_fractions(tuple(p), tuple(q))
    # the Kronecker product is the same list, with small coefficients and with wide ones
    assert _poly.kronecker(pn, qn) == full
    assert _poly.kronecker([c << 200 for c in pn], qn) == [c << 200 for c in full]
    # a truncated product is the head of the full one, padded with zeros
    assert _poly.convolve(pn, qn, size) == (full + [0] * size)[:size]
