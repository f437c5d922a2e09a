"""Truncated formal power series with exact rational coefficients.

A Series holds coefficients c[0..order] of a power series known through
z**order; everything past the order is unknown, not zero.  All arithmetic
is exact over Fraction, so any coefficient the algebra can reach is
computed without rounding.  The product (`_poly.convolve`) and log, exp
and inverse (one triangular solve, `_solve`) run on integer numerators
over one denominator and build one Fraction per output coefficient (log
one more, for its integral), not one per product and sum.

>>> z = Series.variable(5)
>>> (z.exp() * (-z).exp()).coeffs()
(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
>>> tree_function(4).coeffs()
(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(3, 2), Fraction(8, 3))
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from ._poly import convolve, over_one_denominator
from .errors import ConstantTermError

Rat = Fraction
Scalar = Union[Fraction, int]


class Series:
    """Power series truncated at a fixed order, immutable."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar]):
        c = tuple(x if type(x) is Fraction else Fraction(x) for x in coeffs)
        if not c:
            raise ValueError("a series needs at least the constant term")
        self._c = c

    # ---- construction -------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series([Fraction(0)] * (order + 1))

    @staticmethod
    def one(order: int) -> "Series":
        return Series([Fraction(1)] + [Fraction(0)] * order)

    @staticmethod
    def variable(order: int) -> "Series":
        if order < 1:
            raise ValueError("order must be >= 1 to hold the variable")
        return Series([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))

    # ---- basics --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} is beyond the truncation order {self.order}")
        return self._c[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._c[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def _common(self, other: "Series") -> int:
        return min(self.order, other.order)

    # ---- ring operations ------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        n = self._common(other)
        return Series([self._c[i] + other._c[i] for i in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        n = self._common(other)
        return Series([self._c[i] - other._c[i] for i in range(n + 1)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self._c])

    def scale(self, s: Scalar) -> "Series":
        s = Fraction(s)
        return Series([c * s for c in self._c])

    def __mul__(self, other: "Series") -> "Series":
        size = self._common(other) + 1
        a, da = over_one_denominator(self._c[:size])
        b, db = over_one_denominator(other._c[:size])
        d = da * db
        return Series(Fraction(n, d) for n in convolve(a, b, size))

    # ---- analytic operations: each one triangular solve (`_solve`) -------

    def log(self) -> "Series":
        """log of a series with constant term 1."""
        if self._c[0] != 1:
            raise ConstantTermError("log requires constant term 1")
        a, da = over_one_denominator(self._c)
        # c = a'/a from a c = a': c_m = (m+1) a_{m+1} - sum_{i=1}^{m} a_i c_{m-i}, scaled
        # by da = a[0]; log a integrates c
        c = _solve([(m + 1) * a[m + 1] for m in range(self.order)], a, [da] * self.order)
        return Series([Fraction(0)] + [x / m for m, x in enumerate(c, 1)])

    def exp(self) -> "Series":
        """exp of a series with constant term 0."""
        if self._c[0] != 0:
            raise ConstantTermError("exp requires constant term 0")
        a, da = over_one_denominator(self._c)
        # from E' = a' E: E_0 = 1 and m E_m = sum_{i=1}^{m} i a_i E_{m-i}, scaled by da
        div = [1] + [m * da for m in range(1, self.order + 1)]
        return Series(_solve([1] + [0] * self.order, [-i * x for i, x in enumerate(a)], div))

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._c[0] == 0:
            raise ConstantTermError("inverse requires a nonzero constant term")
        a, da = over_one_denominator(self._c)
        # from a inv = 1: a_0 inv_m = [m = 0] - sum_{i=1}^{m} a_i inv_{m-i}, scaled by da
        return Series(_solve([da] + [0] * self.order, a, [a[0]] * (self.order + 1)))


def _solve(rhs: Sequence[int], w: Sequence[int], div: Sequence[int]) -> list[Fraction]:
    """out_m = (rhs_m - sum_{i=1}^{m} w_i out_{m-i}) / div_m for m < len(rhs).

    The classical O(len(rhs)**2) triangular recurrence for power series
    (Knuth, TAOCP vol. 2, 4.7) on integers: the outputs so far are held as
    numerators v over the running lcm d of their denominators, each step is
    one dot product of w with v, and one Fraction is built per output.
    """
    out: list[Fraction] = []
    v: list[int] = []
    d = 1
    for m, (r, q) in enumerate(zip(rhs, div)):
        c = Fraction(r * d - sum(map(mul, w[1:m + 1], v[::-1])), d * q)
        d, v = _running_lcm(d, v, c)
        v.append(c.numerator * (d // c.denominator))
        out.append(c)
    return out


def _running_lcm(d: int, nums: list[int], c: Fraction) -> tuple[int, list[int]]:
    """Widen the denominator d of nums to a multiple of c's, rescaling nums."""
    if d % c.denominator == 0:
        return d, nums
    f = lcm(d, c.denominator) // d
    return d * f, [x * f for x in nums]


def tree_function(order: int) -> Series:
    """Exponential generating function of rooted labelled trees.

    T(z) = sum_{n>=1} n^(n-1) z^n / n!, the solution of T = z*exp(T).
    """
    coeffs = [Fraction(0)]
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(Fraction(n ** (n - 1), fact))
    return Series(coeffs)


def egf_coefficient(s: Series, n: int) -> Fraction:
    """n! * [z^n] s, the count encoded at index n of an EGF."""
    return s[n] * factorial(n)
