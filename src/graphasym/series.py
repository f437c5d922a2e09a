"""Truncated formal power series with exact rational coefficients.

A Series holds coefficients c[0..order] of a power series known through
z**order; everything past the order is unknown, not zero.  All arithmetic
is exact over Fraction, so any coefficient the algebra can reach is
computed without rounding.  The product, log, exp and inverse run on
integer numerators over one denominator (`_poly.over_one_denominator`,
`_poly.convolve`) and build one Fraction per output coefficient, not one
per product and sum.

>>> z = Series.variable(5)
>>> (z.exp() * (-z).exp()).coeffs()
(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
>>> tree_function(4).coeffs()
(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(3, 2), Fraction(8, 3))
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

    # ---- analytic operations --------------------------------------------
    #
    # log, exp and inverse are computed coefficient by coefficient from the
    # equation each satisfies: (log a)' = a'/a, E' = a' E and a * inv = 1.
    # Each is O(order**2) integer operations: the input sits on integer
    # numerators over its least common denominator, the output produced so
    # far over the running lcm of its denominators, and one Fraction is built
    # per output coefficient.

    def log(self) -> "Series":
        """log of a series with constant term 1."""
        if self._c[0] != 1:
            raise ConstantTermError("log requires constant term 1")
        a, da = over_one_denominator(self._c)
        # m b_m = m a_m - sum_{i=1}^{m-1} i b_i a_{m-i}; ib[i] = i b_i d
        out = [Fraction(0)]
        ib: list[int] = [0]
        d = 1
        for m in range(1, self.order + 1):
            acc = sum(map(mul, ib[1:m], a[m - 1:0:-1]))
            c = Fraction(m * d * a[m] - acc, m * d * da)
            d, ib = _running_lcm(d, ib, c)
            ib.append(m * c.numerator * (d // c.denominator))
            out.append(c)
        return Series(out)

    def exp(self) -> "Series":
        """exp of a series with constant term 0."""
        if self._c[0] != 0:
            raise ConstantTermError("exp requires constant term 0")
        a, da = over_one_denominator(self._c)
        ia = [i * x for i, x in enumerate(a)]
        # m e_m = sum_{i=1}^{m} i a_i e_{m-i}; e[j] = e_j d
        out = [Fraction(1)]
        e = [1]
        d = 1
        for m in range(1, self.order + 1):
            c = Fraction(sum(map(mul, ia[1:m + 1], e[::-1])), m * d * da)
            d, e = _running_lcm(d, e, c)
            e.append(c.numerator * (d // c.denominator))
            out.append(c)
        return Series(out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._c[0] == 0:
            raise ConstantTermError("inverse requires a nonzero constant term")
        a, da = over_one_denominator(self._c)
        # inv_m = -(1/a_0) sum_{i=1}^{m} a_i inv_{m-i}; v[j] = inv_j d, a_0 = a[0] / da
        c = Fraction(da, a[0])
        out = [c]
        v = [c.numerator]
        d = c.denominator
        for m in range(1, self.order + 1):
            c = Fraction(-sum(map(mul, a[1:m + 1], v[::-1])), d * a[0])
            d, v = _running_lcm(d, v, c)
            v.append(c.numerator * (d // c.denominator))
            out.append(c)
        return Series(out)


def _running_lcm(d: int, nums: list[int], c: Fraction) -> tuple[int, list[int]]:
    """Widen the denominator d of nums to a multiple of c's, rescaling nums."""
    if d % c.denominator == 0:
        return d, nums
    f = lcm(d, c.denominator) // d
    return d * f, [x * f for x in nums]


@lru_cache(maxsize=None)
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
