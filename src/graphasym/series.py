"""Truncated formal power series with exact rational coefficients.

A Series holds coefficients c[0..order] of a power series known through
z**order; everything past the order is unknown, not zero.  All arithmetic
is exact over Fraction, so any coefficient the algebra can reach is
computed without rounding.

>>> z = Series.variable(5)
>>> (z.exp() * (-z).exp()).coeffs()
(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(0, 1))
>>> tree_function(4).coeffs()
(Fraction(0, 1), Fraction(1, 1), Fraction(1, 1), Fraction(3, 2), Fraction(8, 3))
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Sequence, Union

from .errors import ConstantTermError

Rat = Fraction
Scalar = Union[Fraction, int]


class Series:
    """Power series truncated at a fixed order, immutable."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar]):
        c = tuple(Fraction(x) for x in coeffs)
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
        n = self._common(other)
        a, b = self._c, other._c
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj != 0:
                    out[i + j] += ai * bj
        return Series(out)

    # ---- analytic operations --------------------------------------------
    #
    # log and exp are computed coefficient by coefficient from the ODE each
    # satisfies: (log a)' = a'/a and E' = a' E.  Both are O(order**2) exact
    # Fraction operations.

    def log(self) -> "Series":
        """log of a series with constant term 1."""
        if self._c[0] != 1:
            raise ConstantTermError("log requires constant term 1")
        n = self.order
        a = self._c
        b = [Fraction(0)] * (n + 1)  # log coefficients
        for m in range(1, n + 1):
            # m*b[m] = m*a[m] - sum_{i=1}^{m-1} i*b[i]*a[m-i]
            acc = m * a[m]
            for i in range(1, m):
                if b[i] != 0 and a[m - i] != 0:
                    acc -= i * b[i] * a[m - i]
            b[m] = acc / m
        return Series(b)

    def exp(self) -> "Series":
        """exp of a series with constant term 0."""
        if self._c[0] != 0:
            raise ConstantTermError("exp requires constant term 0")
        n = self.order
        a = self._c
        e = [Fraction(0)] * (n + 1)
        e[0] = Fraction(1)
        for m in range(1, n + 1):
            # m*e[m] = sum_{i=1}^{m} i*a[i]*e[m-i]
            acc = Fraction(0)
            for i in range(1, m + 1):
                if a[i] != 0 and e[m - i] != 0:
                    acc += i * a[i] * e[m - i]
            e[m] = acc / m
        return Series(e)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self._c[0]
        if c0 == 0:
            raise ConstantTermError("inverse requires a nonzero constant term")
        n = self.order
        a = self._c
        inv = [Fraction(0)] * (n + 1)
        inv[0] = 1 / c0
        for m in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, m + 1):
                if a[i] != 0 and inv[m - i] != 0:
                    acc += a[i] * inv[m - i]
            inv[m] = -acc / c0
        return Series(inv)

    def pow(self, e: int) -> "Series":
        """Integer power, negative exponents via the inverse."""
        if e == 0:
            return Series.one(self.order)
        base = self if e > 0 else self.inverse()
        e = abs(e)
        acc = Series.one(self.order)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc


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
