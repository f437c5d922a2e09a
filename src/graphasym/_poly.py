"""Dense univariate polynomials over Fraction, represented as tuples.

Index i holds the coefficient of x**i.  The zero polynomial is ().
Trailing zero coefficients are always stripped so representations are
canonical and degree() is len - 1.

Arithmetic is exact.  The products behind this package's exact-rational
layer run on integer numerators over one common denominator: a coefficient
tuple goes to that form by `over_one_denominator`, `convolve` is the integer
product kernel (shared with the truncated product of `series.Series`), and
`add_into` accumulates integer multiples.  One Fraction is built per output
coefficient, not one per product and sum.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

Poly = tuple[Fraction, ...]


def _strip(c: Sequence) -> Sequence:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def degree(p: Poly) -> int:
    """Degree, with degree(()) == -1."""
    return len(p) - 1


def over_one_denominator(p: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(nums, d) with p[i] == nums[i] / d and d > 0 the least common denominator."""
    d = lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p], d


def convolve(a: Sequence[int], b: Sequence[int], size: int | None = None) -> list[int]:
    """Coefficients 0..size-1 of the product of two coefficient lists (int, or mpf in the fit).

    Without `size` the whole product (len(a) + len(b) - 1 terms) comes back.
    Each coefficient is one C-level dot product of a slice of `a` with a
    reversed slice of `b`, summed from 0 in index order of `a`.
    """
    na, nb = len(a), len(b)
    if not na or not nb:
        return [0] * (size or 0)
    full = na + nb - 1
    size = full if size is None else size
    rb = b[::-1]
    out = [0] * size
    for k in range(min(size, full)):
        lo = max(0, k - nb + 1)
        hi = min(k, na - 1) + 1
        out[k] = sum(map(mul, a[lo:hi], rb[nb - 1 - k + lo:nb - 1 - k + hi]))
    return out


def add_into(acc: list[int], terms: Sequence[int], f: int) -> None:
    """acc += f * terms on integer coefficient lists, lengthening acc as needed."""
    acc += [0] * (len(terms) - len(acc))
    for i, c in enumerate(terms):
        acc[i] += f * c


def evaluate(p: Poly, x: Fraction | int) -> Fraction | int:
    """p(x) by Horner's rule; integer coefficients at an integer x give an int."""
    acc: Fraction | int = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return _strip(tuple(i * c for i, c in enumerate(p))[1:])
