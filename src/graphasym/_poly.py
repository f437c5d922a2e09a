"""Dense univariate polynomials over Fraction, represented as tuples.

Index i holds the coefficient of x**i.  The zero polynomial is ().
Trailing zero coefficients are always stripped so representations are
canonical and degree() is len - 1.
"""
from __future__ import annotations

from fractions import Fraction

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(*coeffs: Fraction | int) -> Poly:
    return _strip(tuple(Fraction(c) for c in coeffs))


def _strip(c: tuple[Fraction, ...]) -> Poly:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def degree(p: Poly) -> int:
    """Degree, with degree(ZERO) == -1."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _strip(tuple(out))


def scale(p: Poly, s: Fraction | int) -> Poly:
    if s == 0:
        return ZERO
    return tuple(c * s for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _strip(tuple(out))


def shift(p: Poly, k: int) -> Poly:
    """Multiply by x**k (k >= 0)."""
    if not p:
        return ZERO
    return (Fraction(0),) * k + p


def evaluate(p: Poly, x: Fraction | int) -> Fraction | int:
    """p(x) by Horner's rule; integer coefficients at an integer x give an int."""
    acc: Fraction | int = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return _strip(tuple(i * c for i, c in enumerate(p))[1:]) if p else ZERO

