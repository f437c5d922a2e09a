"""Symbolic asymptotic scales: exact constants and half-power expansions.

The coefficient ring is the Q-module spanned by pi**a * xi**b with a >= 0
and b in {0, 1}, where xi = sqrt(2*pi).  Products reduce via xi**2 = 2*pi,
so the ring is closed under multiplication.

An AsymSeries is a truncated expansion on the half-integer grid,

    sum_j  coeffs[j] * n**((lead - j)/2),

where every stored coefficient is known exactly and everything below the
last stored slot is unknown.  Arithmetic tracks how far down the result is
still trustworthy, which is what makes remainder tests meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence, Union

import mpmath

from . import _poly
from .errors import (
    ConstantTermError,
    NonMonomialDivisor,
    OrderMismatch,
    UnknownLeadingTerm,
    VerificationFailure,
)
from .series import Series

Scalar = Union[Fraction, int]

# ---------------------------------------------------------------------------
# exact constants


@dataclass(frozen=True)
class SymConst:
    """Exact constant sum_i rat_i * pi**a_i * xi**b_i, canonically sorted."""

    terms: tuple[tuple[int, int, Fraction], ...]

    @staticmethod
    def _make(d: dict[tuple[int, int], Fraction]) -> "SymConst":
        items = tuple(
            (a, b, r) for (a, b), r in sorted(d.items()) if r != 0
        )
        return SymConst(items)

    @staticmethod
    def zero() -> "SymConst":
        return SymConst(())

    @staticmethod
    def rational(r: Scalar) -> "SymConst":
        r = Fraction(r)
        return SymConst(((0, 0, r),)) if r != 0 else SymConst(())

    @staticmethod
    def xi(r: Scalar = 1) -> "SymConst":
        r = Fraction(r)
        return SymConst(((0, 1, r),)) if r != 0 else SymConst(())

    # -- ring structure --

    def __add__(self, other: "SymConst") -> "SymConst":
        d: dict[tuple[int, int], Fraction] = {}
        for a, b, r in self.terms + other.terms:
            d[(a, b)] = d.get((a, b), Fraction(0)) + r
        return SymConst._make(d)

    def __sub__(self, other: "SymConst") -> "SymConst":
        return self + (-other)

    def __neg__(self) -> "SymConst":
        return SymConst(tuple((a, b, -r) for a, b, r in self.terms))

    def __mul__(self, other: "SymConst") -> "SymConst":
        d: dict[tuple[int, int], Fraction] = {}
        for a1, b1, r1 in self.terms:
            for a2, b2, r2 in other.terms:
                a, b, r = a1 + a2, b1 + b2, r1 * r2
                if b == 2:  # xi**2 = 2*pi
                    a, b, r = a + 1, 0, 2 * r
                d[(a, b)] = d.get((a, b), Fraction(0)) + r
        return SymConst._make(d)

    def scale(self, s: Scalar) -> "SymConst":
        s = Fraction(s)
        if s == 0:
            return SymConst(())
        return SymConst(tuple((a, b, r * s) for a, b, r in self.terms))

    def monomial(self) -> tuple[int, int, Fraction] | None:
        return self.terms[0] if len(self.terms) == 1 else None

    def div_monomial(self, divisor: "SymConst") -> "SymConst":
        """Divide by a single-term constant, staying inside the ring."""
        mono = divisor.monomial()
        if mono is None:
            raise NonMonomialDivisor(f"cannot divide by {divisor!r}")
        ad, bd, rd = mono
        d: dict[tuple[int, int], Fraction] = {}
        for ax, bx, rx in self.terms:
            if bd == 0:
                a, b, r = ax - ad, bx, rx / rd
            elif bx == 1:  # xi/xi cancels
                a, b, r = ax - ad, 0, rx / rd
            else:  # 1/xi = xi/(2*pi)
                a, b, r = ax - ad - 1, 1, rx / (2 * rd)
            if a < 0:
                raise ValueError("division leaves a negative power of pi")
            d[(a, b)] = d.get((a, b), Fraction(0)) + r
        return SymConst._make(d)

    # -- inspection --

    def is_zero(self) -> bool:
        return not self.terms

    def rational_part(self) -> Fraction:
        """Coefficient of pi**0 * xi**0; requires no higher pi powers."""
        out = Fraction(0)
        for a, b, r in self.terms:
            if a != 0:
                raise ValueError("constant carries an explicit power of pi")
            if b == 0:
                out = r
        return out

    def xi_part(self) -> Fraction:
        """Coefficient of xi; requires no higher pi powers."""
        out = Fraction(0)
        for a, b, r in self.terms:
            if a != 0:
                raise ValueError("constant carries an explicit power of pi")
            if b == 1:
                out = r
        return out

    def evaluate(self, bits: int = 256) -> mpmath.mpf:
        with mpmath.workprec(bits):
            total = mpmath.mpf(0)
            for a, b, r in self.terms:
                t = mpmath.mpf(r.numerator) / r.denominator
                if a:
                    t *= mpmath.pi ** a
                if b:
                    t *= mpmath.sqrt(2 * mpmath.pi)
                total += t
            return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for a, b, r in self.terms:
            syms = []
            if a == 1:
                syms.append("pi")
            elif a > 1:
                syms.append(f"pi^{a}")
            if b:
                syms.append("xi")
            if not syms:
                parts.append(str(r))
                continue
            head = "*".join(syms)
            num, den = r.numerator, r.denominator
            prefix = "-" if num < 0 else ""
            mag = abs(num)
            s = head if mag == 1 else f"{mag}*{head}"
            if den != 1:
                s = f"{s}/{den}"
            parts.append(prefix + s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"pi": a, "xi": b, "rat": str(r)} for a, b, r in self.terms
            ]
        }


def _coerce(c: Union["SymConst", Scalar]) -> SymConst:
    return c if isinstance(c, SymConst) else SymConst.rational(c)


# ---------------------------------------------------------------------------
# asymptotic series on the half-integer grid


@dataclass(frozen=True)
class AsymSeries:
    """Expansion sum_j coeffs[j] * n**((lead - j)/2), exact coefficients.

    Exponents below (lead - depth)/2 are unknown, not zero.  `lead` and the
    floor are measured in half-exponent units (exponent * 2).
    """

    lead: int
    coeffs: tuple[SymConst, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("an asymptotic series needs at least one slot")

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    @property
    def known_floor(self) -> int:
        """Lowest half-exponent whose coefficient is still known."""
        return self.lead - self.depth

    @staticmethod
    def build(lead: int, coeffs: Iterable[Union[SymConst, Scalar]]) -> "AsymSeries":
        return AsymSeries(lead, tuple(_coerce(c) for c in coeffs))._stripped()

    @staticmethod
    def zero(floor: int) -> "AsymSeries":
        return AsymSeries(floor, (SymConst.zero(),))

    @staticmethod
    def from_u_polynomial(
        pcoeffs: Sequence[Union[SymConst, Scalar]], shift_half: int, floor: int
    ) -> "AsymSeries":
        """Polynomial in u = 1/n times n**(shift_half/2), padded down to floor.

        Term i of the polynomial lands at half-exponent shift_half - 2*i.
        """
        top = shift_half
        if floor > top:
            raise ValueError("floor is above the polynomial's leading slot")
        slots = [SymConst.zero()] * (top - floor + 1)
        for i, c in enumerate(pcoeffs):
            h = shift_half - 2 * i
            if h >= floor:
                slots[top - h] = _coerce(c)
        return AsymSeries(top, tuple(slots))._stripped()

    def _stripped(self) -> "AsymSeries":
        lead, coeffs = self.lead, self.coeffs
        while len(coeffs) > 1 and coeffs[0].is_zero():
            coeffs = coeffs[1:]
            lead -= 1
        return AsymSeries(lead, coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def coefficient_at(self, half_exponent: int) -> SymConst:
        """Coefficient of n**(half_exponent/2)."""
        if half_exponent < self.known_floor:
            raise OrderMismatch(
                f"half-exponent {half_exponent} is below the known floor {self.known_floor}"
            )
        if half_exponent > self.lead:
            return SymConst.zero()
        return self.coeffs[self.lead - half_exponent]

    def truncate(self, depth: int) -> "AsymSeries":
        if depth > self.depth:
            raise OrderMismatch(f"cannot deepen a series from {self.depth} to {depth}")
        return AsymSeries(self.lead, self.coeffs[: depth + 1])

    def shift(self, half_units: int) -> "AsymSeries":
        """Multiply by n**(half_units/2)."""
        return AsymSeries(self.lead + half_units, self.coeffs)

    def scale(self, c: Union[SymConst, Scalar]) -> "AsymSeries":
        c = _coerce(c)
        return AsymSeries(self.lead, tuple(x * c for x in self.coeffs))._stripped()

    # -- arithmetic with floor bookkeeping --

    def __add__(self, other: "AsymSeries") -> "AsymSeries":
        lead = max(self.lead, other.lead)
        floor = max(self.known_floor, other.known_floor)
        slots = [
            self.coefficient_at(h) + other.coefficient_at(h)
            for h in range(lead, floor - 1, -1)
        ]
        return AsymSeries(lead, tuple(slots))._stripped()

    def __sub__(self, other: "AsymSeries") -> "AsymSeries":
        return self + other.scale(-1)

    def __neg__(self) -> "AsymSeries":
        return self.scale(-1)

    def __mul__(self, other: "AsymSeries") -> "AsymSeries":
        lead = self.lead + other.lead
        floor = max(
            self.known_floor + other.lead, other.known_floor + self.lead
        )
        slots = [SymConst.zero()] * (lead - floor + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                h = lead - i - j
                if h < floor:
                    break
                if not b.is_zero():
                    slots[i + j] = slots[i + j] + a * b
        return AsymSeries(lead, tuple(slots))._stripped()

    def __truediv__(self, other: "AsymSeries") -> "AsymSeries":
        num, den = self._stripped(), other._stripped()
        if den.is_zero():
            raise ZeroDivisionError("division by an identically zero expansion")
        lead_c = den.coeffs[0]
        if lead_c.monomial() is None:
            raise UnknownLeadingTerm(
                "divisor leading coefficient must be a single symbolic term"
            )
        if num.is_zero():
            return AsymSeries.zero(num.known_floor - den.lead)
        j_out = min(num.depth, den.depth)
        a = num.coeffs
        b = den.coeffs
        q: list[SymConst] = []
        for m in range(j_out + 1):
            acc = a[m]
            for i in range(1, m + 1):
                if not b[i].is_zero():
                    acc = acc - b[i] * q[m - i]
            q.append(acc.div_monomial(lead_c))
        return AsymSeries(num.lead - den.lead, tuple(q))._stripped()

    # -- numerics and display --

    def evaluate(self, n: int, bits: int = 256, depth: int | None = None) -> mpmath.mpf:
        """Numeric value of the truncated expansion at n."""
        coeffs = self.coeffs if depth is None else self.truncate(depth).coeffs
        with mpmath.workprec(bits):
            total = mpmath.mpf(0)
            for j, c in enumerate(coeffs):
                if c.is_zero():
                    continue
                total += c.evaluate(bits) * mpmath.power(n, mpmath.mpf(self.lead - j) / 2)
            return total

    def __str__(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            h = self.lead - j
            if h == 0:
                parts.append(f"({c})")
            else:
                parts.append(f"({c})*n^({Fraction(h, 2)})")
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {
            "lead": self.lead,
            "coeffs": [c.to_json_dict() for c in self.coeffs],
        }


# ---------------------------------------------------------------------------
# classical ingredients


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2."""
    if m < 0:
        raise ValueError("Bernoulli numbers need m >= 0")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def _tail_weight(i: int) -> Fraction:
    """B_{2i} / (2i(2i-1)), the weight of y**(2i-1) in the Stirling tail."""
    return bernoulli(2 * i) / (2 * i * (2 * i - 1))


def _odd_power_sum(y: Series, weights: Sequence[Fraction]) -> Series:
    """sum_i weights[i-1] y**(2i-1) to the order of y, in one pass on integers.

    With y = Y/d and the weights W_i/w, term i is W_i Y**(2i-1) d**(2(n-i)) /
    (w d**(2n-1)) for n weights, so the powers of Y are accumulated as
    integers and one Fraction is built per coefficient.
    """
    if not weights:
        return Series.zero(y.order)
    size = y.order + 1
    yn, d = _poly.over_one_denominator(y.coeffs())
    wn, w = _poly.over_one_denominator(weights)
    y2 = _poly.convolve(yn, yn, size)
    d2 = d * d
    acc: list[int] = []
    power = yn
    for i, c in enumerate(wn):
        if i:
            power = _poly.convolve(power, y2, size)
            acc = [x * d2 for x in acc]
        _poly.add_into(acc, power, c)
    den = w * d ** (2 * len(wn) - 1)
    return Series(Fraction(n, den) for n in acc)


@lru_cache(maxsize=None)
def _tail_weights(count: int) -> tuple[Fraction, ...]:
    """The first `count` weights of the Stirling tail, checked against Gamma(x+1) = x Gamma(x).

    Stirling's formula at x and at x + 1, with u = 1/x and 1/(x+1) = u/(1+u),
    turns the functional equation into the series identity

        tau(u/(1+u)) - tau(u) = 1 - (1/u + 1/2) ln(1+u),

    whose u**(2i) coefficient is -(2i-1) times weight i plus earlier weights.
    It is checked through u**(2 count), so every weight returned is pinned;
    a failure raises `VerificationFailure`.
    """
    weights = tuple(_tail_weight(i) for i in range(1, count + 1))
    order = 2 * count
    if order == 0:
        return weights
    u = Series.variable(order)
    shifted = Series([0] + [(-1) ** (j + 1) for j in range(1, order + 1)])  # u/(1+u)
    lhs = _odd_power_sum(shifted, weights) - _odd_power_sum(u, weights)
    # (1/u + 1/2) ln(1+u) = sum_j (-1)**j u**j (1/(j+1) - 1/(2j)), the j = 0 term 1
    rhs = [Fraction(0)] + [
        (-1) ** (j + 1) * (Fraction(1, j + 1) - Fraction(1, 2 * j)) for j in range(1, order + 1)
    ]
    for j, (got, want) in enumerate(zip(lhs.coeffs(), rhs)):
        if got != want:
            raise VerificationFailure(
                f"the Stirling tail fails Gamma(x+1) = x Gamma(x) at u**{j}: {got} != {want}"
            )
    return weights


def stirling_tail(y: Series) -> Series:
    """tau(y) = sum_{i>=1} B_{2i} / (2i(2i-1)) y**(2i-1), to the order of y.

    Stirling's formula is ln x! = x ln x - x + ln(2 pi x)/2 + tau(1/x).  The
    truncation is exact only when y has no constant term.  The weights are
    checked once per order against Gamma(x+1) = x Gamma(x) (`_tail_weights`).
    """
    if y[0] != 0:
        raise ConstantTermError("the Stirling tail needs a zero constant term")
    return _odd_power_sum(y, _tail_weights((y.order + 1) // 2))


@lru_cache(maxsize=None)
def stirling_series(depth: int) -> AsymSeries:
    """Expansion of n! * e**n / n**n on the half-integer grid.

    Equals xi * n**(1/2) * exp(tau(1/n)) with tau = `stirling_tail`; the
    exponential is expanded exactly in powers of 1/n.
    """
    expanded = stirling_tail(Series.variable(depth // 2 + 1)).exp()
    return AsymSeries.from_u_polynomial(
        [SymConst.xi(c) for c in expanded.coeffs()], 1, 1 - depth
    )
