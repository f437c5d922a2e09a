"""Symbolic asymptotic scales: exact constants and half-power expansions.

Every coefficient the expansions here carry is a rational or a rational
times xi = sqrt(2*pi), and the two kinds alternate with the power of n.  An
AsymSeries is a truncated expansion on the half-integer grid,

    sum_j  rats[j] * xi**b_j * n**((lead - j)/2),

one rational per slot and one parity bit: b_j = 1, the slot carries xi,
exactly when lead - j + parity is odd.  Sums need equal parities (or a zero
side), a product adds the parities and may not meet xi on both sides
(xi**2 = 2*pi is outside the ring), and a divisor may not carry xi.  Each
way out of the ring raises `OutsideRing`; a SymConst is the value of one
slot, for readback and printing.

Every stored coefficient is known exactly and everything below the last
stored slot is unknown.  Arithmetic tracks how far down the result is
still trustworthy, which is what makes remainder tests meaningful.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence, Union

import mpmath

from . import _poly
from ._record import Record
from .errors import ConstantTermError, OrderMismatch, OutsideRing, VerificationFailure
from .series import Series

Scalar = Union[Fraction, int]

_ZERO = Fraction(0)

# ---------------------------------------------------------------------------
# exact constants


class SymConst(Record):
    """Exact constant rat, or rat * xi when is_xi; zero is never marked xi.

    Build one with `rational`, `xi` or `zero`, which keep zero canonical.
    """

    rat: Fraction
    is_xi: bool = False

    @staticmethod
    def zero() -> "SymConst":
        return SymConst(_ZERO)

    @staticmethod
    def rational(r: Scalar) -> "SymConst":
        return SymConst(Fraction(r))

    @staticmethod
    def xi(r: Scalar = 1) -> "SymConst":
        r = Fraction(r)
        return SymConst(r, r != 0)

    def is_zero(self) -> bool:
        return not self.rat

    def rational_part(self) -> Fraction:
        """The coefficient of xi**0."""
        return _ZERO if self.is_xi else self.rat

    def xi_part(self) -> Fraction:
        """The coefficient of xi."""
        return self.rat if self.is_xi else _ZERO

    @lru_cache(maxsize=None)  # once per (constant, bits): the same call, and an mpf is immutable
    def evaluate(self, bits: int = 256) -> mpmath.mpf:
        with mpmath.workprec(bits):
            t = mpmath.mpf(self.rat.numerator) / self.rat.denominator
            return t * mpmath.sqrt(2 * mpmath.pi) if self.is_xi else t

    def __str__(self) -> str:
        if not self.is_xi:
            return str(self.rat)
        num, den = self.rat.numerator, self.rat.denominator
        s = "xi" if abs(num) == 1 else f"{abs(num)}*xi"
        if den != 1:
            s = f"{s}/{den}"
        return "-" + s if num < 0 else s

    def to_json_dict(self) -> dict:
        if not self.rat:
            return {"terms": []}
        return {"terms": [{"pi": 0, "xi": int(self.is_xi), "rat": str(self.rat)}]}


# ---------------------------------------------------------------------------
# asymptotic series on the half-integer grid


class AsymSeries(Record):
    """Expansion sum_j rats[j] * xi**b_j * n**((lead - j)/2), exact coefficients.

    b_j = (lead - j + parity) % 2.  Exponents below (lead - depth)/2 are
    unknown, not zero.  `lead` and the floor are measured in half-exponent
    units (exponent * 2).  The constructors strip leading zero slots and
    give the zero series parity 0, so equal expansions compare equal.
    """

    lead: int
    rats: tuple[Fraction, ...]
    parity: int

    def __init__(self, lead: int, rats: tuple[Fraction, ...], parity: int) -> None:
        if not rats:
            raise ValueError("an asymptotic series needs at least one slot")
        super().__init__(lead, rats, parity)

    @staticmethod
    def _canonical(lead: int, rats: Sequence[Fraction], parity: int) -> "AsymSeries":
        i = 0
        while i < len(rats) - 1 and not rats[i]:
            i += 1
        return AsymSeries(lead - i, tuple(rats[i:]), parity % 2 if rats[i] else 0)

    @property
    def depth(self) -> int:
        return len(self.rats) - 1

    @property
    def known_floor(self) -> int:
        """Lowest half-exponent whose coefficient is still known."""
        return self.lead - self.depth

    @property
    def coeffs(self) -> tuple[SymConst, ...]:
        """The slots as constants, lead first."""
        return tuple(self._slot(j) for j in range(len(self.rats)))

    def _slot(self, j: int) -> SymConst:
        r = self.rats[j]
        return SymConst(r, bool(r) and (self.lead - j + self.parity) % 2 == 1)

    def _carries_xi(self) -> bool:
        return any(self.rats[(self.lead + self.parity + 1) % 2 :: 2])

    @staticmethod
    def build(lead: int, coeffs: Iterable[Union[SymConst, Scalar]]) -> "AsymSeries":
        """The series with slot j = coeffs[j] at half-exponent lead - j.

        Every nonzero slot must sit on the one xi parity (`OutsideRing` if not).
        """
        rats: list[Fraction] = []
        parity = None
        for j, c in enumerate(coeffs):
            rat, is_xi = (c.rat, c.is_xi) if isinstance(c, SymConst) else (Fraction(c), False)
            if rat:
                p = (lead - j + is_xi) % 2
                if parity not in (None, p):
                    raise OutsideRing(
                        f"slot {j} of a series has the other xi parity: "
                        f"{SymConst(rat, is_xi)} at n**({lead - j}/2)"
                    )
                parity = p
            rats.append(rat)
        return AsymSeries._canonical(lead, rats, parity or 0)

    @staticmethod
    def zero(floor: int) -> "AsymSeries":
        return AsymSeries(floor, (_ZERO,), 0)

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
        slots: list[Union[SymConst, Scalar]] = [0] * (top - floor + 1)
        for i, c in enumerate(pcoeffs):
            if 2 * i <= top - floor:
                slots[2 * i] = c
        return AsymSeries.build(top, slots)

    def is_zero(self) -> bool:
        return not any(self.rats)

    def coefficient_at(self, half_exponent: int) -> SymConst:
        """Coefficient of n**(half_exponent/2)."""
        if half_exponent < self.known_floor:
            raise OrderMismatch(
                f"half-exponent {half_exponent} is below the known floor {self.known_floor}"
            )
        if half_exponent > self.lead:
            return SymConst.zero()
        return self._slot(self.lead - half_exponent)

    def truncate(self, depth: int) -> "AsymSeries":
        if depth < 0:
            raise ValueError(f"a series keeps at least its leading slot, not depth {depth}")
        if depth > self.depth:
            raise OrderMismatch(f"cannot deepen a series from {self.depth} to {depth}")
        return AsymSeries(self.lead, self.rats[: depth + 1], self.parity)

    def shift(self, half_units: int) -> "AsymSeries":
        """Multiply by n**(half_units/2)."""
        return AsymSeries._canonical(self.lead + half_units, self.rats, self.parity + half_units)

    def scale(self, s: Scalar) -> "AsymSeries":
        """Multiply by the rational s."""
        s = Fraction(s)
        return AsymSeries._canonical(self.lead, [r * s for r in self.rats], self.parity)

    # -- arithmetic with floor bookkeeping --

    def __add__(self, other: "AsymSeries") -> "AsymSeries":
        if self.parity != other.parity and not (self.is_zero() or other.is_zero()):
            raise OutsideRing("sum of two series with different xi parities")
        parity = other.parity if self.is_zero() else self.parity
        lead = max(self.lead, other.lead)
        floor = max(self.known_floor, other.known_floor)
        a = (_ZERO,) * (lead - self.lead) + self.rats[: self.lead - floor + 1]
        b = (_ZERO,) * (lead - other.lead) + other.rats[: other.lead - floor + 1]
        return AsymSeries._canonical(lead, [x + y for x, y in zip(a, b)], parity)

    def __sub__(self, other: "AsymSeries") -> "AsymSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "AsymSeries") -> "AsymSeries":
        """Product known through the shallower factor's depth (the integer kernel of `Series`)."""
        if self._carries_xi() and other._carries_xi():
            raise OutsideRing("product of two series that both carry xi (xi**2 = 2*pi)")
        rats = (Series(self.rats) * Series(other.rats)).coeffs()
        return AsymSeries._canonical(self.lead + other.lead, rats, self.parity + other.parity)

    def __truediv__(self, other: "AsymSeries") -> "AsymSeries":
        if other.is_zero():
            raise ZeroDivisionError("division by an identically zero expansion")
        if other._carries_xi():
            raise OutsideRing("division by a series that carries xi")
        if self.is_zero():
            return AsymSeries.zero(self.known_floor - other.lead)
        size = min(self.depth, other.depth) + 1
        rats = (Series(self.rats[:size]) * Series(other.rats[:size]).inverse()).coeffs()
        return AsymSeries._canonical(self.lead - other.lead, rats, self.parity + other.parity)

    # -- numerics and display --

    def partial_sums(self, n: int, bits: int = 256) -> list[mpmath.mpf]:
        """Entry d is bit for bit `evaluate(n, bits, depth=d)`; one pass sums the slots lead first."""
        sums = []
        with mpmath.workprec(bits):
            total = mpmath.mpf(0)
            for j, c in enumerate(self.coeffs):
                if c.rat:
                    total += c.evaluate(bits) * mpmath.power(n, mpmath.mpf(self.lead - j) / 2)
                sums.append(total)
        return sums

    def evaluate(self, n: int, bits: int = 256, depth: int | None = None) -> mpmath.mpf:
        """Value at n of the series cut at `depth` (whole by default): the cut's last partial sum."""
        return (self if depth is None else self.truncate(depth)).partial_sums(n, bits)[-1]

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
def _tail_weights(count: int) -> tuple[Fraction, ...]:
    """The first `count` weights B_{2i} / (2i(2i-1)) of the Stirling tail, checked against Gamma(x+1) = x Gamma(x).

    Weight i is (-1)**(i-1) T_i / ((2i-1) 4**i (4**i - 1)), where tan x =
    sum_i T_i x**(2i-1) / (2i-1)! gives the tangent numbers T_i, computed by
    Brent and Harvey's recurrence ("Fast computation of Bernoulli, tangent and
    secant numbers", 2011) in O(count**2) integer steps.

    Stirling's formula at x and at x + 1, with u = 1/x and 1/(x+1) = u/(1+u),
    turns the functional equation into the series identity

        tau(u/(1+u)) - tau(u) = 1 - (1/u + 1/2) ln(1+u).

    On the left, the u**j coefficient of (u/(1+u))**(2i-1) - u**(2i-1) is
    (-1)**(j-1) C(j-1, 2i-2) for j > 2i-1 and 0 otherwise; on the right it is
    (-1)**(j+1) (j-1) / (2j(j+1)).  So weight i first enters at u**(2i), times
    2i-1, and each coefficient through u**(2 count) is compared on integers:
    every weight returned is pinned, and a failure raises `VerificationFailure`.
    """
    tangent = [0, 1]
    for j in range(2, count + 1):
        tangent.append((j - 1) * tangent[j - 1])
    for i in range(2, count + 1):
        for j in range(i, count + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    weights = tuple(
        Fraction((-1) ** (i - 1) * tangent[i], (2 * i - 1) * 4**i * (4**i - 1)) for i in range(1, count + 1)
    )
    nums, den = _poly.over_one_denominator(weights)
    for j in range(1, 2 * count + 1):
        got = sum(nums[i - 1] * comb(j - 1, 2 * i - 2) for i in range(1, j // 2 + 1))
        if 2 * j * (j + 1) * got != (j - 1) * den:  # both sides times (-1)**(j+1) 2j(j+1) den
            sign = (-1) ** (j + 1)
            raise VerificationFailure(
                f"the Stirling tail fails Gamma(x+1) = x Gamma(x) at u**{j}: "
                f"{Fraction(sign * got, den)} != {Fraction(sign * (j - 1), 2 * j * (j + 1))}"
            )
    return weights


def stirling_tail(y: Series) -> Series:
    """tau(y) = sum_{i>=1} B_{2i} / (2i(2i-1)) y**(2i-1), to the order of y.

    Stirling's formula is ln x! = x ln x - x + ln(2 pi x)/2 + tau(1/x).  The
    truncation is exact only when y has no constant term.  The weights come
    from tangent numbers, checked coefficient by coefficient against
    Gamma(x+1) = x Gamma(x) once per order (`_tail_weights`).  The sum is one
    pass on integers: with y = Y/d and the weights W_i/w, term i is
    W_i Y**(2i-1) d**(2(n-i)) / (w d**(2n-1)) for n weights, so the powers of
    Y are accumulated as integers and one Fraction is built per coefficient.
    """
    if y[0] != 0:
        raise ConstantTermError("the Stirling tail needs a zero constant term")
    weights = _tail_weights((y.order + 1) // 2)
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


def stirling_series(depth: int) -> AsymSeries:
    """Expansion of n! * e**n / n**n on the half-integer grid.

    Equals xi * n**(1/2) * exp(tau(1/n)) with tau = `stirling_tail`; the
    exponential is expanded exactly in powers of 1/n.
    """
    expanded = stirling_tail(Series.variable(depth // 2 + 1)).exp()
    return AsymSeries.from_u_polynomial(
        [SymConst.xi(c) for c in expanded.coeffs()], 1, 1 - depth
    )
