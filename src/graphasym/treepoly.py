"""Tree polynomials t_n(y) = n! [z**n] (1 - T(z))**(-y).

For positive y these count forests weighted by rising factorials of the
component count; they obey the two-step recurrence

    t_n(y + 2) = (n / y) t_n(y) + t_n(y + 1),   y >= 1,

anchored at t_n(1) = n**n and t_n(2) = n**n (1 + Q(n)).  Every t_n(y) with
integer y is an integer.

Normal forms split the n-dependence from the Q-dependence:

    y >= 1:  t_n(y) = n**n * (P_y(n) + R_y(n) Q(n))     (polynomials in n)
    y <= 0:  t_n(y) = n**(n-1) * E_{|y|}(1/n)           (polynomial in 1/n)

with E_m(u) = sum_{r=1}^{m} C(m,r)(-1)**r r prod_{i<r}(1 - iu).  Exact
values and asymptotic expansions both come from these forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm

from . import _poly
from ._poly import Poly
from .errors import VerificationFailure
from .ramanujan import q_asym, q_scaled, _difference_polynomial
from .series import Series, egf_coefficient, tree_function
from .symbolic import AsymSeries


@lru_cache(maxsize=None)
def t_series(y: int, order: int) -> Series:
    """EGF sum_n t_n(y) z**n / n! = (1 - T)**(-y), exact through z**order."""
    return (Series.one(order) - tree_function(order)).pow(-y)


def t_value(n: int, y: int) -> int:
    """t_n(y) exactly, from the normal form at y."""
    return t_normal_form(y).value_at(n)


@dataclass(frozen=True)
class TreePolyNormalForm:
    """Exact shape of t_n(y) for all n >= 1 at a fixed integer y.

    kind "pq": t_n(y) = n**n * (p(n) + r(n) * Q(n)).
    kind "u":  t_n(y) = n**(n-1) * e(1/n).
    """

    y: int
    kind: str
    p: Poly = ()
    r: Poly = ()
    e: Poly = ()

    def value_at(self, n: int) -> int:
        """t_n(y) as an integer; t_0(y) = 1."""
        if n < 0:
            raise ValueError("t_n(y) needs n >= 0")
        if n == 0:
            return 1
        if self.kind == "pq":
            d, p, r = self._over_common_denominator
            num = _poly.evaluate(p, n) * n ** n
            if r:
                num += _poly.evaluate(r, n) * q_scaled(n)
            val = Fraction(num, d)
        else:
            val = _poly.evaluate(self.e, Fraction(1, n)) * n ** (n - 1)
        if val.denominator != 1:
            raise VerificationFailure(f"t_{n}({self.y}) = {val} is not an integer")
        return int(val)

    @cached_property
    def _over_common_denominator(self) -> tuple[int, Poly, Poly]:
        """(d, d*p, d*r) with d the least common denominator of p and r."""
        d = lcm(*(c.denominator for c in self.p + self.r))
        return d, tuple(int(c * d) for c in self.p), tuple(int(c * d) for c in self.r)

    @property
    def lead(self) -> int:
        """Half-exponent of the leading term of t_n(y) / n**n (-2 when y = 0)."""
        if self.kind == "u":
            return -2 - 2 * next((i for i, c in enumerate(self.e) if c), 0)
        return max(2 * _poly.degree(self.p), 2 * _poly.degree(self.r) + 1)

    def expansion(self, floor: int) -> AsymSeries:
        """t_n(y) / n**n on the half-integer grid, known down to half-exponent floor."""
        if floor > self.lead:
            return AsymSeries.zero(floor)
        if self.kind == "u":
            # t/n**n = E(u) * u with u = 1/n
            return AsymSeries.from_u_polynomial(self.e, -2, floor)
        # polynomial parts are exact, so pad them at least down to their constant
        out = AsymSeries.from_u_polynomial(
            list(reversed(self.p)), 2 * _poly.degree(self.p), min(floor, 0)
        )
        if self.r:
            top_r = 2 * _poly.degree(self.r)
            q = q_asym(max(0, 1 - (floor - top_r)))
            rpoly = AsymSeries.from_u_polynomial(
                list(reversed(self.r)), top_r, min(floor - 1, 0)
            )
            out = out + rpoly * q
        if out.known_floor > floor:
            raise VerificationFailure("assembled tree expansion lost depth")
        return out


@lru_cache(maxsize=None)
def t_normal_form(y: int) -> TreePolyNormalForm:
    if y <= 0:
        if y == 0:
            return TreePolyNormalForm(0, "u", e=())
        e = _poly._strip(tuple(_difference_polynomial(-y, -y)))
        return TreePolyNormalForm(y, "u", e=e)
    if y == 1:
        return TreePolyNormalForm(1, "pq", p=_poly.ONE, r=_poly.ZERO)  # t_n(1) = n**n
    # t(v) = (n/(v-2)) t(v-2) + t(v-1), applied coefficientwise to (v-1)! (p, r),
    # which keeps every coefficient an integer until the last step
    prev, cur = ((1,), ()), ((1,), (1,))  # v = 1, 2
    for v in range(3, y + 1):
        prev, cur = cur, tuple(
            _poly.scale(_poly.add((0,) + a, b), v - 1) for a, b in zip(prev, cur)
        )
    p, r = (_poly.scale(c, Fraction(1, factorial(y - 1))) for c in cur)
    return TreePolyNormalForm(y, "pq", p=p, r=r)


def t_asym(y: int, depth: int) -> AsymSeries:
    """Expansion of t_n(y) / n**n on the half-integer grid, depth slots below its lead."""
    if y == 0:
        return AsymSeries.zero(-depth)
    nf = t_normal_form(y)
    return nf.expansion(nf.lead - depth).truncate(depth)


def t_recurrence_check(n_max: int, y_min: int, y_max: int) -> bool:
    """Verify the two-step recurrence against the series route everywhere."""
    order = n_max
    series = {y: t_series(y, order) for y in range(y_min, y_max + 3)}

    for y in range(y_min, y_max + 1):
        if y == 0:
            continue
        for n in range(1, n_max + 1):
            lhs = egf_coefficient(series[y + 2], n)
            rhs = (
                Fraction(n, y) * egf_coefficient(series[y], n)
                + egf_coefficient(series[y + 1], n)
            )
            if lhs != rhs:
                raise VerificationFailure(
                    f"tree recurrence fails at n={n}, y={y}: {lhs} != {rhs}"
                )
    return True
