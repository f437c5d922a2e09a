"""Tree polynomials t_n(y) = n! [z**n] (1 - T(z))**(-y).

For positive y these count forests weighted by rising factorials of the
component count; they obey the two-step recurrence

    t_n(y + 2) = (n / y) t_n(y) + t_n(y + 1),   y >= 1,

anchored at t_n(1) = n**n and t_n(2) = n**n (1 + Q(n)).  Every t_n(y) with
integer y is an integer.

One normal form splits the n-dependence from the Q-dependence,

    n**(n-1) * (p(n) + r(n) Q(n) + e(1/n))     (p, r polynomials in n, e in 1/n):

    y >= 1:  t_n(y) = n**n * (P_y(n) + R_y(n) Q(n)),  so p = n P_y, r = n R_y
    y <= 0:  t_n(y) = n**(n-1) * E_{|y|}(1/n),         so e = E_{|y|}

with E_m(u) = sum_{r=1}^{m} C(m,r)(-1)**r r prod_{i<r}(1 - iu).  One
backward sum of the recurrence (Clenshaw's scheme), `t_combination`, folds
any sum of tree polynomials plus a Q term into this form on integers, one
t_n(y) and each decomposition of c(n, n+k) alike; the form's one integer
evaluator and one expansion give every exact value and expansion built on it,
and a value that is only rounded reads the form as n**(n-1) (a + b Q(n)) / m
with its integrality checked on residues.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from . import _poly
from ._poly import Poly
from ._record import Record
from .errors import VerificationFailure
from .ramanujan import q_asym, q_scaled, q_scaled_mod, _difference_polynomial
from .symbolic import AsymSeries


def t_value(n: int, y: int) -> int:
    """t_n(y) exactly, from the normal form at y; t_0(y) = 1."""
    if n == 0:
        return 1
    return t_normal_form(y).value_at(n)


class TreePolyNormalForm(Record):
    """n**(n-1) * (p(n) + r(n) * Q(n) + e(1/n)) for every n >= 1.

    t_n(y) has only p and r for y >= 1 and only e for y <= 0; sums of tree
    polynomials (a decomposition of c(n, n+k)) use all three parts.
    """

    p: Poly = ()
    r: Poly = ()
    e: Poly = ()

    @cached_property
    def integer_parts(self) -> tuple[int, Poly, Poly, Poly]:
        """(d, d*p, d*r, d*e) with d the least common denominator of all three."""
        nums, d = _poly.over_one_denominator(self.p + self.r + self.e)
        i, j = len(self.p), len(self.p) + len(self.r)
        return d, tuple(nums[:i]), tuple(nums[i:j]), tuple(nums[j:])

    def affine_at(self, n: int) -> tuple[int, int, int]:
        """(a, b, m), integers with m > 0, such that the form at n is n**(n-1) (a + b Q(n)) / m.

        With s = max(deg e, 0), a = n**s d p(n) + n**s d e(1/n), b = n**s d r(n)
        and m = n**s d.
        """
        d, p, r, e = self.integer_parts
        lift = n ** max(len(e) - 1, 0)
        a = lift * _poly.evaluate(p, n) + _poly.evaluate(e[::-1], n)
        return a, lift * _poly.evaluate(r, n), d * lift

    def value_at(self, n: int) -> int:
        """The form at n as an integer: n**n a + b n**n Q(n), divided by n m exactly."""
        if n < 1:
            raise ValueError("normal forms are read at n >= 1")
        a, b, m = self.affine_at(n)
        num = n ** n * a
        if b:
            num += b * q_scaled(n)
        return _quotient(n, num, n * m)

    def check_at(self, n: int, head: tuple[int, int, int]) -> None:
        """`value_at`'s integrality check on residues modulo n m, with Q(n) from a `q_head` head."""
        a, b, m = self.affine_at(n)
        modulus = n * m
        _quotient(n, (pow(n, n, modulus) * a + b * q_scaled_mod(n, head, modulus)) % modulus, modulus)

    def expansion(self, floor: int) -> AsymSeries:
        """The value / n**(n-1) on the half-integer grid, known down to half-exponent floor."""
        out = AsymSeries.zero(floor)
        # p and e are exact, so pad them at least down to their constant
        if self.p:
            out = out + AsymSeries.from_u_polynomial(
                self.p[::-1], 2 * _poly.degree(self.p), min(floor, 0)
            )
        if self.r:
            top_r = 2 * _poly.degree(self.r)
            q = q_asym(max(0, 1 - (floor - top_r)))
            rpoly = AsymSeries.from_u_polynomial(self.r[::-1], top_r, min(floor - 1, 0))
            out = out + rpoly * q
        if self.e:
            out = out + AsymSeries.from_u_polynomial(self.e, 0, min(floor, 0))
        if out.known_floor > floor:
            raise VerificationFailure("assembled tree expansion lost depth")
        return out


def _quotient(n: int, num: int, modulus: int) -> int:
    """num / modulus, which must be an integer (`VerificationFailure` if not)."""
    val, rem = divmod(num, modulus)
    if rem:
        # the value itself can be too long to print
        raise VerificationFailure(
            f"tree-polynomial normal form is not an integer at n={n}: "
            f"remainder {rem} modulo {modulus}"
        )
    return val


def t_combination(terms, qterm: Fraction | int = 0) -> TreePolyNormalForm:
    """The normal form of sum b t_n(y) over (y, b) in terms, plus qterm Q(n) n**(n-1).

    Each y >= 3 folds, top index first, through t(y) = (n/(y-2)) t(y-2) +
    t(y-1); each y <= 0 adds b E_{|y|}.  The multiplier of t(y) is held as
    C_y (y-1)! / (d (top-1)!), d the common denominator of the b, so both
    steps are integer steps.
    """
    nums, d = _poly.over_one_denominator([b for _, b in terms])
    top = max([2] + [y for y, _ in terms])
    fresh = [0] * (top + 1)
    e: list[int] = []
    for (y, _), b in zip(terms, nums):
        if y >= 1:
            fresh[y] += b
        else:
            _poly.add_into(e, _difference_polynomial(-y, -y), b)
    cur, nxt, scale = [0], [0], 1  # C_y, the part of C_{y-1} folded so far, (top-1)!/(y-1)!
    for y in range(top, 2, -1):
        cur[0] += fresh[y] * scale
        # C_{y-1} += (y-1) C_y and C_{y-2} = (y-1) n C_y
        step = [(y - 1) * c for c in cur]
        _poly.add_into(nxt, step, 1)
        cur, nxt = nxt, [0] + step
        scale *= y - 1
    # what is left is C_2 t(2) + C_1 t(1), with t(1) = n**n and t(2) = n**n (1 + Q)
    cur[0] += fresh[2] * scale
    nxt[0] += fresh[1] * scale
    den = d * scale
    _poly.add_into(nxt, cur, 1)  # p = n (C_1 + C_2)
    return TreePolyNormalForm(*(
        _poly._strip(tuple(Fraction(c, q) for c in part))
        for part, q in (([0] + nxt, den), ([qterm * den] + cur, den), (e, d))
    ))


@lru_cache(maxsize=None)
def t_normal_form(y: int) -> TreePolyNormalForm:
    return t_combination(((y, 1),))
