"""Corrections to commonly printed values of the quantities computed here.

Every quantity in this package is derived from first principles, so when a
derived coefficient disagrees with the value usually quoted in print, the
disagreement is recorded as a finding and backed by a machine check on the
package's own routes that separates the two candidates, as the finding's text
states them, numerically (remainders shrink at the rate the correct value
predicts and not otherwise) or exactly (integer identities).
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial

import mpmath

from ._record import Record
from .assembly import _round_q, asym_c, asym_p, decompose, normalization
from .ramanujan import q_asym
from .series import Series, egf_coefficient, tree_function
from .symbolic import SymConst
from .treepoly import t_value


class Finding(Record):
    key: str
    quantity: str
    stated: str
    derived: str
    method: str


FINDINGS: tuple[Finding, ...] = (
    Finding(
        key="tree_value_at_one",
        quantity="special value t_n(1)",
        stated="1",
        derived="n**n",
        method="exact: n![z**n](1-T)**(-1) equals n**n for all checked n",
    ),
    Finding(
        key="excess_zero_constant",
        quantity="additive constant in the excess-0 count split",
        stated="+3/2",
        derived="0",
        method="exact: Q(n)n**(n-1)/2 + t_n(-1) - t_n(-2)/4 already matches the "
        "edge recurrence for every n; adding 3/2 breaks every n",
    ),
    Finding(
        key="q_coefficient_n1",
        quantity="Q(n) expansion, coefficient of n**-1",
        stated="-4/35",
        derived="-4/135",
        method="numeric: remainder after the n**-1 term scales like n**-3/2 only with -4/135",
    ),
    Finding(
        key="q_coefficient_n2",
        quantity="Q(n) expansion, coefficient of n**-2",
        stated="8/235",
        derived="8/2835",
        method="numeric: remainder after the n**-2 term scales like n**-5/2 only with 8/2835",
    ),
    Finding(
        key="connected_k0_n52",
        quantity="connected expansion at excess 0, coefficient of n**-5/2",
        stated="-4/2835",
        derived="4/2835",
        method="forced by the exact identity c(n,n) = Q(n)n**(n-1)/2 - n**(n-1) + n**(n-2)/2 "
        "together with the derived Q expansion; confirmed by remainder scaling",
    ),
    Finding(
        key="probability_k0_n1",
        quantity="connectedness probability at excess 0, coefficient of n**-1",
        stated="-xi/3",
        derived="xi/3",
        method="numeric: remainder after the n**-1/2 term converges to +xi/3, not -xi/3",
    ),
)


_BY_KEY = {f.key: f for f in FINDINGS}


def _constant(text: str) -> SymConst:
    """The constant a finding's text states: p/q, or p/q times xi as SymConst prints it."""
    if "xi" not in text:
        return SymConst.rational(Fraction(text))
    return SymConst.xi(Fraction(text.replace("*xi", "").replace("xi", "1")))


def _verify_tree_value_at_one() -> bool:
    finding = _BY_KEY["tree_value_at_one"]
    egf = (Series.one(8) - tree_function(8)).inverse()  # (1-T)**(-1)
    for n in range(1, 9):
        if not egf_coefficient(egf, n) == t_value(n, 1) == n ** n:
            return False
    return t_value(3, 1) != int(finding.stated)


def _verify_excess_zero_constant() -> bool:
    # decompose checks the split with no constant against the edge recurrence,
    # and the split's values are integers: a constant that is not one breaks every n
    finding = _BY_KEY["excess_zero_constant"]
    dec = decompose(0)
    if dict(dec.beta) != {-2: Fraction(-1, 4), -1: 1} or dec.qterm != Fraction(1, 2):
        return False
    return Fraction(finding.derived) == 0 and Fraction(finding.stated).denominator != 1


def _remainder_converges(finding: Finding, series, slot: int, exact_at) -> bool:
    """Remainder checks of the coefficient in `slot` of `series` against `finding`.

    The slot must print as the finding's derived value.  `exact_at(n)` is the
    exact normalized value at 512 bits.  At n = 1024 and 4096 the remainder
    after the slots above, scaled by the slot's power of n, must lie 10x
    closer to the derived value than to the stated one, keep the derived
    sign, and move towards the derived value from the smaller n to the larger.
    """
    if str(series.coeffs[slot]) != finding.derived:
        return False
    gaps = []
    with mpmath.workprec(512):
        derived = _constant(finding.derived).evaluate(512)
        stated = _constant(finding.stated).evaluate(512)
        for n in (1024, 4096):
            power = mpmath.power(n, mpmath.mpf(series.lead - slot) / 2)
            scaled = (exact_at(n) - series.evaluate(n, 512, depth=slot - 1)) / power
            gap = abs(scaled - derived)
            if not gap * 10 < abs(scaled - stated) or mpmath.sign(scaled) != mpmath.sign(derived):
                return False
            gaps.append(gap)
    return gaps[0] > gaps[1]


def _q_at(n: int) -> mpmath.mpf:
    """Q(n) correctly rounded at 512 bits."""
    return mpmath.mp.make_mpf(_round_q(n, 512))


def _exact_at(kind: str):
    return lambda n: normalization(kind).exact(0, n, 512)


# each numeric finding: its expansion, the slot of its coefficient and the exact value
_REMAINDERS = {
    "q_coefficient_n1": (lambda: q_asym(3), 3, _q_at),
    "q_coefficient_n2": (lambda: q_asym(5), 5, _q_at),
    "connected_k0_n52": (lambda: asym_c(0, 5), 5, _exact_at("connected")),
    "probability_k0_n1": (lambda: asym_p(0, 2), 2, _exact_at("probability")),
}


def _verify_remainder(key: str) -> bool:
    expansion, slot, exact_at = _REMAINDERS[key]
    return _remainder_converges(_BY_KEY[key], expansion(), slot, exact_at)


_VERIFIERS = {
    "tree_value_at_one": _verify_tree_value_at_one,
    "excess_zero_constant": _verify_excess_zero_constant,
    **{key: partial(_verify_remainder, key) for key in _REMAINDERS},
}


def verify_finding(key: str) -> bool:
    return _VERIFIERS[key]()


def verify_all() -> dict[str, bool]:
    return {f.key: verify_finding(f.key) for f in FINDINGS}
