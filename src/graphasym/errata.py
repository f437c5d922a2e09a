"""Corrections to commonly printed values of the quantities computed here.

Every quantity in this package is derived from first principles, so when a
derived coefficient disagrees with the value usually quoted in print, the
disagreement is recorded as a finding and backed by a machine check that
separates the two candidates numerically (remainders shrink at the rate the
correct value predicts and not otherwise) or exactly (integer identities).
"""
from __future__ import annotations

from fractions import Fraction

import mpmath

from ._record import Record
from .assembly import asym_c, asym_p, normalization
from .graphs import connected_counts
from .ramanujan import q_asym, q_exact, q_scaled
from .series import egf_coefficient
from .symbolic import SymConst
from .treepoly import t_series, t_value


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


def _remainder_separation(
    exact_val: mpmath.mpf,
    series,
    j_target: int,
    stated_delta: mpmath.mpf,
    n: int,
) -> bool:
    """True when the derived coefficient explains the remainder 10x better."""
    partial = series.evaluate(n, depth=j_target)
    rem_derived = abs(exact_val - partial)
    rem_stated = abs(exact_val - (partial + stated_delta))
    return rem_derived * 10 < rem_stated


def _verify_tree_value_at_one() -> bool:
    for n in range(1, 9):
        if t_value(n, 1) != n ** n:
            return False
        if egf_coefficient(t_series(1, 8), n) != n ** n:
            return False
    return t_value(3, 1) != 1


def _verify_excess_zero_constant() -> bool:
    table = connected_counts(12, 0)
    for n in range(3, 13):
        split = (
            Fraction(q_exact(n) * n ** (n - 1), 2)
            + t_value(n, -1)
            - Fraction(t_value(n, -2), 4)
        )
        if split != table.get(n, n):
            return False
        if split + Fraction(3, 2) == table.get(n, n):
            return False
    return True


def _remainder_converges(exact_at, series, j_target: int, stated) -> bool:
    """Remainder checks of coefficient j_target of `series` against a stated value.

    `exact_at(n)` is the exact normalized value at 512 bits.  At n = 1024
    and 4096 the derived coefficient must explain the remainder 10x better
    than the stated one, and the remainder after the terms before it, scaled
    by that term's power of n, must keep the derived sign and move towards
    the derived value from the smaller n to the larger.
    """
    half = series.lead - j_target
    gaps = []
    with mpmath.workprec(512):
        derived = series.coeffs[j_target].evaluate(512)
        delta = stated.evaluate(512) - derived
        for n in (1024, 4096):
            exact_val = exact_at(n)
            power = mpmath.power(n, mpmath.mpf(half) / 2)
            if not _remainder_separation(exact_val, series, j_target, delta * power, n):
                return False
            scaled = (exact_val - series.evaluate(n, 512, depth=j_target - 1)) / power
            if mpmath.sign(scaled) != mpmath.sign(derived):
                return False
            gaps.append(abs(scaled - derived))
    return all(a > b for a, b in zip(gaps, gaps[1:]))


def _q_at(n: int) -> mpmath.mpf:
    return mpmath.mpf(q_scaled(n)) / mpmath.mpf(n) ** n


def _verify_q_coefficient_n1() -> bool:
    return _remainder_converges(_q_at, q_asym(3), 3, SymConst.rational(Fraction(-4, 35)))


def _verify_q_coefficient_n2() -> bool:
    return _remainder_converges(_q_at, q_asym(5), 5, SymConst.rational(Fraction(8, 235)))


def _verify_connected_k0_n52() -> bool:
    series = asym_c(0, 5)
    if series.coeffs[5].rational_part() != Fraction(4, 2835):
        return False
    return _remainder_converges(
        lambda n: normalization("connected").exact(0, n, 512),
        series, 5, SymConst.rational(Fraction(-4, 2835)),
    )


def _verify_probability_k0_n1() -> bool:
    series = asym_p(0, 2)
    if series.coeffs[2].xi_part() != Fraction(1, 3):
        return False
    return _remainder_converges(
        lambda n: normalization("probability").exact(0, n, 512),
        series, 2, SymConst.xi(Fraction(-1, 3)),
    )


_VERIFIERS = {
    "tree_value_at_one": _verify_tree_value_at_one,
    "excess_zero_constant": _verify_excess_zero_constant,
    "q_coefficient_n1": _verify_q_coefficient_n1,
    "q_coefficient_n2": _verify_q_coefficient_n2,
    "connected_k0_n52": _verify_connected_k0_n52,
    "probability_k0_n1": _verify_probability_k0_n1,
}


def verify_finding(key: str) -> bool:
    return _VERIFIERS[key]()


def verify_all() -> dict[str, bool]:
    return {f.key: verify_finding(f.key) for f in FINDINGS}
