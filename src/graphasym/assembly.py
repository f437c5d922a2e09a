"""Assembled expansions: connected graphs, all graphs, connectivity odds.

Everything here is derived, not transcribed.  Connected counts are split
exactly over tree polynomials, the split is re-verified against the edge
recurrence for small n, and the asymptotic rows come from pushing the exact
split through the symbolic half-grid machinery.  Each split is folded once
per excess k into the tree-polynomial normal form c(n, n+k) = n**(n-1)
(P(n) + R(n) Q(n) + E(1/n)); its integer evaluator gives the exact counts
(one Q(n) and a few integer polynomial evaluations each) and its expansion
gives the connected row.  The all-graphs row takes the logarithm of the
binomial C(N, m) as ln N! - ln (N-m)! - ln m!, each factorial by
Stirling's formula with the one correction series `stirling_tail`; the
large-scale terms (n log n, log n, n, n log 2, log pi) must cancel against
the normalizing prefactor, and those cancellations are checked at run time
(raising `VerificationFailure`), not assumed.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

import mpmath
from mpmath.libmp import from_rational, round_nearest

from . import _poly
from ._record import Record
from .errors import CrosscheckFailure, VerificationFailure
from .graphs import connected_counts, recover_ak
from .series import Series
from .symbolic import AsymSeries, stirling_tail
from .treepoly import TreePolyNormalForm, t_combination


# ---------------------------------------------------------------------------
# exact decomposition over tree polynomials


class Decomposition(Record):
    """c(n, n+k) = sum_l beta_l t_n(l) + qterm * Q(n) n**(n-1)."""

    k: int
    beta: tuple[tuple[int, Fraction], ...]
    qterm: Fraction

    @cached_property
    def normal_form(self) -> TreePolyNormalForm:
        """The split folded into c(n, n+k) = n**(n-1) (P(n) + R(n) Q(n) + E(1/n))."""
        return t_combination(self.beta, self.qterm)

    def evaluate(self, n: int) -> int:
        """c(n, n+k) as an integer, from the folded form."""
        return self.normal_form.value_at(n)


# decompose(k) checks its split against the count table for n = 1..VERIFY_N_MAX
VERIFY_N_MAX = 12


@lru_cache(maxsize=None)
def decompose(k: int) -> Decomposition:
    """Exact split of the excess-k connected count over t_n(y) and Q(n).

    For k >= 1 the split comes from expanding the numerator polynomial
    around 1: A_k(T) (1-T)**(-3k) = sum_j gamma_j (1-T)**(j-3k), so each
    term is a tree polynomial of index 3k - j.  For k = 0 the closed form
    is c(n,n) = Q(n) n**(n-1)/2 - n**(n-1) + n**(n-2)/2.
    """
    if k < 0:
        raise ValueError("decompositions start at excess 0")
    if k == 0:
        beta = ((-2, Fraction(-1, 4)), (-1, Fraction(1)))
        dec = Decomposition(0, beta, Fraction(1, 2))
    else:
        a, d = _poly.over_one_denominator(recover_ak(k))
        # A_k(1-x) = sum_j gamma_j x**j, gamma_j = (-1)**j sum_{i>=j} C(i, j) a_i
        gamma = [
            Fraction((-1) ** j * sum(comb(i, j) * a[i] for i in range(j, len(a))), d)
            for j in range(len(a))
        ]
        beta = tuple(sorted((3 * k - j, g) for j, g in enumerate(gamma) if g != 0))
        dec = Decomposition(k, beta, Fraction(0))
    table = connected_counts(VERIFY_N_MAX, max(k, 0))
    for n in range(1, VERIFY_N_MAX + 1):
        want = table.get(n, n + k)
        got = dec.evaluate(n)
        if want != got:
            raise VerificationFailure(
                f"excess-{k} decomposition disagrees with the edge recurrence "
                f"at n={n}: {got} != {want}"
            )
    return dec


def exact_count_via_t(n: int, k: int) -> int:
    """c(n, n+k) evaluated through the tree-polynomial split."""
    if n < 1:
        raise ValueError("counts need n >= 1")
    if k < -1:
        raise ValueError("excess below -1 is empty")
    if k == -1:
        return 1 if n == 1 else n ** (n - 2)
    val = decompose(k).evaluate(n)
    if val < 0:
        raise VerificationFailure(f"negative count at n={n}, k={k}")
    return val


# ---------------------------------------------------------------------------
# connected graphs: expansion of c(n, n+k) / n**(n + (3k-1)/2)


@lru_cache(maxsize=None)
def asym_c(k: int, depth: int) -> AsymSeries:
    """Expansion of c(n, n+k) normalized by n**(n + (3k-1)/2).

    The excess -1 row is exact: c(n, n-1) = n**(n-2) gives the constant 1.
    """
    if k < -1:
        raise ValueError("excess below -1 is empty")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if k == -1:
        return AsymSeries.build(0, [1] + [0] * depth)
    # the form is c(n, n+k) / n**(n-1), and n**(n + (3k-1)/2) = n**(n-1) n**((3k+1)/2)
    shifted = decompose(k).normal_form.expansion(3 * k + 1 - depth).shift(-(3 * k + 1))
    if shifted.lead != 0:
        raise VerificationFailure(
            f"excess-{k} expansion has leading half-exponent {shifted.lead}, not 0"
        )
    return shifted.truncate(depth)


# ---------------------------------------------------------------------------
# all graphs: expansion of binom(n(n-1)/2, n+k)


@lru_cache(maxsize=None)
def asym_g(k: int, depth: int) -> AsymSeries:
    """Expansion of g(n, n+k) / [sqrt(2/pi) e**(n-2) (n/2)**n n**((2k-1)/2)].

    ln binom(N, m) = ln N! - ln (N-m)! - ln m! with N = n(n-1)/2 and
    m = n+k, each factorial by Stirling's formula, in exact series over
    u = 1/n.  With N = a/(2u**2), N - m = b/(2u**2) and m = c/u, where
    a = 1-u, b = 1-3u-2ku**2 and c = 1+ku, the result is accumulated as
    coefficients of n ln n, ln n, n, n ln 2, ln 2, ln pi plus a power
    series in u.  After subtracting the prefactor all large-scale
    coefficients must vanish and the ln 2 weight must be the integer
    -(k+1).  Both facts are checked (`VerificationFailure` if not).  What
    remains exponentiates to the expansion, which has only integer powers
    of 1/n.
    """
    if k < -1:
        raise ValueError("needs n + k >= n - 1 >= 0 edges")
    if depth < 0:
        raise ValueError("depth must be nonnegative")

    def u_series(order: int, *coeffs: int) -> Series:
        return Series((list(coeffs) + [0] * (order + 1))[: order + 1])

    # every term below lands on order `depth`; a ln a - b ln b loses two orders
    # to the division by u**2 and c ln c one to the division by u
    a = u_series(depth + 2, 1, -1)
    b = u_series(depth + 2, 1, -3, -2 * k)
    c = u_series(depth + 1, 1, k)
    log_a, log_b, log_c = a.log(), b.log(), c.log()

    # N ln N - (N-m) ln(N-m) = m (2 ln n - ln 2) + (a ln a - b ln b) / (2u**2);
    # the -N + (N-m) + m of the three Stirling formulas is zero
    nlogn = Fraction(2)
    logn = Fraction(2 * k)
    nln2 = Fraction(-1)
    ln2c = Fraction(-k)
    spread = a * log_a - b * log_b  # no constant term
    ncoef = spread[1] / 2
    upart = Series(spread.coeffs()[2:]).scale(Fraction(1, 2))

    # ln(2 pi N) / 2 - ln(2 pi (N-m)) / 2 = (ln a - ln b) / 2
    upart = upart + (log_a - log_b).scale(Fraction(1, 2))

    # - m ln m = - m ln n - (c ln c) / u
    nlogn -= 1
    logn -= k
    upart = upart - Series((c * log_c).coeffs()[1:])

    # - ln(2 pi m) / 2 = -(ln 2 + ln pi + ln n + ln c) / 2
    ln2c -= Fraction(1, 2)
    lnpic = Fraction(-1, 2)
    logn -= Fraction(1, 2)
    upart = upart - log_c.scale(Fraction(1, 2))

    # the three Stirling tails, at 1/N = 2u**2/a, 1/(N-m) = 2u**2/b and 1/m = u/c
    two_u2 = u_series(depth, 0, 0, 2)
    upart = (
        upart
        + stirling_tail(two_u2 * a.inverse())
        - stirling_tail(two_u2 * b.inverse())
        - stirling_tail(u_series(depth, 0, 1) * c.inverse())
    )

    # subtract ln of the prefactor sqrt(2/pi) e**(n-2) (n/2)**n n**((2k-1)/2)
    ln2c -= Fraction(1, 2)
    lnpic += Fraction(1, 2)
    ncoef -= 1
    nlogn -= 1
    nln2 += 1
    logn -= Fraction(2 * k - 1, 2)
    upart = upart + u_series(depth, 2)

    for name, val in (
        ("n ln n", nlogn),
        ("ln n", logn),
        ("n", ncoef),
        ("n ln 2", nln2),
        ("ln pi", lnpic),
    ):
        if val != 0:
            raise VerificationFailure(f"excess-{k} total: the {name} term fails to cancel: {val}")
    if ln2c != -(k + 1):
        raise VerificationFailure(f"excess-{k} total: ln 2 weight {ln2c} is not -(k+1)")
    if upart[0] != 0:
        raise VerificationFailure(f"excess-{k} total: constant fails to cancel: {upart[0]}")

    ratio = upart.exp().scale(Fraction(2) ** int(ln2c))
    return AsymSeries.from_u_polynomial(ratio.coeffs(), 0, -(2 * depth + 1))


def exact_total(n: int, k: int) -> int:
    """g(n, n+k) = binom(n(n-1)/2, n+k) exactly."""
    m = n + k
    if m < 0:
        return 0
    return comb(comb(n, 2), m)


# ---------------------------------------------------------------------------
# probability of connectedness


@lru_cache(maxsize=None)
def asym_p(k: int, depth: int) -> AsymSeries:
    """Expansion of P(n, n+k) / [2**n e**(2-n) n**(k/2) xi].

    The two normalizations were chosen so the quotient of the connected
    and all-graphs expansions times 1/2 lands exactly on this scale,
    independent of k.
    """
    num = asym_c(k, depth)
    den = asym_g(k, (depth + 1) // 2)
    return (num / den).scale(Fraction(1, 2)).truncate(depth)


# ---------------------------------------------------------------------------
# cross-check of the corrected literature formula


class CrosscheckReport(Record):
    k: int
    a0_series: str
    a0_formula: str
    rel_a0: float
    ratio_series: str
    ratio_formula: str
    rel_ratio: float
    tolerance: float
    passed: bool


def fss_crosscheck(k: int, bits: int = 256, tolerance: float = 1e-12) -> CrosscheckReport:
    """Compare the assembled leading coefficients against the closed form

        a_0 = A_k(1) sqrt(pi) / (2**((3k-1)/2) Gamma(3k/2)),
        a_1/a_0 = -(A_k'(1)/A_k(1) - k) sqrt(2) Gamma(3k/2) / Gamma((3k-1)/2),

    the sign and scale of which differ from the form usually quoted.
    """
    if k < 2:
        raise ValueError("the closed form is compared for k >= 2")
    series = asym_c(k, 1)
    a = recover_ak(k)
    at_one = _poly.evaluate(a, 1)
    prime_at_one = _poly.evaluate(_poly.derivative(a), 1)
    with mpmath.workprec(bits):
        a0 = series.coeffs[0].evaluate(bits)
        a1 = series.coeffs[1].evaluate(bits)
        a_one = mpmath.mpf(at_one.numerator) / at_one.denominator
        ap_one = mpmath.mpf(prime_at_one.numerator) / prime_at_one.denominator
        rhs_a0 = (
            a_one
            * mpmath.sqrt(mpmath.pi)
            / (mpmath.power(2, mpmath.mpf(3 * k - 1) / 2) * mpmath.gamma(mpmath.mpf(3 * k) / 2))
        )
        lhs_ratio = a1 / a0
        rhs_ratio = (
            -(ap_one / a_one - k)
            * mpmath.sqrt(2)
            * mpmath.gamma(mpmath.mpf(3 * k) / 2)
            / mpmath.gamma(mpmath.mpf(3 * k - 1) / 2)
        )
        rel_a0 = float(abs(a0 - rhs_a0) / abs(rhs_a0))
        rel_ratio = float(abs(lhs_ratio - rhs_ratio) / abs(rhs_ratio))
        report = CrosscheckReport(
            k=k,
            a0_series=mpmath.nstr(a0, 25),
            a0_formula=mpmath.nstr(rhs_a0, 25),
            rel_a0=rel_a0,
            ratio_series=mpmath.nstr(lhs_ratio, 25),
            ratio_formula=mpmath.nstr(rhs_ratio, 25),
            rel_ratio=rel_ratio,
            tolerance=tolerance,
            passed=rel_a0 <= tolerance and rel_ratio <= tolerance,
        )
    if not report.passed:
        raise CrosscheckFailure(
            f"closed form disagrees at k={k}: rel errors {rel_a0}, {rel_ratio}"
        )
    return report


# ---------------------------------------------------------------------------
# normalizations


class Normalization(Record):
    kind: str
    description: str

    def evaluate(self, k: int, n: int, bits: int = 256) -> mpmath.mpf:
        with mpmath.workprec(bits):
            nn = mpmath.mpf(n)
            if self.kind == "connected":
                return mpmath.power(nn, n + mpmath.mpf(3 * k - 1) / 2)
            if self.kind == "total":
                return (
                    mpmath.sqrt(2 / mpmath.pi)
                    * mpmath.exp(nn - 2)
                    * mpmath.power(nn / 2, n)
                    * mpmath.power(nn, mpmath.mpf(2 * k - 1) / 2)
                )
            if self.kind == "probability":
                return (
                    mpmath.power(2, n)
                    * mpmath.exp(2 - nn)
                    * mpmath.power(nn, mpmath.mpf(k) / 2)
                    * mpmath.sqrt(2 * mpmath.pi)
                )
            raise ValueError(f"unknown normalization kind {self.kind!r}")

    def exact(self, k: int, n: int, bits: int = 256) -> mpmath.mpf:
        """The exact value of this kind at (n, n+k) over its normalization, at `bits`.

        The unreduced pair (c, g) for the probability, (c, 1) or (g, 1) for
        the counts, is rounded once to `bits` by one division, so no
        fraction is reduced; dividing by the normalization rounds again.
        """
        den = exact_total(n, k) if self.kind == "probability" else 1
        if den == 0:
            raise ValueError(f"no graphs with n={n}, m={n + k}")
        num = exact_total(n, k) if self.kind == "total" else exact_count_via_t(n, k)
        value = mpmath.mp.make_mpf(from_rational(num, den, bits, round_nearest))
        with mpmath.workprec(bits):
            return value / self.evaluate(k, n, bits)


_NORMALIZATIONS = {
    "connected": Normalization("connected", "n**(n + (3k-1)/2)"),
    "total": Normalization(
        "total", "sqrt(2/pi) * exp(n-2) * (n/2)**n * n**((2k-1)/2)"
    ),
    "probability": Normalization(
        "probability", "2**n * exp(2-n) * n**(k/2) * sqrt(2*pi)"
    ),
}

_EXPANSIONS = {"connected": asym_c, "total": asym_g, "probability": asym_p}


def normalization(kind: str) -> Normalization:
    return _NORMALIZATIONS[kind]


def expansion(kind: str, k: int, depth: int) -> AsymSeries:
    return _EXPANSIONS[kind](k, depth)

