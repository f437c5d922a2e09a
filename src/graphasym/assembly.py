"""Assembled expansions: connected graphs, all graphs, connectivity odds.

Everything here is derived, not transcribed.  Connected counts are split
exactly over tree polynomials, the split is re-verified against the edge
recurrence for small n, and the asymptotic rows come from pushing the exact
split through the symbolic half-grid machinery.  Each split is folded once
per excess k into the tree-polynomial normal form c(n, n+k) = n**(n-1)
(P(n) + R(n) Q(n) + E(1/n)); its integer evaluator gives the exact counts
(one Q(n) and a few integer polynomial evaluations each) and its expansion
gives the connected row.  The all-graphs row at excess -1 takes ln C(N, m)
as ln N! - ln (N-m)! - ln m!, each factorial by one Stirling routine that
splits it into a ledger of large-scale terms (powers of n times 1, ln n,
ln 2 or ln pi) and a power series in 1/n; every ledger term but ln 2 must
cancel against the normalizing prefactor (`VerificationFailure` if not),
and g(n, m+1)/g(n, m) = (N-m)/(m+1) gives the other k.  The exact values c, g =
C(N, m), c/g and Q(n) are rounded from integers alone by one route: each is
first enclosed in an interval whose every operation rounds outwards
(mpmath's `libmpi`), c and Q only at large n, from a head of Q(n) and a
bound on its tail; rounding to nearest is monotone, so when both ends round
alike that is the correctly rounded value, and only otherwise, or where
there is no enclosure, is the exact quotient of integers built and rounded.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, perm

import mpmath
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_mul_int, mpf_pi, mpf_pos,
    mpf_pow, mpf_pow_int, mpf_rdiv_int, mpf_shift, mpf_sign, mpf_sqrt, mpf_sub, round_ceiling, round_floor,
    round_nearest,
)
from mpmath.libmp.libmpi import mpi_div, mpi_mul, mpi_pow_int

from . import _poly
from ._record import Record
from .errors import CrosscheckFailure, VerificationFailure
from .graphs import connected_counts, excess_split
from .ramanujan import q_head, q_scaled
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
def _log_e(order: int) -> tuple[Fraction, ...]:
    """log E(u) through u**order, E(u) = sum_r (6r)! / (2**(5r) 3**(2r) (3r)! (2r)!) u**r.

    Its u**k coefficient is A_k(1) (Janson, Knuth, Luczak and Pittel, "The
    birth of the giant component", 1993).
    """
    return Series(
        Fraction(factorial(6 * r), 288**r * factorial(3 * r) * factorial(2 * r)) for r in range(order + 1)
    ).log().coeffs()


@lru_cache(maxsize=None)
def decompose(k: int) -> Decomposition:
    """Exact split of the excess-k connected count over t_n(y) and Q(n).

    For k >= 1 it is read from Wright's recurrence run in s = 1 - T, whose
    three leftover equations each step checks (`graphs.excess_split`):
    W_k = sum_j gamma_j s**(j-3k), and term j is the tree polynomial
    t_n(3k - j).  For k = 0 the closed form is c(n,n) = Q(n) n**(n-1)/2 -
    n**(n-1) + n**(n-2)/2, and for k = -1, W_{-1} = T - T**2/2 =
    -(1-T)**2/2 + 1/2 gives c(n,n-1) = -t_n(-2)/2.  Each split is checked
    against the count table for n <= VERIFY_N_MAX, and gamma_0 = A_k(1)
    against `_log_e` (`VerificationFailure` if either fails), the net for an
    error the run solves away; one that those n miss and that leaves gamma_0
    alone passes.
    Both are asked for at k rounded up to a power of two, so ascending k build
    one of each per doubling and cut the rest; the values compared are the same.
    """
    if k < -1:
        raise ValueError("excess below -1 is empty")
    rounded = 1 << k.bit_length()
    if k == -1:
        dec = Decomposition(-1, ((-2, Fraction(-1, 2)),), Fraction(0))
    elif k == 0:
        beta = ((-2, Fraction(-1, 4)), (-1, Fraction(1)))
        dec = Decomposition(0, beta, Fraction(1, 2))
    else:
        gamma = excess_split(k)
        want = _log_e(rounded)[k]
        if gamma[0] != want:
            raise VerificationFailure(f"A_{k}(1) = {gamma[0]}, but [u**{k}] log E(u) = {want}")
        beta = tuple(sorted((3 * k - j, g) for j, g in enumerate(gamma) if g != 0))
        dec = Decomposition(k, beta, Fraction(0))
    table = connected_counts(VERIFY_N_MAX, rounded)
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
    val = decompose(k).evaluate(n)
    if val < 0:
        raise VerificationFailure(f"negative count at n={n}, k={k}")
    return val


# ---------------------------------------------------------------------------
# connected graphs: expansion of c(n, n+k) / n**(n + (3k-1)/2)


def asym_c(k: int, depth: int) -> AsymSeries:
    """Expansion of c(n, n+k) normalized by n**(n + (3k-1)/2).

    The excess -1 row is exact: c(n, n-1) = n**(n-2) gives the constant 1.
    A depth below the deepest built for k is cut from that build, which
    decompose(k)'s record keeps as `normal_form` is kept (and drops with it).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    dec = decompose(k)
    built = dec.__dict__.get("deepest_expansion")
    if built is None or built.depth < depth:
        # the form is c(n, n+k) / n**(n-1), and n**(n + (3k-1)/2) = n**(n-1) n**((3k+1)/2)
        shifted = dec.normal_form.expansion(3 * k + 1 - depth).shift(-(3 * k + 1))
        if shifted.lead != 0:
            raise VerificationFailure(f"excess-{k} expansion has leading half-exponent {shifted.lead}, not 0")
        built = dec.__dict__["deepest_expansion"] = shifted.truncate(depth)
    return built.truncate(depth)


# ---------------------------------------------------------------------------
# all graphs: expansion of binom(n(n-1)/2, n+k)


# the tags of a Stirling ledger, in the order `_ln_total` checks them
_TAGS = ("ln n", "", "ln 2", "ln pi")
_ZERO = Fraction(0)


def _ln_factorial(poly: tuple[int, ...], p: int, q: int, depth: int) -> tuple[dict, Series]:
    """ln x! for x = X(u) n**p / q, X = `poly` (p + 1 coefficients, X(0) = 1) in u = 1/n.

    Stirling's formula ln x! = (x + 1/2) ln x - x + ln(2 pi)/2 + tau(1/x),
    with ln x = ln X + p ln n - ln q and q a power of 2.  The terms on n**p
    down to n**0 go to a ledger {(power of n, tag in `_TAGS`): rational};
    the rest is a power series in u with no constant term, through u**depth.
    Production calls it for G_{-1} only, three times per depth (`_ln_total`).
    """
    e = q.bit_length() - 1  # ln q = e ln 2
    zeros = (_ZERO,) * depth
    # x + 1/2 = H n**p / q with H = X + q u**p / 2, so the u**i coefficient of
    # H (p ln n - e ln 2 + ln X) - X, over q, lands on n**(p-i): i <= p go to
    # the ledger, with ln(2 pi)/2, and the rest is left over
    half = poly[:p] + (poly[p] + Fraction(q, 2),)
    x = Series(poly + zeros)
    product = (Series(half + zeros) * x.log()).coeffs()  # H ln X, no constant term
    ledger = {(0, "ln pi"): Fraction(1, 2)}
    for i, (c, h) in enumerate(zip(poly, half)):
        ledger[p - i, "ln n"] = Fraction(p, q) * h
        ledger[p - i, "ln 2"] = Fraction(-e, q) * h
        ledger[p - i, ""] = (product[i] - c) / q
    ledger[0, "ln 2"] += Fraction(1, 2)
    # tau(1/x), 1/x = q u**p / X
    inverse = Series(x.coeffs()[: max(depth - p, 0) + 1]).inverse().coeffs()
    reciprocal = Series(((_ZERO,) * p + tuple(q * c for c in inverse))[: depth + 1])
    rest = Series((_ZERO,) + product[p + 1:]).scale(Fraction(1, q))
    return ledger, rest + stirling_tail(reciprocal)


def _ln_total(k: int, depth: int) -> Series:
    """ln [2**(k+1) G_k(u)] through u**depth by Stirling's formula, G_k the u-series of `asym_g(k, depth)`.

    ln binom(N, m) = ln N! - ln (N-m)! - ln m!, with N = (1-u) n**2/2,
    N - m = (1-3u-2ku**2) n**2/2 and m = (1+ku) n in u = 1/n, each by
    `_ln_factorial`.  Less the prefactor's ledger, every ledger term must
    cancel except ln 2, whose weight must be -(k+1) (`VerificationFailure`
    if not).  Production builds it, and so checks, at k = -1 only
    (`_total_base`); at other k it is the tests' reference for `asym_g`.
    """
    ln_big, rest_big = _ln_factorial((1, -1, 0), 2, 2, depth)
    ln_diff, rest_diff = _ln_factorial((1, -3, -2 * k), 2, 2, depth)
    ln_m, rest_m = _ln_factorial((1, k), 1, 1, depth)
    # ln sqrt(2/pi) e**(n-2) (n/2)**n n**((2k-1)/2)
    prefactor = {(1, "ln n"): 1, (1, ""): 1, (1, "ln 2"): -1, (0, "ln n"): Fraction(2 * k - 1, 2),
                 (0, ""): -2, (0, "ln 2"): Fraction(1, 2), (0, "ln pi"): Fraction(-1, 2)}
    total = dict(ln_big)
    for ledger in (ln_diff, ln_m, prefactor):
        for key, val in ledger.items():
            total[key] = total.get(key, 0) - val
    weight = total.pop((0, "ln 2"))
    for power, tag in sorted(total, key=lambda key: (-key[0], _TAGS.index(key[1]))):
        val = total[power, tag]
        if val != 0:
            name = f"n**{power} {tag}".rstrip()
            raise VerificationFailure(f"excess-{k} total: the {name} term fails to cancel: {val}")
    if weight != -(k + 1):
        raise VerificationFailure(f"excess-{k} total: ln 2 weight {weight} is not -(k+1)")
    return rest_big - rest_diff - rest_m


@lru_cache(maxsize=None)
def _total_base(depth: int) -> tuple[tuple[int, ...], int]:
    """G_{-1}(u) = exp `_ln_total(-1, depth)`, as integer numerators over one denominator.

    Its log must give back the series that went into exp (`VerificationFailure`
    if not), which catches a wrong `Series.exp`; an error in `_ln_factorial`'s
    series before exp needs a second, independent build of G_{-1} to show.
    """
    ln = _ln_total(-1, depth)
    base = ln.exp()
    for i, (back, want) in enumerate(zip(base.log().coeffs(), ln.coeffs())):
        if back != want:
            raise VerificationFailure(f"total at excess -1: log exp of its series is off by {back - want} at u**{i}")
    nums, d = _poly.over_one_denominator(base.coeffs())
    return tuple(nums), d


@lru_cache(maxsize=None)
def asym_g(k: int, depth: int) -> AsymSeries:
    """Expansion of g(n, n+k) / [sqrt(2/pi) e**(n-2) (n/2)**n n**((2k-1)/2)].

    It is a series G_k in u = 1/n, and g(n, m+1)/g(n, m) = (N-m)/(m+1) reads
    2 (1 + (k+1)u) G_{k+1} = (1 - 3u - 2ku**2) G_k, so G_k is G_{-1} (built once per depth,
    `_total_base`) times 2**-(k+1) prod_{j=-1}^{k-1} (1 - 3u - 2ju**2) / (1 + (j+1)u), taken
    one factor at a time on G_{-1}'s numerators mod u**(depth+1): O(k depth) integer steps,
    each division exact as 1 + (j+1)u has constant term 1.
    """
    if k < -1:
        raise ValueError("needs n + k >= n - 1 >= 0 edges")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    base, d = _total_base(depth)
    ratio = list(base)
    for j in range(-1, k):
        for i in range(depth, 0, -1):  # times 1 - 3u - 2ju**2
            ratio[i] -= 3 * ratio[i - 1] + (2 * j * ratio[i - 2] if i > 1 else 0)
        for i in range(1, depth + 1):  # over 1 + (j+1)u
            ratio[i] -= (j + 1) * ratio[i - 1]
    return AsymSeries.from_u_polynomial([Fraction(c, d << (k + 1)) for c in ratio], 0, -(2 * depth + 1))


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


# `fss_crosscheck` works at this precision and passes within this relative error
_CROSSCHECK_BITS = 256
_CROSSCHECK_TOLERANCE = 1e-12


def fss_crosscheck(k: int) -> CrosscheckReport:
    """Compare the assembled leading coefficients against the closed form

        a_0 = A_k(1) sqrt(pi) / (2**((3k-1)/2) Gamma(3k/2)),
        a_1/a_0 = -(A_k'(1)/A_k(1) - k) sqrt(2) Gamma(3k/2) / Gamma((3k-1)/2),

    the sign and scale of which differ from the form usually quoted.
    """
    if k < 2:
        raise ValueError("the closed form is compared for k >= 2")
    series = asym_c(k, 1)
    at_one, minus_slope = excess_split(k)[:2]  # A_k(1) = gamma_0 and A_k'(1) = -gamma_1
    with mpmath.workprec(_CROSSCHECK_BITS):
        a0 = series.coeffs[0].evaluate(_CROSSCHECK_BITS)
        a1 = series.coeffs[1].evaluate(_CROSSCHECK_BITS)
        a_one = mpmath.mpf(at_one.numerator) / at_one.denominator
        ap_one = -mpmath.mpf(minus_slope.numerator) / minus_slope.denominator
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
            tolerance=_CROSSCHECK_TOLERANCE,
            passed=rel_a0 <= _CROSSCHECK_TOLERANCE and rel_ratio <= _CROSSCHECK_TOLERANCE,
        )
    if not report.passed:
        raise CrosscheckFailure(
            f"closed form disagrees at k={k}: rel errors {rel_a0}, {rel_ratio}"
        )
    return report


# ---------------------------------------------------------------------------
# normalizations


# `_rounded` encloses a value rounded to `bits` at `bits` + this many bits
_GUARD_BITS = 64
# each leaf of an enclosing product is one exact `math.perm` of this many ints
_PRODUCT_LEAF = 128


def _round_quotient(num: int, den: int, bits: int, rnd: str = round_nearest) -> tuple:
    """num / den (den > 0) rounded at `bits` in mode `rnd`, as a raw mpf.

    The quotient's magnitude is taken to `bits` + 2 or + 3 bits by one
    `divmod`, a nonzero remainder is ORed into its last bit, and
    `from_man_exp` rounds that once: with at least two bits below the kept
    ones the sticky bit cannot turn an inexact value into a tie or move it
    across one, nor onto a float it does not reach.
    """
    if num == 0:
        return fzero
    shift = bits + 2 - (num.bit_length() - den.bit_length())
    q, r = divmod(abs(num) << shift, den) if shift >= 0 else divmod(abs(num), den << -shift)
    q |= r != 0
    return from_man_exp(q if num > 0 else -q, -shift, bits, rnd)


def _product_interval(start: int, stop: int, prec: int) -> tuple:
    """An interval at `prec` bits that encloses prod(range(start, stop)).

    One loop over L = ceil(j / `_PRODUCT_LEAF`) leaves of j ints: each leaf
    is the exact lo...(hi-1) = perm(hi - 1, hi - lo), a product tree in C,
    rounded outwards and multiplied into the interval so far by an
    outward-rounded interval product, the first one exactly by 1.  So each
    end is rounded at most 2L - 1 times, each time outwards by under one ulp.
    """
    value = (fone, fone)
    for lo in range(start, stop, _PRODUCT_LEAF):
        hi = min(lo + _PRODUCT_LEAF, stop)
        x = perm(hi - 1, hi - lo)
        value = mpi_mul(value, (from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)), prec)
    return value


def _affine_q_interval(n: int, a: int, b: int, m: int, head: tuple[int, int, int], prec: int) -> tuple:
    """An interval at `prec` around (a + b Q(n)) / m, m > 0, from the head (K, P, T) of `q_head`.

    With n**(K-1) Q(n) between L = n**(K-1) + T and L + P (n-K)/K, each end
    is one integer quotient rounded outwards (`_round_quotient`), so no
    integer of K log2 n bits is converted to mpf.
    """
    length, p, t = head
    scale = n ** (length - 1)
    low = scale + t
    ends = [(a * scale + b * low, m * scale),
            (a * length * scale + b * (length * low + p * (n - length)), m * length * scale)]
    if b < 0:
        ends.reverse()
    return _round_quotient(*ends[0], prec, round_floor), _round_quotient(*ends[1], prec, round_ceiling)


def _count_interval(n: int, k: int, prec: int) -> tuple | None:
    """An interval at `prec` around c(n, n+k) from Q's head, or None where `q_head` declines.

    c(n, n+k) = n**(n-1) (a + b Q(n)) / m (`TreePolyNormalForm.affine_at`),
    with Q(n) enclosed by `q_head` and n**(n-1) by `mpi_pow_int`.  The form's
    integrality check runs on residues (`TreePolyNormalForm.check_at`), and
    an interval wholly below zero is a negative count, as on the exact route.
    None also for a split without Q (k = -1).
    """
    form = decompose(k).normal_form
    head = q_head(n, prec) if form.r else None
    if head is None:
        return None
    form.check_at(n, head)
    power = mpi_pow_int((from_int(n),) * 2, n - 1, prec)
    value = mpi_mul(_affine_q_interval(n, *form.affine_at(n), head, prec), power, prec)
    if mpf_sign(value[1]) < 0:
        raise VerificationFailure(f"negative count at n={n}, k={k}")
    return value


def _binomial_interval(n: int, k: int, prec: int) -> tuple:
    """An interval at `prec` around C(n, k), 0 <= k <= n: (n-j+1)...n over j!, j = min(k, n-k)."""
    j = min(k, n - k)
    return mpi_div(_product_interval(n - j + 1, n + 1, prec), _product_interval(1, j + 1, prec), prec)


def _rounded(bits: int, enclose, exact) -> tuple:
    """A value rounded to nearest at `bits`, as a raw mpf (see `Normalization.exact`).

    `enclose(prec)` returns an interval around the value at `prec` =
    `bits` + `_GUARD_BITS`, or None; if both its ends round to one float,
    that float is the result, and otherwise the value is the quotient of
    the integers `exact()` returns, rounded by `_round_quotient`.
    """
    interval = enclose(bits + _GUARD_BITS)
    if interval is not None:
        lo, hi = (mpf_pos(end, bits, round_nearest) for end in interval)
        if lo == hi:
            return lo
    return _round_quotient(*exact(), bits)


def _round_q(n: int, bits: int) -> tuple:
    """Q(n) rounded to nearest at `bits`: from `q_head` where it is taken, else from `q_scaled`."""
    return _rounded(
        bits,
        lambda prec: (head := q_head(n, prec)) and _affine_q_interval(n, 0, 1, 1, head, prec),
        lambda: (q_scaled(n), n ** n),
    )


class Normalization(Record):
    kind: str
    description: str

    def evaluate(self, k: int, n: int, bits: int = 256) -> mpmath.mpf:
        return mpmath.mp.make_mpf(self._normalizer(k, n, bits))

    def _normalizer(self, k: int, n: int, bits: int) -> tuple:
        """The normalization at (n, n+k) as a libmp tuple, rounded as its mpf formula at `bits` is.

        Each step is the libmp call that mpf arithmetic at precision `bits`
        makes, so the tuple is that of the formula in `description` written
        with mpf objects under `workprec(bits)`: mpf(n) is n rounded to
        `bits`, and so is an exponent such as n + mpf(3k-1)/2 before
        `mpf_pow` takes it (which moves it at bits <= 2); an int exponent is
        exact (`mpf_pow_int`), and pi is `mpf_pi` at `bits`.
        """
        if n < 1:
            raise ValueError("the normalizations need n >= 1")
        if bits < 1:
            raise ValueError("the precision needs bits >= 1")
        rnd = round_nearest
        nn, two = from_int(n, bits, rnd), from_int(2)
        if self.kind == "connected":
            exponent = mpf_add(from_man_exp(3 * k - 1, -1, bits, rnd), from_int(n), bits, rnd)
            return mpf_pow(nn, exponent, bits, rnd)
        if self.kind == "total":
            value = mpf_sqrt(mpf_rdiv_int(2, mpf_pi(bits, rnd), bits, rnd), bits, rnd)
            value = mpf_mul(value, mpf_exp(mpf_sub(nn, two, bits, rnd), bits, rnd), bits, rnd)
            value = mpf_mul(value, mpf_pow_int(mpf_shift(nn, -1), n, bits, rnd), bits, rnd)
            return mpf_mul(value, mpf_pow(nn, from_man_exp(2 * k - 1, -1, bits, rnd), bits, rnd), bits, rnd)
        if self.kind == "probability":
            value = mpf_pow_int(two, n, bits, rnd)
            value = mpf_mul(value, mpf_exp(mpf_sub(two, nn, bits, rnd), bits, rnd), bits, rnd)
            value = mpf_mul(value, mpf_pow(nn, from_man_exp(k, -1, bits, rnd), bits, rnd), bits, rnd)
            return mpf_mul(value, mpf_sqrt(mpf_mul_int(mpf_pi(bits, rnd), 2, bits, rnd), bits, rnd), bits, rnd)
        raise ValueError(f"unknown normalization kind {self.kind!r}")

    def exact(self, k: int, n: int, bits: int = 256) -> mpmath.mpf:
        """The exact value of this kind at (n, n+k) over its normalization, at `bits`.

        The exact value (c, g = C(N, m) with N = n(n-1)/2 and m = n+k, or
        c/g) is rounded once to `bits` by `_rounded`; dividing by the
        normalization rounds again.  At prec = `bits` + `_GUARD_BITS`,
        `_binomial_interval` encloses g by leaf products of (N-j+1)...N and
        j!, j = min(m, N-m), and outward-rounded interval division.  Where
        `q_head` sums a head of Q(n) rather than all of it, `_count_interval`
        encloses c from that head and a bound on the tail, with c's
        integrality and sign checks on the enclosure, and c/g is enclosed
        by one more interval division; elsewhere c, and for c/g also g, are
        exact.  Rounding to nearest is monotone, so when both ends of the
        interval round to the same float, that float is the correctly
        rounded exact value.  Otherwise, which includes every exact tie, the
        exact c and g are built and the quotient rounded from integers by
        one division (`_round_quotient`).  The result is therefore that of
        the exact route by construction.
        """
        norm = self._normalizer(k, n, bits)  # checks n, `bits` and the kind first
        big_n, m = n * (n - 1) // 2, n + k
        graphs = 0 <= m <= big_n
        if not graphs and self.kind == "probability":
            raise ValueError(f"no graphs with n={n}, m={m}")
        if self.kind == "connected":
            value = _rounded(bits, lambda prec: _count_interval(n, k, prec), lambda: (exact_count_via_t(n, k), 1))
        elif self.kind == "probability":
            value = _rounded(
                bits,
                lambda prec: (c := _count_interval(n, k, prec))
                and mpi_div(c, _binomial_interval(big_n, m, prec), prec),
                lambda: (exact_count_via_t(n, k), exact_total(n, k)),
            )
        else:
            value = _rounded(
                bits,
                lambda prec: _binomial_interval(big_n, m, prec) if graphs else None,
                lambda: (exact_total(n, k), 1),
            )
        return mpmath.mp.make_mpf(mpf_div(value, norm, bits, round_nearest))


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

