"""Ramanujan's Q-function, its companion R, and their asymptotic expansions.

    Q(n) = sum_{k=1}^{n} n!/(n-k)! / n**k          (exact rational)
    R(n) = sum_{k>=0} n**k * n!/(n+k)!             (convergent sum)

They satisfy Q(n) + R(n) = n! e**n / n**n exactly, so the difference
D(n) = R(n) - Q(n) pins down the expansion of Q once D is known.  D has an
expansion in integer powers of 1/n whose coefficients are derived exactly
here, not transcribed: writing psi(d) = log(d**2 / (2(1-(1+d)e**(-d)))) and
expanding around the dominant saddle gives

    D(n) = sum_{k>=1} [d**k] psi(d) * (-1)**k * E_k(1/n),

where E_k(u) = sum_{r=1}^{k} C(k,r)(-1)**r * r * prod_{i<r}(1-iu) is the
finite-difference polynomial with E_k(1/n) = n**(1-n) * n![z**n](1-T)**k.
The u**j coefficient of E_k is a polynomial in k of degree 2j+1, so only
k <= 2j+1 contribute to the n**(-j) term and each coefficient is a finite
exact sum.

Exact values come from the one integer n**n Q(n), summed by binary splitting
over a product tree: O(M(n log n) log n) for multiplication cost M, not n
big-integer steps.  A value that is only rounded needs less: the terms of Q(n)
fall like exp(-m**2/2n), so at large n `q_head` sums the first K of them by
the same product tree and bounds the rest by a geometric series, and
`q_scaled_mod` carries that head on to n**n Q(n) modulo a small integer, for
the integer checks of the values built on it, folding in the tree's own
leaves one at a time: the leaf step is written once, in `_q_split`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt

from .errors import VerificationFailure
from .series import Series
from .symbolic import AsymSeries, stirling_series


# _q_split sums ranges this short directly, four terms a step; summing Q(n)
# for n = 100..600 took 32.5 ms at 128 terms, 38 ms at 64 and at 256 and
# 45 ms at 32 (medians of 11 interleaved runs on one CPU), while n = 4096
# took 2.4-2.9 ms at each
_Q_LEAF = 128
# `q_head` sums a head of Q(n) only if it is at most this share of its n terms;
# at 256 bits a rounded count from the head took 0.95x the time of one from the
# whole sum at K = 0.81n, 0.85x at 0.76n and 0.7x at 0.67n
_HEAD_SHARE = 0.75


def _q_split(n: int, a: int, c: int) -> tuple[int, int]:
    """(P, T) over j in [a, c): P = prod (n-j), T = sum_{a<=m<c} prod_{a<=j<=m} (n-j) n**(c-1-m).

    Halves combine as P = P_lo P_hi and T = T_lo n**(c-b) + P_lo T_hi, so the
    big multiplications happen between operands of similar size (binary
    splitting; Haible and Papanikolaou 1998).  A leaf takes the steps
    p *= n-j; t = t n + p four at a time, in three products of a big int by
    a small one where four steps make eight: with x = n-j, t = t n**4 + p g
    and p *= f, where f = x(x-1)(x-2)(x-3) and
    g = ((x n + x(x-1)) n + x(x-1)(x-2)) n + f.  The 0-3 steps left over
    run one at a time.
    """
    if c - a <= _Q_LEAF:
        p, t = 1, 0
        n4 = n**4
        stop = c - (c - a) % 4
        for x in range(n - a, n - stop, -4):
            x2 = x * (x - 1)
            x3 = x2 * (x - 2)
            f = x3 * (x - 3)
            t = t * n4 + p * (((x * n + x2) * n + x3) * n + f)
            p *= f
        for j in range(stop, c):
            p *= n - j
            t = t * n + p
        return p, t
    b = (a + c) // 2
    p_lo, t_lo = _q_split(n, a, b)
    p_hi, t_hi = _q_split(n, b, c)
    return p_lo * p_hi, t_lo * n ** (c - b) + p_lo * t_hi


@lru_cache(maxsize=None)
def q_scaled(n: int) -> int:
    """n**n * Q(n) as an integer; the one place all of Q(n) is summed.

    Term k of n**n Q(n) is n!/(n-k)! n**(n-k), the previous one times
    (n-k+1)/n, so the sum is n**n + n T(1, n) with T from `_q_split`.
    """
    if n < 1:
        raise ValueError("Q(n) needs n >= 1")
    return n ** n + n * _q_split(n, 1, n)[1]


def q_head(n: int, prec: int) -> tuple[int, int, int] | None:
    """(K, P, T) with (P, T) = `_q_split(n, 1, K)`: a head of Q(n) that pins it to 2**-prec.

    Term m >= 1 of Q(n) - 1 is t_m = prod_{j<=m} (1 - j/n), so Q(n) = 1 +
    T / n**(K-1) + sum_{m>=K} t_m with t_{K-1} = P / n**(K-1).  From m = K
    on, t_m / t_{m-1} = 1 - m/n <= (n-K)/n, so the tail is at most
    t_{K-1} (n-K)/K, and for every K <= n

        n**(K-1) + T  <=  n**(K-1) Q(n)  <=  n**(K-1) + T + P (n-K) / K.

    K = isqrt(1.4 n (prec + b)) + 2, b the bit length of n, gives K (K-1) >
    1.4 n (prec + b), so t_{K-1} <= exp(-K(K-1)/2n) < 2**-prec / n; K = n
    if that is more.  None if K is more than `_HEAD_SHARE` of the n terms,
    where summing them all costs about as much.
    """
    if n < 1:
        raise ValueError("Q(n) needs n >= 1")
    length = min(isqrt(7 * n * (prec + n.bit_length()) // 5) + 2, n)
    return _head(n, length) if length <= _HEAD_SHARE * n else None


@lru_cache(maxsize=None)
def _head(n: int, length: int) -> tuple[int, int, int]:
    # cached only where a head is taken: the n that keep the whole sum add no entries
    return (length, *_q_split(n, 1, length))


def q_scaled_mod(n: int, head: tuple[int, int, int], modulus: int) -> int:
    """q_scaled(n) % modulus from a head (K, P, T) of `q_head`.

    The tail j = K..n-1 is taken in leaves [lo, hi) of at most `_Q_LEAF`
    terms, each a `_q_split(n, lo, hi)` joined to the running (p, t) modulo
    `modulus` as the product tree joins two halves.  Once p is 0 there, it
    stays 0 and the rest only multiplies t by n**(n-lo), so the walk stops at
    the first leaf that starts with p = 0.  At a prime n that never happens
    when n divides the modulus (as `TreePolyNormalForm.check_at`'s n m does):
    no factor n - j, 0 < j < n, is divisible by n, so every leaf is taken.
    """
    start, p, t = head
    p, t = p % modulus, t % modulus
    for lo in range(start, n, _Q_LEAF):
        if not p:
            t = t * pow(n, n - lo, modulus) % modulus
            break
        hi = min(lo + _Q_LEAF, n)
        leaf_p, leaf_t = _q_split(n, lo, hi)
        t = (t * pow(n, hi - lo, modulus) + p * leaf_t) % modulus
        p = p * leaf_p % modulus
    return (pow(n, n, modulus) + n * t) % modulus


def q_exact(n: int) -> Fraction:
    """Q(n) as an exact rational over the common denominator n**n."""
    return Fraction(q_scaled(n), n ** n)


def delta_log_series(order: int) -> Series:
    """Series of psi(d) = log(d**2 / (2(1-(1+d)e**(-d)))) around d = 0.

    The argument of the log tends to 1, so psi(0) = 0; the first
    coefficients are 2/3, -1/36, -1/810, ...
    """
    pad = order + 2
    expm = Series([Fraction((-1) ** i, factorial(i)) for i in range(pad + 1)])
    one_plus_d = Series([1, 1] + [0] * (pad - 1))
    inner = one_plus_d * expm  # (1+d) e**(-d) = 1 - d**2/2 + d**3/3 - ...
    shifted = [-2 * inner[i + 2] for i in range(order + 1)]
    g = Series(shifted)  # 2(1 - (1+d)e**(-d)) / d**2, constant term 1
    return -g.log()


def _difference_polynomial(k: int, order: int) -> list[int]:
    """Integer coefficients of E_k(u) = sum_r C(k,r)(-1)**r r prod_{i<r}(1-iu)."""
    out = [0] * (order + 1)
    prod = [1] + [0] * order
    for r in range(1, k + 1):
        if r > 1:
            for j in range(order, 0, -1):
                prod[j] -= (r - 1) * prod[j - 1]
        c = comb(k, r) * (-1) ** r * r
        for j in range(order + 1):
            out[j] += c * prod[j]
    return out


@lru_cache(maxsize=None)
def d_coefficients(order: int) -> tuple[Fraction, ...]:
    """Exact coefficients d_j with D(n) = sum_j d_j n**(-j) + O(n**-order-1)."""
    psi = delta_log_series(2 * order + 1)
    out = [Fraction(0)] * (order + 1)
    for k in range(1, 2 * order + 2):
        ek = _difference_polynomial(k, order)
        sign = (-1) ** k
        for j in range(order + 1):
            if ek[j]:
                out[j] += sign * psi[k] * ek[j]
    return tuple(out)


def d_asym(depth: int) -> AsymSeries:
    """D(n) as a half-grid expansion; only integer powers appear."""
    return AsymSeries.from_u_polynomial(d_coefficients(depth), 0, -(2 * depth + 1))


@lru_cache(maxsize=None)
def q_asym(depth: int) -> AsymSeries:
    """Expansion of Q(n), leading term xi/2 * n**(1/2).

    Built from the exact identity 2*Q = (Q+R) - D, where Q+R is the
    Stirling factor n! e**n / n**n; the identity is checked again on the
    symbolic objects after assembly and raises `VerificationFailure` if not.
    """
    stirl = stirling_series(depth)
    d = d_asym(depth // 2)
    q = (stirl - d).scale(Fraction(1, 2))
    recombined = q.scale(2) + d
    for h in range(recombined.lead, recombined.known_floor - 1, -1):
        if recombined.coefficient_at(h) != stirl.coefficient_at(h):
            raise VerificationFailure(
                f"2Q + D differs from the Stirling factor at n**({h}/2): "
                f"{recombined.coefficient_at(h)} != {stirl.coefficient_at(h)}"
            )
    return q.truncate(depth)
