"""Exact enumeration of labelled graphs refined by edge count, and the
excess numerators A_k.

The bivariate EGF of all graphs is g(w, z) = sum_n (1+w)^C(n,2) z**n / n!,
and c = log g generates connected graphs.  Extracting log g row by row uses
the vertex-1 component decomposition

    (1+w)^C(n,2) = sum_{j=1}^{n} C(n-1, j-1) * C_j(w) * (1+w)^C(n-j,2),

which determines the connected row polynomials C_n(w) = sum_m c(n,m) w**m
by integer arithmetic alone.  All w-polynomials are truncated at a shared
cap, high enough for every requested excess k = m - n.  A row needs only
the rows above it and a coefficient only lower ones, so `connected_rows`
cuts a smaller table from the corner of a larger one built.  A CountTable reads
its counts straight from these rows; it feeds the `count` and `tables`
output and the small-n self-checks of `assembly.decompose` and `errata`.

Grouping the connected counts by excess gives the excess EGFs
W_k(z) = sum_n c(n, n+k) z**n / n!.  Each W_k with k >= 1 is a rational
function A_k(T) / (1-T)**(3k) of the tree function T, and A_k is a plain
`_poly` coefficient tuple.
recover_ak gets the numerators from E. M. Wright's excess recurrence ("The
number of connected sparsely edged graphs", J. Graph Theory 1977; see also
Janson, Knuth, Luczak and Pittel, "The birth of the giant component", 1993,
sections 3 and 8): with theta = z d/dz = T/(1-T) d/dT,

    2 (T d/dT + k + 1) W_{k+1}
        = theta**2 W_k - 3 theta W_k - 2k W_k + sum_{i+j=k} theta W_i theta W_j,

from 2(1+w) c_w = z**2 (c_zz + c_z**2) with c = sum_k w**k W_k(wz), and with
theta W_0 = T**3 / (2(1-T)**2).
It is exact polynomial algebra in T and never reads the count table, which
stays the independent route that `assembly.decompose` checks A_k against.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import _poly
from ._poly import Poly
from ._record import Record
from .errors import VerificationFailure


_built: list[tuple[tuple[int, ...], ...]] = []  # tables no later build covers


def connected_rows(n_max: int, w_cap: int) -> tuple[tuple[int, ...], ...]:
    """Connected row polynomials C_n(w) mod w**(w_cap+1), n = 0..n_max.

    Row n holds c(n, m) at index m, the number of connected graphs with n
    vertices and m edges, for every m <= w_cap.  The table is cut from one
    built with at least n_max + 1 rows and w_cap + 1 columns; only if there
    is none is it built, and the tables it covers are dropped.
    """
    for rows in _built:
        if len(rows) > n_max and len(rows[0]) > w_cap:
            return tuple(row[: w_cap + 1] for row in rows[: n_max + 1])
    rows = _build_rows(n_max, w_cap)
    _built[:] = [t for t in _built if len(t) > n_max + 1 or len(t[0]) > w_cap + 1] + [rows]
    return rows


connected_rows.cache_clear = _built.clear


def _build_rows(n_max: int, w_cap: int) -> tuple[tuple[int, ...], ...]:
    width = w_cap + 1
    # G_n(w) = (1+w)^C(n,2) truncated at w**w_cap
    g = [tuple(comb(comb(n, 2), j) for j in range(width)) for n in range(n_max + 1)]
    rows: list[tuple[int, ...]] = [(0,) * width]
    for n in range(1, n_max + 1):
        acc = list(g[n])
        for j in range(1, n):
            mult = comb(n - 1, j - 1)
            cj = rows[j]
            gr = g[n - j]
            for a, ca in enumerate(cj):
                if ca:
                    f = mult * ca
                    for b in range(width - a):
                        if gr[b]:
                            acc[a + b] -= f * gr[b]
        rows.append(tuple(acc))
    return tuple(rows)


class CountTable(Record):
    """Connected counts c(n, m) for 1 <= n <= n_max and m <= n + k_max."""

    n_max: int
    k_max: int
    rows: tuple[tuple[int, ...], ...]  # connected_rows(n_max, n_max + max(k_max, 0))

    def get(self, n: int, m: int) -> int:
        if m < n - 1 or m > comb(n, 2):
            return 0
        if not (1 <= n <= self.n_max and m <= n + self.k_max):
            raise KeyError(f"(n={n}, m={m}) outside table bounds")
        return self.rows[n][m]

    def entries(self):
        """(n, m, c(n, m)) for every m from n-1 to min(n + k_max, C(n,2)), by n then m."""
        for n in range(1, self.n_max + 1):
            for m in range(max(0, n - 1), min(n + self.k_max, comb(n, 2)) + 1):
                yield n, m, self.rows[n][m]


@lru_cache(maxsize=None)
def connected_counts(n_max: int, k_max: int) -> CountTable:
    """Exact table of c(n, m) for all m from n-1 up to n+k_max."""
    if n_max < 1 or k_max < -1:
        raise ValueError("need n_max >= 1 and k_max >= -1")
    return CountTable(n_max, k_max, connected_rows(n_max, n_max + max(k_max, 0)))


def _theta(f: list[int], s: int) -> list[int]:
    """theta (f / (1-T)**s) = T (f' (1-T) + s f) / (1-T)**(s+2); the numerator.

    The T**(m+1) coefficient is (m+1) f_{m+1} + (s-m) f_m, so integer
    numerators over a denominator stay over that denominator.
    """
    ext = list(f) + [0]
    return [0] + [(m + 1) * ext[m + 1] + (s - m) * ext[m] for m in range(len(f))]


def _wright_step(lower: list[Poly]) -> Poly:
    """A_{k+1} from A_1..A_k (k = len(lower)) by Wright's recurrence.

    With theta W_i = B_i / (1-T)**(3i+2), the right side of the recurrence is
    P / (1-T)**(3k+4) with

        P = T (B_k' (1-T) + (3k+2) B_k) - 3 (1-T)**2 B_k - 2k (1-T)**4 A_k
            + sum_{i+j=k} B_i B_j,

    and the left side is 2 sum_j [(j+k+1) a_j + (2k+3-j) a_{j-1}] T**j over
    the same power, so the a_j follow in order from p_0 .. p_{deg P - 1}.
    The one equation left over, at j = deg P, is checked.

    All of it runs on integer numerators: B_i over the least common
    denominator d_i of A_i (d_0 = 2), P over the lcm `den` of d_k and every
    d_i d_{k-i}, each product B_i B_j once per unordered pair, and a_j over
    2 den prod_{i<=j} (i+k+1), so one Fraction is built per coefficient.
    """
    k = len(lower)
    thetas = [([0, 0, 0, 1], 2)]  # theta W_0 = (T**3/2) / (1-T)**2
    for i, a in enumerate(lower, 1):
        nums, d = _poly.over_one_denominator(a)
        thetas.append((_theta(nums, 3 * i), d))
    b, db = thetas[k]
    # the terms in B_k and A_k alone, over d_k
    own = _theta(b, 3 * k + 2)
    _poly.add_into(own, _poly.convolve(b, [1, -2, 1]), -3)
    if k:  # nums is A_k over d_k, from the last pass of the loop
        _poly.add_into(own, _poly.convolve(nums, [1, -4, 6, -4, 1]), -2 * k)
    pairs = [(i, k - i) for i in range(k // 2 + 1)]
    den = lcm(db, *(thetas[i][1] * thetas[j][1] for i, j in pairs))
    p = [c * (den // db) for c in own]
    for i, j in pairs:
        (bi, di), (bj, dj) = thetas[i], thetas[j]
        _poly.add_into(p, _poly.convolve(bi, bj), den // (di * dj) * (1 if i == j else 2))
    p = _poly._strip(p)
    # a_j = num_j / (2 den prod_{i<=j} (i+k+1)), num_j = p_j prod_{i<j} (i+k+1) - (2k+3-j) num_{j-1}
    coeffs = []
    num, run = 0, 1
    for j in range(len(p) - 1):
        num = p[j] * run - (2 * k + 3 - j) * num
        run *= j + k + 1
        coeffs.append(Fraction(num, 2 * den * run))
    top = len(p) - 1
    # p_top = 2 (2k+3-top) a_{top-1}, over the denominator den * run
    if p[top] * run != (2 * k + 3 - top) * num:
        raise VerificationFailure(
            f"Wright's recurrence for A_{k + 1} is inconsistent at T**{top}: "
            f"{Fraction(p[top], den)} != {Fraction((2 * k + 3 - top) * num, den * run)}"
        )
    return tuple(coeffs)


@lru_cache(maxsize=None)
def recover_ak(k: int) -> Poly:
    """A_k by Wright's excess recurrence (Wright 1977), from A_1..A_{k-1}:

        2 (T d/dT + k) W_k = theta**2 W_{k-1} - 3 theta W_{k-1} - 2(k-1) W_{k-1}
                             + sum_{i+j=k-1} theta W_i theta W_j,

    with theta = z d/dz = T/(1-T) d/dT and theta W_0 = T**3 / (2(1-T)**2).
    Exact polynomial algebra on integer numerators: no count table, no
    truncated series and no degree bound; deg A_k = 3k + 2 comes out of the
    recurrence.
    Each step ends with the one equation the recurrence over-determines, and
    raises `VerificationFailure` if it fails.
    """
    if k < 1:
        raise ValueError("numerator polynomials exist for k >= 1")
    # ascending calls find every lower A cached, so they nest at most two deep
    return _wright_step([recover_ak(i) for i in range(1, k)])
