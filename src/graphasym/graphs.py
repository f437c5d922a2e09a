"""Exact enumeration of labelled graphs refined by edge count, and the
excess EGFs W_k split over powers of s = 1 - T.

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

The excess EGFs W_k(z) = sum_n c(n, n+k) z**n / n! split, for k >= 1, as
W_k = sum_j gamma_{k,j} s**(j-3k), j = 0..3k+2, in s = 1 - T with T the
tree function (`excess_split`); `recover_ak` re-expands the split to
A_k(T) = W_k (1-T)**(3k).  It comes from E. M. Wright's excess recurrence
(J. Graph Theory 1977; Janson, Knuth, Luczak and Pittel, "The birth of the
giant component", 1993, sections 3 and 8), from 2(1+w) c_w = z**2 (c_zz +
c_z**2) with c = sum_k w**k W_k(wz) and theta = z d/dz:

    2 (T d/dT + k + 1) W_{k+1}
        = theta**2 W_k - 3 theta W_k - 2k W_k + sum_{i+j=k} theta W_i theta W_j.

theta maps s**e to -e s**(e-2) + e s**(e-1), T d/dT maps it to
-e s**(e-1) + e s**e, and theta W_0 = (1-s)**3 / (2 s**2), so in the frame
s**(-3k-4) the s**(r-3k-4) coefficients are the equations

    2 [(3k+3-r) gamma_{k+1,r} + (r-2k-3) gamma_{k+1,r-1}] = rhs_r.

`_split_step` solves r <= 3k+2 forwards and r = 3k+6, 3k+5, 3k+4 backwards,
and checks the three left over: r = 3k+3, which holds no gamma_{3k+3}, and
r = 3k+7 and 3k+8, where rhs_r must vanish; `_split` caches each split as
integer numerators over one denominator and checks that W_{k+1} has no z**0
term.  The pair products theta W_i theta W_j, most of the work at large k,
are one integer multiplication each (`_poly.kronecker`).  The run never
reads the count table, the independent route that `assembly.decompose`
checks the split against.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from typing import Sequence

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


def connected_counts(n_max: int, k_max: int) -> CountTable:
    """Exact table of c(n, m) for all m from n-1 up to n+k_max."""
    if n_max < 1 or k_max < -1:
        raise ValueError("need n_max >= 1 and k_max >= -1")
    return CountTable(n_max, k_max, connected_rows(n_max, n_max + max(k_max, 0)))


_THETA_W0 = ([1, -3, 3, -1], 2)  # theta W_0 = (1-s)**3 / (2 s**2): numerators over 2 in the frame s**-2


def _theta_in_s(c: Sequence[int], f: int) -> list[int]:
    """theta of sum_r c_r s**(r-f), as its s**(r-f-2) coefficients (f-r) c_r - (f+1-r) c_{r-1}."""
    padded = [0, *c, 0]
    return [(f - r) * padded[r + 1] - (f + 1 - r) * padded[r] for r in range(len(c) + 1)]


def _split_step(lower: list[tuple[Sequence[int], int]]) -> tuple[tuple[int, ...], int]:
    """gamma_{k+1,0..3k+5} from gamma_1..gamma_k (k = len(lower)), each as numerators over one denominator.

    theta W_i has numerators b_i over d_i, the denominator of gamma_i (d_0 = 2),
    and rhs is over the lcm `den` of d_k and each d_i d_{k-i}.  rhs stops at
    r = 3k+6 when every b_i has its due length, so r = 3k+7 and 3k+8 see only a
    term past it (a wrong b_0, say); a wrong value below the top shows only
    where it reaches a leftover equation.  Each sweep keeps x_r as
    num_r / (2 den run_r), run_r the product of its divisors so far.  Over
    D = 2 den R, R the product of all of them, the gcd of D and every numerator
    leaves the least common denominator, since lcm_r(D / g_r) = D / gcd_r(g_r).
    """
    k = len(lower)
    thetas = [_THETA_W0] + [(_theta_in_s(nums, 3 * i), d) for i, (nums, d) in enumerate(lower, 1)]
    b, db = thetas[k]
    rhs = _theta_in_s(b, 3 * k + 2)  # theta**2 W_k - 3 theta W_k - 2k W_k, over d_k
    _poly.add_into(rhs, [0, 0, *b], -3)
    if k:
        _poly.add_into(rhs, [0, 0, 0, 0, *lower[-1][0]], -2 * k)
    pairs = [(i, k - i) for i in range(k // 2 + 1)]
    den = lcm(db, *(thetas[i][1] * thetas[j][1] for i, j in pairs))
    rhs = [c * (den // db) for c in rhs]
    for i, j in pairs:
        (bi, di), (bj, dj) = thetas[i], thetas[j]
        _poly.add_into(rhs, _poly.kronecker(bi, bj), den // (di * dj) * (1 if i == j else 2))
    rhs += [0] * (3 * k + 9 - len(rhs))

    def sweep(rows):
        """(num_r, run_r) for each row (r, pivot, other): 2 (pivot x_r + other x_before) = rhs_r / den."""
        num, run, solved = 0, 1, []
        for r, pivot, other in rows:
            num = rhs[r] * run - other * num
            run *= pivot
            solved.append((num, run))
        return solved

    # equation r holds (3k+3-r) gamma_r and (r-2k-3) gamma_{r-1}
    head = sweep([(r, 3 * k + 3 - r, r - 2 * k - 3) for r in range(3 * k + 3)])
    tail = sweep([(r, r - 2 * k - 3, 3 * k + 3 - r) for r in range(3 * k + 6, 3 * k + 3, -1)])
    num, run = head[-1]
    leftover = [(r, 0) for r in range(3 * k + 7, len(rhs))] + [(3 * k + 3, Fraction(k * num, den * run))]
    for r, lhs in leftover:
        if lhs != Fraction(rhs[r], den):
            raise VerificationFailure(
                f"Wright's recurrence for W_{k + 1} fails its leftover equation "
                f"at s**{r - 3 * k - 4}: {lhs} != {Fraction(rhs[r], den)}"
            )
    total = run * tail[-1][1]
    nums = [num * (total // run) for num, run in head + tail[::-1]]
    g = gcd(2 * den * total, *nums)
    return tuple(num // g for num in nums), 2 * den * total // g


@lru_cache(maxsize=None)
def _split(k: int) -> tuple[tuple[int, ...], int]:
    """gamma_{k,0..3k+2} as integer numerators over their least common denominator.

    W_k has no z**0 term, so sum_j gamma_j = A_k(0) must vanish (`VerificationFailure`
    if not).  Only this sees gamma_{k,3k}, the s**0 term, which the step solves from
    one equation that no leftover equation reads, and whose t_n(0) is 0 at every n >= 1.
    """
    if k < 1:
        raise ValueError("numerator polynomials exist for k >= 1")
    # ascending calls find every lower split cached, so they nest at most two deep
    nums, den = _split_step([_split(i) for i in range(1, k)])
    if sum(nums) != 0:
        raise VerificationFailure(f"the split of W_{k} has a z**0 term: A_{k}(0) = {Fraction(sum(nums), den)}")
    return nums, den


def excess_split(k: int) -> Poly:
    """gamma_{k,0..3k+2}: W_k = sum_j gamma_j s**(j-3k) with s = 1 - T, from Wright's recurrence run in s.

    Term j is t_n(3k-j) in `assembly.decompose`; gamma_0 = A_k(1) and gamma_1 = -A_k'(1).
    """
    nums, den = _split(k)
    return tuple(Fraction(c, den) for c in nums)


@lru_cache(maxsize=None)
def recover_ak(k: int) -> Poly:
    """A_k(T) = W_k (1-T)**(3k) = sum_j gamma_j (1-T)**j, of degree 3k+2, from the split of W_k.

    The split is Wright's recurrence run in s = 1 - T, whose step to W_k is
    solved in the frame s**(-3k-1) with its leftover equations r = 3k, 3k+4
    and 3k+5 checked (module docstring).  The Taylor shift runs on the split's
    integer numerators: pass i replaces c_i.. by their suffix sums, which
    leaves p(1+x), and x -> -x gives p(1-x).
    """
    nums, den = _split(k)
    c = list(nums)
    for i in range(len(c) - 1):
        c[i:] = list(accumulate(reversed(c[i:])))[::-1]
    return _poly._strip(tuple(Fraction(-x if j % 2 else x, den) for j, x in enumerate(c)))
