"""Exact enumeration of labelled graphs refined by edge count.

The bivariate EGF of all graphs is g(w, z) = sum_n (1+w)^C(n,2) z**n / n!,
and c = log g generates connected graphs.  Extracting log g row by row uses
the vertex-1 component decomposition

    (1+w)^C(n,2) = sum_{j=1}^{n} C(n-1, j-1) * C_j(w) * (1+w)^C(n-j,2),

which determines the connected row polynomials C_n(w) = sum_m c(n,m) w**m
by integer arithmetic alone.  All w-polynomials are truncated at a shared
cap, high enough for every requested excess k = m - n.

Writing the connected EGF by excess, c(w, z) = sum_k w**(n+k)-diagonals,
gives the excess series W_k(z) = sum_n c(n, n+k) z**n / n!.  Each W_k with
k >= 1 is a rational function A_k(T) / (1-T)**(3k) of the tree function;
recover_ak reconstructs the numerator polynomial exactly from the series.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb

from . import _poly
from .errors import ResidualNonzero, UnderdeterminedSystem
from .series import Series, tree_function


def graph_egf(n_max: int, w_cap: int) -> tuple[tuple[int, ...], ...]:
    """Rows G_n(w) = (1+w)^C(n,2) truncated at w**w_cap, n = 0..n_max."""
    rows = []
    for n in range(n_max + 1):
        edges = comb(n, 2)
        rows.append(tuple(comb(edges, j) for j in range(w_cap + 1)))
    return tuple(rows)


@dataclass(frozen=True)
class WPolySeries:
    """Connected row polynomials C_n(w) mod w**(w_cap+1), n = 0..n_max."""

    n_max: int
    w_cap: int
    rows: tuple[tuple[int, ...], ...]

    def coefficient(self, n: int, m: int) -> int:
        """c(n, m), the number of connected graphs with n vertices, m edges."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"n={n} outside computed range 0..{self.n_max}")
        if m < 0 or m > comb(n, 2):
            return 0
        if m > self.w_cap:
            raise IndexError(f"m={m} beyond the w-truncation {self.w_cap}")
        return self.rows[n][m]


@lru_cache(maxsize=None)
def connected_rows(n_max: int, w_cap: int) -> WPolySeries:
    g = graph_egf(n_max, w_cap)
    width = w_cap + 1
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
    return WPolySeries(n_max, w_cap, tuple(rows))


@dataclass(frozen=True)
class CountTable:
    """Connected counts c(n, m) for 1 <= n <= n_max and m <= n + k_max."""

    n_max: int
    k_max: int
    entries: tuple[tuple[int, int, int], ...]  # (n, m, count), sorted

    def get(self, n: int, m: int) -> int:
        if m < n - 1 or m > comb(n, 2):
            return 0
        if not (1 <= n <= self.n_max and m <= n + self.k_max):
            raise KeyError(f"(n={n}, m={m}) outside table bounds")
        return self._index[(n, m)]

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {(n, m): c for n, m, c in self.entries}

    def csv_rows(self):
        yield "n,m,k,count"
        for n, m, c in self.entries:
            yield f"{n},{m},{m - n},{c}"


@lru_cache(maxsize=None)
def connected_counts(n_max: int, k_max: int) -> CountTable:
    """Exact table of c(n, m) for all m from n-1 up to n+k_max."""
    if n_max < 1 or k_max < -1:
        raise ValueError("need n_max >= 1 and k_max >= -1")
    w_cap = n_max + max(k_max, 0)
    rows = connected_rows(n_max, w_cap)
    entries = []
    for n in range(1, n_max + 1):
        for m in range(max(0, n - 1), min(n + k_max, comb(n, 2)) + 1):
            entries.append((n, m, rows.coefficient(n, m)))
    return CountTable(n_max, k_max, tuple(entries))


@lru_cache(maxsize=None)
def w_series(k: int, order: int) -> Series:
    """Excess EGF W_k(z) = sum_n c(n, n+k) z**n / n!.

    For k in {-1, 0, 1} this uses the closed forms in the tree function:

        W_-1 = T - T**2/2
        W_0  = -(log(1-T) + T + T**2/2) / 2
        W_1  = (6 T**4 - T**5) / 24 / (1-T)**3

    and the diagonal of the bivariate table for every k >= 2.
    """
    if k < -1:
        raise ValueError("excess below -1 is empty")
    t = tree_function(order)
    if k == -1:
        return t - (t * t).scale(Fraction(1, 2))
    if k == 0:
        logpart = (Series.one(order) - t).log()
        return (logpart + t + (t * t).scale(Fraction(1, 2))).scale(Fraction(-1, 2))
    if k == 1:
        t4 = t.pow(4)
        num = t4.scale(Fraction(6, 24)) - (t4 * t).scale(Fraction(1, 24))
        return num * (Series.one(order) - t).pow(-3)
    table = connected_counts(max(order, 1), k)
    coeffs = [Fraction(0)]
    f = 1
    for n in range(1, order + 1):
        f *= n
        coeffs.append(Fraction(table.get(n, n + k), f))
    return Series(coeffs)


@dataclass(frozen=True)
class AkPolynomial:
    """Numerator A_k with W_k = A_k(T) / (1-T)**(3k), exact coefficients."""

    k: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def at_one(self) -> Fraction:
        return _poly.evaluate(self.coeffs, 1)

    def derivative_at_one(self) -> Fraction:
        return _poly.evaluate(_poly.derivative(self.coeffs), 1)

    def evaluate(self, x: Fraction) -> Fraction:
        return _poly.evaluate(self.coeffs, x)


@lru_cache(maxsize=None)
def recover_ak(k: int, degree_bound: int | None = None, order: int | None = None) -> AkPolynomial:
    """Reconstruct A_k from the excess series by triangular elimination.

    S = W_k * (1-T)**(3k) is a polynomial in T; since T**d = z**d + ...,
    the coefficients alpha_d peel off in order.  The residual beyond the
    degree bound must vanish identically, which is checked, not assumed.
    """
    if k < 1:
        raise ValueError("numerator polynomials exist for k >= 1")
    if degree_bound is None:
        degree_bound = 3 * k + 2
    if order is None:
        order = degree_bound + 3 * k + 2
    if order < degree_bound:
        raise UnderdeterminedSystem(
            f"series order {order} cannot determine degree {degree_bound}"
        )
    t = tree_function(order)
    s = w_series(k, order) * (Series.one(order) - t).pow(3 * k)
    alphas = []
    resid = s
    tp = Series.one(order)
    for d in range(degree_bound + 1):
        a = resid[d]
        alphas.append(a)
        if a != 0:
            resid = resid - tp.scale(a)
        tp = tp * t
    for i in range(degree_bound + 1, order + 1):
        if resid[i] != 0:
            raise ResidualNonzero(
                f"W_{k} (1-T)^{3 * k} is not a degree-{degree_bound} polynomial "
                f"in T: residual {resid[i]} at z**{i}"
            )
    while alphas and alphas[-1] == 0:
        alphas.pop()
    return AkPolynomial(k, tuple(alphas))
