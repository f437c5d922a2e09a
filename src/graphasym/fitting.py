"""Least-squares recovery of expansion coefficients from exact counts.

The model is y(n) = sum_j b_j x**j with x = n**(-1/2) and y the exactly
computed normalized count.  The solve is orthogonal (Householder QR), never
normal equations, and runs at a configurable binary precision.  For
conditioning, x is mapped affinely onto [-1, 1] before solving and the
coefficients are mapped back by Horner's rule on `_poly.convolve`, at
working precision.

The abscissae, the design matrix and the whole solve run on mpmath's raw
libmp tuples (sign, mantissa, exponent, bitcount) rather than mpf objects;
mpf objects are made only for the p coefficients and a few scalars.  Most
of the solve is the products v_i w_i of each dot and the updates
w_i - f v_i of each reflection.  `_products` multiplies the mantissas
exactly, and `_reflected` subtracts `_products`' f v_i exactly, exponents
aligned; each rounds half-even to mp.prec once and strips trailing zeros.
mpmath's `mpf_mul` and `mpf_add` are correctly rounded, and `mp`'s rounding
is always round-half-even (it has no setter), so each step gives the tuple
that mpf arithmetic gives, bit for bit.  The whole solve is bit-identical
to the mpf-object solve kept in tests/oracles.py, which a property test
checks.

The dot sums stay on `mpf_sum`.  It drops a term that lies more than
2 prec bits below the running sum, or the sum below a term, by a test on
the tuples' exponents and bitcounts rather than on their values, so its
inputs must be the canonical tuples `mpf_mul` gives (odd mantissa, exact
bitcount); the kernels strip trailing zeros to keep them so.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath
from mpmath.libmp import (
    fone, from_int, fzero, mpf_add, mpf_div, mpf_ge, mpf_mul, mpf_mul_int, mpf_neg,
    mpf_rdiv_int, mpf_sqrt, mpf_sub, mpf_sum, to_rational,
)

from . import _poly
from ._record import Record
from .assembly import normalization
from .errors import IllConditioned, InsufficientPoints
from .symbolic import SymConst


def _to_fraction(x: mpmath.mpf) -> Fraction:
    x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x!r} to a fraction")
    return Fraction(*to_rational(x._mpf_))


# The kernels round an exact odd mantissa m of bc > prec bits to prec bits,
# half-even, with n = bc - prec.  m >> (n - 1) ends in the half bit.  For
# n > 1 the bits below the half bit include m's lowest bit, which is 1, so
# m is no tie, and adding the half bit and dropping it,
# ((m >> (n - 1)) + 1) >> 1, rounds to nearest.  For n == 1 the half bit is
# m's lowest, so m is a tie, rounded up only when m >> 1 is odd (m & 2),
# which needs no mask of the dropped bits.  A carry leaves 2**prec,
# whose stripped mantissa is 1 with bitcount 1 (`prec - z or 1`).  Input
# tuples are canonical (odd mantissa), so an exact product is odd, and so is
# a difference of two terms at different exponents; the one at equal
# exponents is stripped of its trailing zeros before it is rounded.


def _products(v: list[tuple], w: list[tuple], prec: int) -> list[tuple]:
    """[v_i w_i], each rounded half-even to prec: `mpf_mul`'s tuples.

    Runs once per column, with the per-element work inline: a call per
    element would cost more than the rounding it wraps.
    """
    out = []
    for (vs, vm, ve, _), (ws, wm, we, _) in zip(v, w):
        man = vm * wm
        if not man:
            out.append(fzero)
            continue
        exp = ve + we
        bc = man.bit_length()
        if bc > prec:
            n = bc - prec
            man = ((man >> (n - 1)) + 1) >> 1 if n > 1 or man & 2 else man >> 1
            exp += n
            bc = prec
            if not man & 1:
                z = (man & -man).bit_length() - 1
                man >>= z
                exp += z
                bc = prec - z or 1
        out.append((vs ^ ws, man, exp, bc))
    return out


def _reflected(w: list[tuple], f: tuple, v: list[tuple], prec: int) -> list[tuple]:
    """[w_i - f v_i]: `mpf_sub(w_i, mpf_mul(f, v_i))`, two half-even roundings.

    d_i = f v_i comes rounded from `_products`, and each w_i - d_i, d_i = 0
    included, is exact before its one rounding; `mpf_add` stands a sticky
    unit in for a term far below the other, which rounds alike for terms of
    at most prec bits, the only ones `_qr_solve` reads.
    """
    out = []
    for (ws, wm, we, _), (ds, dm, de, dbc) in zip(w, _products([f] * len(v), v, prec)):
        # x * 2**exp = w_i - d_i exactly
        if dm:
            if not wm:
                out.append((ds ^ 1, dm, de, dbc))
                continue
            d = -dm if ds else dm
            x = -wm if ws else wm
            off = we - de
            if off >= 0:
                x = (x << off) - d
                exp = de
            else:
                x -= d << -off
                exp = we
        elif wm:
            x = -wm if ws else wm
            exp = we
        else:
            out.append(fzero)
            continue
        sign = 0
        if x < 0:
            sign = 1
            x = -x
        elif not x:
            out.append(fzero)
            continue
        if not x & 1:  # equal exponents: both terms odd
            z = (x & -x).bit_length() - 1
            x >>= z
            exp += z
        bc = x.bit_length()
        if bc > prec:
            n = bc - prec
            x = ((x >> (n - 1)) + 1) >> 1 if n > 1 or x & 2 else x >> 1
            exp += n
            bc = prec
            if not x & 1:
                z = (x & -x).bit_length() - 1
                x >>= z
                exp += z
                bc = prec - z or 1
        out.append((sign, x, exp, bc))
    return out


def _qr_solve(rows: list[tuple], rhs: list[tuple]) -> tuple[list[mpmath.mpf], mpmath.mpf, mpmath.mpf]:
    """Householder least squares; returns (solution, rms residual, cond).

    `rows` and `rhs` hold the raw libmp tuples `_fit` builds: finite, of at
    most mp.prec bits each, and left unchanged.  The kernels would read inf
    or nan, whose mantissa is 0, as zero.  The reflections run
    column-major on libmp tuples, each product and update through the
    kernels, and each rounds as mpf arithmetic at mp.prec would (see the
    module docstring).  Below the diagonal the pivot column is never read
    again, so it is not written; v.v and v.(pivot column) reuse the
    rounded squares of the column norm.  Back substitution, cond and the
    residual run on tuples too, with the libmp calls mpf arithmetic makes.
    """
    prec, rnd = mpmath.mp._prec_rounding
    m = len(rows)
    p = len(rows[0])
    a = [list(column) for column in zip(*rows)]
    b = list(rhs)
    for col in range(p):
        pivot = a[col]
        v = pivot[col:]
        squares = _products(v, v, prec)
        norm = mpf_sqrt(mpf_sum(squares, prec, rnd), prec, rnd)
        if norm == fzero:
            raise IllConditioned(f"column {col} is numerically zero")
        alpha = mpf_neg(norm, prec, rnd) if mpf_ge(pivot[col], fzero) else norm
        v[0] = mpf_sub(pivot[col], alpha, prec, rnd)
        squares[0] = mpf_mul(v[0], v[0], prec, rnd)
        # v.v > 0, so it is never a zero divisor: alpha has the sign
        # opposite to the pivot's, so |v_0| = |pivot| + norm > 0, and
        # mpf_sum of nonnegative squares never drops its largest term
        vtv = mpf_sum(squares, prec, rnd)
        # v . pivot column shares all but its first product with v . v
        squares[0] = mpf_mul(v[0], pivot[col], prec, rnd)
        f = mpf_div(mpf_mul_int(mpf_sum(squares, prec, rnd), 2, prec, rnd), vtv, prec, rnd)
        pivot[col] = mpf_sub(pivot[col], mpf_mul(f, v[0], prec, rnd), prec, rnd)
        for target in a[col + 1:] + [b]:
            w = target[col:]
            dot = mpf_sum(_products(v, w, prec), prec, rnd)
            f = mpf_div(mpf_mul_int(dot, 2, prec, rnd), vtv, prec, rnd)
            target[col:] = _reflected(w, f, v, prec)
    make = mpmath.mp.make_mpf
    diag = [abs(make(a[i][i])) for i in range(p)]
    cond = max(diag) / min(diag)
    x = [fzero] * p
    for i in range(p - 1, -1, -1):
        dot = mpf_sum([mpf_mul(a[j][i], x[j], prec, rnd) for j in range(i + 1, p)], prec, rnd)
        x[i] = mpf_div(mpf_sub(b[i], dot, prec, rnd), a[i][i], prec, rnd)
    rss = mpf_sum(_products(b[p:], b[p:], prec), prec, rnd)
    rms = mpf_sqrt(mpf_div(rss, from_int(m), prec, rnd), prec, rnd)
    return [make(e) for e in x], make(rms), cond


class FitResult(Record):
    """Estimated coefficients of n**(-j/2), j = 0..degree."""

    k: int
    degree: int
    n_min: int
    n_max: int
    npoints: int
    bits: int
    estimates: tuple[mpmath.mpf, ...]
    residual_rms: mpmath.mpf
    condition: mpmath.mpf
    xs: tuple[mpmath.mpf, ...]  # n**(-1/2) for n = n_min..n_max
    ys: tuple[mpmath.mpf, ...]  # the normalized exact values at those n


def lsq_fit(
    k: int,
    degree: int,
    n_min: int,
    n_max: int,
    bits: int = 256,
) -> FitResult:
    """Fit c(n, n+k) / n**(n + (3k-1)/2) by a polynomial in n**(-1/2)."""
    if n_min < 1:
        raise ValueError("fits need n >= 1")
    if degree < 0:
        raise ValueError("the degree must be nonnegative")
    if bits < 53:
        raise ValueError("fits need at least 53 bits of precision")
    # column 0 is all ones and every s in [-1, 1], so |R_00| = sqrt(m) and, by
    # the monic Chebyshev bound, |R_dd| <= sqrt(m) 2**(1-d): cond >= 2**(d-1)
    if degree - 1 > bits // 2:
        raise IllConditioned(f"degree {degree}: condition estimate >= 2**{degree - 1} exceeds 2**{bits // 2}")
    ns = list(range(n_min, n_max + 1))
    if len(ns) < 2:
        raise InsufficientPoints(f"the window n = {n_min}..{n_max} needs at least two points")
    if len(ns) < degree + 1:
        raise InsufficientPoints(f"{len(ns)} points cannot fix {degree + 1} coefficients")
    # c(n, n+k) = 0 where n+k > n(n-1)/2, and n(n-1)/2 - n never falls as n
    # grows: if the window's last count is 0, so is every one before it
    if n_max * (n_max - 1) // 2 < n_max + k:
        first = (3 + isqrt(9 + 8 * k)) // 2
        first += first * (first - 1) // 2 < first + k
        raise InsufficientPoints(
            f"c(n, n+{k}) is 0 for every n <= {n_max}; the first nonzero count is at n = {first}"
        )
    with mpmath.workprec(bits):
        prec, rnd = mpmath.mp._prec_rounding
        make = mpmath.mp.make_mpf
        # 1 / mpmath.sqrt(n), through the libmp calls it makes
        xs = tuple(make(mpf_rdiv_int(1, mpf_sqrt(from_int(n), prec, rnd), prec, rnd)) for n in ns)
        ys = tuple(normalization("connected").exact(k, n, bits) for n in ns)
    return _fit(k, degree, n_min, xs, ys, bits)


def _fit(k: int, degree: int, n_min: int, xs: tuple, ys: tuple, bits: int) -> FitResult:
    """`lsq_fit`'s solve of ys at xs = n**(-1/2), n = n_min, n_min + 1, ..."""
    with mpmath.workprec(bits):
        prec, rnd = mpmath.mp._prec_rounding
        # the design matrix on libmp tuples: s = (x - center) / halfspan
        # through the libmp calls the mpf expression makes, and its powers
        # column by column through `_products`, which gives `mpf_mul`'s tuples
        x_lo, x_hi = min(xs)._mpf_, max(xs)._mpf_
        two = from_int(2)
        halfspan = mpf_div(mpf_sub(x_hi, x_lo, prec, rnd), two, prec, rnd)
        center = mpf_div(mpf_add(x_hi, x_lo, prec, rnd), two, prec, rnd)
        s = [mpf_div(mpf_sub(x._mpf_, center, prec, rnd), halfspan, prec, rnd) for x in xs]
        columns = [[fone] * len(xs)]
        for _ in range(degree):
            columns.append(_products(columns[-1], s, prec))
        sol, rms, cond = _qr_solve(list(zip(*columns)), [y._mpf_ for y in ys])
        if cond > mpmath.power(2, bits // 2):
            raise IllConditioned(
                f"condition estimate {mpmath.nstr(cond, 5)} exceeds 2**{bits // 2}"
            )
        # map back: b(s) with s = (x - center)/halfspan, by Horner over x-polys
        inv = 1 / mpmath.mp.make_mpf(halfspan)
        lin = [-mpmath.mp.make_mpf(center) * inv, inv]  # s as a polynomial in x
        acc = [sol[-1]]
        for c in reversed(sol[:-1]):
            acc = _poly.convolve(acc, lin)
            acc[0] += c
        return FitResult(
            k=k,
            degree=degree,
            n_min=n_min,
            n_max=n_min + len(xs) - 1,
            npoints=len(xs),
            bits=bits,
            estimates=tuple(acc),
            residual_rms=+rms,
            condition=+cond,
            xs=xs,
            ys=ys,
        )


def reconstruct_symbolic(
    value: mpmath.mpf, max_denominator: int, tolerance: float = 1e-8
) -> SymConst | None:
    """Match a float against p/q or (p/q)*xi with bounded denominator.

    A candidate p/q only counts when err * q**2 <= 1/100, i.e. when the value
    sits at least 100x closer to p/q than the generic spacing of denominator-q
    rationals; otherwise any wide tolerance would "identify" an arbitrary
    float.  The nearest rival of 0 is 1/max_denominator, so 0 counts only
    when err * max_denominator <= 1/100.  Among qualifying candidates within
    tolerance the smaller denominator wins; on a denominator tie the plain
    rational is preferred.  Returns None when nothing qualifies.
    """
    with mpmath.workprec(max(mpmath.mp.prec, 256)):
        x = mpmath.mpf(value)
        xi = mpmath.sqrt(2 * mpmath.pi)
        candidates = []
        for is_xi, target in ((0, x), (1, x / xi)):
            r = _to_fraction(target).limit_denominator(max_denominator)
            cand = SymConst.xi(r) if is_xi else SymConst.rational(r)
            err = abs(mpmath.mpf(r.numerator) / r.denominator * (xi if is_xi else 1) - x)
            if err <= tolerance and err * (r.denominator**2 if r else max_denominator) <= 0.01:
                candidates.append((r.denominator, is_xi, err, cand))
        if not candidates:
            return None
        candidates.sort(key=lambda t: (t[0], t[1]))
        return candidates[0][3]


def two_window_symbols(full: FitResult, max_denominator: int) -> list[SymConst | None]:
    """Symbolic readback of each estimate of `full`, or None where declined.

    `full` is refit on its upper window, from mid = (n_min + n_max) // 2 to
    n_max, on its own values.  Truncation bias moves with the window, so the
    spread between the two estimates tracks it while the residuals cannot
    see it: the tolerance is ten times that spread, and a symbol counts only
    when both windows recover it.  The refit is the only certificate: when
    the upper window is not strictly smaller (mid = n_min) or has fewer than
    degree + 2 points, every estimate is declined.
    """
    mid = (full.n_min + full.n_max) // 2
    if mid == full.n_min or mid + full.degree + 1 > full.n_max:
        return [None] * len(full.estimates)
    i = mid - full.n_min
    half = _fit(full.k, full.degree, mid, full.xs[i:], full.ys[i:], full.bits)
    out: list[SymConst | None] = []
    for est, other in zip(full.estimates, half.estimates):
        tol = float(abs(est - other)) * 10 + 1e-30
        sym = reconstruct_symbolic(est, max_denominator, tolerance=tol)
        if sym is not None and reconstruct_symbolic(other, max_denominator, tolerance=tol) != sym:
            sym = None
        out.append(sym)
    return out
