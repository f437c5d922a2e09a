"""Least-squares recovery of expansion coefficients from exact counts.

The model is y(n) = sum_j b_j x**j with x = n**(-1/2) and y the exactly
computed normalized count.  The solve is orthogonal (Householder QR), never
normal equations, and runs at a configurable binary precision.  For
conditioning, x is mapped affinely onto [-1, 1] before solving and the
coefficients are mapped back by exact polynomial composition at working
precision.

The reflections run on mpmath's raw libmp tuples rather than mpf objects,
through the libmp calls mpf arithmetic itself makes, with mpmath's own
rounding at mp.prec.  The result is bit-identical to the mpf-object solve
kept in tests/oracles.py, which a property test checks.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import (
    fzero, mpf_div, mpf_ge, mpf_mul, mpf_mul_int, mpf_neg, mpf_sqrt, mpf_sub, mpf_sum, to_rational,
)

from ._record import Record
from .assembly import normalization
from .errors import IllConditioned, InsufficientPoints
from .symbolic import SymConst


def _to_fraction(x: mpmath.mpf) -> Fraction:
    x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x!r} to a fraction")
    return Fraction(*to_rational(x._mpf_))


def _qr_solve(rows: list[list[mpmath.mpf]], rhs: list[mpmath.mpf]) -> tuple[list[mpmath.mpf], mpmath.mpf, mpmath.mpf]:
    """Householder least squares; returns (solution, rms residual, cond).

    The reflections run column-major on libmp tuples (see the module
    docstring).  Below the diagonal the pivot column is never read again,
    so it is not written; v.v and v.(pivot column) reuse the rounded
    squares of the column norm.
    """
    prec, rnd = mpmath.mp._prec_rounding
    m = len(rows)
    p = len(rows[0])
    a = [[row[j]._mpf_ for row in rows] for j in range(p)]
    b = [y._mpf_ for y in rhs]
    for col in range(p):
        pivot = a[col]
        squares = [mpf_mul(e, e, prec, rnd) for e in pivot[col:]]
        norm = mpf_sqrt(mpf_sum(squares, prec, rnd), prec, rnd)
        if norm == fzero:
            raise IllConditioned(f"column {col} is numerically zero")
        alpha = mpf_neg(norm, prec, rnd) if mpf_ge(pivot[col], fzero) else norm
        v = pivot[col:]
        v[0] = mpf_sub(pivot[col], alpha, prec, rnd)
        squares[0] = mpf_mul(v[0], v[0], prec, rnd)
        vtv = mpf_sum(squares, prec, rnd)
        if vtv == fzero:
            continue
        # v . pivot column shares all but its first product with v . v
        squares[0] = mpf_mul(v[0], pivot[col], prec, rnd)
        f = mpf_div(mpf_mul_int(mpf_sum(squares, prec, rnd), 2, prec, rnd), vtv, prec, rnd)
        pivot[col] = mpf_sub(pivot[col], mpf_mul(f, v[0], prec, rnd), prec, rnd)
        for target in a[col + 1:] + [b]:
            w = target[col:]
            dot = mpf_sum([mpf_mul(vi, wi, prec, rnd) for vi, wi in zip(v, w)], prec, rnd)
            f = mpf_div(mpf_mul_int(dot, 2, prec, rnd), vtv, prec, rnd)
            target[col:] = [mpf_sub(wi, mpf_mul(f, vi, prec, rnd), prec, rnd) for vi, wi in zip(v, w)]
    make = mpmath.mp.make_mpf
    r = [[make(e) for e in column[:p]] for column in a]
    bt = [make(e) for e in b]
    diag = [abs(r[i][i]) for i in range(p)]
    cond = max(diag) / min(diag)
    x = [mpmath.mpf(0)] * p
    for i in range(p - 1, -1, -1):
        acc = bt[i] - mpmath.fsum(r[j][i] * x[j] for j in range(i + 1, p))
        x[i] = acc / r[i][i]
    rss = mpmath.fsum(bt[i] ** 2 for i in range(p, m))
    rms = mpmath.sqrt(rss / m)
    return x, rms, cond


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
    ns = list(range(n_min, n_max + 1))
    if len(ns) < 2:
        raise InsufficientPoints(f"the window n = {n_min}..{n_max} needs at least two points")
    if len(ns) < degree + 1:
        raise InsufficientPoints(f"{len(ns)} points cannot fix {degree + 1} coefficients")
    with mpmath.workprec(bits):
        xs = tuple(1 / mpmath.sqrt(n) for n in ns)
        ys = tuple(normalization("connected").exact(k, n, bits) for n in ns)
    return _fit(k, degree, n_min, xs, ys, bits)


def _fit(k: int, degree: int, n_min: int, xs: tuple, ys: tuple, bits: int) -> FitResult:
    """`lsq_fit`'s solve of ys at xs = n**(-1/2), n = n_min, n_min + 1, ..."""
    with mpmath.workprec(bits):
        x_lo, x_hi = min(xs), max(xs)
        halfspan = (x_hi - x_lo) / 2
        center = (x_hi + x_lo) / 2
        ss = [(x - center) / halfspan for x in xs]
        rows = []
        for s in ss:
            row = [mpmath.mpf(1)]
            for _ in range(degree):
                row.append(row[-1] * s)
            rows.append(row)
        sol, rms, cond = _qr_solve(rows, ys)
        if cond > mpmath.power(2, bits // 2):
            raise IllConditioned(
                f"condition estimate {mpmath.nstr(cond, 5)} exceeds 2**{bits // 2}"
            )
        # map back: b(s) with s = (x - center)/halfspan, by Horner over x-polys
        inv = 1 / halfspan
        lin = [-center * inv, inv]  # s as a polynomial in x
        acc = [mpmath.mpf(0)]
        for c in reversed(sol):
            nxt = [mpmath.mpf(0)] * (len(acc) + 1)
            for i, ai in enumerate(acc):
                nxt[i] += ai * lin[0]
                nxt[i + 1] += ai * lin[1]
            while len(nxt) > 1 and nxt[-1] == 0:
                nxt.pop()
            nxt[0] += c
            acc = nxt
        acc += [mpmath.mpf(0)] * (degree + 1 - len(acc))
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
    float.  Among qualifying candidates within tolerance the smaller
    denominator wins; on a denominator tie the plain rational is preferred.
    Returns None when nothing qualifies.
    """
    with mpmath.workprec(max(mpmath.mp.prec, 256)):
        x = mpmath.mpf(value)
        xi = mpmath.sqrt(2 * mpmath.pi)
        candidates = []
        for is_xi, target in ((0, x), (1, x / xi)):
            r = _to_fraction(target).limit_denominator(max_denominator)
            cand = SymConst.xi(r) if is_xi else SymConst.rational(r)
            err = abs(mpmath.mpf(r.numerator) / r.denominator * (xi if is_xi else 1) - x)
            if err <= tolerance and err * r.denominator**2 <= 0.01:
                candidates.append((r.denominator, is_xi, err, cand))
        if not candidates:
            return None
        candidates.sort(key=lambda t: (t[0], t[1]))
        return candidates[0][3]


def two_window_symbols(full: FitResult, max_denominator: int) -> list[SymConst | None]:
    """Symbolic readback of each estimate of `full`, or None where declined.

    `full` is refit on the upper half of its window, from the midpoint to
    the end, on its own values.  Truncation bias moves with the window, so
    the spread between the two estimates tracks it while the residuals
    cannot see it: the tolerance is ten times that spread, and a symbol
    counts only when both windows recover it.  When the half window has
    fewer than degree + 2 points there is no refit: the tolerance comes
    from the residual rms and the second check is skipped.
    """
    mid = (full.n_min + full.n_max) // 2
    half = None
    if mid + full.degree + 1 <= full.n_max:
        i = mid - full.n_min
        half = _fit(full.k, full.degree, mid, full.xs[i:], full.ys[i:], full.bits)
    out: list[SymConst | None] = []
    for j, est in enumerate(full.estimates):
        spread = full.residual_rms if half is None else abs(est - half.estimates[j])
        tol = float(spread) * 10 + 1e-30
        sym = reconstruct_symbolic(est, max_denominator, tolerance=tol)
        if sym is not None and half is not None:
            if reconstruct_symbolic(half.estimates[j], max_denominator, tolerance=tol) != sym:
                sym = None
        out.append(sym)
    return out
