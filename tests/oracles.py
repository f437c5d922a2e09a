"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against different identities (or by
plain exhaustion) than the library code, so agreement is meaningful.  The
EGF route to t_n(y) (t_series), the checkers that read library series against
an identity (t_recurrence_check, q_egf_check), the expansion of t_n(y) read
off its normal form (t_asym) and the JSON decoders live here too: nothing in
the package calls them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import mpmath

from graphasym import (
    AsymSeries,
    Series,
    SymConst,
    egf_coefficient,
    exact_count_via_t,
    exact_total,
    q_exact,
    t_normal_form,
    tree_function,
)
from graphasym.errors import ConstantTermError, IllConditioned, VerificationFailure


def brute_force_connected(n: int, m: int) -> int:
    """Count connected labelled graphs on n nodes with m edges by exhaustion.

    Only sane for n <= 7 (2**21 edge subsets).
    """
    if n == 1:
        return 1 if m == 0 else 0
    edges = list(combinations(range(n), 2))
    total = 0
    for subset in combinations(edges, m):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in subset:
            parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            total += 1
    return total


def connected_counts_via_log(n_max: int, w_cap: int) -> list[list[Fraction]]:
    """Rows of C(z, w) = log G(z, w) computed through C' = G'/G.

    Returns r with r[n][m] = c(n, m)/n! for m <= w_cap.  Uses a genuine
    series reciprocal followed by one product and a term-wise integration,
    rather than the component-rooting recurrence the library uses.
    """
    wz = w_cap + 1

    def wmul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * wz
        for a, pa in enumerate(p):
            if not pa:
                continue
            for b in range(wz - a):
                qb = q[b]
                if qb:
                    out[a + b] += pa * qb
        return out

    # g[n][m] = binom(binom(n,2), m)/n!, the EGF of all graphs (g[0] = 1).
    g: list[list[Fraction]] = []
    for n in range(n_max + 1):
        fn = factorial(n)
        row = [Fraction(comb(comb(n, 2), m), fn) for m in range(wz)]
        g.append(row)

    # inv = 1/G in the z-direction (coefficients are w-polynomials).
    inv: list[list[Fraction]] = [[Fraction(0)] * wz for _ in range(n_max + 1)]
    inv[0][0] = Fraction(1)
    for n in range(1, n_max + 1):
        acc = [Fraction(0)] * wz
        for j in range(1, n + 1):
            prod = wmul(g[j], inv[n - j])
            for m in range(wz):
                acc[m] -= prod[m]
        inv[n] = acc

    # C' = G' * (1/G); integrate: c[n] = (G' * inv)[n-1] / n.
    c: list[list[Fraction]] = [[Fraction(0)] * wz for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        acc = [Fraction(0)] * wz
        for j in range(0, n):  # (G')_j = (j+1) g_{j+1}
            gp = [(j + 1) * x for x in g[j + 1]]
            prod = wmul(gp, inv[n - 1 - j])
            for m in range(wz):
                acc[m] += prod[m]
        c[n] = [x / n for x in acc]
    return c


def q_direct(n: int) -> Fraction:
    """Ramanujan's Q as a literal sum of falling-factorial ratios."""
    total = Fraction(0)
    for k in range(1, n + 1):
        num = 1
        for i in range(k):
            num *= n - i
        total += Fraction(num, n**k)
    return total


def q_scaled_by_loop(n: int) -> int:
    """n**n Q(n) summed term by term: term k is the previous one times (n-k+1)/n."""
    t = n**n
    total = 0
    for k in range(1, n + 1):
        t = t * (n - k + 1) // n  # exact: n**(n-k) divides t * (n-k+1)
        total += t
    return total


# a fixed prime for residue checks of values too long to compare cheaply
PRIME = 2**61 - 1


def q_scaled_mod(n: int, p: int = PRIME) -> int:
    """n**n Q(n) modulo p by the plain O(n) loop.

    n**n Q(n) = sum_{k=1}^{n} n!/(n-k)! n**(n-k), read as a Horner scheme in
    n over the falling factorials n!/(n-k)!.
    """
    acc, falling = 0, 1
    for k in range(1, n + 1):
        falling = falling * (n - k + 1) % p
        acc = (acc * n + falling) % p
    return acc


def r_numeric(n: int, bits: int = 256) -> mpmath.mpf:
    """R(n) = sum_{k>=0} n**k n!/(n+k)! by direct summation of its convergent series."""
    if n < 1:
        raise ValueError("R(n) needs n >= 1")
    with mpmath.workprec(bits + 64):
        term = mpmath.mpf(1)
        total = mpmath.mpf(0)
        k = 0
        eps = mpmath.mpf(2) ** (-(bits + 48))
        while True:
            total += term
            k += 1
            term = term * n / (n + k)
            # positive terms; once k > n the tail is below term * n / (k - n)
            if k > n and term * n / (k - n) < eps * total:
                break
        return +total


def d_numeric(n: int, bits: int = 256) -> mpmath.mpf:
    """D(n) = R(n) - Q(n) at the requested precision."""
    q = q_exact(n)
    with mpmath.workprec(bits + 64):
        qv = mpmath.mpf(q.numerator) / q.denominator
        return +(r_numeric(n, bits) - qv)


def q_egf_check(order: int) -> bool:
    """Verify sum_n Q(n) n**(n-1) z**n / n! = -log(1 - T) through z**order."""
    lhs = [Fraction(0)]
    for n in range(1, order + 1):
        lhs.append(q_exact(n) * Fraction(n ** (n - 1), factorial(n)))
    rhs = -(Series.one(order) - tree_function(order)).log()
    for n in range(order + 1):
        if lhs[n] != rhs[n]:
            raise VerificationFailure(
                f"Q generating function mismatch at z**{n}: {lhs[n]} != {rhs[n]}"
            )
    return True


@lru_cache(maxsize=None)
def t_series(y: int, order: int) -> Series:
    """EGF sum_n t_n(y) z**n / n! = (1 - T)**(-y), exact through z**order, by |y| products."""
    base = Series.one(order) - tree_function(order)
    factor = base.inverse() if y > 0 else base
    out = Series.one(order)
    for _ in range(abs(y)):
        out = out * factor
    return out


def t_asym(y: int, depth: int) -> AsymSeries:
    """Expansion of t_n(y) / n**n on the half-integer grid, depth slots below its lead."""
    if y == 0:
        return AsymSeries.zero(-depth)
    nf = t_normal_form(y)
    # t_n(y) / n**(n-1) leads with n**((y+1)/2) for y >= 1, and for y < 0 with
    # the lowest power of 1/n that E_{|y|} holds
    lead = y + 1 if y > 0 else -2 * next(i for i, c in enumerate(nf.e) if c)
    return nf.expansion(lead - depth).shift(-2).truncate(depth)


def t_recurrence_check(n_max: int, y_min: int, y_max: int) -> bool:
    """Verify y t_n(y+2) = n t_n(y) + y t_n(y+1) on the series route everywhere."""
    series = {y: t_series(y, n_max) for y in range(y_min, y_max + 3)}
    for y in range(y_min, y_max + 1):
        if y == 0:
            continue
        for n in range(1, n_max + 1):
            lhs = egf_coefficient(series[y + 2], n)
            rhs = (
                Fraction(n, y) * egf_coefficient(series[y], n)
                + egf_coefficient(series[y + 1], n)
            )
            if lhs != rhs:
                raise VerificationFailure(
                    f"tree recurrence fails at n={n}, y={y}: {lhs} != {rhs}"
                )
    return True


def evaluate_by_slots(s: AsymSeries, n: int, bits: int) -> mpmath.mpf:
    """The value at n of all of s, summed slot by slot at `bits`.

    The per-cut reference for `AsymSeries.partial_sums`, whose entry d must
    equal this on s.truncate(d) bit for bit.
    """
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for j, c in enumerate(s.coeffs):
            if c.rat:
                total += c.evaluate(bits) * mpmath.power(n, mpmath.mpf(s.lead - j) / 2)
        return total


def sym_const_from_json(d: dict) -> SymConst:
    """Decode `SymConst.to_json_dict`: no term for zero, else one term rat * xi**b with no pi."""
    if not d["terms"]:
        return SymConst.zero()
    (t,) = d["terms"]
    if int(t["pi"]) != 0:
        raise ValueError(f"a constant with a power of pi: {t}")
    r = Fraction(t["rat"])
    return SymConst.xi(r) if int(t["xi"]) else SymConst.rational(r)


def asym_series_from_json(d: dict) -> AsymSeries:
    """Decode `AsymSeries.to_json_dict`."""
    return AsymSeries.build(int(d["lead"]), [sym_const_from_json(c) for c in d["coeffs"]])


def t_by_recurrence(n: int, y: int) -> Fraction:
    """Tree polynomial t_n(y) by the two-step recurrence y t(y+2) = n t(y) + y t(y+1).

    Anchored at t_n(0) = 0, t_n(1) = n**n and t_n(2) = n**n (1 + Q(n)), it runs
    upward for y >= 3 and downward, as t(y) = y (t(y+2) - t(y+1)) / n, for y < 0.
    """
    t = {0: Fraction(0), 1: Fraction(n**n), 2: n**n * (1 + q_direct(n))}
    for v in range(3, y + 1):
        t[v] = (n * t[v - 2] + (v - 2) * t[v - 1]) / (v - 2)
    for v in range(-1, y - 1, -1):
        t[v] = v * (t[v + 2] - t[v + 1]) / n
    return t[y]


def unicyclic_count(n: int) -> int:
    """c(n, n) by the cycle-and-forest sum (1/2) sum_{j>=3} n!/(n-j)! n**(n-j-1).

    A connected graph with as many edges as nodes has exactly one cycle.  Its
    j nodes can be placed on the cycle in n!/((n-j)! 2j) ways, and the other
    n - j nodes hang off it as a forest of j rooted trees in j n**(n-j-1) ways.
    """
    if n < 3:
        return 0
    total = 0
    term = n * (n - 1) * (n - 2) * n ** (n - 3)  # n!/(n-j)! n**(n-j) at j = 3
    for j in range(3, n + 1):
        total += term
        term = term * (n - j) // n
    return total // (2 * n)


def unicyclic_probability(n: int) -> Fraction:
    """Share of graphs on n nodes with n edges that are connected."""
    return Fraction(unicyclic_count(n), comb(comb(n, 2), n))


def exact_probability(n: int, k: int) -> Fraction:
    """P(n, n+k) = c/g as a reduced fraction; the package rounds c/g unreduced."""
    g = exact_total(n, k)
    if g == 0:
        raise ValueError(f"no graphs with n={n}, m={n + k}")
    return Fraction(exact_count_via_t(n, k), g)


def exact_value(kind: str, n: int, k: int) -> Fraction:
    """The exact count (`connected`, `total`) or probability at (n, n+k)."""
    if kind == "connected":
        return Fraction(exact_count_via_t(n, k))
    if kind == "total":
        return Fraction(exact_total(n, k))
    if kind == "probability":
        return exact_probability(n, k)
    raise ValueError(f"unknown kind {kind!r}")


def normalization_by_mpf(kind: str, k: int, n: int, bits: int) -> mpmath.mpf:
    """The normalization of `kind` at (n, n+k) written with mpf objects under `workprec(bits)`.

    The object-level form of `Normalization.evaluate`, which makes the same
    libmp calls on raw tuples and must match this bit for bit.
    """
    with mpmath.workprec(bits):
        nn = mpmath.mpf(n)
        if kind == "connected":
            return mpmath.power(nn, n + mpmath.mpf(3 * k - 1) / 2)
        if kind == "total":
            return (
                mpmath.sqrt(2 / mpmath.pi)
                * mpmath.exp(nn - 2)
                * mpmath.power(nn / 2, n)
                * mpmath.power(nn, mpmath.mpf(2 * k - 1) / 2)
            )
        if kind == "probability":
            return (
                mpmath.power(2, n)
                * mpmath.exp(2 - nn)
                * mpmath.power(nn, mpmath.mpf(k) / 2)
                * mpmath.sqrt(2 * mpmath.pi)
            )
    raise ValueError(f"unknown kind {kind!r}")


def round_to_bits(x: Fraction, bits: int) -> tuple[int, int]:
    """(man, exp) with man * 2**exp the `bits`-bit float nearest x, ties to even.

    Integers only: one floor division of x scaled to `bits` or `bits` + 1
    integer bits, then twice the remainder against the divisor.
    """
    if x == 0:
        return 0, 0
    a, b = abs(x.numerator), x.denominator

    def scaled(shift: int) -> tuple[int, int, int]:
        num, den = (a << shift, b) if shift >= 0 else (a, b << -shift)
        return (*divmod(num, den), den)

    # a/b lies in [2**(e-1), 2**(e+1)) for e = len(a) - len(b)
    shift = bits - (a.bit_length() - b.bit_length())
    q, r, den = scaled(shift)
    if q.bit_length() > bits:
        shift -= 1
        q, r, den = scaled(shift)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    if q.bit_length() > bits:  # rounded up to 2**bits
        q >>= 1
        shift -= 1
    return (q if x > 0 else -q), -shift


def qr_solve_by_mpf(rows: list[list[mpmath.mpf]], rhs: list[mpmath.mpf]) -> tuple[list[mpmath.mpf], mpmath.mpf, mpmath.mpf]:
    """Householder least squares on mpf objects; returns (solution, rms residual, cond).

    The object-level form of `fitting._qr_solve`, which runs the same
    operations on raw libmp tuples and must match this bit for bit.
    """
    m = len(rows)
    p = len(rows[0])
    a = [row[:] for row in rows]
    b = rhs[:]
    for col in range(p):
        norm = mpmath.sqrt(mpmath.fsum(a[i][col] ** 2 for i in range(col, m)))
        if norm == 0:
            raise IllConditioned(f"column {col} is numerically zero")
        alpha = -norm if a[col][col] >= 0 else norm
        v = [mpmath.mpf(0)] * m
        v[col] = a[col][col] - alpha
        for i in range(col + 1, m):
            v[i] = a[i][col]
        vtv = mpmath.fsum(v[i] ** 2 for i in range(col, m))
        if vtv == 0:
            continue
        for jcol in range(col, p):
            dot = mpmath.fsum(v[i] * a[i][jcol] for i in range(col, m))
            f = 2 * dot / vtv
            for i in range(col, m):
                a[i][jcol] -= f * v[i]
        dot = mpmath.fsum(v[i] * b[i] for i in range(col, m))
        f = 2 * dot / vtv
        for i in range(col, m):
            b[i] -= f * v[i]
    diag = [abs(a[i][i]) for i in range(p)]
    cond = max(diag) / min(diag)
    x = [mpmath.mpf(0)] * p
    for i in range(p - 1, -1, -1):
        acc = b[i] - mpmath.fsum(a[i][j] * x[j] for j in range(i + 1, p))
        x[i] = acc / a[i][i]
    rss = mpmath.fsum(b[i] ** 2 for i in range(p, m))
    rms = mpmath.sqrt(rss / m)
    return x, rms, cond


def fit_by_mpf(xs: tuple, ys: tuple, degree: int, bits: int) -> tuple[list[mpmath.mpf], mpmath.mpf, mpmath.mpf]:
    """`fitting._fit`'s (estimates, rms residual, cond) on mpf objects, for a fit it accepts.

    The design matrix in s = (x - center) / halfspan by mpf operations, the
    solve by `qr_solve_by_mpf`, and the map back to powers of x by Horner's
    rule over x-polynomials written out: each step multiplies by s, strips
    exact trailing zeros and adds the next coefficient, and the result is
    padded with zeros to degree + 1 terms.
    """
    with mpmath.workprec(bits):
        x_lo, x_hi = min(xs), max(xs)
        halfspan = (x_hi - x_lo) / 2
        center = (x_hi + x_lo) / 2
        rows = []
        for x in xs:
            s = (x - center) / halfspan
            row = [mpmath.mpf(1)]
            for _ in range(degree):
                row.append(row[-1] * s)
            rows.append(row)
        sol, rms, cond = qr_solve_by_mpf(rows, list(ys))
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
        return acc, rms, cond


def ak_slopes_at_one(order: int) -> list[Fraction]:
    """[u**k] F(u) / E(u) for k = 0..order, a checked conjecture for A_k'(1).

    E(u) = sum_r e_r u**r with e_r = (6r)! / (2**(5r) 3**(2r) (3r)! (2r)!),
    whose log gives A_k(1) (Janson, Knuth, Luczak and Pittel 1993), and
    F(u) = sum_r e_r r (6r+13) / (6r-1) u**r.  That A_k'(1) is this
    coefficient was found by a fit, not taken from a source, and no proof is
    known here: it is a conjecture that the tests check against Wright's
    recurrence.  The quotient is long division by E, whose e_0 is 1.
    """
    e = [Fraction(factorial(6 * r), 2 ** (5 * r) * 3 ** (2 * r) * factorial(3 * r) * factorial(2 * r))
         for r in range(order + 1)]
    out: list[Fraction] = []
    for k in range(order + 1):
        out.append(e[k] * Fraction(k * (6 * k + 13), 6 * k - 1) - sum(e[r] * out[k - r] for r in range(1, k + 1)))
    return out


# ---------------------------------------------------------------------------
# exact-rational kernels on Fraction objects: one Fraction, one gcd and one
# normalisation per product and per sum.  The library runs the same algebra
# on integer numerators over one denominator and must match these exactly.


def poly_mul_by_fractions(p: tuple, q: tuple) -> tuple[Fraction, ...]:
    """Product of two dense coefficient tuples (index i holds x**i), trailing zeros stripped."""
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _strip_by_fractions(tuple(out))


def _strip_by_fractions(c: tuple) -> tuple:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _poly_add_by_fractions(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _strip_by_fractions(tuple(out))


def _poly_scale_by_fractions(p: tuple, s) -> tuple:
    if s == 0:
        return ()
    return tuple(c * s for c in p)


def _theta_by_fractions(f: tuple, s: int) -> tuple:
    """Numerator of theta (f / (1-T)**s) = T (f' (1-T) + s f) / (1-T)**(s+2)."""
    deriv = _strip_by_fractions(tuple(i * c for i, c in enumerate(f))[1:]) if f else ()
    inner = _poly_add_by_fractions(
        poly_mul_by_fractions(deriv, (Fraction(1), Fraction(-1))), _poly_scale_by_fractions(f, s)
    )
    return (Fraction(0),) + inner if inner else ()


def wright_step_by_fractions(lower: list[tuple]) -> tuple[Fraction, ...]:
    """A_{k+1} from A_1..A_k by Wright's recurrence, every operation on Fraction objects.

    The same steps as `graphs._wright_step`, including the check of the one
    over-determined equation, which raises `VerificationFailure`.
    """
    k = len(lower)
    thetas = [(Fraction(0),) * 3 + (Fraction(1, 2),)]
    thetas += [_theta_by_fractions(a, 3 * i) for i, a in enumerate(lower, 1)]
    b = thetas[k]
    one_minus_t_2 = (Fraction(1), Fraction(-2), Fraction(1))
    p = _poly_add_by_fractions(
        _theta_by_fractions(b, 3 * k + 2),
        _poly_scale_by_fractions(poly_mul_by_fractions(b, one_minus_t_2), -3),
    )
    if k:
        one_minus_t_4 = tuple(Fraction(c) for c in (1, -4, 6, -4, 1))
        p = _poly_add_by_fractions(
            p, _poly_scale_by_fractions(poly_mul_by_fractions(lower[-1], one_minus_t_4), -2 * k)
        )
    for i in range(k + 1):
        p = _poly_add_by_fractions(p, poly_mul_by_fractions(thetas[i], thetas[k - i]))
    coeffs = []
    a = Fraction(0)
    for j in range(len(p) - 1):
        a = (p[j] / 2 - (2 * k + 3 - j) * a) / (j + k + 1)
        coeffs.append(a)
    top = len(p) - 1
    want = 2 * (2 * k + 3 - top) * a
    if p[top] != want:
        raise VerificationFailure(
            f"Wright's recurrence for A_{k + 1} is inconsistent at T**{top}: {p[top]} != {want}"
        )
    return tuple(coeffs)


def series_mul_by_fractions(x: Series, y: Series) -> Series:
    """Product truncated at the lower of the two orders."""
    n = min(x.order, y.order)
    a, b = x.coeffs(), y.coeffs()
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return Series(out)


def series_log_by_fractions(x: Series) -> Series:
    """log of a series with constant term 1, from (log a)' = a'/a."""
    a = x.coeffs()
    if a[0] != 1:
        raise ConstantTermError("log requires constant term 1")
    n = x.order
    b = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        # m*b[m] = m*a[m] - sum_{i=1}^{m-1} i*b[i]*a[m-i]
        acc = m * a[m]
        for i in range(1, m):
            if b[i] != 0 and a[m - i] != 0:
                acc -= i * b[i] * a[m - i]
        b[m] = acc / m
    return Series(b)


def series_exp_by_fractions(x: Series) -> Series:
    """exp of a series with constant term 0, from E' = a' E."""
    a = x.coeffs()
    if a[0] != 0:
        raise ConstantTermError("exp requires constant term 0")
    n = x.order
    e = [Fraction(0)] * (n + 1)
    e[0] = Fraction(1)
    for m in range(1, n + 1):
        # m*e[m] = sum_{i=1}^{m} i*a[i]*e[m-i]
        acc = Fraction(0)
        for i in range(1, m + 1):
            if a[i] != 0 and e[m - i] != 0:
                acc += i * a[i] * e[m - i]
        e[m] = acc / m
    return Series(e)


def series_inverse_by_fractions(x: Series) -> Series:
    """Multiplicative inverse of a series with a nonzero constant term."""
    a = x.coeffs()
    c0 = a[0]
    if c0 == 0:
        raise ConstantTermError("inverse requires a nonzero constant term")
    n = x.order
    inv = [Fraction(0)] * (n + 1)
    inv[0] = 1 / c0
    for m in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            if a[i] != 0 and inv[m - i] != 0:
                acc += a[i] * inv[m - i]
        inv[m] = -acc / c0
    return Series(inv)
