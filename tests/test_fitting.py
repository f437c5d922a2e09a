"""Least-squares recovery of expansion coefficients and symbolic readback."""
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_mul, mpf_neg, mpf_sub

from graphasym import SymConst, asym_c, fitting, lsq_fit, reconstruct_symbolic
from graphasym.cli import main
from graphasym.errors import IllConditioned, InsufficientPoints
from graphasym.fitting import two_window_symbols
from oracles import fit_by_mpf, qr_solve_by_mpf

F = Fraction
RAT = SymConst.rational
XI = SymConst.xi


def _synthetic_values(coeffs, n_min, n_max, bits=256):
    """Exact evaluations of a polynomial in x = n^(-1/2)."""
    vals = {}
    with mpmath.workprec(bits):
        for n in range(n_min, n_max + 1):
            x = 1 / mpmath.sqrt(n)
            acc = mpmath.mpf(0)
            for c in reversed(coeffs):
                acc = acc * x + mpmath.mpf(c.numerator) / c.denominator
            vals[n] = acc
    return vals


def _fit_values(monkeypatch, vals):
    """Make lsq_fit read `vals[n]` in place of the normalized exact counts."""
    synthetic = SimpleNamespace(exact=lambda k, n, bits: vals[n])
    monkeypatch.setattr(fitting, "normalization", lambda kind: synthetic)


def test_synthetic_polynomial_recovered_to_working_precision(monkeypatch):
    coeffs = [F(2), F(-1), F(0), F(1, 3)]
    _fit_values(monkeypatch, _synthetic_values(coeffs, 100, 160))
    result = lsq_fit(0, degree=3, n_min=100, n_max=160)
    with mpmath.workprec(256):
        for est, c in zip(result.estimates, coeffs):
            target = mpmath.mpf(c.numerator) / c.denominator
            assert abs(est - target) < mpmath.mpf(10) ** -60
    assert float(result.residual_rms) < 1e-60
    assert float(result.condition) < 100  # thanks to the affine rescale to [-1, 1]


def test_overparameterized_fit_still_recovers(monkeypatch):
    # fitting degree 5 to a degree-2 signal: trailing estimates ~ 0
    coeffs = [F(1, 4), F(-7, 6), F(1, 48)]
    _fit_values(monkeypatch, _synthetic_values(coeffs, 100, 200))
    result = lsq_fit(0, degree=5, n_min=100, n_max=200)
    with mpmath.workprec(256):
        for est, c in zip(result.estimates[:3], coeffs):
            target = mpmath.mpf(c.numerator) / c.denominator
            assert abs(est - target) < mpmath.mpf(10) ** -40
        for est in result.estimates[3:]:
            assert abs(est) < mpmath.mpf(10) ** -40


def test_insufficient_points():
    with pytest.raises(InsufficientPoints):
        lsq_fit(0, degree=6, n_min=100, n_max=104)


def test_ill_conditioned_detected(monkeypatch):
    _fit_values(monkeypatch, {n: mpmath.mpf(1) for n in range(100, 131)})
    with pytest.raises(IllConditioned):
        lsq_fit(0, degree=30, n_min=100, n_max=130, bits=64)


def test_a_degree_over_the_condition_bound_is_refused_before_any_value(monkeypatch):
    # cond >= 2**(degree-1), over the 2**(bits//2) limit from bits//2 + 2 on;
    # one degree lower the QR is run and refuses the fit by its own estimate
    _fit_values(monkeypatch, {n: mpmath.mpf(1) for n in range(100, 161)})
    with pytest.raises(IllConditioned, match=r"^condition estimate .* exceeds 2\*\*26$"):
        lsq_fit(0, degree=27, n_min=100, n_max=160, bits=53)
    _fit_values(monkeypatch, {})  # reading any value raises KeyError
    with pytest.raises(IllConditioned, match=r"^degree 28: condition estimate >= 2\*\*27 exceeds 2\*\*26$"):
        lsq_fit(0, degree=28, n_min=100, n_max=160, bits=53)


def test_real_fit_against_known_row():
    # c(n, n)/n^(n-1/2) -> xi/4 - (7/6) n^(-1/2) + ...
    result = lsq_fit(0, degree=4, n_min=100, n_max=300)
    expected = [XI(F(1, 4)), RAT(F(-7, 6)), XI(F(1, 48))]
    for j, sym in enumerate(expected):
        target = sym.evaluate(result.bits)
        assert abs((result.estimates[j] - target) / target) < 1e-4, j


def test_reconstruct_symbolic_examples():
    assert reconstruct_symbolic(mpmath.mpf("0.6266570687"), 10000) == XI(F(1, 4))
    assert reconstruct_symbolic(mpmath.mpf("0.2083333333"), 10000) == RAT(F(5, 24))
    assert reconstruct_symbolic(mpmath.mpf("0.123456"), 10) is None
    # prefers the simpler (smaller-denominator) candidate on ties
    with mpmath.workprec(256):
        v = mpmath.mpf(3) / 8
    assert reconstruct_symbolic(v, 10000) == RAT(F(3, 8))
    # negative xi multiples
    with mpmath.workprec(256):
        v = -7 * mpmath.sqrt(2 * mpmath.pi) / 24
    assert reconstruct_symbolic(v, 10000) == XI(F(-7, 24))


def test_reconstruct_symbolic_rejects_generic_values():
    # a quadratic irrational sits at generic distance from every rational,
    # so no candidate clears the err * q**2 significance bound even with a
    # tolerance wide enough to admit anything
    with mpmath.workprec(256):
        v = mpmath.sqrt(2) - 1
    assert reconstruct_symbolic(v, 10000, tolerance=1.0) is None
    # exactness of the value is not required, only statistical significance
    assert reconstruct_symbolic(mpmath.mpf("0.3333333333"), 10000) == RAT(F(1, 3))


def test_two_window_symbols_skips_a_half_window_too_short_to_refit():
    # n = 105..110 is 6 points, one short of the 7 a degree-6 refit needs, so
    # there is no second window to certify a symbol, and each is declined
    assert two_window_symbols(lsq_fit(1, 6, 100, 110), 10000) == [None] * 7
    # n = 100..120 leaves 11 points for the upper half; both windows agree on
    # asym_c(1)'s first three coefficients and on nothing past them
    assert two_window_symbols(lsq_fit(1, 6, 100, 120), 10000) == [
        RAT(F(5, 24)), XI(F(-7, 24)), RAT(F(25, 36)), None, None, None, None,
    ]


@pytest.mark.parametrize("argv", [
    # the upper half of n = 1..5, 6..10 and 10..14 has fewer than degree + 2
    # points, and that of n = 3..4 is the whole window (mid = n_min); alone,
    # the estimates read back as 1/9406 (derived 221/24192), -59*xi/196
    # (-7*xi/24), 1, 0, 0, 0 (right) and nothing (0.0907, derived xi/4)
    ("--k", "3", "--degree", "2", "--n-min", "1", "--n-max", "5"),
    ("--k", "1", "--degree", "3", "--n-min", "6", "--n-max", "10"),
    ("--k", "-1", "--degree", "3", "--n-min", "10", "--n-max", "14"),
    ("--k", "0", "--degree", "0", "--n-min", "3", "--n-max", "4"),
])
def test_fit_declines_every_symbol_without_a_smaller_window_to_refit(capsys, argv):
    assert main(["fit", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.endswith(",?") for row in rows)


def _symbols(capsys, *argv):
    assert main(["fit", *argv]) == 0
    return [row.rsplit(",", 1)[1] for row in capsys.readouterr().out.splitlines()[1:]]


def test_fit_tests_a_zero_against_the_spacing_of_its_nearest_rival(capsys):
    # the estimate 3.2e-5 at n**(-5/2), the slot of the connected_k0_n52
    # erratum (derived 4/2835), is nearer 0 than any other p/q with
    # q <= 10000, but not 100x nearer than 0's nearest rival 1/10000
    assert _symbols(capsys, "--k", "0", "--degree", "5", "--n-min", "16", "--n-max", "32") == [
        "xi/4", "-7/6", "?", "?", "?", "?",
    ]
    # c(n, n-1) / n**(n-2) = 1 exactly: the estimates past j = 0 are about
    # 1e-73, well within 1/100 of that spacing
    assert _symbols(capsys, "--k", "-1", "--degree", "3", "--n-min", "10", "--n-max", "30") == [
        "1", "0", "0", "0",
    ]


@pytest.mark.parametrize("seed", [29, 30, 31])
def test_no_certified_symbol_contradicts_the_expansion(seed):
    # k in -1..3 and degree 0..5 on windows of 2..41 points from the first n
    # with c(n, n+k) > 0 (n(n-1)/2 >= n+k) up to n_min = 60.  Windows whose
    # counts are all zero stay out: `lsq_fit` refuses them before any count.
    rng = random.Random(seed)
    certified = 0
    for _ in range(300):
        k = rng.randint(-1, 3)
        degree = rng.randint(0, 5)
        first = next(n for n in range(1, 10) if n * (n - 1) // 2 >= n + k)
        n_min = rng.randint(first, 60)
        n_max = n_min + rng.randint(1, 40)
        try:
            full = lsq_fit(k, degree, n_min, n_max, bits=128)
        except (InsufficientPoints, IllConditioned):
            continue
        derived = asym_c(k, degree)
        for j, sym in enumerate(two_window_symbols(full, 10000)):
            if sym is not None:
                certified += 1
                assert sym == derived.coefficient_at(-j), (k, degree, n_min, n_max, j)
    assert certified


@st.composite
def _least_squares_problems(draw):
    """(bits, rows, rhs): up to 60 x 9 at 53..384 bits, entries up to 2**(+-200).

    Rows are random mantissas at random exponents, small integers (which
    cancel exactly), or the Vandermonde rows lsq_fit builds; one column may
    be zero, which must raise IllConditioned.
    """
    bits = draw(st.integers(53, 384))
    p = draw(st.integers(1, 9))
    m = draw(st.integers(p, 60))
    kind = draw(st.sampled_from(["random", "small", "vandermonde"]))
    spread = draw(st.integers(0, 200))
    zero_col = draw(st.one_of(st.none(), st.integers(0, p - 1)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        # more bits than the working precision, so building the entry rounds
        man = rng.choice((-1, 1)) * rng.getrandbits(bits + 16)
        return mpmath.mpf((man, rng.randint(-spread, spread) - bits - 16))

    with mpmath.workprec(bits):
        if kind == "random":
            rows = [[entry() for _ in range(p)] for _ in range(m)]
        elif kind == "small":
            rows = [[mpmath.mpf(rng.randint(-3, 3)) for _ in range(p)] for _ in range(m)]
        else:
            n0 = rng.randint(1, 500)
            xs = [1 / mpmath.sqrt(n) for n in range(n0, n0 + m)]
            halfspan = (max(xs) - min(xs)) / 2 if m > 1 else mpmath.mpf(1)
            center = (max(xs) + min(xs)) / 2
            scale = mpmath.ldexp(1, rng.randint(-spread, spread))
            rows = []
            for x in xs:
                row = [scale]
                for _ in range(p - 1):
                    row.append(row[-1] * ((x - center) / halfspan))
                rows.append(row)
        if zero_col is not None:
            for row in rows:
                row[zero_col] = mpmath.mpf(0)
        rhs = [entry() for _ in range(m)]
    return bits, rows, rhs


def _solve_outcome(solve, rows, rhs):
    try:
        x, rms, cond = solve(rows, rhs)
    except (IllConditioned, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [e._mpf_ for e in x], rms._mpf_, cond._mpf_


@settings(max_examples=150, deadline=None)
@given(_least_squares_problems())
def test_qr_solve_matches_the_mpf_object_solve_bit_for_bit(problem):
    bits, rows, rhs = problem
    # `_qr_solve` reads the libmp tuples `_fit` builds, the oracle mpf objects
    raw_rows, raw_rhs = [[e._mpf_ for e in row] for row in rows], [e._mpf_ for e in rhs]
    before = ([list(row) for row in raw_rows], list(raw_rhs))
    with mpmath.workprec(bits):
        got = _solve_outcome(fitting._qr_solve, raw_rows, raw_rhs)
        want = _solve_outcome(qr_solve_by_mpf, rows, rhs)
    assert got == want
    # the inputs are left as they were
    assert (raw_rows, raw_rhs) == before


def _kernel_cases(prec):
    """(v, w, edge) products and (w, f, v, edge) updates at the rounding edges of prec bits.

    edge is the tuple an edge case must round to, so that a case which stops
    reaching its edge fails rather than passing quietly; None elsewhere.
    """
    def raw(man, exp=0):
        return from_man_exp(man, exp)  # the canonical tuple of man * 2**exp, unrounded

    # odd k with 3k of prec + 1 bits: a tie, kept mantissa 3k >> 1 even or odd
    ties = {}
    k = (1 << prec) // 3 | 1
    while len(ties) < 2:
        if (3 * k).bit_length() == prec + 1:
            ties.setdefault(3 * k >> 1 & 1, k)
        k += 2
    down = raw(3 * ties[0] >> 1, -6)  # 3 ties[0] 2**-7 rounded to even, down
    up = raw(-((3 * ties[1] >> 1) + 1), 6)  # -3 ties[1] 2**5 rounded to even, up
    # (2**j - 1)(2**j + 1) = 2**(2j) - 1, all ones past prec + 1 bits: a carry
    j = (prec + 3) // 2
    carry = (1, 1, 2 * j - prec, 1)
    products = [
        (raw(3), raw(ties[0], -7), down),
        (raw(-3), raw(ties[1], 5), up),
        (raw(2**j - 1), raw(-(2**j + 1), -prec), carry),
        (raw(0), raw(5), fzero),
        (raw(-7), raw(0), fzero),
    ]
    one, minus_one, big = raw(1), raw(-1), (1 << prec) - 1
    updates = [
        # w - d = 2 big - 1 and 2 big + 1: ties, kept big - 1 (even) and big (odd, a carry)
        (raw(big, 1), one, one, raw(big - 1, 1)),
        (raw(big, 1), one, minus_one, raw(1, prec + 1)),
        (raw(-big, 1), minus_one, minus_one, raw(-1, prec + 1)),
        (raw(big, 1), minus_one, raw(ties[1], -prec), None),
        # zero operands and exact cancellation
        (raw(0), raw(3), raw(5), raw(-15)),
        (raw(5), raw(0), raw(3), raw(5)),
        (raw(-5), raw(3), raw(0), raw(-5)),
        (raw(0), raw(0), raw(0), fzero),
        (raw(15), raw(-3), raw(-5), fzero),
        # w = 0 leaves -d, here a carry
        (raw(0), raw(2**j - 1), raw(-(2**j + 1), -prec), mpf_neg(carry)),
        # w far below d = f v: w - d rounds to -d, which is a tie down or up
        (raw(1, -8 * prec), raw(3), raw(ties[0], -7), mpf_neg(down)),
        (raw(1, -8 * prec), raw(-3), raw(ties[1], 5), mpf_neg(up)),
        # a w wider than prec (a first-column input may be) at d's exponent:
        # 2**(prec + 1) + 2 is the tie 2**prec + 1 once its zero is stripped
        (raw(2**(prec + 1) + 1), one, minus_one, raw(1, prec + 1)),
        # and one where f v = 0: w - 0 still rounds to prec
        (raw(2**(prec + 1) + 1), raw(0), raw(3), raw(1, prec + 1)),
        (raw(-(2**(prec + 1) + 1)), raw(0), raw(3), raw(-1, prec + 1)),
        (raw(2**(prec + 1) + 1), raw(3), raw(0), raw(1, prec + 1)),
        (raw(-(2**(prec + 1) + 1)), raw(-3), raw(0), raw(-1, prec + 1)),
    ]
    # the top bits of w and d = f v lie gap bits apart; past prec + 4, mpf_add
    # stands a sticky unit in for the smaller term once the exponents differ
    # by more than 100, and subtracts exactly below that
    for gap in (prec + 5, prec + 101, 3 * prec):
        for sw in (1, -1):
            for sd in (1, -1):
                updates.append((raw(sw * big), raw(sd), raw(21, prec - gap - 5), raw(sw * big)))
                updates.append((raw(sw * 7, prec - gap - 3), raw(sd), raw(big), raw(-sd * big)))
    return products, updates


@pytest.mark.parametrize("prec", [53, 256, 384])
def test_kernels_round_each_element_as_mpf_mul_and_mpf_sub(prec):
    products, updates = _kernel_cases(prec)
    got = fitting._products([v for v, _, _ in products], [w for _, w, _ in products], prec)
    for (v, w, edge), g in zip(products, got, strict=True):
        assert g == mpf_mul(v, w, prec, "n"), (v, w)
        assert edge is None or g == edge, (v, w)
    for w, f, v, edge in updates:
        got = fitting._reflected([w], f, [v], prec)
        assert got == [mpf_sub(w, mpf_mul(f, v, prec, "n"), prec, "n")], (w, f, v)
        assert edge is None or got == [edge], (w, f, v)


@pytest.mark.parametrize("k, n_min, n_max, bits, degrees", [
    # c(n, n-1) = n**(n-2) makes y = 1 exactly, and the top coefficients 0
    (-1, 10, 14, 53, range(4)),
    (-1, 10, 14, 256, range(4)),
    (0, 20, 40, 53, range(10)),
    (0, 20, 40, 128, range(10)),
    (1, 30, 45, 256, range(10)),
    (1, 60, 70, 128, range(10)),
])
def test_fit_matches_the_mpf_object_fit_bit_for_bit(k, n_min, n_max, bits, degrees):
    for degree in degrees:
        result = lsq_fit(k, degree, n_min, n_max, bits)
        estimates, rms, cond = fit_by_mpf(result.xs, result.ys, degree, bits)
        assert [e._mpf_ for e in result.estimates] == [e._mpf_ for e in estimates], degree
        assert (result.residual_rms._mpf_, result.condition._mpf_) == (rms._mpf_, cond._mpf_), degree
