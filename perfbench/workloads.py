"""The four benchmark workloads: their inputs, the job each one runs, the
check each job's output must pass, and the calibration its times are scaled by.

Every workload draws its inputs from a seed.  Seed 0 gives the reference
inputs, whose output digests were recorded at the commit that introduced
the benchmark (``reference.json``).  Any other seed perturbs the inputs
within the ranges stated in ``params``; the output is then checked by an
independent route instead of a stored digest.

Each step of a job runs in a fresh child process (``job.py``) after
``import graphasym``; check functions run in a separate, untimed checker
process (``check.py``) on the steps' outputs joined in order.  Only the
calibrations run in the benchmark's own process, which never imports
graphasym.
"""
from __future__ import annotations

import csv
import hashlib
import io
import random
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

REFERENCE_SEED = 0
NAMES = ("diagonal_fit", "large_n_compare", "high_excess", "reproduce_tables")

# excess values of the library job; the heaviest ones (6, 7) are never dropped
HIGH_EXCESS_KS = tuple(range(2, 8))
COMPARE_N_MAX = 8192


class CheckFailed(Exception):
    """The job's output is wrong."""


def params(name: str, seed: int) -> dict:
    """Inputs of workload `name` for `seed`; seed 0 gives the reference inputs.

    Reference inputs and the ranges other seeds draw from:
      diagonal_fit      n = 100..600 (n_min in 95..105, n_max in 595..605)
      large_n_compare   depths 1,3,5 (three of 1..5, 5 always present);
                        256 bits (224, 256 or 288); n = 16, 32, ..., 8192
      high_excess       k = 2..7 (one of 2..5 dropped); depths of asym_c 8
                        (7..9), of asym_p 6 (5..7), of asym_g 12 (11..13)
      reproduce_tables  none: the paper's tables have fixed inputs

    Each job takes about a second or less; see run.py, Speed, for why jobs
    are short.
    """
    if name not in NAMES:
        raise KeyError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    ref = seed == REFERENCE_SEED
    if name == "diagonal_fit":
        return {
            "n_min": 100 if ref else rng.randint(95, 105),
            "n_max": 600 if ref else rng.randint(595, 605),
        }
    if name == "large_n_compare":
        depths = [1, 3, 5] if ref else sorted(rng.sample(range(1, 5), 2) + [5])
        return {
            "depths": ",".join(map(str, depths)),
            "bits": 256 if ref else rng.choice((224, 256, 288)),
        }
    if name == "high_excess":
        ks = list(HIGH_EXCESS_KS)
        if not ref:
            ks.remove(rng.randint(2, 5))
        return {
            "ks": ks,
            "c_depth": 8 if ref else rng.randint(7, 9),
            "p_depth": 6 if ref else rng.randint(5, 7),
            "g_depth": 12 if ref else rng.randint(11, 13),
        }
    return {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# job steps: each prints its output to stdout; a step that fails raises


def _cli(argv: list[str]) -> None:
    from graphasym import cli

    rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"graphasym {' '.join(argv)} exited {rc}")


def job_diagonal_fit(p: dict, work_dir: Path) -> None:
    _cli(["fit", "--k", "1", "--n-min", str(p["n_min"]), "--n-max", str(p["n_max"])])


def job_large_n_compare(p: dict, work_dir: Path) -> None:
    _cli([
        "compare", "--which", "probability", "--k", "1", "--n-max", str(COMPARE_N_MAX),
        "--depths", p["depths"], "--precision-bits", str(p["bits"]),
    ])


def job_high_excess(p: dict, work_dir: Path) -> None:
    import graphasym as g

    for k in p["ks"]:
        a = g.recover_ak(k)
        coeffs = getattr(a, "coeffs", a)
        print(f"A,{k}," + " ".join(str(c) for c in coeffs))
        print(f"C,{k},{g.asym_c(k, p['c_depth'])}")
        r = g.fss_crosscheck(k)
        print(f"F,{k},{r.a0_series},{r.ratio_series},{r.passed}")
    for k in range(0, 7):
        print(f"P,{k},{g.asym_p(k, p['p_depth'])}")
    for k in range(-1, 3):
        print(f"G,{k},{g.asym_g(k, p['g_depth'])}")


def job_tables(p: dict, work_dir: Path) -> None:
    import contextlib
    import sys

    out_dir = work_dir / "tables"
    # `tables` prints the paths it wrote, which name the work directory
    with contextlib.redirect_stdout(io.StringIO()):
        _cli(["tables", "--output-dir", str(out_dir)])
    for path in sorted(out_dir.glob("*.csv")):
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{path.name},{sha}")
    print("errata.csv follows")
    sys.stdout.write((out_dir / "errata.csv").read_text())


def job_errata(p: dict, work_dir: Path) -> None:
    print("graphasym errata follows")
    _cli(["errata"])


# a job is one or more steps; each step is its own cold process, as each
# graphasym command is
JOBS = {
    "diagonal_fit": (job_diagonal_fit,),
    "large_n_compare": (job_large_n_compare,),
    "high_excess": (job_high_excess,),
    "reproduce_tables": (job_tables, job_errata),
}


# ---------------------------------------------------------------------------
# independent checks; each raises CheckFailed with a one-line reason


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _connected_by_log(n_max: int, cap: int) -> list[list[int]]:
    """Rows c(n, m), m <= cap, from n c_n = n g_n - sum_j j C(n,j) c_j g_(n-j).

    This is the logarithmic-derivative identity for c = log g over
    w-polynomials, not the vertex-1 decomposition the library uses.
    """
    g = [[comb(comb(n, 2), m) for m in range(cap + 1)] for n in range(n_max + 1)]
    c: list[list[int]] = [[0] * (cap + 1)]
    for n in range(1, n_max + 1):
        acc = [n * x for x in g[n]]
        for j in range(1, n):
            f = j * comb(n, j)
            cj, gr = c[j], g[n - j]
            for a in range(cap + 1):
                if cj[a]:
                    for b in range(cap + 1 - a):
                        acc[a + b] -= f * cj[a] * gr[b]
        _require(all(x % n == 0 for x in acc), f"log recurrence not integral at n={n}")
        c.append([x // n for x in acc])
    return c


def _counts_from_ak(coeffs: list[Fraction], k: int, order: int) -> list[Fraction]:
    """n! [z**n] A_k(T) / (1-T)**(3k) for n <= order, by series arithmetic."""

    def mul(a, b):
        out = [Fraction(0)] * (order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(order + 1 - i):
                    out[i + j] += x * b[j]
        return out

    t = [Fraction(0)] + [Fraction(n ** (n - 1), factorial(n)) for n in range(1, order + 1)]
    # 1/(1-T) = sum T**i, and T**i starts at z**i
    geo = [Fraction(1)] + [Fraction(0)] * order
    tp = geo
    for _ in range(order):
        tp = mul(tp, t)
        geo = [x + y for x, y in zip(geo, tp)]
    num = [Fraction(0)] * (order + 1)
    tp = [Fraction(1)] + [Fraction(0)] * order
    for a in coeffs:
        num = [x + a * y for x, y in zip(num, tp)]
        tp = mul(tp, t)
    for _ in range(3 * k):
        num = mul(num, geo)
    return [num[n] * factorial(n) for n in range(order + 1)]


def check_diagonal_fit(p: dict, out: str) -> None:
    import mpmath
    from graphasym import asym_c, connected_counts, exact_count_via_t

    rows = list(csv.reader(io.StringIO(out)))
    _require(rows[0] == ["j", "power_of_n", "estimate", "symbolic"], "bad fit header")
    _require(len(rows) == 8, f"expected 7 fit rows, got {len(rows) - 1}")
    _require(rows[1][3] == "5/24", f"leading constant identified as {rows[1][3]}")
    # the fit (exact counts at n ~ 100..600) against the symbolic expansion
    series = asym_c(1, 8)
    with mpmath.workprec(256):
        for j, tol in ((0, 1e-9), (1, 1e-6), (2, 1e-5)):
            want = series.coeffs[j].evaluate(256)
            got = mpmath.mpf(rows[j + 1][2])
            _require(
                abs(got - want) <= tol * abs(want),
                f"fit coefficient {j} is {got}, expansion gives {want}",
            )
    # the counting route the fit uses, against the edge recurrence
    table = connected_counts(20, 1)
    for n in range(1, 21):
        _require(
            exact_count_via_t(n, 1) == table.get(n, n + 1),
            f"exact_count_via_t({n}, 1) disagrees with the count table",
        )


def check_large_n_compare(p: dict, out: str) -> None:
    import mpmath
    from graphasym import connected_counts, normalization

    rows = list(csv.reader(io.StringIO(out)))
    depths = p["depths"].split(",")
    header = ["n", "exact_normalized"] + [f"approx_d{d}" for d in depths]
    header += [f"relerr_d{d}" for d in depths]
    _require(rows[0] == header, f"bad compare header {rows[0]}")
    body = rows[1:]
    _require([int(r[0]) for r in body] == [16 << i for i in range(10)], "bad n grid")
    # exact values (a Q sum of n terms) against the symbolic expansion, which
    # never sums Q: the deepest error must fall with n and end up tiny
    errs = [float(r[-1]) for r in body]
    _require(all(b < a for a, b in zip(errs[2:], errs[3:])), f"error not falling: {errs}")
    _require(errs[-1] < 1e-9, f"relative error {errs[-1]} at n={COMPARE_N_MAX}")
    # the smallest rows against the edge-recurrence count table
    table = connected_counts(32, 1)
    norm = normalization("probability")
    with mpmath.workprec(256):
        for r in body[:2]:
            n = int(r[0])
            prob = mpmath.mpf(table.get(n, n + 1)) / comb(comb(n, 2), n + 1)
            want = prob / norm.evaluate(1, n, 256)
            got = mpmath.mpf(r[1])
            _require(abs(got - want) <= 1e-13 * abs(want), f"P({n}) is {got}, table gives {want}")


def check_high_excess(p: dict, out: str) -> None:
    lines = [line.split(",", 2) for line in out.splitlines()]
    ak = {int(k): rest for tag, k, rest in lines if tag == "A"}
    _require(sorted(ak) == sorted(p["ks"]), f"A_k rows for {sorted(ak)}")
    fss = [rest for tag, _, rest in lines if tag == "F"]
    _require(len(fss) == len(p["ks"]), "missing crosscheck rows")
    _require(all(r.endswith(",True") for r in fss), "a crosscheck did not pass")
    _require(sum(tag == "P" for tag, _, _ in lines) == 7, "missing asym_p rows")
    _require(sum(tag == "G" for tag, _, _ in lines) == 4, "missing asym_g rows")
    # every A_k must reproduce the counts of an independent recurrence
    n_max = 14
    table = _connected_by_log(n_max, n_max + max(ak))
    for k, text in ak.items():
        got = _counts_from_ak([Fraction(c) for c in text.split()], k, n_max)
        want = [table[n][n + k] for n in range(n_max + 1)]
        _require(got[1:] == want[1:], f"A_{k} does not reproduce c(n, n+{k}) for n <= {n_max}")


def check_reproduce_tables(p: dict, out: str) -> None:
    head, _, rest = out.partition("errata.csv follows\n")
    table_csv, _, cli_csv = rest.partition("graphasym errata follows\n")
    _require(len(head.splitlines()) == 9, "expected nine table files")
    for text in (table_csv, cli_csv):
        rows = list(csv.reader(io.StringIO(text)))
        _require(rows[0] == ["key", "quantity", "stated", "derived", "verified"], "bad errata header")
        _require(len(rows) == 7, f"expected six errata rows, got {len(rows) - 1}")
        _require(all(r[-1] == "True" for r in rows[1:]), "an erratum is not verified")


# ---------------------------------------------------------------------------
# calibration: work of the benchmark's own, timed between jobs to scale their
# times to a reference speed (see run.py, Speed).  Contention slows
# interpreter-bound code far more than the long-integer loops that dominate
# large_n_compare, so that workload's jobs get a calibration of that shape;
# set-up (imports) and the other jobs get the mixed one.


def cal_mixed() -> None:
    """Small-integer, big-integer and Fraction arithmetic, the last with many
    live objects; about 0.1 s on an uncontended 2-core VM."""
    acc = 0
    for i in range(400_000):
        acc += i * i
    _cal_kernel(1500, 1500)
    xs = [Fraction(i, 3) * Fraction(2, i + 1) for i in range(1, 20_000)]
    sum(xs[::7], Fraction(0))


def _cal_kernel(n: int, steps: int) -> None:
    """The Q kernel's shape: an integer of n*log2(n) bits times and over small ones."""
    x = n ** n
    for k in range(1, steps + 1):
        x = x * (n - k + 1) // n


CALIBRATIONS = {
    "diagonal_fit": cal_mixed,
    "large_n_compare": lambda: _cal_kernel(8192, 3000),
    "high_excess": cal_mixed,
    "reproduce_tables": cal_mixed,
}


CHECKS = {
    "diagonal_fit": check_diagonal_fit,
    "large_n_compare": check_large_n_compare,
    "high_excess": check_high_excess,
    "reproduce_tables": check_reproduce_tables,
}
