#!/usr/bin/env python3
"""Measure how fast the truncated expansions approach the exact values.

For one quantity (connected count, total count, or connectedness
probability) at a fixed excess k, evaluate the exact normalized value at
n = n_min, 2*n_min, 4*n_min, ... and compare against the expansion cut at
several depths.  For each depth the table reports the relative error and
the empirical decay exponent between consecutive rows; the error of a cut
falls like the first term it drops, i.e. n**(-j/2) for the first
non-vanishing slot j past the cut.
"""
from __future__ import annotations

import argparse
import sys

import mpmath

from graphasym import assembly


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", default="connected",
                        choices=("connected", "total", "probability"))
    parser.add_argument("--k", type=int, default=0)
    parser.add_argument("--depths", type=_int_list, default="1,2,3,4,5")
    parser.add_argument("--n-min", type=int, default=32)
    parser.add_argument("--n-max", type=int, default=4096)
    parser.add_argument("--bits", type=int, default=384)
    args = parser.parse_args(argv)
    # n doubles from n_min, so n_min < 1 would never pass n_max
    if args.n_min < 1:
        parser.error("--n-min must be >= 1")
    if args.n_max < args.n_min:
        parser.error("--n-max must be >= --n-min")
    if args.k < -1:
        parser.error("--k must be >= -1")
    if min(args.depths) < 0:
        parser.error("every --depths entry must be >= 0")
    if len(set(args.depths)) < len(args.depths):
        parser.error("--depths entries must be distinct")
    if args.bits < 53:
        parser.error("--bits must be >= 53")

    depths = args.depths
    # two slots of headroom so the first dropped non-zero term is visible
    # even for the deepest cut
    series = assembly.expansion(args.which, args.k, max(depths) + 2)
    norm = assembly.normalization(args.which)

    def expected_slope(d: int) -> float:
        for j in range(d + 1, len(series.coeffs)):
            if not series.coeffs[j].is_zero():
                return j / 2
        return (len(series.coeffs)) / 2

    ns = []
    n = args.n_min
    while n <= args.n_max:
        ns.append(n)
        n *= 2

    # one pass over the slots per n gives every cut (`AsymSeries.partial_sums`)
    cut = series.truncate(max(depths))
    errs: dict[int, list[mpmath.mpf]] = {d: [] for d in depths}
    with mpmath.workprec(args.bits):
        for n in ns:
            ev = norm.exact(args.k, n, args.bits)
            sums = cut.partial_sums(n, args.bits)
            for d in depths:
                errs[d].append(abs(ev - sums[d]) / abs(ev))

    print(f"quantity={args.which} k={args.k} ({norm.description})")
    header = f"{'n':>6}" + "".join(f"  {'relerr_d%d' % d:>12} {'slope':>6}" for d in depths)
    print(header)
    for i, n in enumerate(ns):
        cells = [f"{n:>6}"]
        for d in depths:
            e = errs[d][i]
            if i == 0:
                slope = "     -"
            else:
                prev = errs[d][i - 1]
                slope = f"{float(mpmath.log(prev / e, 2)):6.2f}" if prev and e else "   inf"
            cells.append(f"  {mpmath.nstr(e, 4):>12} {slope:>6}")
        print("".join(cells))
    expected = ", ".join(f"d={d}: {expected_slope(d):.1f}" for d in depths)
    print(f"expected slopes (first dropped non-zero term): {expected}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
