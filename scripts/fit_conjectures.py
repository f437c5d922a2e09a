#!/usr/bin/env python3
"""Rediscover expansion coefficients numerically and check them symbolically.

For each excess k, fit the normalized connected counts c(n, n+k) by a
polynomial in n**(-1/2) on two nested windows, identify each estimate as
q or q*xi (xi = sqrt(2*pi)) only when both windows recover the same
symbol, and compare against the exact symbolic expansion.  A coefficient
the fit declines to identify is printed as '?'; an identified coefficient
that disagrees with the derivation is a hard failure.
"""
from __future__ import annotations

import argparse
import sys

import mpmath

from graphasym import assembly, fitting


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-values", default="2,3,4")
    parser.add_argument("--degree", type=int, default=9)
    parser.add_argument("--n-min", type=int, default=150)
    parser.add_argument("--n-max", type=int, default=900)
    parser.add_argument("--bits", type=int, default=320)
    parser.add_argument("--max-denominator", type=int, default=30000)
    args = parser.parse_args(argv)

    mismatches = 0
    print(f"{'k':>3} {'j':>3} {'power':>6}  {'estimate':<22} {'identified':<14} {'derived':<14} status")
    for k in (int(s) for s in args.k_values.split(",")):
        derived_row = assembly.expansion("connected", k, args.degree)
        full = fitting.lsq_fit(k, args.degree, args.n_min, args.n_max, bits=args.bits)
        symbols = fitting.two_window_symbols(full, args.max_denominator)
        for j, sym in enumerate(symbols):
            derived = derived_row.coefficient_at(-j)
            if sym is None:
                status = "declined"
            elif sym == derived:
                status = "ok"
            else:
                status = "MISMATCH"
                mismatches += 1
            print(
                f"{k:>3} {j:>3} {f'-{j}/2':>6}  "
                f"{mpmath.nstr(full.estimates[j], 15):<22} "
                f"{str(sym) if sym is not None else '?':<14} "
                f"{str(derived):<14} {status}"
            )

    if mismatches:
        print(f"\n{mismatches} identified coefficient(s) disagree with the derivation",
              file=sys.stderr)
        return 2
    print("\nevery identified coefficient matches the exact derivation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
