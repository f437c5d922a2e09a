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
from graphasym.errors import IllConditioned, InsufficientPoints


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated integers."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-values", type=_int_list, default="2,3,4")
    parser.add_argument("--degree", type=int, default=9)
    parser.add_argument("--n-min", type=int, default=150)
    parser.add_argument("--n-max", type=int, default=900)
    parser.add_argument("--bits", type=int, default=320)
    parser.add_argument("--max-denominator", type=int, default=30000)
    args = parser.parse_args(argv)
    if min(args.k_values) < -1:
        parser.error("every --k-values entry must be >= -1")
    if args.degree < 0:
        parser.error("--degree must be >= 0")
    if args.n_min < 1:
        parser.error("--n-min must be >= 1")
    if args.n_max < args.n_min:
        parser.error("--n-max must be >= --n-min")
    if args.bits < 53:
        parser.error("--bits must be >= 53")
    if args.max_denominator < 1:
        parser.error("--max-denominator must be >= 1")

    mismatches = 0
    print(f"{'k':>3} {'j':>3} {'power':>6}  {'estimate':<22} {'identified':<14} {'derived':<14} status")
    for k in args.k_values:
        derived_row = assembly.expansion("connected", k, args.degree)
        try:
            full = fitting.lsq_fit(k, args.degree, args.n_min, args.n_max, bits=args.bits)
        except (InsufficientPoints, IllConditioned) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
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
