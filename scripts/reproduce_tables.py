#!/usr/bin/env python3
"""Regenerate every canonical CSV table and print a reproducibility digest.

Writes the same files as `graphasym tables` into --output-dir, then hashes
each one so two runs (or two machines) can be compared line-for-line.  All
tables are exact-arithmetic outputs, so the digests must be bit-identical
everywhere.  `graphasym tables` exits 2 when an errata finding does not
verify, and the script then returns that code without printing digests.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from graphasym import cli


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="tables")
    args = parser.parse_args(argv)

    rc = cli.main(["tables", "--output-dir", args.output_dir])
    if rc != 0:
        print(f"table generation failed with exit code {rc}", file=sys.stderr)
        return rc

    out_dir = Path(args.output_dir)
    paths = sorted(out_dir.glob("*.csv"))
    print()
    print(f"{'file':<28} {'lines':>6}  sha256")
    for path in paths:
        lines = path.read_text().count("\n")
        print(f"{path.name:<28} {lines:>6}  {sha256_file(path)}")

    return 0


if __name__ == "__main__":
    sys.exit(main())
