#!/usr/bin/env python3
"""Print the exact reduced-word counts P(s, n) for small s and n,
cross-checked against the subtractive recursion on every entry."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pericatalan.enumeration import build_table, peri_catalan_recursive

S_MAX, N_MAX = 3, 10


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    columns = {}
    for s in range(1, S_MAX + 1):
        table = build_table(s, N_MAX)
        memo = {}
        for n in range(1, N_MAX + 1):
            if peri_catalan_recursive(s, n, memo) != table[n]:
                raise AssertionError(f"path mismatch at s={s} n={n}")
        columns[s] = table

    widths = {s: max(len(str(columns[s][N_MAX])), len(f"s = {s}")) for s in columns}
    header = "  n  " + "  ".join(f"{f's = {s}':>{widths[s]}}" for s in columns)
    print(header)
    print("-" * len(header))
    for n in range(1, N_MAX + 1):
        print(f"{n:>3}  " + "  ".join(f"{columns[s][n]:>{widths[s]}}" for s in columns))


if __name__ == "__main__":
    main()
