#!/usr/bin/env python3
"""Reproduce the growth diagnostics end to end.

Writes, under --out-dir:
  quotient-s{s}.csv   normalized-quotient series for s in --s-list
  regression.txt      slope/intercept of ln(P/C) against n for s = 12
  defects.csv         cancelation defect at the proxy depth, s = 1..--s-max
  fit.txt             rational fit a / (s - b) of the defect series

--quick shrinks every range to a seconds-scale smoke run.
"""

import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pericatalan.asymptotics import (
    defect_csv,
    defect_series,
    linear_regression,
    log_peri_table,
    quotient_csv,
    rational_fit,
    regression_points,
)
from pericatalan.enumeration import write_atomic


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="experiments-out")
    ap.add_argument("--s-list", default="1,3,6,12", help="comma-separated s for quotient series")
    ap.add_argument("--n-max", type=int, default=2800, help="depth of each quotient series")
    ap.add_argument("--s-max", type=int, default=100, help="defect series runs s = 1..s_max")
    ap.add_argument("--proxy-n", type=int, default=2000, help="depth standing in for the n limit")
    ap.add_argument("--quick", action="store_true", help="small ranges, a few seconds total")
    args = ap.parse_args()

    if args.quick:
        args.n_max, args.s_max, args.proxy_n = 400, 20, 400
    s_list = [int(tok) for tok in args.s_list.split(",") if tok.strip()]
    os.makedirs(args.out_dir, exist_ok=True)

    def save(name, text):
        path = os.path.join(args.out_dir, name)
        write_atomic(path, text)
        print(f"wrote {path}", file=sys.stderr)

    tables = {}
    for s in s_list:
        t0 = time.perf_counter()
        tables[s] = log_peri_table(s, args.n_max)
        print(f"log table s={s} n<={args.n_max}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        save(f"quotient-s{s}.csv", quotient_csv(tables[s]))

    reg_s = 12 if 12 in tables else s_list[-1]
    n_lo = min(100, args.n_max // 4)
    reg = linear_regression(regression_points(tables[reg_s], n_lo, args.n_max))
    save(
        "regression.txt",
        f"series: ln P - ln C_n against n, s = {reg_s}, n = {n_lo}..{args.n_max}\n"
        f"slope     = {reg.slope:.6f}   (ln 3s = {math.log(3 * reg_s):.6f})\n"
        f"intercept = {reg.intercept:.6f}   (-ln 3 = {-math.log(3):.6f})\n"
        f"residual stderr = {reg.residual_stderr:.3e}\n",
    )

    t0 = time.perf_counter()
    series = defect_series(range(1, args.s_max + 1), args.proxy_n)
    print(f"defect series s<={args.s_max} at n={args.proxy_n}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    save("defects.csv", defect_csv(series))

    fit = rational_fit(series)
    golden_log = math.log((1 + math.sqrt(5)) / 2)
    save(
        "fit.txt",
        f"defect(s, n={args.proxy_n}) ~ a / (s - b), s = 1..{args.s_max}\n"
        f"a = {fit.a:.6f}\n"
        f"b = {fit.b:.6f}   (ln((1+sqrt 5)/2) = {golden_log:.6f})\n"
        f"residual stderr = {fit.residual_stderr:.3e}\n",
    )


if __name__ == "__main__":
    main()
