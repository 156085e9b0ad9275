#!/usr/bin/env python3
"""Reproduce the growth diagnostics end to end through pcat.

Writes, under --out-dir:
  quotient-s{s}.csv   pcat quotient for each s in --s-list
  regression.txt      pcat regress for s = 12 (else the last s listed)
  fit.json            pcat fit --format json: the defect series at the
                      proxy depth, s = 1..--s-max, and its fit a / (s - b)

A range that a pcat call would refuse is refused before the first call:
exit 2 for a range below a call's floor, and exit 4 (pcat's guard code,
"refused: ...") for --n-max or --proxy-n past the log-table ceiling
asymptotics.LOG_CEILING, so no partial output is written.  A pcat call
that fails all the same ends the run with its exit code.  For a
seconds-scale smoke run pass --n-max 400 --s-max 20 --proxy-n 400.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pericatalan import asymptotics, cli


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="experiments-out")
    ap.add_argument("--s-list", type=cli._int_list, default="1,3,6,12", help="comma-separated s for quotient series")
    ap.add_argument("--n-max", type=int, default=2800, help="depth of each quotient series")
    ap.add_argument("--s-max", type=int, default=100, help="defect series runs s = 1..s_max")
    ap.add_argument("--proxy-n", type=int, default=2000, help="depth standing in for the n limit")
    args = ap.parse_args()
    if args.n_max < 3:
        ap.error(f"--n-max must be at least 3, got {args.n_max}")
    if args.s_max < 2:
        ap.error(f"--s-max must be at least 2, got {args.s_max}")
    if args.proxy_n < 3:
        ap.error(f"--proxy-n must be at least 3, got {args.proxy_n}")
    if min(args.s_list) < 1:
        ap.error(f"--s-list needs every s >= 1, got {min(args.s_list)}")
    for flag, n in (("--n-max", args.n_max), ("--proxy-n", args.proxy_n)):
        if n > asymptotics.LOG_CEILING:
            print(f"refused: {flag} {n} is past the log-table ceiling n={asymptotics.LOG_CEILING}", file=sys.stderr)
            sys.exit(cli.EXIT_GUARD)

    reg_s = 12 if 12 in args.s_list else args.s_list[-1]
    calls = [(f"quotient-s{s}.csv", ["quotient", "--s", str(s), "--n-max", str(args.n_max)]) for s in args.s_list]
    calls.append(("regression.txt", ["regress", "--s", str(reg_s), "--n-min", str(max(2, min(100, args.n_max // 4))),
                                     "--n-max", str(args.n_max)]))
    calls.append(("fit.json", ["fit", "--s-max", str(args.s_max), "--proxy-n", str(args.proxy_n), "--format", "json"]))

    os.makedirs(args.out_dir, exist_ok=True)
    for name, argv in calls:
        path = os.path.join(args.out_dir, name)
        print("pcat " + " ".join(argv), file=sys.stderr)
        rc = cli.main(argv + ["--out", path])
        if rc != 0:
            sys.exit(rc)
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
