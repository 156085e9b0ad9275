#!/usr/bin/env python3
"""Reproduce the growth diagnostics end to end through pcat.

Writes, under --out-dir:
  quotient-s{s}.csv   pcat quotient for each s in --s-list
  regression.txt      pcat regress for s = 12 (else the last s listed)
  fit.json            pcat fit --format json: the defect series at the
                      proxy depth, s = 1..--s-max, and its fit a / (s - b)

Each call's output is held in memory, and the files are written only
after every call has succeeded, so a run that pcat refuses writes
nothing and exits with pcat's own code and message.  A file that cannot
be written exits 3, pcat's code for an output file.  For a seconds-scale
smoke run pass --n-max 400 --s-max 20 --proxy-n 400.
"""

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pericatalan import cli, enumeration


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="experiments-out")
    ap.add_argument("--s-list", type=cli._int_list, default="1,3,6,12", help="comma-separated s for quotient series")
    ap.add_argument("--n-max", type=int, default=2800, help="depth of each quotient series")
    ap.add_argument("--s-max", type=int, default=100, help="defect series runs s = 1..s_max")
    ap.add_argument("--proxy-n", type=int, default=2000, help="depth standing in for the n limit")
    args = ap.parse_args()

    reg_s = 12 if 12 in args.s_list else args.s_list[-1]
    calls = [(f"quotient-s{s}.csv", ["quotient", "--s", str(s), "--n-max", str(args.n_max)]) for s in args.s_list]
    calls.append(("regression.txt", ["regress", "--s", str(reg_s), "--n-min", str(max(2, min(100, args.n_max // 4))),
                                     "--n-max", str(args.n_max)]))
    calls.append(("fit.json", ["fit", "--s-max", str(args.s_max), "--proxy-n", str(args.proxy_n), "--format", "json"]))

    outputs = []
    for name, argv in calls:
        print("pcat " + " ".join(argv), file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(argv)
        if rc != 0:
            sys.exit(rc)
        outputs.append((name, out.getvalue()))

    for name, text in outputs:
        path = os.path.join(args.out_dir, name)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            enumeration.write_atomic(path, text)
        except OSError as e:
            print(f"cache error: cannot write output file {path}: {e}", file=sys.stderr)
            sys.exit(cli.EXIT_CACHE)
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
