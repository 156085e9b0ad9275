"""Command line front end: pcat <subcommand>.

Exit codes: 0 success, 1 oracle mismatch, 2 domain error, 3 cache or
output file could not be read or written, 4 resource-guard refusal.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import asymptotics, enumeration, freewords
from .errors import CacheError, DomainError, ResourceGuardError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_DOMAIN = 2
EXIT_CACHE = 3
EXIT_GUARD = 4

REF_SLOPE = 3.576
REF_INTERCEPT = -1.102
REF_FIT_A = 0.01929
REF_FIT_B = 0.4811
GOLDEN_LOG = math.log((1 + math.sqrt(5)) / 2)


def _int_list(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int_pair(text):
    parts = _int_list(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers, got {text!r}")
    return parts


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pcat parser, built on the first call and shared after it.  No
    default is mutable, so each parse_args call starts from a fresh
    namespace and one call's flags never reach the next."""
    parser = argparse.ArgumentParser(prog="pcat", description="Reduced free-quasigroup word counts and growth diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, formats=None, default="text"):
        if formats is not None:
            p.add_argument("--format", dest="fmt", choices=formats, default=default)
        p.add_argument("--out", default=None, help="write output to this file (atomic)")

    def cache(p):
        p.add_argument("--cache-dir", default=None, help="exact-value cache directory (or env PCAT_CACHE_DIR)")

    all_formats = ("text", "csv", "json")

    p = sub.add_parser("compute", help="one value P(s, n) or its log; exact mode past enumeration.COLUMN_CEILING exits 4")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "logspace"), default="exact")
    output(p)
    cache(p)
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("table", help="table of P(s, n) over an s-list and n range")
    p.add_argument("--s-list", type=_int_list, required=True)
    p.add_argument("--n-max", type=int, required=True)
    output(p, all_formats)
    cache(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("oracle", help="brute-force counts checked against the formula")
    p.add_argument("--s", type=int, required=True)
    span = p.add_mutually_exclusive_group()
    span.add_argument("--n", type=int, default=None)
    span.add_argument("--n-max", type=int, default=None)
    span.add_argument("--rooted", type=_int_pair, default=None, metavar="A,B", help="check the six rooted counts at split A,B")
    output(p)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("quotient", help="normalized growth quotient series")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    output(p, all_formats, default="csv")
    p.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("regress", help="least squares on the log-count series")
    p.add_argument("--s", type=int, default=12)
    p.add_argument("--n-min", type=int, default=100)
    p.add_argument("--n-max", type=int, default=2800)
    output(p, ("text", "json"))
    p.set_defaults(handler=cmd_regress)

    p = sub.add_parser("fit", help="rational fit of the cancelation defect in s")
    p.add_argument("--s-max", type=int, default=100)
    p.add_argument("--proxy-n", type=int, default=2000)
    output(p, all_formats)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("word", help="reducedness / nodal class of one word")
    p.add_argument("--word", required=True)
    p.add_argument("--s", type=int, default=None, help="bound generator indices")
    p.add_argument("--dump-class", action="store_true")
    output(p, ("text", "json"))
    p.set_defaults(handler=cmd_word)

    return parser


def _emit(out_path, text):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        enumeration.write_atomic(out_path, text)
    except OSError as e:
        raise CacheError(f"cannot write output file {out_path}: {e}") from e


def _render(fmt, header, rows, envelope=None) -> str:
    """Rows under header as CSV (ints as str, floats as .17g, which reads
    back to the same double) or as JSON records, placed in
    envelope(records) when one is given."""
    if fmt == "csv":
        return ",".join(header) + "\n" + "".join(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n" for row in rows)
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records if envelope is None else envelope(records), indent=2) + "\n"


def _note(msg):
    print(f"note: {msg}", file=sys.stderr)


def cmd_compute(args) -> tuple[int, str]:
    if args.s < 0 or args.n < 0:
        raise DomainError(f"compute needs s >= 0 and n >= 0, got s={args.s} n={args.n}")
    if args.s == 0 or args.n == 0:
        _note(f"degenerate input s={args.s} n={args.n}: no such words, count is 0")
        return EXIT_OK, "0\n" if args.mode == "exact" else "-inf\n"
    if args.mode == "exact":
        return EXIT_OK, f"{enumeration.build_table(args.s, args.n, args.cache_dir)[args.n]}\n"
    table = asymptotics.log_peri_table(args.s, max(args.n, 2))
    return EXIT_OK, f"{table.values[args.n]:.6g}\n"


def cmd_table(args) -> tuple[int, str]:
    if args.n_max < 1:
        raise DomainError(f"table needs n_max >= 1, got {args.n_max}")
    if any(s < 0 for s in args.s_list):
        raise DomainError(f"table needs s >= 0, got {args.s_list}")
    if 0 in args.s_list:
        _note("degenerate s=0 in list: no such words, all counts are 0")
    columns = {}
    for s in sorted(set(args.s_list), reverse=True):  # once each, largest first: a refused list of cold columns computes nothing
        if s == 0:
            enumeration.check_column(0, 1, args.n_max)
            columns[s] = [0] * (args.n_max + 1)
        else:
            columns[s] = enumeration.build_table(s, args.n_max, args.cache_dir).values
    rows = [(n, s, columns[s][n]) for n in range(1, args.n_max + 1) for s in args.s_list]
    if args.fmt == "text":
        texts = [str(p) for _, _, p in rows]  # str of a bigint is quadratic: render each once
        width = max(map(len, texts))
        body = "".join(f"n={n:<4d} s={s:<4d} P={p:>{width}}\n" for (n, s, _), p in zip(rows, texts))
    else:
        body = _render(args.fmt, ("n", "s", "P"), rows)
    return EXIT_OK, body


def cmd_oracle(args) -> tuple[int, str]:
    if args.rooted is not None:
        a, b = args.rooted
        # The oracle's guard refuses a large split before the formula runs.
        counts = [(op, freewords.count_reduced_rooted(args.s, a, b, op)) for op in freewords.ALL_OPS]
        expected = enumeration.aux_bivariate(args.s, a, b)
        checks = [(f"s={args.s} a={a} b={b} root={op.name}", got, expected) for op, got in counts]
    else:
        if args.n is None and (args.n_max is None or args.n_max < 1):
            raise DomainError(f"oracle needs --n, or --n-max >= 1 (got n_max={args.n_max})")
        ns = range(args.n, args.n + 1) if args.n is not None else range(1, args.n_max + 1)
        # The oracle's guard refuses a bad or large n before the formula
        # runs.  Its price grows with n, so the largest n is priced first
        # and a refused span costs no brute-force work.
        counts = {n: freewords.count_reduced(args.s, n) for n in reversed(ns)}
        column = enumeration.build_table(args.s, ns[-1]).values
        checks = [(f"s={args.s} n={n}", counts[n], column[n]) for n in ns]
    text = "".join(f"{label} oracle={got} formula={want} {'ok' if got == want else 'MISMATCH'}\n"
                   for label, got, want in checks)
    return EXIT_OK if all(got == want for _, got, want in checks) else EXIT_MISMATCH, text


def cmd_quotient(args) -> tuple[int, str]:
    table = asymptotics.log_peri_table(args.s, args.n_max)
    rows = list(zip(*(a.tolist() for a in asymptotics.quotient_series(table))))
    if args.fmt == "text":
        body = "".join(f"n={n:<5d} logP={lv:.6g} logBound={lb:.6g} quotient={q:.6g}\n" for n, lv, lb, q in rows)
    else:
        body = _render(args.fmt, ("n", "logP", "logBound", "quotient"), rows, lambda records: {"s": args.s, "rows": records})
    return EXIT_OK, body


def cmd_regress(args) -> tuple[int, str]:
    table = asymptotics.log_peri_table(args.s, args.n_max)
    reg = asymptotics.linear_regression(asymptotics.regression_points(table, args.n_min, args.n_max))
    ln3s = math.log(3 * args.s)
    if args.fmt == "json":
        header = ("s", "n_min", "n_max", "slope", "intercept", "residual_stderr",
                  "ref_slope", "ln_3s", "ref_intercept", "minus_ln_3")
        row = (args.s, args.n_min, args.n_max, reg.slope, reg.intercept, reg.residual_stderr,
               REF_SLOPE, ln3s, REF_INTERCEPT, -math.log(3))
        body = _render("json", header, [row], lambda records: records[0])
    else:
        body = (
            f"series (n, ln P - ln C_n) for s={args.s}, n in [{args.n_min}, {args.n_max}]\n"
            f"slope            = {reg.slope:.6g}\n"
            f"  vs {REF_SLOPE:<12}: {reg.slope - REF_SLOPE:+.6g}\n"
            f"  vs ln(3s)      : {reg.slope - ln3s:+.6g}  (ln {3 * args.s} = {ln3s:.6g})\n"
            f"intercept        = {reg.intercept:.6g}\n"
            f"  vs {REF_INTERCEPT:<12}: {reg.intercept - REF_INTERCEPT:+.6g}\n"
            f"  vs -ln 3       : {reg.intercept + math.log(3):+.6g}  (-ln 3 = {-math.log(3):.6g})\n"
            f"residual stderr  = {reg.residual_stderr:.6g}\n"
        )
    return EXIT_OK, body


def cmd_fit(args) -> tuple[int, str]:
    if args.s_max < 2:
        raise DomainError(f"fit needs s_max >= 2, got {args.s_max}")
    if args.proxy_n < 3:
        raise DomainError(f"fit needs --proxy-n >= 3 (every defect at n = 2 is 0), got {args.proxy_n}")
    series = asymptotics.defect_series(range(1, args.s_max + 1), args.proxy_n)
    fit = asymptotics.rational_fit(series)
    if args.fmt == "text":
        body = (
            f"defect(s, n={args.proxy_n}) fitted to a / (s - b) over s = 1..{args.s_max}\n"
            f"a               = {fit.a:.6g}\n"
            f"  vs {REF_FIT_A:<11}: {fit.a - REF_FIT_A:+.6g}\n"
            f"b               = {fit.b:.6g}\n"
            f"  vs {REF_FIT_B:<11}: {fit.b - REF_FIT_B:+.6g}\n"
            f"  vs ln((1+sqrt 5)/2) = {GOLDEN_LOG:.6g} : {fit.b - GOLDEN_LOG:+.6g}\n"
            f"residual stderr = {fit.residual_stderr:.6g}\n"
        )
    else:
        body = _render(args.fmt, ("s", "defect"), series, lambda records: {
            "proxy_n": args.proxy_n,
            "series": records,
            "fit": {"a": fit.a, "b": fit.b, "residual_stderr": fit.residual_stderr},
            "ref_a": REF_FIT_A, "ref_b": REF_FIT_B, "golden_log": GOLDEN_LOG,
        })
    return EXIT_OK, body


def cmd_word(args) -> tuple[int, str]:
    tree = freewords.parse_word(args.word, args.s)
    reduced = freewords.is_reduced(tree)
    members = sorted(freewords.format_word(f) for f in freewords.nodal_class(tree)) if args.dump_class else None
    if args.fmt == "json":
        header, row = ("word", "reduced"), (freewords.format_word(tree), reduced)
        if members is not None:
            header, row = header + ("nodal_class",), row + (members,)
        body = _render("json", header, [row], lambda records: records[0])
    else:
        body = f"word: {freewords.format_word(tree)}\nreduced: {'true' if reduced else 'false'}\n"
        if members is not None:
            body += "".join(m + "\n" for m in members)
    return EXIT_OK, body


def main(argv=None) -> int:
    # Exact counts outgrow Python's int <-> str digit limit (4300 by default)
    # inside enumeration.COLUMN_CEILING, e.g. P(12, n) from n = 1998.  The limit
    # is lifted for this run only and the caller's value set back after.
    # Python 3.10 builds older than 3.10.7 have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if "cache_dir" in args:  # compute and table: the flag wins over the environment; empty is unset
            args.cache_dir = args.cache_dir or os.environ.get("PCAT_CACHE_DIR") or None
        code, text = args.handler(args)
        _emit(args.out, text)
        return code
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except CacheError as e:
        print(f"cache error: {e}", file=sys.stderr)
        return EXIT_CACHE
    except ResourceGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_GUARD
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
