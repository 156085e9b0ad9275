"""Regenerate the stored reference defect series used by log_growth.

    python3 perfbench/make_reference.py

Writes perfbench/data/defects_n2000.json: the cancelation defect at
n = 2000 for s = 1..100, and the rational fit of the whole series.
Run it from the repository root.  The stored file pins the numbers of
the commit it was made at; regenerate it only when a change to the
log-space engine is meant to move them.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from pericatalan.asymptotics import defect_series, rational_fit  # noqa: E402

PROXY_N = 2000
S_MAX = 100


def main() -> int:
    series = defect_series(range(1, S_MAX + 1), PROXY_N)
    fit = rational_fit(series)
    doc = {
        "proxy_n": PROXY_N,
        "defects": {str(s): d for s, d in series},
        "fit": {"a": fit.a, "b": fit.b, "residual_stderr": fit.residual_stderr},
    }
    path = os.path.join(HERE, "data", "defects_n2000.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}: a={fit.a:.6g} b={fit.b:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
