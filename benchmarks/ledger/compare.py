#!/usr/bin/env python3
"""Compare two ledger documents: ``compare.py A.json B.json``.

A is the parent, B the change.  One row per (workload, end-to-end
metric): both medians with quartiles, the change in the metric's *worse*
direction, its bound, and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``improved``    B is better by more than A's own run-to-run spread
``unchanged``   neither
``unresolved``  the spread exceeds the bound, so the bound cannot be
                checked — unless every B run beats every A run

Medians and quartiles are taken across a document's sets (``run.py
--spread N``); a single-set document falls back on the quartiles of the
ops inside its one run.  The last column says whether each workload's
``result_digest`` is the same in both documents (same seeds only).
``--layers`` adds the layer metrics side by side.  Exits 1 on any
``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import (  # noqa: E402
    E2E,
    PER_LAYER,
    WORKLOADS,
    quartiles,
    worse_by,
)


def series(doc: dict, workload: str, name: str, kind: str = "e2e"):
    """(p25, p50, p75, values) of one metric across *doc*'s sets."""
    entries = [s[workload][kind].get(name) for s in doc["sets"]
               if s[workload].get(kind)]
    entries = [e if kind == "e2e" else {"value": e}
               for e in entries if e is not None]
    if not entries:
        return None
    values = [e["value"] for e in entries]
    if len(values) >= 2:
        return (*quartiles(values), values)
    (e,), (v,) = entries, values
    return e.get("p25", v), v, e.get("p75", v), values


def verdict(metric, a, b) -> tuple[float, str]:
    """(relative change, positive = worse; verdict) of B against A."""
    a25, a50, a75, a_values = a
    b25, b50, b75, b_values = b
    if a50 == 0:  # failure_rate: any failure at all is a regression
        return b50, "regressed" if b50 > 0 else "unchanged"
    rel = worse_by(metric, a50, b50)
    own_spread = (a75 - a25) / abs(a50)
    spread = max(a75 - a25, b75 - b25) / abs(a50)
    if metric.better == "lower":
        separated = max(b_values) < min(a_values)
    else:
        separated = min(b_values) > max(a_values)
    if spread > metric.bound and not separated:
        return rel, "unresolved"
    if rel > metric.bound:
        return rel, "regressed"
    if rel < 0 and -rel > own_spread:
        return rel, "improved"
    return rel, "unchanged"


def digest_column(a: dict, b: dict, workload: str) -> str:
    da = {s[workload]["seed"]: s[workload]["digest"] for s in a["sets"]}
    db = {s[workload]["seed"]: s[workload]["digest"] for s in b["sets"]}
    shared = da.keys() & db.keys()
    if not shared:
        return "n/a (seeds differ)"
    return "same" if all(da[k] == db[k] for k in shared) else "DIFFERENT"


def _cell(s) -> str:
    return f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}]"


def compare(a: dict, b: dict, layers: bool = False) -> bool:
    """Print the table; ``False`` if any row regressed."""
    ok = True
    print(f"{'workload':<16} {'metric':<20} {'A median [p25, p75]':<34} "
          f"{'B median [p25, p75]':<34} {'worse by':>9} {'bound':>6}  "
          f"{'verdict':<10} result_digest")
    for workload in WORKLOADS:
        digest = digest_column(a, b, workload)
        for m in E2E:
            sa, sb = series(a, workload, m.name), series(b, workload, m.name)
            if sa is None or sb is None:
                continue
            rel, word = verdict(m, sa, sb)
            ok &= word != "regressed"
            print(f"{workload:<16} {m.name:<20} {_cell(sa):<34} "
                  f"{_cell(sb):<34} {rel:>+9.2%} {m.bound:>6.0%}  "
                  f"{word:<10} {digest}")
    if layers:
        print(f"\n{'workload':<16} {'layer metric':<40} {'A':>12} {'B':>12} "
              f"{'worse by':>9}  should move")
        for workload in WORKLOADS:
            for m in PER_LAYER:
                sa = series(a, workload, m.name, "layers")
                sb = series(b, workload, m.name, "layers")
                if sa is None or sb is None:
                    continue
                rel = worse_by(m, sa[1], sb[1]) if sa[1] else float("nan")
                print(f"{workload:<16} {m.name:<40} {sa[1]:>12.5g} "
                      f"{sb[1]:>12.5g} {rel:>+9.2%}  {m.moves}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="parent's ledger document")
    ap.add_argument("b", type=Path, help="the change's ledger document")
    ap.add_argument("--layers", action="store_true",
                    help="also list the layer metrics side by side")
    args = ap.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    return 0 if compare(a, b, args.layers) else 1


if __name__ == "__main__":
    sys.exit(main())
