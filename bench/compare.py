#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py <setA> [<setB>]

A set is a directory of documents written by ``bench/run.py --json`` (any
number of runs of any workloads).  For every workload and end-to-end metric
the report gives both medians, their quartiles, the relative difference of B
against A (positive = worse) and the bound from ``metrics.py``.  A metric is

* ``out of bound`` when B's median is worse than A's by more than the bound,
* ``unresolved``   when either set's inter-quartile range exceeds the bound
                   (unless every run of one set beats every run of the other),
* ``ok``           otherwise.

With one set only its spread (inter-quartile range over median) is reported
against the bound.  Traffic counts must be identical whenever both sets ran
the same seeds.  Exit code 1 if any metric is out of bound, 2 on bad input.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import format_rows                                    # noqa: E402
from metrics import END_TO_END, EXACT_FOR_ONE_SEED                 # noqa: E402


def load_set(directory: str) -> Dict[str, List[dict]]:
    """End-to-end documents of a directory, grouped by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            document = json.load(handle)
        if "metrics" in document and not document.get("smoke"):
            runs[document["workload"]].append(document)
    return runs


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def compare(runs_a: Dict[str, List[dict]], runs_b: Dict[str, List[dict]]):
    """Report rows and the number of out-of-bound metrics."""
    rows = [("workload / metric", "median A", "IQR A", "median B", "IQR B",
             "B vs A", "bound", "verdict")]
    out_of_bound = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        docs_a, docs_b = runs_a[workload], runs_b[workload]
        same_seeds = sorted(d["seed"] for d in docs_a) == \
            sorted(d["seed"] for d in docs_b)
        for name, _unit, better, bound in END_TO_END:
            a = [d["metrics"][name]["value"] for d in docs_a]
            b = [d["metrics"][name]["value"] for d in docs_b]
            sign = 1.0 if better == "lower" else -1.0
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = sign * (median_b - median_a) / median_a
            separated = max(a) < min(b) or max(b) < min(a)
            if name in EXACT_FOR_ONE_SEED and same_seeds:
                bound_shown, bad = "exact", sorted(a) != sorted(b)
            else:
                bound_shown, bad = f"{bound:.0%}", worse > bound
            if bad:
                verdict = "OUT OF BOUND"
                out_of_bound += 1
            elif max(spread(a), spread(b)) > bound and not separated:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((f"{workload} {name}", f"{median_a:.6g}",
                         f"{spread(a):.1%}", f"{median_b:.6g}",
                         f"{spread(b):.1%}", f"{worse:+.1%}", bound_shown,
                         verdict))
    return rows, out_of_bound


def spreads(runs: Dict[str, List[dict]]):
    """One set alone: each metric's spread against its bound."""
    rows = [("workload / metric", "runs", "median", "q1", "q3", "IQR/median",
             "bound", "verdict")]
    for workload in sorted(runs):
        for name, _unit, _better, bound in END_TO_END:
            values = [d["metrics"][name]["value"] for d in runs[workload]]
            q1, median, q3 = quartiles(values)
            verdict = "ok" if spread(values) <= bound / 3 else \
                "wide" if spread(values) <= bound else "TOO WIDE"
            rows.append((f"{workload} {name}", str(len(values)), f"{median:.6g}",
                         f"{q1:.6g}", f"{q3:.6g}", f"{spread(values):.1%}",
                         f"{bound:.0%}", verdict))
    return rows


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) not in (1, 2) or not all(map(os.path.isdir, arguments)):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sets = [load_set(directory) for directory in arguments]
    if not all(sets):
        print("bench/compare.py: a set holds no end-to-end documents",
              file=sys.stderr)
        return 2
    if len(sets) == 1:
        print(format_rows(spreads(sets[0])))
        return 0
    rows, out_of_bound = compare(*sets)
    print(format_rows(rows))
    failed = sum(d["checks"]["failed"] for runs in sets
                 for docs in runs.values() for d in docs)
    print(f"# {out_of_bound} metric(s) out of bound, {failed} failed check(s) "
          f"in the runs compared")
    return 1 if out_of_bound or failed else 0


if __name__ == "__main__":
    sys.exit(main())
