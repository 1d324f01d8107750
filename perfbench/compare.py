"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``perfbench/run.py`` appends them. Untraced
runs are grouped by workload; for every end-to-end metric of
BENCHMARK.json the table gives each side's median and quartiles over its
runs, the change in the median, and a verdict:

worse       the change's median is worse than the parent's by more than the bound
unresolved  the parent's own spread (IQR / median) is wider than the bound,
            and not every change run beats every parent run
better      every change run beats every parent run, or the medians differ
            by more than the parent's own spread
unchanged   otherwise

A gain also needs nine tenths of alternating parent/change pairs won;
that needs paired runs, which these files do not record as pairs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Returns (verdict, relative change of the median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    cmed = quartiles(change)[1]
    worsening = sign * (cmed - pmed) / pmed
    parent_spread = (p3 - p1) / pmed
    all_better = all(sign * c < sign * p for c in change for p in parent)
    if all_better:
        return "better", worsening
    if parent_spread > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if -worsening > parent_spread:
        return "better", worsening
    return "unchanged", worsening


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (load_runs(Path(arg)) for arg in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    print(f"{'workload':11s} {'metric':24s} {'unit':8s} {'parent median [q1, q3] n':34s} "
          f"{'change median [q1, q3] n':34s} {'worse by':>9s}  verdict")
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:11s} only in {'parent' if workload in parent else 'change'}")
            continue
        for metric in metrics:
            name = metric["name"]
            sides = [[run["metrics"][name]["value"] for run in runs[workload]] for runs in (parent, change)]
            result, worsening = verdict(sides[0], sides[1], metric["better"], metric["bound"])
            regressions += result == "worse"
            cells = []
            for values in sides:
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:11s} {name:24s} {metric['unit']:8s} {cells[0]:34s} {cells[1]:34s} "
                  f"{worsening:+9.1%}  {result}")
        for label, runs in (("parent", parent), ("change", change)):
            attempted = sum(run["attempted"] for run in runs[workload])
            failed = sum(run["failed"] for run in runs[workload])
            print(f"{workload:11s} ops {label}: {failed} failed of {attempted} attempted")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
