#!/usr/bin/env python3
"""Summarise benchmark result files, or compare two sets of them.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result records written by bench/run.py (the files it
leaves in ``.bench_results/``; copy that directory away before switching
commits).  Untraced records only.  For every workload and end-to-end metric
this prints the median, the quartiles and the spread (Q3 - Q1, as a share of
the median) of the runs in BASE_DIR.  With NEW_DIR it also prints NEW_DIR's
median, the change as a share of BASE_DIR's median, and REGRESSION where the
change is worse than the metric's bound in BENCHMARK.json.  Quartiles are
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        workload = record["meta"]["workload"]
        for name, metric in record["metrics"].items():
            values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load(Path(argv[0]))
    new = load(Path(argv[1])) if len(argv) == 2 else {}
    regressions = 0
    print(f"{'workload':11s} {'metric':12s} {'n':>3s} {'median':>11s} {'q1':>11s}"
          f" {'q3':>11s} {'spread':>7s} {'bound':>6s}" + ("  new median  change" if new else ""))
    for (workload, name), values in sorted(base.items()):
        q1, med, q3 = quartiles(values)
        bound = metrics[name]["bound"]
        line = (f"{workload:11s} {name:12s} {len(values):3d} {med:11.5g} {q1:11.5g}"
                f" {q3:11.5g} {(q3 - q1) / med:7.3f} {bound:6.2f}")
        if (workload, name) in new:
            new_med = statistics.median(new[(workload, name)])
            change = (new_med - med) / med
            worse = change if metrics[name]["better"] == "lower" else -change
            line += f"  {new_med:10.5g} {change:+7.3f}"
            if worse > bound:
                line += "  REGRESSION"
                regressions += 1
        print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
