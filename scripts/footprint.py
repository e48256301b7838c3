#!/usr/bin/env python3
"""Bytes that one cycle of a benchmark workload's inputs keeps alive.

Builds the first cycle of the ``marriage`` or ``bulk`` workload's inputs
(items ``0 .. period-1`` of ``bench/workloads.py``, as a benchmark worker
does before its timed run) under :mod:`tracemalloc`, and prints the bytes
still allocated once the cycle is built, then the ten source lines whose
allocations hold the most of them.  The package and the workload module are
imported before tracing starts, so only the inputs are counted.

Usage::

    python3 scripts/footprint.py --workload {marriage,bulk} --seed N

The last line reads ``retained <bytes> bytes in <items> inputs``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _where(frame: tracemalloc.Frame) -> str:
    path = Path(frame.filename)
    if path.is_relative_to(ROOT):
        path = path.relative_to(ROOT)
    return f"{path}:{frame.lineno}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("marriage", "bulk"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    inputs = [wl.make(args.seed, i) for i in range(wl.period)]
    gc.collect()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    sites = [d for d in after.compare_to(before, "lineno") if d.size_diff]
    for d in sites[:10]:
        print(f"{d.size_diff:>10} B {d.count_diff:>8} blocks  {_where(d.traceback[0])}")
    retained = sum(d.size_diff for d in sites)
    print(f"retained {retained} bytes in {len(inputs)} inputs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
