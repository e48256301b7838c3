#!/usr/bin/env python3
"""Where ``engine.run``'s time goes on one cycle of a benchmark workload.

Builds the first cycle of the ``marriage`` or ``bulk`` workload's inputs
(items ``0 .. period-1`` of ``bench/workloads.py``, as a benchmark worker
does), then times, in each of ``--passes`` passes, ``run`` on every item and
the singleton stability verdict (``is_stable_set``) on every outcome.  It
prints the fastest pass of each, in milliseconds for the whole cycle, and
their difference: the rounds, with the agreement verdict and the building
of each run's ``Trace``.  A trace holds only what each round changed, as
ids (a marriage run) or as masks (a bulk run; see ``engine.Trace``); its
pools, offers and accepted sets are rebuilt when first read, which no pass
does, so that rebuild is not timed.

A benchmark worker runs each item right after a host-speed calibration
loop (``bench/hostspeed.py``), which leaves the caches colder than a warm
loop of runs does.  So each pass also times ``run`` on every item with
``hostspeed.calibrate()`` after each, and the line before the last gives
the fastest of those cycles scaled as ``bench/worker.py``'s ``timed_run``
scales each item, and in wall time.  A worker also builds each item
right before it runs it, so each pass then times the second cycle
(items ``period .. 2·period-1``) as ``timed_run`` does: each item is built
with ``wl.make``, ``run`` on it is timed, and ``hostspeed.Scaler`` scales
that time.  The ``fresh run`` line gives the fastest of those cycles,
scaled and in wall time: of the three cycle times, it alone times items
as the benchmark does.

Usage::

    python3 scripts/phases.py --workload {marriage,bulk} --seed N [--passes P]

The last three lines read ``fresh run <ms> ms scaled <ms> ms wall in <items>
items``, ``calibrated run <ms> ms scaled <ms> ms wall`` and
``run <ms> ms verdict <ms> ms rounds <ms> ms in <items> items``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("marriage", "bulk"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=15)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from contractmatch import is_stable_set, run
    from hostspeed import Scaler
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    inputs = [wl.make(args.seed, i) for i in range(wl.period)]
    items = [(inp.instance, inp.proposer) for inp in inputs]
    outcomes = [(inst, run(inst, proposer).chosen) for inst, proposer in items]

    def calibrated(items) -> tuple[float, float]:
        """A cycle's ``run`` time, scaled and wall, timed item by item as
        ``timed_run`` times them; ``items`` may build each one as it is
        drawn."""
        scaler, scaled, wall = Scaler(), 0.0, 0.0
        for inst, proposer in items:
            start = perf_counter()
            run(inst, proposer)
            took = perf_counter() - start
            scaled, wall = scaled + scaler.scale(took), wall + took
        return scaled, wall

    run_s = verdict_s = float("inf")
    scaled_s = wall_s = fresh_scaled_s = fresh_wall_s = float("inf")
    for _ in range(args.passes):
        start = perf_counter()
        for inst, proposer in items:
            run(inst, proposer)
        middle = perf_counter()
        for inst, chosen in outcomes:
            is_stable_set(inst, chosen)
        end = perf_counter()
        run_s, verdict_s = min(run_s, middle - start), min(verdict_s, end - middle)
        scaled, wall = calibrated(items)
        scaled_s, wall_s = min(scaled_s, scaled), min(wall_s, wall)
        fresh = (wl.make(args.seed, i) for i in range(wl.period, 2 * wl.period))
        scaled, wall = calibrated((inp.instance, inp.proposer) for inp in fresh)
        fresh_scaled_s, fresh_wall_s = min(fresh_scaled_s, scaled), min(fresh_wall_s, wall)

    run_ms, verdict_ms = 1e3 * run_s, 1e3 * verdict_s
    print(f"run      {run_ms:8.3f} ms")
    print(f"verdict  {verdict_ms:8.3f} ms  {verdict_ms / run_ms:6.1%} of run")
    print(f"rounds   {run_ms - verdict_ms:8.3f} ms  {1 - verdict_ms / run_ms:6.1%} of run")
    print(
        f"fresh run {1e3 * fresh_scaled_s:.3f} ms scaled {1e3 * fresh_wall_s:.3f} ms wall"
        f" in {wl.period} items"
    )
    print(f"calibrated run {1e3 * scaled_s:.3f} ms scaled {1e3 * wall_s:.3f} ms wall")
    print(
        f"run {run_ms:.3f} ms verdict {verdict_ms:.3f} ms"
        f" rounds {run_ms - verdict_ms:.3f} ms in {len(items)} items"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
