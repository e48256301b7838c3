#!/usr/bin/env python3
"""Benchmark of contractmatch: one seeded workload run, end to end or traced.

    python3 bench/run.py --workload {marriage,bulk,exhaustive,cli} --seed N \\
        --seconds T --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced in a fresh worker process and
the end-to-end metrics are reported, with times scaled to a reference host
speed (see hostspeed.py); ``setup_s`` is the median of several fresh worker
start-ups.  With ``--trace 1`` a traced worker runs a fixed,
seeded set of items of every workload and the per-layer metrics are derived
from the trace file it writes.  Human-readable lines come first; the last
stdout line is the JSON result.  Results and traces are kept in
``.bench_results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Scaler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("marriage", "bulk", "exhaustive", "cli")
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(args: list[str], timeout: float) -> tuple[float, list[str]]:
    """Start a worker; return its start time (CLOCK_MONOTONIC) and stdout lines."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return started, proc.stdout.splitlines()


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Process start to ready-for-the-first-item, for one fresh worker:
    (scaled to the reference host speed, wall)."""
    scaler = Scaler()
    started, lines = _worker(
        ["--workload", workload, "--seed", str(seed), "--setup-only"], 60
    )
    wall = json.loads(lines[0])["ready"] - started
    return scaler.scale(wall), wall


def _quantiles(times: list[float]) -> tuple[float, float]:
    return statistics.median(times), statistics.quantiles(times, n=10)[-1]


def end_to_end(args) -> tuple[dict, dict]:
    setups = [
        setup_seconds(args.workload, args.seed)
        for _ in range(1 if args.smoke else SETUP_PROBES)
    ]
    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.smoke:
        worker_args += ["--smoke", "--min-items", "2"]
    _, lines = _worker(worker_args, WORKER_TIMEOUT_S)
    out = json.loads(lines[-1])
    times, wall = out["times"], out["wall"]
    attempted, failed = len(times), out["failed"]
    p50, p90 = _quantiles(times)
    metrics = {
        "items_per_s": ((attempted - failed) / sum(times), "1/s"),
        "item_s.p50": (p50, "s"),
        "item_s.p90": (p90, "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
    }
    wall_p50, wall_p90 = _quantiles(wall)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "beyond_p90": sum(t > p90 for t in times),
        "setup_samples": setups,
        "wall": {
            "items_per_s": (attempted - failed) / sum(wall),
            "item_s.p50": wall_p50,
            "item_s.p90": wall_p90,
            "setup_s": statistics.median(w for _, w in setups),
            "host_slowdown": sum(wall) / sum(times),
        },
        "failures": out["failures"],
        "contractmatch": out["meta"]["contractmatch"],
    }
    return metrics, summary


def traced(args) -> tuple[dict, dict]:
    from tracing import derive, metric_units

    trace_file = RESULTS / f"trace-seed{args.seed}.json"
    worker_args = ["--traced", "--seed", str(args.seed), "--trace-file", str(trace_file)]
    if args.smoke:
        worker_args += ["--smoke", "--min-items", "1"]
    _, lines = _worker(worker_args, WORKER_TIMEOUT_S)
    out = json.loads(lines[-1])
    values, stability_over_run = derive(trace_file)
    metrics = {name: (values[name], unit) for name, unit in metric_units().items()}
    summary = {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "stability_over_run": stability_over_run,
        "failures": out["failures"],
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="a handful of items, for bench/smoke.py"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contractmatch" / "__init__.py").is_file():
        print(f"error: no contractmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    RESULTS.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    metrics, summary = (traced if args.trace else end_to_end)(args)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for key in ("attempted", "failed", "fail_frac", "beyond_p90", "stability_over_run"):
        if key in summary:
            print(f"{key:40s} {summary[key]:14.6g}")
    for name, value in summary.get("wall", {}).items():
        print(f"{'wall ' + name:40s} {value:14.6g}")
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"meta": meta, "summary": summary, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
