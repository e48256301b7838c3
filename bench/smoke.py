#!/usr/bin/env python3
"""Smoke run of the benchmark: a handful of items per workload, in seconds.

    python3 bench/smoke.py

Runs bench/run.py with ``--smoke`` on every workload, untraced and once
traced, and checks each result line against BENCHMARK.json: the keys, every
metric with its unit, and a correct outcome.  Then checks that, in a copy
holding only BENCHMARK.json and bench/, the benchmark exits non-zero without
printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def require(condition: bool, message: object) -> None:
    if not condition:
        raise SystemExit(f"smoke run failed: {message}")


def check_result(stdout: str, expected: list[dict]) -> None:
    result = json.loads(stdout.splitlines()[-1])
    require(sorted(result) == ["attempted", "correct", "failed", "metrics"], result)
    require(result["correct"] is True and result["failed"] == 0, result)
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    require(got == {m["name"]: m["unit"] for m in expected}, got)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [(w, "0") for w in ("marriage", "bulk", "exhaustive", "cli")] + [("marriage", "1")]
    for workload, trace in runs:
        proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                   "--trace", trace, "--smoke")
        require(proc.returncode == 0, proc.stderr)
        check_result(proc.stdout, spec["per_layer" if trace == "1" else "end_to_end"])
        print(f"ok  {workload} --trace {trace}")

    bare = ROOT / ".bench_results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "marriage", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    require(proc.returncode != 0 and not proc.stdout.strip(), proc)
    print("ok  refuses to run without the sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
