"""The workload process: one fresh interpreter per run, started by run.py.

    python3 bench/worker.py --workload W --seed S --seconds T [--setup-only]
    python3 bench/worker.py --traced --seed S --trace-file PATH

Set-up is the package import plus the first cycle of inputs; the worker
then prints ``{"ready": <CLOCK_MONOTONIC>}`` so the parent can time set-up
from process start.  The timed run executes items one at a time (a closed
loop with one client) until ``--seconds`` have passed, at the end of a size
cycle and after at least ``--min-items`` items.  Each item's wall time is
also scaled to a reference host speed (see hostspeed.py).  The last stdout
line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

IMPORT_PROBES = 5


def import_package():
    """Import ``contractmatch`` from this checkout's ``src/``, never another copy."""
    sys.path.insert(0, str(SRC))
    import contractmatch

    where = Path(contractmatch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"contractmatch imported from {where}, not from {SRC}")
    return contractmatch


def _item_error(failures: list, label: str, exc: BaseException) -> None:
    if len(failures) < 5:
        failures.append(f"{label}: {''.join(traceback.format_exception_only(exc)).strip()}")


def timed_run(wl, first: list, args) -> dict:
    """Run items until ``--seconds`` have passed; time each one in wall
    time and scaled to the reference host speed (see hostspeed.py)."""
    from hostspeed import Scaler
    from tracing import no_span

    times: list[float] = []
    wall: list[float] = []
    failures: list[str] = []
    failed = 0
    scaler = Scaler()
    start = time.monotonic()
    i = 0
    while not (
        (args.smoke or i % wl.period == 0)
        and i >= args.min_items
        and time.monotonic() - start >= args.seconds
    ):
        inp = first[i] if i < len(first) else wl.make(args.seed, i)
        t0 = time.perf_counter()
        try:
            out, error = wl.execute(inp, no_span), None
        except Exception as exc:  # an item's failure is a result, not a crash
            out, error = None, exc
        wall.append(time.perf_counter() - t0)
        times.append(scaler.scale(wall[-1]))
        try:
            if error is not None:
                raise error
            wl.check(inp, out)
        except Exception as exc:
            failed += 1
            _item_error(failures, f"item {i}", exc)
        i += 1
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "times": times,
        "wall": wall,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _traced_in_process(wl, rec, seed: int, indices, failures: list) -> tuple[float, float, int]:
    """Run each item of ``indices`` untraced, then traced, then probed.

    Returns (untraced seconds, traced seconds, failed items).  Traced outputs
    must equal the untraced ones, which must pass the reference check.
    """
    from tracing import no_span
    from workloads import CheckFailed

    inputs = []
    for i in indices:
        rec.item = f"{wl.name}:{i}"
        with rec.span("generators.build"):
            inputs.append(wl.make(seed, i))
    untraced = traced = 0.0
    failed = 0
    for i, inp in zip(indices, inputs):
        rec.item = f"{wl.name}:{i}"
        try:
            t0 = time.perf_counter()
            plain = wl.execute(inp, no_span)
            untraced += time.perf_counter() - t0
            wrapped = wl.instrument(inp, rec)
            t0 = time.perf_counter()
            out = wl.execute(wrapped, rec.span)
            traced += time.perf_counter() - t0
            if repr(out) != repr(plain):
                raise CheckFailed("traced output differs from the untraced one")
            wl.check(inp, plain)
            wl.probe(inp, rec)
        except Exception as exc:
            failed += 1
            _item_error(failures, rec.item, exc)
    return untraced, traced, failed


def _import_probe() -> float:
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import contractmatch.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout)


def _traced_cli(wl, rec, limit: int | None, failures: list) -> int:
    """Every CLI item once as a subprocess, then replayed in process with the
    instance-file loader timed."""
    import contractmatch.cli as cli
    from workloads import check_cli_output

    items = wl.items[:limit]
    failed = 0
    for i, inp in enumerate(items):
        rec.item = f"cli:{i}"
        try:
            with rec.span(f"cli.{inp.subcommand}"):
                code, stdout = wl.execute(inp)
            check_cli_output(inp, code, stdout)
        except Exception as exc:
            failed += 1
            _item_error(failures, rec.item, exc)

    load = cli.load

    def timed_load(path):
        with rec.span("instancefile.load"):
            return load(path)

    cli.load = timed_load
    try:
        for i, inp in enumerate(items):
            rec.item = f"cli:{i}"
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    with rec.span("cli.main"):
                        code = cli.main(inp.argv)
                check_cli_output(inp, code, out.getvalue())
            except Exception as exc:
                failed += 1
                _item_error(failures, f"{rec.item} in process", exc)
    finally:
        cli.load = load
    return failed


def traced_run(args) -> dict:
    from tracing import Recorder
    from workloads import WORKLOADS

    rec = Recorder()
    failures: list[str] = []
    failed = attempted = 0
    overhead = {}
    for name in ("marriage", "bulk", "exhaustive"):
        wl = WORKLOADS[name]()
        indices = wl.TRACE[: args.min_items] if args.smoke else wl.TRACE
        untraced, traced, bad = _traced_in_process(wl, rec, args.seed, indices, failures)
        overhead[name] = traced / untraced
        failed += bad
        attempted += len(indices)
    cli = WORKLOADS["cli"]()
    limit = args.min_items * len(cli.SUBCOMMANDS) if args.smoke else None
    failed += _traced_cli(cli, rec, limit, failures)
    attempted += len(cli.items[:limit])
    probes = [_import_probe() for _ in range(1 if args.smoke else IMPORT_PROBES)]
    rec.write(Path(args.trace_file), {"overhead": overhead, "import_cli_s": probes})
    return {"attempted": attempted, "failed": failed, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-items", type=int, default=100)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    package = import_package()
    if args.traced:
        print(json.dumps(traced_run(args)))
        return 0
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    first = [wl.make(args.seed, i) for i in range(min(wl.period, args.min_items))]
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0
    result = timed_run(wl, first, args)
    result["meta"] = {"contractmatch": package.__file__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
