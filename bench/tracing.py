"""In-memory spans and counters for the traced run, and the per-layer metrics
derived from them.

A span is one call into a library layer made by the benchmark: its name,
start, end, parent span and item id.  Counters (choice evaluations, rounds,
menu counts) are added to the innermost open span.  Spans stay in memory and
are written to one JSON file when the run ends; :func:`derive` reads that
file back and turns it into the per-layer metrics named in
``BENCHMARK.json``.  This module uses only the standard library, so the
orchestrator can derive metrics without importing the package under test.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

IN_PROCESS = ("marriage", "bulk", "exhaustive")
CLI_SUBCOMMANDS = ("validate", "solve", "lattice", "market", "oracle", "query")


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "counts", "_rec")

    def __init__(self, rec: "Recorder", name: str, item: str | None):
        self._rec = rec
        self.name = name
        self.item = item
        self.parent: int | None = None
        self.start = self.end = 0.0
        self.counts: dict[str, float] = {}

    def __enter__(self) -> "Span":
        stack = self._rec.stack
        self.parent = stack[-1] if stack else None
        stack.append(len(self._rec.spans))
        self._rec.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self._rec.stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class Recorder:
    """Collects spans; ``counts`` is the innermost open span's counter dict."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item: str | None = None

    def span(self, name: str) -> Span:
        return Span(self, name, self.item)

    def fastest(self, name: str, fn, reps: int = 3):
        """Call ``fn`` ``reps`` times; keep the span of the fastest call."""
        best = None
        for _ in range(reps):
            t0 = perf_counter()
            result = fn()
            t1 = perf_counter()
            if best is None or t1 - t0 < best[1] - best[0]:
                best = (t0, t1)
        span = Span(self, name, self.item)
        span.parent = self.stack[-1] if self.stack else None
        span.start, span.end = best
        self.spans.append(span)
        return result

    @property
    def counts(self) -> dict[str, float]:
        return self.spans[self.stack[-1]].counts

    def write(self, path: Path, extra: dict) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.item, s.counts] for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, **extra}))


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def add(self, key: str, value: float) -> None:
        pass


_NULL = _NullSpan()


def no_span(name: str) -> _NullSpan:
    """The span factory of untraced runs: records nothing."""
    return _NULL


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
_ENGINE = [
    ("engine.run_s", "s"),
    ("engine.rounds", "count"),
    ("engine.stability_s", "s"),
    ("engine.rounds_s", "s"),
    ("engine.evals_per_rejection", "ratio"),
]
_CHOICE = [
    ("choice.evals.side1", "count"),
    ("choice.evals.side2", "count"),
    ("choice.evals.agent", "count"),
    ("choice.agent_s", "s"),
    ("aggregation.self_s", "s"),
]
_TAIL = [("generators.build_s", "s"), ("trace.overhead", "ratio")]
LAYER_METRICS: dict[str, list[tuple[str, str]]] = {
    "marriage": _ENGINE + _CHOICE + [("oracle.gs_s", "s")] + _TAIL,
    "bulk": _ENGINE + _CHOICE + _TAIL,
    "exhaustive": _ENGINE
    + [("engine.lattice_s", "s")]
    + _CHOICE
    + [
        ("oracle.catalog_s", "s"),
        ("oracle.catalog_subsets", "count"),
        ("oracle.bounds_s", "s"),
        ("coherence.check_s", "s"),
        ("coherence.menus", "count"),
        ("market.money_s", "s"),
        ("market.money_menus", "count"),
        ("market.no_shortage_s", "s"),
        ("market.two_prices_s", "s"),
    ]
    + _TAIL,
    "cli": [("instancefile.load_s", "s"), ("import.cli_s", "s")]
    + [(f"{sub}_s", "s") for sub in CLI_SUBCOMMANDS],
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name (``<workload>.<metric>``) with its unit."""
    return {
        f"{w}.{name}": unit for w, names in LAYER_METRICS.items() for name, unit in names
    }


def derive(path: Path) -> tuple[dict[str, float], int]:
    """Per-layer metrics from a trace file written by :meth:`Recorder.write`,
    and the number of engine runs whose stability phase timed longer than
    the whole run (which only timing noise can cause)."""
    doc = json.loads(path.read_text())
    dur: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], float] = {}
    medians: dict[tuple[str, str], list[float]] = {}
    run_s = 0.0
    stability_over_run = 0
    for name, start, end, _parent, item, span_counts in doc["spans"]:
        workload = item.split(":", 1)[0]
        key = (workload, name)
        dur[key] = dur.get(key, 0.0) + (end - start)
        medians.setdefault(key, []).append(end - start)
        if name == "engine.run_probe":
            run_s = end - start
        elif name == "engine.stability_probe":
            stability_over_run += end - start > run_s
        for counter, value in span_counts.items():
            for scope in ("work", name):
                ckey = (workload, f"{scope}/{counter}")
                counts[ckey] = counts.get(ckey, 0) + value

    out: dict[str, float] = {}
    for w in IN_PROCESS:
        d = lambda name: dur.get((w, name), 0.0)  # noqa: E731
        c = lambda name: counts.get((w, name), 0)  # noqa: E731
        run_s = d("engine.run_probe")
        stability_s = d("engine.stability_probe")
        side_evals = c("engine.run/side1.evals") + c("engine.run/side2.evals")
        out[f"{w}.engine.run_s"] = run_s
        out[f"{w}.engine.rounds"] = c("work/rounds")
        out[f"{w}.engine.stability_s"] = stability_s
        out[f"{w}.engine.rounds_s"] = run_s - stability_s - d("engine.agreement_probe")
        out[f"{w}.engine.evals_per_rejection"] = side_evals / max(1, c("work/rejected"))
        out[f"{w}.choice.evals.side1"] = c("work/side1.evals")
        out[f"{w}.choice.evals.side2"] = c("work/side2.evals")
        out[f"{w}.choice.evals.agent"] = c("work/agent.evals")
        out[f"{w}.choice.agent_s"] = c("work/agent.s")
        out[f"{w}.aggregation.self_s"] = (
            c("work/side1.s") + c("work/side2.s") - c("work/agent.s")
        )
        out[f"{w}.generators.build_s"] = d("generators.build")
        out[f"{w}.trace.overhead"] = doc["overhead"][w]
    out["marriage.oracle.gs_s"] = dur.get(("marriage", "oracle.gs"), 0.0)
    e = lambda name: dur.get(("exhaustive", name), 0.0)  # noqa: E731
    ec = lambda name: counts.get(("exhaustive", f"work/{name}"), 0)  # noqa: E731
    out["exhaustive.engine.lattice_s"] = e("engine.meet") + e("engine.join")
    out["exhaustive.oracle.catalog_s"] = e("oracle.catalog")
    out["exhaustive.oracle.catalog_subsets"] = ec("subsets")
    out["exhaustive.oracle.bounds_s"] = e("oracle.bounds")
    out["exhaustive.coherence.check_s"] = e("coherence.check")
    out["exhaustive.coherence.menus"] = ec("coherence_menus")
    out["exhaustive.market.money_s"] = e("market.money")
    out["exhaustive.market.money_menus"] = ec("money_menus")
    out["exhaustive.market.no_shortage_s"] = e("market.no_shortage")
    out["exhaustive.market.two_prices_s"] = e("market.two_prices")
    out["cli.instancefile.load_s"] = dur.get(("cli", "instancefile.load"), 0.0)
    out["cli.import.cli_s"] = statistics.median(doc["import_cli_s"])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = statistics.median(medians[("cli", f"cli.{sub}")])
    return out, stability_over_run
