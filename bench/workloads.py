"""The four workloads: seeded inputs, the timed item, and its reference check.

An item is one unit of work.  ``make(seed, i)`` builds item ``i``'s input
(untimed), ``execute(input, span)`` does the item's work through the
package's public API, each call inside a span, and ``check(input, output)``
raises :class:`CheckFailed` unless the output matches a reference that does
not come from the code under test.  In the traced run, ``instrument`` wraps
the input's choice functions in counters and ``probe`` times the phases of
its engine runs.  Sizes cycle with the item index with
period ``period``; runs stop only at the end of a cycle, so every run holds
each size equally often.

Why each workload exists:

- ``marriage``: many unit-demand agents, small slices, many rounds (up to
  ~70).  An agent-local or incremental engine shows here; the exhaustive
  layers stay idle.
- ``bulk``: few agents with large multi-unit slices and few rounds, so slice
  mapping and the stability scan dominate.  A change that only cuts rounds
  or only pays off with many agents shows no gain here.
- ``exhaustive``: the verification path (catalog, axiom scans, market
  checks, meet/join).  Table scans do nearly all the work, the engine
  almost none.
- ``cli``: one ``python -m contractmatch.cli`` process per item: interpreter
  start, import and file parsing, which in-process workloads never pay.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from contractmatch import (
    AggregateChoice,
    AggregatePart,
    ChoiceFunction,
    brute_glb,
    brute_lub,
    build_marriage_instance,
    check_coherent,
    check_money_monotone,
    check_no_shortage,
    check_two_prices,
    classical_gale_shapley,
    enumerate_stable_agreements,
    is_agreement,
    is_stable_set,
    join,
    meet,
    prefers,
    run,
)
from contractmatch.generators import (
    random_instance,
    random_marriage_profile,
    random_money_economy,
)

import reference
from tracing import CLI_SUBCOMMANDS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "contractmatch" / "fixtures"
CLI_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An item's output disagrees with its reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _run(instance, proposer: int, span):
    """``run`` inside an ``engine.run`` span, with its rounds and rejections."""
    with span("engine.run") as s:
        result = run(instance, proposer=proposer)
    s.add("rounds", result.trace.iterations)
    s.add("rejected", instance.n - bin(result.trace.final_pool).count("1"))
    return result


def engine_probes(rec, runs) -> None:
    """Split each ``run`` of an item into phases, on the uninstrumented instance.

    ``run``, then the agreement and the stability verdict of its outcome, are
    each timed on their own, fastest of three, so that the phases can be
    subtracted: rounds = run - agreement - stability.
    """
    for instance, proposer in runs:
        chosen = rec.fastest("engine.run_probe", lambda: run(instance, proposer=proposer)).chosen
        rec.fastest("engine.agreement_probe", lambda: is_agreement(instance, chosen))
        rec.fastest("engine.stability_probe", lambda: is_stable_set(instance, chosen))


# ---------------------------------------------------------------------------
# Counting wrappers for the traced run
# ---------------------------------------------------------------------------


class CountingChoice(ChoiceFunction):
    """Counts and times every evaluation of ``inner`` into the open span."""

    def __init__(self, inner: ChoiceFunction, rec, key: str):
        self.inner = inner
        self.n = inner.n
        self._rec = rec
        self._evals = f"{key}.evals"
        self._time = f"{key}.s"

    @property
    def domain_mask(self) -> int:
        return self.inner.domain_mask

    def choose_mask(self, subset: int) -> int:
        t0 = perf_counter()
        out = self.inner.choose_mask(subset)
        dt = perf_counter() - t0
        counts = self._rec.counts
        counts[self._evals] = counts.get(self._evals, 0) + 1
        counts[self._time] = counts.get(self._time, 0.0) + dt
        return out


def _wrap_side(f: ChoiceFunction, rec, side: int) -> ChoiceFunction:
    if isinstance(f, AggregateChoice):
        f = AggregateChoice(
            f.n,
            tuple(
                AggregatePart(p.agent, CountingChoice(p.spec, rec, "agent"), p.contract_ids)
                for p in f.parts
            ),
        )
    return CountingChoice(f, rec, f"side{side}")


def instrument_instance(instance, rec):
    """The same instance with every side and agent evaluation counted."""
    return dataclasses.replace(
        instance, f1=_wrap_side(instance.f1, rec, 1), f2=_wrap_side(instance.f2, rec, 2)
    )


# ---------------------------------------------------------------------------
# marriage
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MarriageInput:
    men: list
    women: list
    instance: object
    proposer: int


class Marriage:
    name = "marriage"
    # Every k from 16 to 32: item times then spread smoothly over a wide
    # range, so the median and p90 move gradually with the host's speed
    # instead of jumping between a few size classes.
    SIZES = tuple(range(16, 33))
    period = 2 * len(SIZES)  # every size with both proposers
    TRACE = tuple(range(0, period, 3))  # items of the traced run

    def make(self, seed: int, i: int) -> MarriageInput:
        k = self.SIZES[i % len(self.SIZES)]
        men, women = random_marriage_profile(seed + i, k, k)
        return MarriageInput(men, women, build_marriage_instance(men, women), 1 + i % 2)

    def instrument(self, inp: MarriageInput, rec) -> MarriageInput:
        return dataclasses.replace(inp, instance=instrument_instance(inp.instance, rec))

    def execute(self, inp: MarriageInput, span) -> int:
        return _run(inp.instance, inp.proposer, span).chosen

    def probe(self, inp: MarriageInput, rec) -> None:
        engine_probes(rec, [(inp.instance, inp.proposer)])
        gs = rec.fastest("oracle.gs", lambda: classical_gale_shapley(inp.men, inp.women))
        _expect(gs == reference.gale_shapley(inp.men, inp.women), "the oracle's Gale-Shapley differs")

    def check(self, inp: MarriageInput, chosen: int) -> None:
        k = len(inp.women)
        # Contract (man i, woman j) has id i * k + j.
        pairs = {(g // k, g % k) for g in range(k * k) if chosen >> g & 1}
        if inp.proposer == 1:
            expected = reference.gale_shapley(inp.men, inp.women)
        else:
            expected = {(m, w) for w, m in reference.gale_shapley(inp.women, inp.men)}
        _expect(pairs == expected, f"proposer {inp.proposer} outcome is not Gale-Shapley's")


# ---------------------------------------------------------------------------
# bulk
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BulkInput:
    instance: object
    proposer: int


class Bulk:
    name = "bulk"
    SIZES = tuple(range(200, 801, 50))  # dense for the same reason as marriage
    period = 2 * len(SIZES)  # every size, each instance solved once per proposer
    TRACE = (0, 1, 12, 13, 24, 25)  # n = 200, 500, 800, both proposers

    def __init__(self) -> None:
        self._made: tuple[tuple[int, int], object] = ((0, -1), None)
        self._last: tuple[object, int] | None = None  # (instance, side-1 outcome)

    def make(self, seed: int, i: int) -> BulkInput:
        """Items 2j and 2j+1 solve one instance with proposer 1, then 2."""
        base = i - i % 2
        if self._made[0] != (seed, base):
            n = self.SIZES[base // 2 % len(self.SIZES)]
            self._made = ((seed, base), random_instance(seed + base, n, 5, 20))
        return BulkInput(self._made[1], 1 + i % 2)

    def instrument(self, inp: BulkInput, rec) -> BulkInput:
        return dataclasses.replace(inp, instance=instrument_instance(inp.instance, rec))

    def execute(self, inp: BulkInput, span) -> int:
        return _run(inp.instance, inp.proposer, span).chosen

    def probe(self, inp: BulkInput, rec) -> None:
        engine_probes(rec, [(inp.instance, inp.proposer)])

    def check(self, inp: BulkInput, chosen: int) -> None:
        inst = inp.instance
        problem = reference.stable_agreement_problem(inst, chosen)
        _expect(problem is None, f"proposer {inp.proposer}: {problem}")
        if inp.proposer == 1:
            self._last = (inst, chosen)
            return
        # Lattice extremality: each side reveals its own proposing outcome
        # at least as good as the other side's.
        if self._last is not None and self._last[0] is inst:
            first = self._last[1]
            _expect(prefers(inst.f1, first, chosen).holds, "side 1 outcome is not side 1's optimum")
            _expect(prefers(inst.f2, chosen, first).holds, "side 2 outcome is not side 2's optimum")


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ExhaustiveInput:
    economy: object  # a MoneyEconomy, or None for a coherent instance
    instance: object


class Exhaustive:
    name = "exhaustive"
    KINDS = ("union_of_orders", "responsive_quota")
    # Coherent instances at n = 10 only.  Smaller ones form time clusters of
    # their own, and with them the median item sits on the gap between two
    # clusters; at n = 10 it lies inside one wide band with the 12-contract
    # economies.
    N = 10
    period = 2  # an economy, then a coherent instance
    TRACE = tuple(range(8))

    def make(self, seed: int, i: int) -> ExhaustiveInput:
        if i % 2 == 0:
            economy = random_money_economy(seed + i)
            return ExhaustiveInput(economy, economy.instance)
        return ExhaustiveInput(None, random_instance(seed + i, self.N, kinds=self.KINDS))

    def instrument(self, inp: ExhaustiveInput, rec) -> ExhaustiveInput:
        instance = instrument_instance(inp.instance, rec)
        economy = inp.economy and dataclasses.replace(inp.economy, instance=instance)
        return ExhaustiveInput(economy, instance)

    def probe(self, inp: ExhaustiveInput, rec) -> None:
        proposers = (1,) if inp.economy is not None else (1, 2)
        engine_probes(rec, [(inp.instance, p) for p in proposers])

    def execute(self, inp: ExhaustiveInput, span) -> dict:
        inst = inp.instance
        if inp.economy is not None:
            return self._economy(inp.economy, span)
        out = {"coherence": []}
        for f in (inst.f1, inst.f2):
            with span("coherence.check") as s:
                report = check_coherent(f)
            s.add("coherence_menus", 1 << inst.n)
            out["coherence"].append((report.coherent, report.cross_check_ok))
        with span("oracle.catalog") as s:
            catalog = enumerate_stable_agreements(inst)
        s.add("subsets", 1 << inst.n)
        out["catalog"] = catalog
        out["outcomes"] = [_run(inst, p, span).chosen for p in (1, 2)]
        out["pairs"] = []
        for i, a in enumerate(catalog.sets):
            for b in catalog.sets[i:]:
                with span("engine.meet"):
                    m = meet(inst, a, b)
                with span("engine.join"):
                    j = join(inst, a, b)
                with span("oracle.bounds"):
                    bounds = brute_glb(catalog, a, b), brute_lub(catalog, a, b)
                out["pairs"].append(((m, j), bounds))
        return out

    def _economy(self, economy, span) -> dict:
        inst = economy.instance
        with span("oracle.catalog") as s:
            catalog = enumerate_stable_agreements(inst)
        s.add("subsets", 1 << inst.n)
        with span("market.no_shortage"):
            shortage = check_no_shortage(economy, catalog.sets)
        with span("market.money") as s:
            money = check_money_monotone(economy, max_n=inst.n)
        s.add("money_menus", _money_menus(economy))
        with span("market.two_prices"):
            gaps = [check_two_prices(economy, a).ok for a in catalog.sets]
        outcome = _run(inst, 1, span).chosen
        return {
            "catalog": catalog,
            "premises": (shortage.ok, money.ok),
            "two_prices": gaps,
            "outcomes": [outcome],
        }

    def check(self, inp: ExhaustiveInput, out: dict) -> None:
        inst = inp.instance
        catalog = out["catalog"]
        _expect(len(catalog.sets) > 0, "empty catalog on a coherent instance")
        for s in catalog.sets:
            problem = reference.stable_agreement_problem(inst, s)
            _expect(problem is None, f"catalog member: {problem}")
        for outcome in out["outcomes"]:
            _expect(outcome in catalog.sets, f"run outcome {outcome:#x} not in the catalog")
        if inp.economy is not None:
            _expect(all(out["premises"]), "a conforming economy fails a market premise")
            _expect(all(out["two_prices"]), "a stable agreement gaps the price grid")
            return
        _expect(all(c and x for c, x in out["coherence"]), "coherent sides reported incoherent")
        below = catalog.below
        ids = range(len(catalog.sets))
        top = [k for k in ids if all(below[o][k] for o in ids)]
        bottom = [k for k in ids if all(below[k][o] for o in ids)]
        _expect(
            [catalog.sets[k] for k in top + bottom] == out["outcomes"],
            "proposer outcomes are not the catalog's extremes",
        )
        for (m, j), (glb, lub) in out["pairs"]:
            _expect(glb is not None and lub is not None, "catalog pair lacks a unique bound")
            _expect((m, j) == (glb, lub), "meet/join disagree with the brute-force bounds")


def _money_menus(economy) -> int:
    """Menus the money-monotonicity scan covers: 2^|slice| per agent, both sides."""
    sizes: dict[tuple[int, str], int] = {}
    for c in economy.contracts:
        for key in ((1, c.producer), (2, c.consumer)):
            sizes[key] = sizes.get(key, 0) + 1
    return sum(1 << k for k in sizes.values())


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CliInput:
    subcommand: str
    fixture: str
    argv: list


class Cli:
    name = "cli"
    SUBCOMMANDS = CLI_SUBCOMMANDS
    period = len(SUBCOMMANDS) * len(reference.FIXTURES)

    def __init__(self) -> None:
        self._passes: dict[tuple[int, int], list[CliInput]] = {}
        self.items = []
        for fixture in reference.FIXTURES:
            path = FIXTURE_DIR / fixture
            names = json.loads(path.read_text())["contracts"]
            for sub in self.SUBCOMMANDS:
                argv = [sub, str(path), "--json"]
                if sub == "query":
                    argv += ["--op", "prefers", "-A", names[0], "-B", names[-1]]
                self.items.append(CliInput(sub, fixture, argv))
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def make(self, seed: int, i: int) -> CliInput:
        """Item ``i``: each pass runs every (fixture, subcommand) once, in a
        seeded order."""
        key = (seed, i // self.period)
        if key not in self._passes:
            order = list(self.items)
            random.Random(f"{seed}/{key[1]}").shuffle(order)
            self._passes = {key: order}
        return self._passes[key][i % self.period]

    def execute(self, inp: CliInput, span=None):
        proc = subprocess.run(
            [sys.executable, "-m", "contractmatch.cli", *inp.argv],
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
            env=self.env,
            cwd=ROOT,
        )
        return proc.returncode, proc.stdout

    def check(self, inp: CliInput, out) -> None:
        code, stdout = out
        check_cli_output(inp, code, stdout)


def check_cli_output(inp: CliInput, code: int, stdout: str) -> None:
    expected = reference.cli_exit_code(inp.subcommand, inp.fixture)
    where = f"{inp.subcommand} {inp.fixture}"
    _expect(code == expected, f"{where}: exit {code}, expected {expected}")
    if code not in (0, 1):
        return
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"{where}: output is not JSON ({e})") from None
    if inp.subcommand == "solve":
        stable = inp.fixture not in reference.UNSTABLE_OUTCOME
        _expect(payload["stable"] is stable, f"{where}: stable is {payload['stable']}")
    elif inp.subcommand == "lattice":
        _expect(payload["verified"] is True, f"{where}: meet/join not verified")
    elif inp.subcommand == "query":
        _expect(isinstance(payload["holds"], bool), f"{where}: no verdict")


WORKLOADS = {w.name: w for w in (Marriage, Bulk, Exhaustive, Cli)}
