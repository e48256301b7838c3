"""Command-line interface.

Subcommands operate on instance files (see :mod:`contractmatch.instancefile`):

- ``validate``  — parse a file and check the declared choice functions
- ``solve``     — run the offer/rejection iteration and report the outcome
- ``lattice``   — enumerate stable agreements and their meet/join structure
- ``market``    — run money-economy checks (no-shortage, monotonicity, prices)
- ``oracle``    — dump the brute-force stable-agreement catalog as JSON
- ``query``     — evaluate revealed-preference questions on one side

Exit codes: 0 success, 1 a requested check found violations, 2 the input
could not be parsed or is semantically invalid, 3 an exhaustive check was
refused because the instance exceeds the configured size bounds.

Each handler returns its answer and :func:`main` writes it; a closed
stdout ends the command quietly, with its usual exit code.  Each handler
imports the checkers it runs (coherence, market, oracle) itself, so
``solve`` starts without loading any of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence

from .aggregation import AggregateChoice
from .engine import Instance, join, meet, run
from .errors import (
    DomainError,
    ParseError,
    PreconditionError,
    SizeBoundError,
    SpecError,
)
from .instancefile import LoadedFile, dumps_document, load
from .preference import (
    COHERENCE_CHECKED,
    COHERENCE_UNKNOWN,
    closure,
    indifferent,
    prefers,
)
from .sets import format_mask

if TYPE_CHECKING:
    from .choice import ChoiceFunction
    from .coherence import CoherenceReport
    from .oracle import StableSetCatalog

# A handler's answer: its --json payload, its human lines, its exit code.
Answer = tuple[dict[str, Any], list[str], int]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _coherence_payload(report: CoherenceReport, names: Sequence[str]) -> dict:
    def fmt(violations):
        return [v.describe(names) for v in violations]

    return {
        "coherent": report.coherent,
        "contraction": fmt(report.contraction),
        "rejection_consistency": fmt(report.irc),
        "substitutes": fmt(report.substitutes),
        "path_independence": fmt(report.path_independence),
    }


def _coherent_if_affordable(f: ChoiceFunction) -> bool | None:
    """Whether ``f`` is coherent, or ``None`` when ``check_coherent`` refuses
    the scan for its size."""
    from .coherence import check_coherent

    try:
        return check_coherent(f).coherent
    except SizeBoundError:
        return None


def _validate_side(
    instance: Instance, side: int
) -> tuple[dict[str, Any], list[str], bool]:
    """Check one side's choice functions.  Returns (payload, lines, ok)."""
    from .coherence import check_coherent

    lines: list[str] = []

    def check(label: str, f: ChoiceFunction, names: Sequence[str]) -> tuple[dict, bool]:
        report = check_coherent(f)
        lines.append(f"{label}: {'coherent' if report.coherent else 'NOT coherent'}")
        lines.extend(f"  {v.describe(names)}" for v in report.all_violations())
        return _coherence_payload(report, names), report.coherent

    f = instance.side(side)
    if not isinstance(f, AggregateChoice):
        payload, ok = check(f"side{side}", f, instance.names)
        return payload, lines, ok
    agents: dict[str, Any] = {}
    ok = True
    for part in f.parts:
        local_names = [instance.names[cid] for cid in part.contract_ids]
        agents[part.agent], part_ok = check(f"side{side}/{part.agent}", part.spec, local_names)
        ok = ok and part_ok
    payload: dict[str, Any] = {"agents": agents}
    # The aggregation theorems make per-agent checks sufficient; rerun
    # on the whole side only when it is small enough to be free.
    whole = _coherent_if_affordable(f)
    if whole is not None:
        payload["aggregate_coherent"] = whole
        ok = ok and whole
    return payload, lines, ok


def cmd_validate(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    instance = loaded.instance
    payload: dict[str, Any] = {"contracts": list(instance.names)}
    lines = [f"{len(instance.names)} contracts"]
    ok = True
    for side in (1, 2):
        side_payload, side_lines, side_ok = _validate_side(instance, side)
        payload[f"side{side}"] = side_payload
        lines.extend(side_lines)
        ok = ok and side_ok
    if loaded.economy is not None:
        from .market import check_money_monotone, check_no_shortage

        shortage = check_no_shortage(loaded.economy)
        money = check_money_monotone(loaded.economy)
        payload["market"] = {
            "no_shortage": shortage.ok,
            "missing_tuples": list(shortage.missing),
            "money_monotone": money.ok,
            "money_monotone_violations": [
                v.describe(instance.names) for v in money.violations
            ],
        }
        lines.append(f"market: no-shortage {'ok' if shortage.ok else 'FAILED'}")
        lines.append(f"market: money-monotone {'ok' if money.ok else 'FAILED'}")
        ok = ok and shortage.ok and money.ok
    payload["ok"] = ok
    lines.append("valid" if ok else "INVALID")
    return payload, lines, 0 if ok else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    instance = loaded.instance
    result = run(instance, proposer=args.proposer)
    chosen = instance.names_of(result.chosen)
    payload: dict[str, Any] = {
        "proposer": result.proposer,
        "chosen": chosen,
        "iterations": result.trace.iterations,
        "agreement": result.agreement.holds,
        "stable": result.stability.stable,
    }
    if result.stability.blocking_contract is not None:
        payload["blocking_contract"] = instance.names[result.stability.blocking_contract]
    lines = [
        f"chosen: {format_mask(result.chosen, instance.names)}",
        f"iterations: {result.trace.iterations}",
        f"agreement: {'yes' if result.agreement.holds else 'no'}",
        f"stable: {'yes' if result.stability.stable else 'no'}",
    ]
    if result.stability.blocking_contract is not None:
        lines.append(
            f"blocking contract: {instance.names[result.stability.blocking_contract]}"
        )
    cycle = result.trace.cycle
    if cycle:
        payload["converged"] = False
        payload["cycle"] = [instance.names_of(pool) for pool in cycle]
        loop = [format_mask(pool, instance.names) for pool in cycle + cycle[:1]]
        lines.append(f"converged: no, the pools cycle {' -> '.join(loop)}")
    if args.trace:
        steps = []
        for j in range(result.trace.iterations):
            steps.append(
                {
                    "step": j,
                    "pool": instance.names_of(result.trace.pools[j]),
                    "offer": instance.names_of(result.trace.offers[j]),
                    "accepted": instance.names_of(result.trace.accepted[j]),
                }
            )
        payload["trace"] = steps
        for step in steps:
            lines.append(
                f"  step {step['step']}: pool {{{', '.join(step['pool'])}}}"
                f" offer {{{', '.join(step['offer'])}}}"
                f" accepted {{{', '.join(step['accepted'])}}}"
            )
    failed = cycle or args.require_stable and not result.stability.stable
    return payload, lines, 1 if failed else 0


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def _catalog_report(instance: Instance, catalog: StableSetCatalog) -> tuple[dict, list[str]]:
    """A catalog's payload and numbered lines, as ``lattice`` and ``oracle`` print them."""
    payload: dict[str, Any] = {
        "count": len(catalog),
        "stable_agreements": [instance.names_of(s) for s in catalog.sets],
        "below": [list(row) for row in catalog.below],
    }
    lines = [f"{len(catalog)} stable agreement(s)"]
    lines.extend(f"  [{i}] {format_mask(s, instance.names)}" for i, s in enumerate(catalog.sets))
    return payload, lines


def cmd_lattice(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    from .oracle import brute_glb, brute_lub, enumerate_stable_agreements

    instance = loaded.instance
    catalog = enumerate_stable_agreements(instance)
    payload, lines = _catalog_report(instance, catalog)
    mismatches: list[str] = []
    meets: list[dict[str, Any]] = []
    joins: list[dict[str, Any]] = []
    for i, a in enumerate(catalog.sets):
        for j_, b in enumerate(catalog.sets):
            if j_ < i:
                continue
            m = meet(instance, a, b)
            j = join(instance, a, b)
            meets.append({"a": i, "b": j_, "result": instance.names_of(m)})
            joins.append({"a": i, "b": j_, "result": instance.names_of(j)})
            for op, got, bound in (("meet", m, brute_glb), ("join", j, brute_lub)):
                expected = bound(catalog, a, b)
                if expected != got:
                    mismatches.append(
                        f"{op}([{i}],[{j_}]) = {format_mask(got, instance.names)}"
                        f" but the brute-force bound is"
                        f" {None if expected is None else format_mask(expected, instance.names)}"
                    )
    payload["meet"] = meets
    payload["join"] = joins
    payload["verified"] = not mismatches
    payload["mismatches"] = mismatches
    npairs = len(catalog) * (len(catalog) + 1) // 2
    if mismatches:
        # The lattice results hold only for coherent sides; scan them where affordable.
        incoherent = [k for k in (1, 2) if _coherent_if_affordable(instance.side(k)) is False]
        if incoherent:
            note = "meet/join not guaranteed: " + ", ".join(
                f"side {k} is not coherent" for k in incoherent
            )
            payload["note"] = note
            lines.append(note)
        else:
            lines.append(f"meet/join MISMATCH against brute force on {len(mismatches)} pair(s):")
        lines.extend(f"  {m}" for m in mismatches)
    else:
        lines.append(f"meet/join verified against brute force on {npairs} pair(s)")
    return payload, lines, 1 if mismatches else 0


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------


def cmd_market(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    from .market import check_money_monotone, check_no_shortage, check_two_prices
    from .oracle import enumerate_stable_agreements

    if loaded.economy is None:
        raise ParseError("this file has no market section", "market")
    economy = loaded.economy
    instance = loaded.instance
    checks = {args.check} if args.check != "all" else {"no-shortage", "money", "two-prices"}
    payload: dict[str, Any] = {}
    lines: list[str] = []
    failed = False

    catalog: StableSetCatalog | None = None
    if checks & {"no-shortage", "two-prices"}:
        catalog = enumerate_stable_agreements(instance)
        payload["stable_agreements"] = [
            instance.names_of(s) for s in catalog.sets
        ]
        lines.append(f"{len(catalog)} stable agreement(s)")

    if "no-shortage" in checks:
        report = check_no_shortage(economy, catalog.sets if catalog else ())
        payload["no_shortage"] = {
            "ok": report.ok,
            "missing": [list(key) for key in report.missing],
            "unmatched": [
                {
                    "agreement": instance.names_of(agreement),
                    "contract": instance.names[cid],
                }
                for agreement, cid in report.unmatched
            ],
        }
        lines.append(f"no-shortage: {'ok' if report.ok else 'FAILED'}")
        for key in report.missing:
            lines.append(f"  no contract for tuple {key}")
        for agreement, cid in report.unmatched:
            lines.append(
                f"  {instance.names[cid]} has no spare copy outside the stable"
                f" agreement {format_mask(agreement, instance.names)}"
            )
        failed = failed or not report.ok

    if "money" in checks:
        report = check_money_monotone(economy)
        payload["money_monotone"] = {
            "ok": report.ok,
            "violations": [v.describe(instance.names) for v in report.violations],
        }
        lines.append(f"money-monotone: {'ok' if report.ok else 'FAILED'}")
        for v in report.violations:
            lines.append(f"  {v.describe(instance.names)}")
        failed = failed or not report.ok

    if "two-prices" in checks:
        assert catalog is not None
        advisory = failed or not (checks >= {"no-shortage", "money"})
        results = []
        for s in catalog.sets:
            report = check_two_prices(economy, s)
            gaps = [v.describe(instance.names, economy.price_grid) for v in report.violations]
            agreement = instance.names_of(s)
            results.append({"agreement": agreement, "ok": report.ok, "violations": gaps})
            status = "ok" if report.ok else ("gap (advisory)" if advisory else "FAILED")
            lines.append(f"two-prices on {format_mask(s, instance.names)}: {status}")
            lines.extend(f"  {v}" for v in gaps)
        payload["two_prices"] = {"advisory": advisory, "agreements": results}
        failed = failed or not advisory and not all(entry["ok"] for entry in results)

    payload["ok"] = not failed
    return payload, lines, 1 if failed else 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    from .oracle import enumerate_stable_agreements

    instance = loaded.instance
    catalog = enumerate_stable_agreements(instance)
    payload, lines = _catalog_report(instance, catalog)
    for i in range(len(catalog)):
        for j in range(len(catalog)):
            if i != j and catalog.below[i][j]:
                lines.append(f"  [{i}] is below [{j}] for side 1")
    return payload, lines, 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _flag_mask(raw: str, instance: Instance, flag: str) -> int:
    """The mask of a comma-separated name list given to ``flag``."""
    names = [piece.strip() for piece in raw.split(",")] if raw.strip() else []
    try:
        return instance.mask_of_names(names)
    except SpecError as e:
        raise ParseError(str(e), flag) from None


def cmd_query(args: argparse.Namespace, loaded: LoadedFile) -> Answer:
    instance = loaded.instance
    f = instance.side(args.side)
    a = _flag_mask(args.set_a, instance, "-A")
    coherence = COHERENCE_CHECKED if _coherent_if_affordable(f) else COHERENCE_UNKNOWN
    payload: dict[str, Any] = {"op": args.op, "side": args.side, "coherence": coherence}

    if args.op == "closure":
        result = closure(f, a)
        payload.update(set=instance.names_of(a), result=instance.names_of(result))
        return payload, [f"closure: {format_mask(result, instance.names)}"], 0

    if args.set_b is None:
        raise ParseError(f"--op {args.op} needs -B", "-B")
    b = _flag_mask(args.set_b, instance, "-B")
    if args.op == "prefers":
        answer, relation = prefers(f, a, b).holds, "at least as good as"
    else:
        answer, relation = indifferent(f, a, b), "equivalent to"
    lines = [
        f"side {args.side} reveals {format_mask(a, instance.names)} {relation}"
        f" {format_mask(b, instance.names)}: {'yes' if answer else 'no'}"
    ]
    if coherence != COHERENCE_CHECKED:
        lines.append(
            "note: coherence not verified; revealed comparisons are only"
            " meaningful for coherent choice functions"
        )
    payload.update(set_a=instance.names_of(a), set_b=instance.names_of(b), holds=answer)
    return payload, lines, 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractmatch",
        description="Many-to-many matching with contracts: solve, verify, explore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="instance file (JSON)")
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the choice functions declared in a file")

    p_solve = add("solve", cmd_solve, "run the offer/rejection iteration")
    p_solve.add_argument("--proposer", type=int, choices=(1, 2), default=1)
    p_solve.add_argument("--trace", action="store_true", help="include every step")
    p_solve.add_argument(
        "--require-stable",
        action="store_true",
        help="exit 1 unless the outcome is a stable agreement",
    )

    add("lattice", cmd_lattice, "enumerate stable agreements with meet/join")

    p_market = add("market", cmd_market, "run money-economy checks")
    p_market.add_argument(
        "--check",
        choices=("no-shortage", "money", "two-prices", "all"),
        default="all",
    )

    add("oracle", cmd_oracle, "dump the brute-force stable-agreement catalog")

    p_query = add("query", cmd_query, "evaluate revealed-preference questions")
    p_query.add_argument("--op", choices=("prefers", "indifferent", "closure"), required=True)
    p_query.add_argument("--side", type=int, choices=(1, 2), default=1)
    p_query.add_argument("-A", dest="set_a", required=True, help="comma-separated names")
    p_query.add_argument("-B", dest="set_b", default=None, help="comma-separated names")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args, load(args.file))
    except SizeBoundError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except (SpecError, DomainError, PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = dumps_document(payload) if args.json else "".join(f"{line}\n" for line in lines)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send what Python flushes at exit to devnull
        # (the recipe in the ``signal`` module's note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
