"""The command-line interface: flows, exit codes, deterministic output."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contractmatch.aggregation import build_marriage_instance
from contractmatch.choice import (
    Identity,
    ResponsiveQuota,
    TableChoice,
    tabulate,
    valuation_choice,
)
from contractmatch.cli import main
from contractmatch.corpus import FIXTURE_DIR, fixture_path
from contractmatch.engine import Instance, auto_names, run
from contractmatch.errors import SizeBoundError
from contractmatch.generators import random_marriage_profile, random_valuation
from contractmatch.instancefile import load, parse_document, save, to_document
from contractmatch.sets import subset_names

from conftest import cycling_instance, deadline


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_coherent_fixture(capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_path("marriage_2x2")))
    assert code == 0
    assert "valid" in out
    assert "side1/m1: coherent" in out


def test_validate_flags_incoherent_side(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(fixture_path("no_stable_agreement"))
    )
    assert code == 1
    assert "NOT coherent" in out
    assert "substitutes" in out
    # The witness names both menus of the counterexample.
    assert "{a, b}" in out and "{b}" in out


def test_validate_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(fixture_path("no_stable_agreement")), "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["side1"]["coherent"] is False
    assert payload["side1"]["substitutes"]
    assert payload["side2"]["coherent"] is True


def test_validate_checks_market_sections(capsys):
    code, out, _ = run_cli(
        capsys, "validate", str(fixture_path("market_price_gap"))
    )
    assert code == 1
    assert "no-shortage FAILED" in out


def test_validate_conforming_economy(capsys):
    code, out, _ = run_cli(capsys, "validate", str(fixture_path("economy_small")))
    assert code == 0
    assert "no-shortage ok" in out and "money-monotone ok" in out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_stable_default_proposer(capsys):
    code, out, _ = run_cli(capsys, "solve", str(fixture_path("marriage_2x2")))
    assert code == 0
    assert "chosen: {m1_w1, m2_w2}" in out
    assert "stable: yes" in out


def test_solve_trace_and_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "solve",
        str(fixture_path("no_stable_agreement")),
        "--trace",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chosen"] == []
    assert payload["iterations"] == 2
    assert payload["agreement"] is True
    assert payload["stable"] is False
    assert payload["blocking_contract"] == "a"
    assert payload["trace"] == [
        {"step": 0, "pool": ["a", "b"], "offer": ["a", "b"], "accepted": ["b"]},
        {"step": 1, "pool": ["b"], "offer": [], "accepted": []},
    ]


def test_solve_trace_of_a_run_with_many_rounds(tmp_path, capsys):
    """A 17x16 market takes 78 rounds in the cursor rounds, whose trace is
    rebuilt from per-round ids: ``--json`` reports the run's iterations, and
    ``--trace`` lists every round's pool, offer and accepted set, the last
    pool being the final pool."""
    instance = build_marriage_instance(*random_marriage_profile(2, 17, 16))
    path = tmp_path / "marriage_17x16.json"
    save(path, instance)
    trace = run(instance).trace
    assert trace.iterations == 78
    code, out, _ = run_cli(capsys, "solve", str(path), "--json")
    assert code == 0 and json.loads(out)["iterations"] == trace.iterations
    code, out, _ = run_cli(capsys, "solve", str(path), "--trace", "--json")
    steps = json.loads(out)["trace"]
    assert code == 0 and len(steps) == trace.iterations
    assert steps[-1]["pool"] == instance.names_of(trace.final_pool)
    for j, step in enumerate(steps):
        assert step == {
            "step": j,
            "pool": instance.names_of(trace.pools[j]),
            "offer": instance.names_of(trace.offers[j]),
            "accepted": instance.names_of(trace.accepted[j]),
        }


def test_solve_require_stable_exit(capsys):
    code, _, _ = run_cli(
        capsys,
        "solve",
        str(fixture_path("no_stable_agreement")),
        "--require-stable",
    )
    assert code == 1


def test_solve_proposer_two(capsys):
    code, out, _ = run_cli(
        capsys, "solve", str(fixture_path("marriage_3x3")), "--proposer", "2"
    )
    assert code == 0
    assert "chosen: {m1_w3, m2_w1, m3_w2}" in out


# ---------------------------------------------------------------------------
# lattice / oracle
# ---------------------------------------------------------------------------


def test_lattice_verifies_against_brute_force(capsys):
    code, out, _ = run_cli(capsys, "lattice", str(fixture_path("marriage_3x3")))
    assert code == 0
    assert "3 stable agreement(s)" in out
    assert "meet/join verified against brute force on 6 pair(s)" in out


def test_lattice_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "lattice", str(fixture_path("marriage_3x3")), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["verified"] is True
    assert "note" not in payload
    assert len(payload["meet"]) == 6 and len(payload["join"]) == 6


def test_lattice_on_an_incoherent_side_is_not_a_mismatch(tmp_path, monkeypatch, capsys):
    """Side 1 drops both contracts from {a, b}, so {a} and {b} are both stable
    and meet/join (which assume coherence) disagree with the brute-force
    bounds.  That is reported as a missing guarantee, not as a solver bug,
    unless the coherence scan is out of bounds."""
    from contractmatch.choice import Identity, TableChoice
    from contractmatch.engine import Instance

    path = tmp_path / "incoherent.json"
    save(path, Instance(("a", "b"), TableChoice(2, (0, 1, 2, 0)), Identity(2)))
    note = "meet/join not guaranteed: side 1 is not coherent"

    code, out, _ = run_cli(capsys, "lattice", str(path))
    assert code == 1
    assert "2 stable agreement(s)" in out
    assert note in out and "MISMATCH" not in out
    assert "  meet([0],[1]) = {} but the brute-force bound is None" in out

    code, out, _ = run_cli(capsys, "lattice", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False and payload["mismatches"]
    assert payload["note"] == note

    monkeypatch.setenv("CONTRACTMATCH_PAIRWISE_BOUND", "1")
    code, out, _ = run_cli(capsys, "lattice", str(path), "--json")
    assert code == 1
    assert "note" not in json.loads(out)
    code, out, _ = run_cli(capsys, "lattice", str(path))
    assert "meet/join MISMATCH against brute force on 4 pair(s):" in out


def test_oracle_catalog_json(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", str(fixture_path("no_stable_agreement")), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"below": [], "count": 0, "stable_agreements": []}


def test_oracle_human_output(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(fixture_path("marriage_3x3")))
    assert code == 0
    assert "3 stable agreement(s)" in out
    assert "is below" in out


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------


def test_market_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "market", str(fixture_path("economy_small")))
    assert code == 0
    assert "no-shortage: ok" in out
    assert "money-monotone: ok" in out
    assert "two-prices" in out


def test_a_whole_side_market_block_reads_the_market_section(tmp_path, capsys):
    """A ``linear_producer`` block for a whole side gets the market section,
    as an agent's block does, and solves, checks and round-trips like it."""
    doc = json.loads(fixture_path("economy_small").read_text())
    doc["choice"]["side1"] = doc["choice"]["side1"]["agents"]["p1"]["choice"]
    path = tmp_path / "whole_side.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    assert run_cli(capsys, "market", str(path))[0] == 0
    loaded, fixture = load(path), load(fixture_path("economy_small"))
    chosen = run(loaded.instance).chosen
    assert chosen == run(fixture.instance).chosen
    assert subset_names(chosen, loaded.instance.names) == ["p1_c1_widget_12_a"]
    assert parse_document(to_document(loaded.instance, loaded.economy, loaded.meta)) == loaded


def test_market_gap_fixture_advisory(capsys):
    code, out, _ = run_cli(
        capsys, "market", str(fixture_path("market_price_gap"))
    )
    assert code == 1  # premises fail
    assert "no-shortage: FAILED" in out
    assert "gap (advisory)" in out


def test_market_single_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "market",
        str(fixture_path("market_price_gap")),
        "--check",
        "money",
    )
    assert code == 0
    assert "money-monotone: ok" in out
    assert "no-shortage" not in out


def test_market_requires_market_section(capsys):
    code, _, err = run_cli(capsys, "market", str(fixture_path("marriage_2x2")))
    assert code == 2
    assert "no market section" in err


def test_market_json(capsys):
    code, out, _ = run_cli(
        capsys, "market", str(fixture_path("market_price_gap")), "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["two_prices"]["advisory"] is True


def test_market_money_check_reports_each_violation(tmp_path, capsys):
    """A producer averse to higher prices: it keeps the cheap contract and
    rejects the pricier one of the same template, alone or offered on top."""
    from contractmatch.choice import TableChoice
    from contractmatch.engine import ContractLabel
    from contractmatch.market import MarketContract, MoneyEconomy

    inst = Instance(
        names=("cheap", "pricey"),
        f1=TableChoice(2, (0b00, 0b01, 0b10, 0b01)),
        f2=Identity(2),
        labels=(ContractLabel("p1", "c1"),) * 2,
    )
    contracts = (MarketContract("p1", "c1", "t", 0), MarketContract("p1", "c1", "t", 2))
    path = tmp_path / "averse.json"
    save(path, inst, MoneyEconomy(inst, contracts, (10, 11, 12), ("t",)))
    violations = [
        f"producer p1: keeps cheap from {menu} but rejects the pricier"
        " same-template pricey offered on top"
        for menu in ("{cheap}", "{cheap, pricey}")
    ]
    code, out, _ = run_cli(capsys, "market", str(path), "--check", "money")
    assert code == 1
    assert out.splitlines() == ["money-monotone: FAILED"] + [f"  {v}" for v in violations]
    code, out, _ = run_cli(capsys, "market", str(path), "--check", "money", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"money_monotone": {"ok": False, "violations": violations}, "ok": False}
    code, out, _ = run_cli(capsys, "validate", str(path), "--json")
    assert code == 1
    assert json.loads(out)["market"]["money_monotone_violations"] == violations


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_prefers(capsys):
    code, out, _ = run_cli(
        capsys,
        "query",
        str(fixture_path("marriage_3x3")),
        "--op",
        "prefers",
        "--side",
        "1",
        "-A",
        "m1_w1",
        "-B",
        "m1_w2",
    )
    assert code == 0
    assert "at least as good as" in out and ": yes" in out


def test_query_closure_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "query",
        str(fixture_path("no_stable_agreement")),
        "--op",
        "closure",
        "--side",
        "2",
        "-A",
        "b",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == ["a", "b"]
    assert payload["coherence"] == "checked"  # f2 is coherent and small


def test_query_indifferent(capsys):
    code, out, _ = run_cli(
        capsys,
        "query",
        str(fixture_path("no_stable_agreement")),
        "--op",
        "indifferent",
        "--side",
        "2",
        "-A",
        "a,b",
        "-B",
        "b",
    )
    assert code == 0
    assert "equivalent" in out and ": yes" in out
    # f2 is coherent, so no caveat is printed.
    assert "note:" not in out


def test_query_uncoherent_side_carries_note(capsys):
    code, out, _ = run_cli(
        capsys,
        "query",
        str(fixture_path("no_stable_agreement")),
        "--op",
        "prefers",
        "--side",
        "1",
        "-A",
        "a",
        "-B",
        "b",
    )
    assert code == 0
    assert "note: coherence not verified" in out


def test_query_needs_b_for_prefers(capsys):
    code, _, err = run_cli(
        capsys,
        "query",
        str(fixture_path("no_stable_agreement")),
        "--op",
        "prefers",
        "-A",
        "a",
    )
    assert code == 2
    assert "-B" in err


def test_query_unknown_name(capsys):
    path = str(fixture_path("no_stable_agreement"))
    code, _, err = run_cli(capsys, "query", path, "--op", "closure", "-A", "zz")
    assert (code, err) == (2, "error: -A: unknown contract name 'zz'\n")
    code, _, err = run_cli(capsys, "query", path, "--op", "prefers", "-A", "a", "-B", "b,,a")
    assert (code, err) == (2, "error: -B: unknown contract name ''\n")


def test_query_name_lists_are_stripped_and_may_be_empty(capsys):
    path = str(fixture_path("no_stable_agreement"))
    code, out, _ = run_cli(capsys, "query", path, "--op", "closure", "-A", "", "--json")
    assert code == 0 and json.loads(out)["set"] == []
    code, out, _ = run_cli(
        capsys, "query", path, "--op", "indifferent", "-A", " b , a ", "-B", " ", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and (payload["set_a"], payload["set_b"]) == (["a", "b"], [])


def test_query_on_every_name_of_a_large_file(tmp_path, capsys):
    # Run in process: an -A argument this long exceeds Linux's 128 KiB limit
    # on one argument of a child process.
    names = auto_names(40_000)
    path = tmp_path / "large.json"
    save(path, Instance(names=names, f1=Identity(len(names)), f2=Identity(len(names))))
    with deadline(10):
        code, out, _ = run_cli(
            capsys, "query", str(path), "--op", "closure", "-A", ",".join(names), "--json"
        )
    assert code == 0
    assert json.loads(out)["result"] == sorted(names)


# ---------------------------------------------------------------------------
# forms that scripts/cli_digest.py does not run
# ---------------------------------------------------------------------------

_NOTE = (
    "note: coherence not verified; revealed comparisons are only"
    " meaningful for coherent choice functions\n"
)
_NO_MARKET = "error: market: this file has no market section\n"
_NO_B = "error: -B: --op prefers needs -B\n"

# (form, fixture, exit code, human stdout, --json payload, stderr); the form's
# fixture path goes right after the subcommand.
_PINNED_FORMS = (
    (("query", "--op", "prefers", "-A", "m1_w1", "-B", "m1_w2"), "marriage_3x3", 0,
     "side 1 reveals {m1_w1} at least as good as {m1_w2}: yes\n",
     {"coherence": "checked", "holds": True, "op": "prefers", "set_a": ["m1_w1"],
      "set_b": ["m1_w2"], "side": 1}, ""),
    (("query", "--op", "prefers", "--side", "2", "-A", "m1_w1", "-B", "m2_w1"),
     "marriage_3x3", 0,
     "side 2 reveals {m1_w1} at least as good as {m2_w1}: no\n",
     {"coherence": "checked", "holds": False, "op": "prefers", "set_a": ["m1_w1"],
      "set_b": ["m2_w1"], "side": 2}, ""),
    (("query", "--op", "indifferent", "-A", "m1_w1,m1_w2", "-B", "m1_w1"), "marriage_3x3", 0,
     "side 1 reveals {m1_w1, m1_w2} equivalent to {m1_w1}: yes\n",
     {"coherence": "checked", "holds": True, "op": "indifferent",
      "set_a": ["m1_w1", "m1_w2"], "set_b": ["m1_w1"], "side": 1}, ""),
    (("query", "--op", "indifferent", "--side", "2", "-A", "m1_w1,m2_w1", "-B", "m1_w1"),
     "marriage_3x3", 0,
     "side 2 reveals {m1_w1, m2_w1} equivalent to {m1_w1}: no\n",
     {"coherence": "checked", "holds": False, "op": "indifferent",
      "set_a": ["m1_w1", "m2_w1"], "set_b": ["m1_w1"], "side": 2}, ""),
    (("query", "--op", "prefers", "-A", "a", "-B", "b"), "no_stable_agreement", 0,
     "side 1 reveals {a} at least as good as {b}: no\n" + _NOTE,
     {"coherence": "unknown", "holds": False, "op": "prefers", "set_a": ["a"],
      "set_b": ["b"], "side": 1}, ""),
    (("query", "--op", "indifferent", "--side", "2", "-A", "a,b", "-B", "b"),
     "no_stable_agreement", 0,
     "side 2 reveals {a, b} equivalent to {b}: yes\n",
     {"coherence": "checked", "holds": True, "op": "indifferent", "set_a": ["a", "b"],
      "set_b": ["b"], "side": 2}, ""),
    (("solve", "--require-stable"), "no_stable_agreement", 1,
     "chosen: {}\niterations: 2\nagreement: yes\nstable: no\nblocking contract: a\n",
     {"agreement": True, "blocking_contract": "a", "chosen": [], "iterations": 2,
      "proposer": 1, "stable": False}, ""),
    (("market",), "marriage_3x3", 2, "", None, _NO_MARKET),
    (("query", "--op", "prefers", "-A", "m1_w1"), "marriage_3x3", 2, "", None, _NO_B),
)


@pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
@pytest.mark.parametrize(
    "form, fixture, code, human, payload, err", _PINNED_FORMS,
    ids=[" ".join((form[1], *form[0])) for form in _PINNED_FORMS],
)
def test_forms_outside_the_digest_are_pinned(form, fixture, code, human, payload, err,
                                             json_flag, capsys):
    """Exact stdout, stderr and exit code of ``query --op prefers`` and
    ``--op indifferent`` on both sides, ``solve --require-stable`` without a
    stable agreement, and two input errors, which ``scripts/cli_digest.py``
    does not run."""
    argv = [form[0], str(fixture_path(fixture)), *(["--json"] if json_flag else []), *form[1:]]
    if json_flag and payload is not None:
        human = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert run_cli(capsys, *argv) == (code, human, err)


def _saved_instance(kind: str) -> Instance:
    """A 3-contract instance whose side 1 is written as every-subset rows:
    a ``valuation_argmax`` block (no shipped fixture has one) or a ``table``."""
    if kind == "valuation":
        f1 = valuation_choice(random_valuation(1, 3, "unit_demand"))
    else:
        f1 = TableChoice(3, tabulate(ResponsiveQuota(3, (2, 0, 1), 2)).entries)
    return Instance(("a", "b", "c"), f1, Identity(3))


_COHERENT = {
    "coherent": True, "contraction": [], "path_independence": [],
    "rejection_consistency": [], "substitutes": [],
}
_VALIDATE = (
    "3 contracts\nside1: coherent\nside2: coherent\nvalid\n",
    {"contracts": ["a", "b", "c"], "ok": True, "side1": _COHERENT, "side2": _COHERENT},
)


def _solved(chosen: list[str]) -> tuple[str, dict]:
    return (
        f"chosen: {{{', '.join(chosen)}}}\niterations: 1\nagreement: yes\nstable: yes\n",
        {"agreement": True, "chosen": chosen, "iterations": 1, "proposer": 1, "stable": True},
    )


def _one_agreement(chosen: list[str]) -> tuple[str, dict]:
    pair = [{"a": 0, "b": 0, "result": chosen}]
    return (
        f"1 stable agreement(s)\n  [0] {{{', '.join(chosen)}}}\n"
        "meet/join verified against brute force on 1 pair(s)\n",
        {
            "below": [[True]], "count": 1, "join": pair, "meet": pair, "mismatches": [],
            "stable_agreements": [chosen], "verified": True,
        },
    )


# (kind, command) -> (human output, --json payload).
_SAVED_FORMS = {
    ("valuation", "validate"): _VALIDATE,
    ("valuation", "solve"): _solved(["b"]),
    ("valuation", "lattice"): _one_agreement(["b"]),
    ("table", "validate"): _VALIDATE,
    ("table", "solve"): _solved(["a", "c"]),
    ("table", "lattice"): _one_agreement(["a", "c"]),
}


@pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
@pytest.mark.parametrize("kind, command", sorted(_SAVED_FORMS))
def test_forms_on_saved_row_blocks_are_pinned(kind, command, json_flag, tmp_path, capsys):
    """A saved ``valuation_argmax`` or ``table`` side loads back as the
    instance saved, and ``validate``, ``solve`` and ``lattice`` print exactly
    these outputs.  The pinned forms above take shipped fixtures only, so
    these, which need a saved file, are pinned here."""
    inst = _saved_instance(kind)
    path = tmp_path / f"{kind}.json"
    save(path, inst)
    assert load(path).instance == inst
    human, payload = _SAVED_FORMS[kind, command]
    if json_flag:
        human = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    argv = [command, str(path), *(["--json"] if json_flag else [])]
    assert run_cli(capsys, *argv) == (0, human, "")


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------


def test_exit_2_on_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "not valid JSON" in err


def test_exit_2_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_exit_2_on_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path}: ")
    assert "Traceback" not in err


def test_exit_2_on_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"contracts": ["caf\u00e9"]}'.encode("latin-1"))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: not UTF-8 text")
    assert "Traceback" not in err


def _with_a_repeated_key(doc: dict, path: tuple[str, ...], key: str, **changes) -> str:
    """``doc`` as JSON text in which the object at ``path`` gives ``key`` a
    second time, last, with ``changes`` applied to the copy of its value."""
    target = doc
    for step in path:
        target = target[step]
    value = target[key]
    target["\0repeat"] = {**value, **changes} if changes else value
    return json.dumps(doc).replace('"\\u0000repeat"', json.dumps(key))


# Each was decoded keeping the last value of the repeated key, silently:
# the second side-1 block was solved, and the second tuple's price checked.
REPEATED_KEYS = {
    "top_level": ((), "contracts", {}, "solve"),
    "side_block": (("choice",), "side1", {}, "solve"),
    "agent": (("choice", "side2", "agents"), "c1", {}, "solve"),
    "market_tuple": (("market", "tuples"), "p1_c1_widget_12_a", {"price": 10}, "market"),
    "label": (("labels",), "p1_c1_widget_10_a", {}, "solve"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_exit_2_on_a_repeated_key(case, tmp_path, capsys):
    where, key, changes, command = REPEATED_KEYS[case]
    doc = json.loads(fixture_path("economy_small").read_text())
    path = tmp_path / f"{case}.json"
    path.write_text(_with_a_repeated_key(doc, where, key, **changes))
    argv = [command, str(path)] + (["--check", "two-prices"] if command == "market" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: key {key!r} appears twice in one object\n"


# Blocks that their variant's constructor or market builder refuses, as
# (fixture, path to the block, block fields to set, location, message).
# Each was reported without a location.
REFUSED_BLOCKS = {
    "negative_quota": (
        "identity_3", ("choice", "side2"),
        {"variant": "responsive_quota", "order": ["a", "b", "c"], "quota": -1},
        "choice.side2", "quota must be non-negative, got -1",
    ),
    "no_unit_cost": (
        "economy_small", ("choice", "side1", "agents", "p1", "choice"), {"costs": {}},
        "choice.side1.agents.p1.choice", "no unit cost declared for template 'widget'",
    ),
    "no_willingness_to_pay": (
        "economy_small", ("choice", "side2", "agents", "c1", "choice"), {"wtp": {}},
        "choice.side2.agents.c1.choice",
        "no willingness-to-pay declared for template 'widget'",
    ),
    "zero_epsilon": (
        "identity_3", ("choice", "side1"),
        {"variant": "valuation_argmax", "epsilon": 0, "values": [
            {"set": [x for i, x in enumerate("abc") if m >> i & 1], "value": m} for m in range(8)
        ]},
        "choice.side1", "scheme epsilon must be positive",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BLOCKS))
def test_exit_2_at_the_block_its_variant_refuses(case, tmp_path, capsys):
    fixture, where, fields, location, message = REFUSED_BLOCKS[case]
    doc = json.loads(fixture_path(fixture).read_text())
    block = doc
    for step in where:
        block = block[step]
    block.update(fields)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "solve", str(path)) == (2, "", f"error: {location}: {message}\n")


def _one_contract_valuation(value: str) -> str:
    """A one-contract file whose side 1 values {a} at ``value`` (JSON text)."""
    values = f'[{{"set": [], "value": 0}}, {{"set": ["a"], "value": {value}}}]'
    return (
        '{"schema_version": 1, "contracts": ["a"], "choice": {"side1":'
        f' {{"variant": "valuation_argmax", "values": {values}}},'
        ' "side2": {"variant": "identity"}}}'
    )


# Each once ended in a traceback or ran until killed: the decoder's
# recursion limit, its limit on integer digits, and an exponent that
# ``Fraction`` expanded to a billion digits.
LIMIT_PROBES = {
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "long_integer": _one_contract_valuation("9" * 5000),
    "huge_exponent": _one_contract_valuation('"1e1000000000"'),
}


@pytest.mark.parametrize("probe", sorted(LIMIT_PROBES))
def test_exit_2_fast_on_decoder_and_number_limits(probe, tmp_path, capsys):
    path = tmp_path / f"{probe}.json"
    path.write_text(LIMIT_PROBES[probe])
    start = time.perf_counter()
    with deadline(5):
        code, out, err = run_cli(capsys, "solve", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_rationals_take_only_digits_and_one_slash(tmp_path, capsys):
    path = tmp_path / "valuation.json"
    for value in ('"-3/2"', '"7"', "4"):
        path.write_text(_one_contract_valuation(value))
        assert run_cli(capsys, "solve", str(path))[0] == 0, value
    for value in ('"1e3"', '"1.5"', '"1_000"', '" 1"', '"+1"', '"3/-2"', '"1/0"', '"\u0661"'):
        path.write_text(_one_contract_valuation(value))
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2 and "not a valid rational" in err, value


def test_solve_reports_a_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.json"
    save(path, cycling_instance())
    with deadline(5):
        code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert "converged: no, the pools cycle {a, b} -> {b} -> {a} -> {} -> {a, b}" in out
    code, out, _ = run_cli(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert code == 1
    assert payload["converged"] is False
    assert payload["cycle"] == [["a", "b"], ["b"], ["a"], []]


def test_converged_solve_json_has_no_convergence_keys(capsys):
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        code, out, _ = run_cli(capsys, "solve", str(path), "--json")
        assert code == 0
        assert not {"converged", "cycle"} & set(json.loads(out))


def test_exit_3_on_oversized_exhaustive_check(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "contracts": [f"x{i}" for i in range(13)],
        "choice": {
            "side1": {"variant": "identity"},
            "side2": {"variant": "identity"},
        },
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "refused" in err


def test_exit_3_on_oversized_valuation_block(tmp_path, monkeypatch, capsys):
    """Building a valuation argmax costs 3^k, so a block above the pairwise
    bound is refused while the file loads, before the table is built."""
    names = ["a", "b", "c"]
    values = [
        {"set": [x for i, x in enumerate(names) if m >> i & 1], "value": m.bit_count()}
        for m in range(8)
    ]
    doc = {
        "schema_version": 1,
        "contracts": names,
        "choice": {
            "side1": {"variant": "valuation_argmax", "values": values},
            "side2": {"variant": "identity"},
        },
    }
    path = tmp_path / "valuation.json"
    path.write_text(json.dumps(doc))
    assert load(path).instance.n == 3
    monkeypatch.setenv("CONTRACTMATCH_PAIRWISE_BOUND", "2")
    with pytest.raises(SizeBoundError, match="valuation argmax refused"):
        load(path)
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert err.startswith("refused: valuation argmax refused") and "3^3" in err


def test_exit_2_on_bad_bound_variable(monkeypatch, capsys):
    monkeypatch.setenv("CONTRACTMATCH_EXHAUSTIVE_BOUND", "-5")
    code, _, err = run_cli(capsys, "validate", str(fixture_path("marriage_2x2")))
    assert code == 2
    assert err.startswith("error: CONTRACTMATCH_EXHAUSTIVE_BOUND") and "'-5'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["validate"], ["query", "--op", "closure", "-A", "m1_w1"]], ids=lambda a: a[0]
)
def test_two_bad_bound_variables_name_the_exhaustive_one(argv, monkeypatch, capsys):
    """``query`` asks ``check_coherent`` whether a scan is affordable, so it
    reads the two scan bounds in the same order as ``validate``."""
    monkeypatch.setenv("CONTRACTMATCH_EXHAUSTIVE_BOUND", "-5")
    monkeypatch.setenv("CONTRACTMATCH_PAIRWISE_BOUND", "ten")
    code, out, err = run_cli(capsys, argv[0], str(fixture_path("marriage_2x2")), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: CONTRACTMATCH_EXHAUSTIVE_BOUND must be a non-negative integer, got '-5'\n"


def test_exit_2_on_a_bound_too_long_to_convert():
    """A bound of more digits than ``int()`` converts is an input error, not
    a crash: ``oracle`` exits 2 without a traceback, naming only the start
    of the value."""
    env = dict(_child_env(), CONTRACTMATCH_ORACLE_BOUND="9" * 5000)
    out = subprocess.run(
        [sys.executable, "-m", "contractmatch.cli", "oracle", str(fixture_path("marriage_2x2"))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stdout + out.stderr
    assert out.stderr.startswith("error: CONTRACTMATCH_ORACLE_BOUND")
    assert "(5000 characters)" in out.stderr and len(out.stderr) < 200


def test_exit_2_on_partial_order(tmp_path, capsys):
    doc = json.loads(fixture_path("marriage_2x2").read_text())
    doc["choice"]["side1"]["agents"]["m1"]["choice"]["order"] = ["m1_w2"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2
    assert "choice.side1.agents.m1.choice.order" in err
    assert "ranking" in err and "rank every contract" in err
    assert "Traceback" not in err


# A literal copy of ``contractmatch.__all__``: the lazy re-export must keep
# every one of these names resolvable.
PUBLIC_NAMES = (
    "AggregateChoice", "AggregatePart", "AgreementVerdict", "AXIOM_CONTRACTION", "AXIOM_IRC",
    "AXIOM_PATH", "AXIOM_SUBSTITUTES", "COHERENCE_ASSERTED", "COHERENCE_CHECKED",
    "COHERENCE_UNKNOWN", "ChoiceFunction", "CoherenceReport", "ContractLabel", "DomainError",
    "Identity", "Instance", "LinearProducerChoice", "LoadedFile", "MarketContract", "MODE_FULL",
    "MODE_SINGLETON", "MoneyEconomy", "MoneyMonotoneReport", "NoShortageReport", "ParseError",
    "PerturbationScheme", "PreconditionError", "PreferenceVerdict", "ResponsiveQuota",
    "SizeBoundError", "SolveResult", "SpecError", "StabilityVerdict", "StableAgreementVerdict",
    "StableSetCatalog", "TableChoice", "TopOfOrder", "Trace", "TwoPriceReport", "UnionOfOrders",
    "UnitDemandConsumerChoice", "ValuationArgmax", "ViolationReport", "aggregate_side",
    "auto_names", "brute_glb", "brute_lub", "build_linear_producer", "build_marriage_instance",
    "build_money_economy", "build_unit_demand_consumer", "check_coherent", "check_contraction",
    "check_irc", "check_money_monotone", "check_no_shortage", "check_path_independence",
    "check_substitutes", "check_two_prices", "classical_gale_shapley", "closure",
    "enumerate_stable_agreements", "indifferent", "is_agreement", "is_stable_agreement",
    "is_stable_set", "join", "load", "meet", "parse_document", "prefers", "run", "save",
    "tabulate", "to_document", "valuation_choice",
)


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this tree's package."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


# Run in a fresh interpreter: the modules loaded after each stage, then the
# public names that fail to resolve.
_FOOTPRINT_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.rpartition(".")[2] for m in sys.modules
                  if m.startswith("contractmatch.") or m in ("numpy", "fractions"))

stages = {}
import contractmatch
stages["package"] = loaded()
import contractmatch.cli
stages["cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = contractmatch.cli.main(["solve", sys.argv[1], "--json"])
stages["solve"] = loaded()
from contractmatch.generators import random_instance
stages["generators"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    validate_code = contractmatch.cli.main(["validate", sys.argv[1]])
stages["validate"] = loaded()
missing = []
for name in json.loads(sys.argv[2]):
    try:
        getattr(contractmatch, name)
    except AttributeError:
        missing.append(name)
print(json.dumps({"stages": stages, "code": code, "validate_code": validate_code,
                  "missing": missing,
                  "all": sorted(contractmatch.__all__), "dir": dir(contractmatch)}))
"""


def test_import_leaves_numpy_unloaded():
    """Modules load on first use: the package import loads no submodule, the
    CLI import no checker, ``solve`` no checker it does not run, and the
    instance generators no market code.  Only valuation and market code
    builds a ``Fraction``, so ``solve`` on a marriage market and the
    generators' import leave ``fractions`` unloaded.  ``validate`` runs the
    axiom scans, path independence included, without numpy."""
    out = subprocess.run(
        [
            sys.executable, "-c", _FOOTPRINT_PROBE,
            str(fixture_path("marriage_3x3")), json.dumps(PUBLIC_NAMES),
        ],
        capture_output=True, text=True, check=True, env=_child_env(),
    ).stdout
    probe = json.loads(out)
    stages = probe["stages"]
    assert stages["package"] == []
    assert not {"market", "oracle", "coherence", "generators", "corpus", "numpy"} & set(
        stages["cli"]
    )
    assert probe["code"] == 0
    assert not {"market", "oracle", "coherence", "numpy", "fractions"} & set(stages["solve"])
    assert "generators" in stages["generators"]
    assert not {"market", "fractions"} & set(stages["generators"])
    assert probe["validate_code"] == 0
    assert "coherence" in stages["validate"] and "numpy" not in stages["validate"]
    assert probe["missing"] == []
    assert probe["all"] == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(probe["dir"])


def test_an_unknown_package_attribute_is_refused_by_name():
    import contractmatch

    with pytest.raises(AttributeError, match="'contractmatch' has no attribute 'no_such_name'"):
        contractmatch.no_such_name


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependency: every absolute import in
    ``src/contractmatch`` names a standard-library module (relative imports
    are the package's own)."""
    src = Path(__file__).resolve().parents[1] / "src" / "contractmatch"
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_only_limits_constructs_size_bound_errors():
    """Every size refusal is raised by ``limits.refuse_above``: no other
    module of ``src/contractmatch`` calls ``SizeBoundError(``."""
    src = Path(__file__).resolve().parents[1] / "src" / "contractmatch"
    constructing = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SizeBoundError":
                    constructing.append(f"{path.name}:{node.lineno}")
    assert [site for site in constructing if not site.startswith("limits.py:")] == []
    assert constructing, "limits.py constructs SizeBoundError"


# One form per subcommand; each runs in a fresh interpreter, where a module
# that a subcommand uses but does not import itself would fail.
_COLD_FORMS = (
    ("validate",),
    ("solve",),
    ("lattice",),
    ("market",),
    ("oracle",),
    ("query", "--op", "prefers"),
)


@pytest.mark.parametrize("fixture", ["marriage_3x3", "economy_small"])
def test_subcommands_in_a_cold_process_match_in_process_runs(fixture, capsys):
    path = fixture_path(fixture)
    names = json.loads(path.read_text())["contracts"]
    argvs = []
    for form in _COLD_FORMS:
        argv = [form[0], str(path), "--json", *form[1:]]
        if form[0] == "query":
            argv += ["-A", names[0], "-B", names[-1]]
        argvs.append(argv)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "contractmatch.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
        for argv in argvs
    ]
    for argv, proc in zip(argvs, procs):
        stdout, stderr = proc.communicate(timeout=60)
        code, out, _ = run_cli(capsys, *argv)
        assert (proc.returncode, stdout) == (code, out), (argv, stderr)
        assert "Traceback" not in stderr


def test_json_output_is_byte_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "lattice", str(fixture_path("marriage_3x3")), "--json"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # Canonical form: keys sorted, two-space indent, trailing newline.
    assert outputs[0] == json.dumps(json.loads(outputs[0]), indent=2, sort_keys=True) + "\n"


def _check_cli_digest(capsys, monkeypatch, fixture: str, digest: str) -> None:
    """``scripts/cli_digest.py`` runs 11 forms, each with and without
    ``--json``, and hashes their answers on ``fixture`` to ``digest``; each
    form's exit code matches an in-process run of the same arguments."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_digest.py"), "--verbose", fixture],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[-2] == "22 forms"
    assert out[-1] == f"sha256 {digest}"
    monkeypatch.chdir(root)  # the script passes fixture paths relative to the tree
    forms = [line.split(" ", 2) for line in map(str.strip, out[:-2])]
    assert len({argv for _, _, argv in forms}) == 22
    assert {argv.split()[0] for _, _, argv in forms} == {
        "validate", "solve", "lattice", "oracle", "market", "query"
    }
    for code, _, argv in forms:
        assert run_cli(capsys, *argv.split())[0] == int(code), argv


def test_cli_digest_script_covers_every_form(capsys, monkeypatch):
    """The digest of every form on ``marriage_3x3``, whose runs take the
    cursor rounds, is pinned, so a change of any answer on it shows here."""
    _check_cli_digest(
        capsys, monkeypatch, "marriage_3x3",
        "d241cd935657cec09af1a2e5e307880dbb87bdc07a657cca55560312a6f99747",
    )


def test_cli_digest_script_pins_the_generic_rounds(capsys, monkeypatch):
    """The same on ``no_stable_agreement``, whose runs take the generic
    rounds: its ``solve --trace`` prints a round that withdraws the kept
    {b}, so the rounds rebuilt from a mask record are pinned to the byte."""
    _check_cli_digest(
        capsys, monkeypatch, "no_stable_agreement",
        "6ac06708410e301b3e3792f0da99f9f151ca8cfde27944c2408f7c55ebc9cb8c",
    )


# ---------------------------------------------------------------------------
# one load and one write per invocation
# ---------------------------------------------------------------------------

# Every subcommand once, as (fixture, form); the fixture path goes right
# after the subcommand.
_EVERY_SUBCOMMAND = (
    ("marriage_3x3", ("validate",)),
    ("marriage_3x3", ("solve", "--trace")),
    ("no_stable_agreement", ("solve", "--require-stable")),
    ("marriage_3x3", ("lattice",)),
    ("economy_small", ("market",)),
    ("marriage_3x3", ("oracle",)),
    ("marriage_3x3", ("query", "--op", "prefers", "-A", "m1_w1", "-B", "m1_w2")),
    ("marriage_3x3", ("query", "--op", "closure", "-A", "m1_w1")),
)


def _argvs(json_flag: bool) -> list[list[str]]:
    return [
        [form[0], str(fixture_path(fixture)), *(["--json"] if json_flag else []), *form[1:]]
        for fixture, form in _EVERY_SUBCOMMAND
    ]


@pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
def test_a_closed_stdout_ends_quietly_with_the_usual_exit_code(json_flag, capsys):
    """With stdout a pipe whose reader has gone, each subcommand prints no
    traceback and exits as it does with a reader: 1 for ``solve
    --require-stable`` on a file with no stable agreement."""
    argvs = _argvs(json_flag)
    procs = []
    for argv in argvs:
        read_end, write_end = os.pipe()
        os.close(read_end)
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "contractmatch.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env(),
        ))
        os.close(write_end)
    for argv, proc in zip(argvs, procs):
        _, stderr = proc.communicate(timeout=60)
        assert (proc.returncode, stderr) == (run_cli(capsys, *argv)[0], ""), argv
        assert proc.returncode == (1 if "--require-stable" in argv else 0), argv


@pytest.mark.parametrize("json_flag", [False, True], ids=["human", "json"])
def test_main_loads_each_file_once(json_flag, monkeypatch, capsys):
    """``main`` reads the file through the module's ``load``, once per
    invocation, so a replacement of ``cli.load`` (the benchmark's timed
    loader) sees every load and changes no answer."""
    import contractmatch.cli as cli

    calls = []

    def counting_load(path):
        calls.append(path)
        return load(path)

    for argv in _argvs(json_flag):
        answer = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "load", counting_load)
        calls.clear()
        assert run_cli(capsys, *argv) == answer, argv
        assert calls == [argv[1]], argv
        monkeypatch.undo()


def test_handlers_return_their_answer_and_write_nothing(capsys):
    """Each ``cmd_*`` handler, called with a loaded file, writes nothing and
    returns ``(payload, lines, exit code)``; ``main`` writes exactly that."""
    from contractmatch.cli import build_parser
    from contractmatch.instancefile import dumps_document

    for human_argv, json_argv in zip(_argvs(False), _argvs(True)):
        args = build_parser().parse_args(human_argv)
        payload, lines, code = args.func(args, load(args.file))
        assert capsys.readouterr() == ("", ""), human_argv
        assert run_cli(capsys, *human_argv) == (code, "".join(f"{s}\n" for s in lines), "")
        assert run_cli(capsys, *json_argv) == (code, dumps_document(payload), "")
