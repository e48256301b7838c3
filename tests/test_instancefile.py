"""The JSON instance-file format: round-trips, validation, error positions."""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from contractmatch.choice import ChoiceFunction, Identity, UnionOfOrders, ValuationArgmax
from contractmatch.corpus import FIXTURE_DIR, no_stable_agreement_instance
from contractmatch.engine import Instance
from contractmatch.errors import ParseError
from contractmatch.instancefile import (
    dumps_document,
    load,
    parse_document,
    save,
    to_document,
)

from conftest import deadline

ALL_FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("*.json"))


def test_fixture_corpus_is_present():
    assert "no_stable_agreement.json" in ALL_FIXTURES
    assert "marriage_3x3.json" in ALL_FIXTURES
    assert "economy_small.json" in ALL_FIXTURES
    assert len(ALL_FIXTURES) >= 10


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_roundtrip_every_fixture(name):
    loaded = load(FIXTURE_DIR / name)
    doc = to_document(loaded.instance, loaded.economy, loaded.meta)
    again = parse_document(doc)
    assert again.instance == loaded.instance
    assert hash(again.instance) == hash(loaded.instance)
    assert again.economy == loaded.economy
    assert again.meta == loaded.meta
    # Serialization is a fixpoint: dump(parse(dump(x))) == dump(x).
    assert dumps_document(to_document(again.instance, again.economy, again.meta)) == dumps_document(doc)
    # The shipped file is already in canonical form.
    assert dumps_document(doc) == (FIXTURE_DIR / name).read_text()


def test_canonical_fixture_matches_corpus_builder():
    loaded = load(FIXTURE_DIR / "no_stable_agreement.json")
    assert loaded.instance == no_stable_agreement_instance()
    assert loaded.economy is None


def test_fixture_script_regenerates_the_shipped_files(tmp_path, monkeypatch, capsys):
    """``scripts/make_fixtures.py`` writes every shipped fixture byte for byte,
    so the on-disk and in-memory corpora cannot drift apart."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FIXTURE_DIR", tmp_path)
    assert module.main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ALL_FIXTURES
    assert len(ALL_FIXTURES) == 12
    for name in ALL_FIXTURES:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name


def test_save_then_load(tmp_path):
    inst = no_stable_agreement_instance()
    path = tmp_path / "inst.json"
    save(path, inst, meta={"note": "hand-built"})
    loaded = load(path)
    assert loaded.instance == inst
    assert loaded.meta == {"note": "hand-built"}


def test_canonical_dump_is_deterministic():
    loaded = load(FIXTURE_DIR / "marriage_2x2.json")
    a = dumps_document(to_document(loaded.instance, loaded.economy))
    b = dumps_document(to_document(loaded.instance, loaded.economy))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["schema_version"] == 1


# ---------------------------------------------------------------------------
# Parse-error positions
# ---------------------------------------------------------------------------


def _doc(**overrides):
    base = {
        "schema_version": 1,
        "contracts": ["a", "b"],
        "choice": {
            "side1": {"variant": "identity"},
            "side2": {"variant": "identity"},
        },
    }
    base.update(overrides)
    return base


def _error(doc) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_document(doc)
    return info.value


def test_unknown_variant_position():
    doc = _doc(choice={"side1": {"variant": "mystery"}, "side2": {"variant": "identity"}})
    err = _error(doc)
    assert err.location == "choice.side1.variant"
    assert "mystery" in str(err)


def test_unknown_variant_inside_agent_position():
    doc = _doc(
        choice={
            "side1": {
                "agents": {
                    "p1": {"contracts": ["a", "b"], "choice": {"variant": "nope"}}
                }
            },
            "side2": {"variant": "identity"},
        }
    )
    assert _error(doc).location == "choice.side1.agents.p1.choice.variant"


def test_incomplete_table_position():
    doc = _doc(
        choice={
            "side1": {"variant": "table", "map": [{"in": [], "out": []}]},
            "side2": {"variant": "identity"},
        }
    )
    err = _error(doc)
    assert err.location == "choice.side1.map"
    assert "missing" in str(err)


def test_duplicate_table_row():
    doc = _doc(
        choice={
            "side1": {
                "variant": "table",
                "map": [{"in": [], "out": []}, {"in": [], "out": ["a"]}],
            },
            "side2": {"variant": "identity"},
        }
    )
    assert "duplicate" in str(_error(doc))


def test_float_values_rejected():
    doc = _doc(
        contracts=["a"],
        choice={
            "side1": {
                "variant": "valuation_argmax",
                "values": [{"set": [], "value": 0}, {"set": ["a"], "value": 1.5}],
            },
            "side2": {"variant": "identity"},
        },
    )
    err = _error(doc)
    assert err.location == "choice.side1.values[1].value"
    assert "floats are inexact" in str(err)


def test_fraction_strings_parse():
    doc = _doc(
        contracts=["a"],
        choice={
            "side1": {
                "variant": "valuation_argmax",
                "values": [{"set": [], "value": 0}, {"set": ["a"], "value": "3/2"}],
            },
            "side2": {"variant": "identity"},
        },
    )
    loaded = parse_document(doc)
    f1 = loaded.instance.f1
    assert isinstance(f1, ValuationArgmax)
    assert f1.values[1] == Fraction(3, 2)


def test_duplicate_contract_name():
    assert str(_error(_doc(contracts=["a", "b", "a"]))) == (
        "contracts[2]: duplicate contract name 'a'"
    )


def test_unknown_name_in_order():
    doc = _doc(
        choice={
            "side1": {"variant": "top_of_order", "order": ["a", "zz"]},
            "side2": {"variant": "identity"},
        }
    )
    err = _error(doc)
    assert err.location == "choice.side1.order[1]"


def test_agent_partition_gap():
    doc = _doc(
        choice={
            "side1": {"agents": {"p1": {"contracts": ["a"], "choice": {"variant": "identity"}}}},
            "side2": {"variant": "identity"},
        }
    )
    err = _error(doc)
    assert "owned by no agent" in str(err)


def test_agent_partition_overlap():
    doc = _doc(
        choice={
            "side1": {
                "agents": {
                    "p1": {"contracts": ["a", "b"], "choice": {"variant": "identity"}},
                    "p2": {"contracts": ["b"], "choice": {"variant": "identity"}},
                }
            },
            "side2": {"variant": "identity"},
        }
    )
    assert "owned by both" in str(_error(doc))


def test_label_and_agent_owner_conflict():
    doc = _doc(
        labels={"a": ["p9", "c1"], "b": ["p1", "c1"]},
        choice={
            "side1": {
                "agents": {
                    "p1": {"contracts": ["a", "b"], "choice": {"variant": "identity"}}
                }
            },
            "side2": {"variant": "identity"},
        },
    )
    err = _error(doc)
    assert "owned by" in str(err) and "p9" in str(err)


def test_market_price_must_be_on_grid():
    doc = _doc(
        market={
            "prices": [10, 12],
            "templates": ["t"],
            "tuples": {
                "a": {"producer": "p", "consumer": "c", "template": "t", "price": 11},
                "b": {"producer": "p", "consumer": "c", "template": "t", "price": 10},
            },
        }
    )
    err = _error(doc)
    assert err.location == "market.tuples.a.price"
    assert str(err) == "market.tuples.a.price: price 11 is not on the grid [10, 12]"


def test_market_missing_tuple():
    doc = _doc(
        market={
            "prices": [10],
            "templates": ["t"],
            "tuples": {
                "a": {"producer": "p", "consumer": "c", "template": "t", "price": 10}
            },
        }
    )
    assert "no market tuple for contract 'b'" in str(_error(doc))


def _agents(**slices):
    """A choice block of identity agents, each owning the names given."""
    return {
        "agents": {
            agent: {"contracts": names, "choice": {"variant": "identity"}}
            for agent, names in slices.items()
        }
    }


def _market(**producers):
    """A one-price market section naming each contract's producer."""
    return {
        "prices": [1],
        "templates": ["t"],
        "tuples": {
            name: {"producer": p, "consumer": "c", "template": "t", "price": 1}
            for name, p in producers.items()
        },
    }


def _side1(block, **overrides):
    return _doc(choice={"side1": block, "side2": {"variant": "identity"}}, **overrides)


AGENT = "choice.side1.agents.p.contracts"

LOADER_MESSAGES = {
    "contract-not-a-string": (
        _doc(contracts=["a", 3]),
        "contracts[1]: expected a string, got int",
    ),
    "empty-contract-name": (
        _doc(contracts=["a", ""]),
        "contracts[1]: contract names must be non-empty",
    ),
    "duplicate-contract-name": (
        _doc(contracts=["a", "b", "a"]),
        "contracts[2]: duplicate contract name 'a'",
    ),
    "agent-contracts-not-a-list": (
        _side1(_agents(p="a")),
        f"{AGENT}: expected an array, got str",
    ),
    "agent-contract-not-a-string": (
        _side1(_agents(p=["a", 1])),
        f"{AGENT}[1]: expected a string, got int",
    ),
    "agent-contract-unhashable": (
        _side1(_agents(p=["a", ["b"]])),
        f"{AGENT}[1]: expected a string, got list",
    ),
    "agent-contract-unknown": (
        _side1(_agents(p=["a", "zz"])),
        f"{AGENT}[1]: unknown contract name 'zz'",
    ),
    "agent-contract-listed-twice": (
        _side1(_agents(p=["a", "b", "a"])),
        f"{AGENT}[2]: contract 'a' listed twice",
    ),
    "agent-owns-nothing": (
        _side1(_agents(p=[], q=["a", "b"])),
        f"{AGENT}: agent owns no contracts",
    ),
    "agent-contracts-out-of-id-order": (_side1(_agents(p=["b", "a"])), None),
    "order-ranks-twice": (
        _side1({"variant": "top_of_order", "order": ["a", "b", "a"]}),
        "choice.side1.order[2]: contract 'a' ranked twice",
    ),
    "order-leaves-out": (
        _side1({"variant": "top_of_order", "order": ["b"]}, contracts=["a", "b", "c"]),
        "choice.side1.order: ranking leaves out ['a', 'c']; it must rank every contract",
    ),
    "table-in-listed-twice": (
        _side1({"variant": "table", "map": [{"in": ["a", "a"], "out": []}]}),
        "choice.side1.map[0].in[1]: contract 'a' listed twice",
    ),
    "valuation-boolean-value": (
        _side1(
            {
                "variant": "valuation_argmax",
                "values": [{"set": [], "value": 0}, {"set": ["a"], "value": True}],
            },
            contracts=["a"],
        ),
        "choice.side1.values[1].value: expected an exact number, got True",
    ),
    "owned-by-two-agents": (
        _side1(_agents(p=["a", "b"], q=["b"])),
        "choice.side1.agents.q.contracts: contract 'b' owned by both 'p' and 'q'",
    ),
    "owned-by-no-agent": (
        _side1(_agents(p=["b"]), contracts=["a", "b", "c"]),
        "choice.side1.agents: contracts ['a', 'c'] are owned by no agent",
    ),
    "label-unknown-name": (
        _doc(labels={"a": ["p", "c"], "b": ["p", "c"], "zz": ["p", "c"]}),
        "labels.zz: unknown contract name 'zz'",
    ),
    "label-not-a-list": (
        _doc(labels={"a": ["p", "c"], "b": "p"}),
        "labels.b: expected an array, got str",
    ),
    "label-wrong-length": (
        _doc(labels={"a": ["p", "c", "d"], "b": ["p", "c"]}),
        "labels.a: label must be [side1 agent, side2 agent]",
    ),
    "label-not-a-string": (
        _doc(labels={"a": ["p", "c"], "b": ["p", 1]}),
        "labels.b[1]: expected a string, got int",
    ),
    "label-missing": (
        _doc(labels={"b": ["p", "c"]}),
        "labels: no label for contract 'a'",
    ),
    "label-first-fault-in-file-order": (
        _doc(labels={"b": [None, "c"], "a": ["p"]}),
        "labels.b[0]: expected a string, got NoneType",
    ),
    "labels-against-market": (
        _doc(labels={"a": ["p", "c"], "b": ["p", "c"]}, market=_market(a="p", b="q")),
        "market.tuples: contract 'b' is owned by 'p' per labels but 'q' per market.tuples",
    ),
    "labels-against-agents": (
        _side1(_agents(p=["a", "b"]), labels={"a": ["p", "c"], "b": ["q", "c"]}),
        "choice.side1.agents: contract 'b' is owned by 'q' per labels"
        " but 'p' per choice.side1.agents",
    ),
    "market-against-agents": (
        _side1(_agents(p=["a"], q=["b"]), market=_market(a="p", b="p")),
        "choice.side1.agents: contract 'b' is owned by 'p' per market.tuples"
        " but 'q' per choice.side1.agents",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADER_MESSAGES))
def test_loader_messages(case):
    """Each fault in a name list or in ownership gives this exact message,
    position included; ``None``: the document is accepted."""
    doc, message = LOADER_MESSAGES[case]
    if message is None:
        side = parse_document(doc).instance.f1
        assert [part.contract_ids for part in side.parts] == [range(2)]
    else:
        assert str(_error(doc)) == message


def test_a_document_of_many_names_parses_in_linear_time():
    names = [f"c{i}" for i in range(100_000)]
    with deadline(10):
        loaded = parse_document(_doc(contracts=names))
    assert loaded.instance.names == tuple(names)


def test_a_market_of_many_prices_and_templates_parses_in_linear_time():
    n = 20_000
    names = [f"c{i}" for i in range(n)]
    templates = [f"t{i}" for i in range(n)]
    tuples = {
        name: {"producer": "p", "consumer": "c", "template": t, "price": 2 * (n - 1 - i)}
        for i, (name, t) in enumerate(zip(names, templates))
    }
    consumer = {"variant": "unit_demand_consumer", "wtp": dict.fromkeys(templates, 2 * n)}
    doc = _doc(
        contracts=names,
        market={"prices": list(range(0, 2 * n, 2)), "templates": templates, "tuples": tuples},
        choice={
            "side1": {"variant": "identity"},
            "side2": {"agents": {"c": {"contracts": names, "choice": consumer}}},
        },
    )
    with deadline(10):
        loaded = parse_document(doc)
    assert [c.price for c in loaded.economy.contracts] == list(range(n - 1, -1, -1))


def test_a_two_sided_document_of_many_agents_parses_in_linear_time():
    """A k x k marriage market: each man owns a contiguous slice, each woman
    a strided one, and every agent ranks its slice."""
    k = 384
    names = [f"m{i}w{j}" for i in range(k) for j in range(k)]

    def side(prefix, slices):
        return {
            "agents": {
                f"{prefix}{a}": {
                    "contracts": s,
                    "choice": {"variant": "top_of_order", "order": s[::-1]},
                }
                for a, s in enumerate(slices)
            }
        }

    doc = _doc(
        contracts=names,
        choice={
            "side1": side("m", [names[i * k : (i + 1) * k] for i in range(k)]),
            "side2": side("w", [names[j::k] for j in range(k)]),
        },
    )
    with deadline(4):
        loaded = parse_document(doc)
    men, women = loaded.instance.f1, loaded.instance.f2
    assert {part.contract_ids for part in men.parts} == {
        range(i * k, (i + 1) * k) for i in range(k)
    }
    assert {part.contract_ids for part in women.parts} == {range(j, k * k, k) for j in range(k)}


def test_producer_variant_needs_market_and_side():
    agents = {
        "side1": {
            "agents": {
                "p1": {
                    "contracts": ["a", "b"],
                    "choice": {"variant": "linear_producer", "costs": {"t": 1}},
                }
            }
        },
        "side2": {"variant": "identity"},
    }
    err = _error(_doc(choice=agents))
    assert "needs a market section" in str(err)
    flipped = {
        "side1": {"variant": "identity"},
        "side2": {
            "agents": {
                "c1": {
                    "contracts": ["a", "b"],
                    "choice": {"variant": "linear_producer", "costs": {"t": 1}},
                }
            }
        },
    }
    assert "belong on side 1" in str(_error(_doc(choice=flipped)))


def test_schema_version_checked():
    assert "unsupported schema_version" in str(_error(_doc(schema_version=2)))


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError, match="not valid JSON"):
        load(path)


def test_top_level_must_be_object():
    with pytest.raises(ParseError, match="expected an object"):
        parse_document([1, 2, 3])


# ---------------------------------------------------------------------------
# Serialization details
# ---------------------------------------------------------------------------


def test_subsets_serialized_sorted_by_name():
    inst = Instance(
        names=("zeta", "alpha"),
        f1=UnionOfOrders(2, ((0, 1),)),
        f2=UnionOfOrders(2, ((1, 0),)),
    )
    doc = to_document(inst)
    assert doc["choice"]["side1"]["orders"] == [["zeta", "alpha"]]
    again = parse_document(doc)
    assert again.instance == inst


def test_foreign_choice_functions_are_not_serialized():
    class Everything(ChoiceFunction):
        n = 2

        def _choose(self, subset):
            return subset

    with pytest.raises(ParseError, match="cannot serialize choice functions of type Everything"):
        to_document(Instance(names=("a", "b"), f1=Everything(), f2=Identity(2)))


def test_valuation_serializes_scheme_exactly():
    doc = _doc(
        contracts=["a"],
        choice={
            "side1": {
                "variant": "valuation_argmax",
                "values": [{"set": [], "value": 0}, {"set": ["a"], "value": 2}],
                "epsilon": "1/4",
            },
            "side2": {"variant": "identity"},
        },
    )
    loaded = parse_document(doc)
    out = to_document(loaded.instance)
    block = out["choice"]["side1"]
    assert block["epsilon"] == "1/4"
    assert block["prices"] == ["1/8"]
    assert parse_document(out).instance == loaded.instance
