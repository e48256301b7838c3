"""The JSON instance-file format: round-trips, validation, error positions."""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from contractmatch.choice import UnionOfOrders, ValuationArgmax
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
    assert len(ALL_FIXTURES) == 11
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
