"""JSON instance files: parsing, validation, and lossless serialization.

A file describes one agreement problem: the contract universe, one choice
block per side, optional per-contract labels, and an optional market
section (price grid, templates, per-contract tuples).  Choice blocks are
either a single function over the whole universe::

    "side1": {"variant": "table", "map": [{"in": [], "out": []}, ...]}

or a partition into agents, each with its own function over its slice::

    "side1": {"agents": {"m1": {"contracts": ["m1_w1", "m1_w2"],
                                "choice": {"variant": "top_of_order",
                                           "order": ["m1_w1", "m1_w2"]}}}}

Within a block, contracts are referred to by name; subsets, orders and
agent slices are arrays of names.  Each array is read straight into
contract ids (an agent's slice is never a full-width mask), and a valid one
is checked at C speed, so loading takes time linear in the file.  Exact
rationals are written as ints or ``"[-]p[/q]"`` strings of decimal digits
(floats, exponents and decimals are rejected).  Unknown variant tags and
malformed payloads raise
:class:`~contractmatch.errors.ParseError` carrying the dotted position of
the offending element, and so do a choice block that its variant's constructor
refuses (at the block's position) and a file that the JSON decoder refuses
for its nesting depth or an integer's length, or an object in it that
gives one key twice (reported at the file's path).
``parse -> serialize -> parse`` is the identity.
:mod:`contractmatch.market` is imported only for a file with a market
section or a market variant.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .aggregation import AggregateChoice, _assemble_side
from .choice import (
    ChoiceFunction,
    Identity,
    PerturbationScheme,
    ResponsiveQuota,
    TableChoice,
    TopOfOrder,
    UnionOfOrders,
    ValuationArgmax,
)
from .engine import ContractLabel, Instance
from .errors import ParseError, SpecError
from .sets import format_mask, mask_of, subset_names

if TYPE_CHECKING:
    from fractions import Fraction

    from .market import MarketContract, MoneyEconomy

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class LoadedFile:
    """Result of parsing one instance file."""

    instance: Instance
    economy: MoneyEconomy | None
    meta: dict


# ---------------------------------------------------------------------------
# Small parse helpers
# ---------------------------------------------------------------------------


def _expect(condition: bool, message: str, loc: str) -> None:
    if not condition:
        raise ParseError(message, loc)


def _expect_dict(value: Any, loc: str) -> dict:
    _expect(isinstance(value, dict), f"expected an object, got {type(value).__name__}", loc)
    return value


def _expect_list(value: Any, loc: str) -> list:
    _expect(isinstance(value, list), f"expected an array, got {type(value).__name__}", loc)
    return value


def _expect_str(value: Any, loc: str) -> str:
    _expect(isinstance(value, str), f"expected a string, got {type(value).__name__}", loc)
    return value


def _expect_int(value: Any, loc: str) -> int:
    _expect(
        isinstance(value, int) and not isinstance(value, bool),
        f"expected an integer, got {value!r}",
        loc,
    )
    return value


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_fraction(value: Any, loc: str) -> Fraction:
    from fractions import Fraction

    if isinstance(value, bool):
        raise ParseError(f"expected an exact number, got {value!r}", loc)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # ``Fraction(str)`` also takes exponents, building 10**e exactly,
        # and decimals, ``_`` separators and padding: refuse them all.
        if _RATIONAL.fullmatch(value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise ParseError(f"not a valid rational: {value!r}", loc)
    raise ParseError(
        f"expected an int or 'p/q' string (floats are inexact), got {value!r}", loc
    )


def _fraction_to_json(value: Fraction) -> int | str:
    return int(value) if value.denominator == 1 else str(value)


def _parse_names(value: Any, index: Mapping[str, int], loc: str, verb: str) -> list[int]:
    """The ids of an array of distinct contract names, in the order listed."""
    names = _expect_list(value, loc)
    try:  # a valid array passes at C speed; only a faulty one is walked, to name its fault
        ids = list(map(index.__getitem__, names))
    except (KeyError, TypeError):  # a name that is unknown or not a string
        ids = []
    if len(set(ids)) < len(names):
        seen = set()
        for i, raw in enumerate(names):
            name = _expect_str(raw, f"{loc}[{i}]")
            _expect(name in index, f"unknown contract name {name!r}", f"{loc}[{i}]")
            _expect(name not in seen, f"contract {name!r} {verb}", f"{loc}[{i}]")
            seen.add(name)
    return ids


def _parse_subset(value: Any, index: Mapping[str, int], loc: str) -> int:
    return mask_of(_parse_names(value, index, loc, "listed twice"))


# ---------------------------------------------------------------------------
# Choice-spec blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MarketContext:
    """Market data a producer/consumer spec needs: the grid plus its contracts'
    tuples.  :func:`parse_document` builds one per file, for the whole
    universe, and :meth:`sliced` keeps an agent's share."""

    grid: tuple[int, ...]
    templates: set[str]
    slice_contracts: tuple[MarketContract, ...]

    def sliced(self, ids: Sequence[int]) -> _MarketContext:
        """The same market, keeping the tuples of contracts ``ids`` only."""
        picked = tuple(map(self.slice_contracts.__getitem__, ids))
        return _MarketContext(self.grid, self.templates, picked)


def _parse_spec(
    block: Any, local_names: Sequence[str], loc: str, side: int, market: _MarketContext | None
) -> ChoiceFunction:
    """One choice block; its variant's own refusals are reported at the block."""
    try:
        return _read_spec(block, local_names, loc, side, market)
    except SpecError as e:
        raise e if isinstance(e, ParseError) else ParseError(str(e), loc) from None


def _read_spec(
    block: Any,
    local_names: Sequence[str],
    loc: str,
    side: int,
    market: _MarketContext | None,
) -> ChoiceFunction:
    body = _expect_dict(block, loc)
    _expect("variant" in body, "choice block needs a 'variant' tag", loc)
    tag = _expect_str(body["variant"], f"{loc}.variant")
    k = len(local_names)
    index = {name: i for i, name in enumerate(local_names)}

    if tag == "identity":
        return Identity(k)

    if tag == "table":
        return TableChoice(k, _parse_rows(body, tag, local_names, index, loc))

    if tag == "top_of_order":
        order = _parse_order(body.get("order"), index, f"{loc}.order")
        return TopOfOrder(k, order)

    if tag == "responsive_quota":
        order = _parse_order(body.get("order"), index, f"{loc}.order")
        quota = _expect_int(body.get("quota"), f"{loc}.quota")
        return ResponsiveQuota(k, order, quota)

    if tag == "union_of_orders":
        raw_orders = _expect_list(body.get("orders"), f"{loc}.orders")
        orders = tuple(
            _parse_order(raw, index, f"{loc}.orders[{i}]")
            for i, raw in enumerate(raw_orders)
        )
        _expect(bool(orders), "need at least one order", f"{loc}.orders")
        return UnionOfOrders(k, orders)

    if tag == "valuation_argmax":
        values = _parse_rows(body, tag, local_names, index, loc)
        if "prices" in body:
            _expect("epsilon" in body, "'prices' requires 'epsilon'", loc)
            raw_prices = _expect_list(body["prices"], f"{loc}.prices")
            _expect(
                len(raw_prices) == k,
                f"need one price per contract ({k}), got {len(raw_prices)}",
                f"{loc}.prices",
            )
            scheme = PerturbationScheme(
                _parse_fraction(body["epsilon"], f"{loc}.epsilon"),
                tuple(
                    _parse_fraction(p, f"{loc}.prices[{i}]")
                    for i, p in enumerate(raw_prices)
                ),
            )
        elif "epsilon" in body:
            scheme = PerturbationScheme.dyadic(
                k, _parse_fraction(body["epsilon"], f"{loc}.epsilon")
            )
        else:
            scheme = PerturbationScheme.for_valuation(values)
        return ValuationArgmax(k, values, scheme)

    if tag in ("linear_producer", "unit_demand_consumer"):
        from .market import build_linear_producer, build_unit_demand_consumer

        want, field, build = (
            (1, "costs", build_linear_producer)
            if tag == "linear_producer"
            else (2, "wtp", build_unit_demand_consumer)
        )
        _expect(side == want, f"{tag} agents belong on side {want}", loc)
        _expect(market is not None, f"{tag} needs a market section", loc)
        numbers = _parse_agent_numbers(body.get(field), market, f"{loc}.{field}")
        return build(market.slice_contracts, market.grid, numbers)

    raise ParseError(f"unknown variant {tag!r}", f"{loc}.variant")


# Every-subset rows: fields, value reader and writer, repeated- and missing-subset messages.
_ROWS = {
    "table": (
        "map", "in", "out", _parse_subset, subset_names,
        "duplicate 'in' subset", "table must define every subset exactly once",
    ),
    "valuation_argmax": (
        "values", "set", "value", lambda v, _, at: _parse_fraction(v, at),
        lambda v, _: _fraction_to_json(v), "duplicate subset", "valuation must cover every subset",
    ),
}


def _parse_rows(
    body: dict, tag: str, local_names: Sequence[str], index: Mapping[str, int], loc: str
) -> tuple:
    """One value per subset of the slice, by bitmask, from rows that give each once."""
    rows, key, field, read, _, twice, missing = _ROWS[tag]
    loc = f"{loc}.{rows}"
    table = {}
    for i, raw in enumerate(_expect_list(body.get(rows), loc)):
        row = _expect_dict(raw, f"{loc}[{i}]")
        subset = _parse_subset(row.get(key), index, f"{loc}[{i}].{key}")
        _expect(subset not in table, twice, f"{loc}[{i}].{key}")
        table[subset] = read(row.get(field), index, f"{loc}[{i}].{field}")
    for m in range(1 << len(local_names)):
        _expect(m in table, f"{missing}; missing {format_mask(m, local_names)}", loc)
    return tuple(table[m] for m in range(1 << len(local_names)))


def _parse_order(value: Any, index: Mapping[str, int], loc: str) -> tuple[int, ...]:
    order = _parse_names(value, index, loc, "ranked twice")
    missing = sorted(set(index).difference(value))
    _expect(not missing, f"ranking leaves out {missing}; it must rank every contract", loc)
    return tuple(order)


def _parse_agent_numbers(
    value: Any, market: _MarketContext, loc: str
) -> dict[str, int]:
    body = _expect_dict(value, loc)
    out = {}
    for template, raw in body.items():
        _expect(
            template in market.templates, f"unknown template {template!r}", loc
        )
        out[template] = _expect_int(raw, f"{loc}.{template}")
    return out


def _rows_to_json(tag: str, values: Sequence, local_names: Sequence[str]) -> dict:
    """A block's tag and its every-subset rows, in bitmask order."""
    rows, key, field, _, write = _ROWS[tag][:5]
    return {"variant": tag, rows: [
        {key: subset_names(m, local_names), field: write(v, local_names)}
        for m, v in enumerate(values)
    ]}


def _spec_to_json(spec: ChoiceFunction, local_names: Sequence[str]) -> dict:
    if isinstance(spec, Identity):
        return {"variant": "identity"}
    if isinstance(spec, TableChoice):
        return _rows_to_json("table", spec.entries, local_names)
    if isinstance(spec, ResponsiveQuota):
        return {
            "variant": "responsive_quota",
            "order": [local_names[i] for i in spec.order],
            "quota": spec.quota,
        }
    if isinstance(spec, TopOfOrder):
        return {
            "variant": "top_of_order",
            "order": [local_names[i] for i in spec.order],
        }
    if isinstance(spec, UnionOfOrders):
        return {
            "variant": "union_of_orders",
            "orders": [[local_names[i] for i in order] for order in spec.orders],
        }
    if isinstance(spec, ValuationArgmax):
        return {
            **_rows_to_json("valuation_argmax", spec.values, local_names),
            "epsilon": _fraction_to_json(spec.scheme.epsilon),
            "prices": [_fraction_to_json(p) for p in spec.scheme.prices],
        }
    from .market import LinearProducerChoice, UnitDemandConsumerChoice

    if isinstance(spec, LinearProducerChoice):
        return {"variant": "linear_producer", "costs": dict(spec.unit_costs)}
    if isinstance(spec, UnitDemandConsumerChoice):
        return {"variant": "unit_demand_consumer", "wtp": dict(spec.willingness)}
    raise ParseError(f"cannot serialize choice functions of type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Whole documents
# ---------------------------------------------------------------------------


def parse_document(doc: Any) -> LoadedFile:
    """Parse one decoded JSON document into an instance (plus market data)."""
    body = _expect_dict(doc, "")
    version = body.get("schema_version")
    _expect(
        version == SCHEMA_VERSION,
        f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        "schema_version",
    )

    raw_contracts = _expect_list(body.get("contracts"), "contracts")
    _expect(bool(raw_contracts), "need at least one contract", "contracts")
    index: dict[str, int] = {}
    if set(map(type, raw_contracts)) == {str}:
        index = dict(zip(raw_contracts, range(len(raw_contracts))))
    if len(index) < len(raw_contracts) or "" in index:  # name the first fault
        index = {}
        for i, raw in enumerate(raw_contracts):
            name = _expect_str(raw, f"contracts[{i}]")
            _expect(bool(name), "contract names must be non-empty", f"contracts[{i}]")
            _expect(name not in index, f"duplicate contract name {name!r}", f"contracts[{i}]")
            index[name] = i
    names = list(index)
    n = len(names)

    # --- market section (parsed before choice blocks, which may need it) ---
    market: _MarketContext | None = None
    templates: tuple[str, ...] = ()
    if "market" in body:
        from .market import MarketContract, MoneyEconomy

        market_body = _expect_dict(body["market"], "market")
        raw_grid = _expect_list(market_body.get("prices"), "market.prices")
        grid = tuple(
            _expect_int(v, f"market.prices[{i}]") for i, v in enumerate(raw_grid)
        )
        _expect(
            len(grid) > 0 and all(a < b for a, b in zip(grid, grid[1:])),
            "price grid must be non-empty and strictly increasing",
            "market.prices",
        )
        level = {price: i for i, price in enumerate(grid)}
        raw_templates = _expect_list(market_body.get("templates"), "market.templates")
        templates = tuple(
            _expect_str(t, f"market.templates[{i}]") for i, t in enumerate(raw_templates)
        )
        known = set(templates)
        _expect(
            len(known) == len(templates) and all(templates),
            "template names must be unique and non-empty",
            "market.templates",
        )
        tuples = _expect_dict(market_body.get("tuples"), "market.tuples")
        market_contracts = [None] * n  # type: ignore[list-item]
        for cname, raw in tuples.items():
            loc = f"market.tuples.{cname}"
            _expect(cname in index, f"unknown contract name {cname!r}", loc)
            row = _expect_dict(raw, loc)
            template = _expect_str(row.get("template"), f"{loc}.template")
            _expect(template in known, f"unknown template {template!r}", f"{loc}.template")
            price_value = _expect_int(row.get("price"), f"{loc}.price")
            if price_value not in level:
                raise ParseError(
                    f"price {price_value} is not on the grid {list(grid)}", f"{loc}.price"
                )
            market_contracts[index[cname]] = MarketContract(
                producer=_expect_str(row.get("producer"), f"{loc}.producer"),
                consumer=_expect_str(row.get("consumer"), f"{loc}.consumer"),
                template=template,
                price=level[price_value],
            )
        for cname, mc in zip(names, market_contracts):
            _expect(mc is not None, f"no market tuple for contract {cname!r}", "market.tuples")
        market = _MarketContext(grid, known, tuple(market_contracts))

    # --- explicit labels: each contract's two agents, by contract id ---
    label_owners: tuple[list[str], list[str]] | None = None
    if "labels" in body:
        labels_body = _expect_dict(body["labels"], "labels")
        pairs = list(labels_body.values())
        # A valid section passes at C speed; only a faulty one is walked, to name its fault.
        if not (
            labels_body.keys() == index.keys()
            and set(map(type, pairs)) == {list}
            and set(map(len, pairs)) == {2}
            and set(map(type, chain.from_iterable(pairs))) == {str}
        ):
            for cname, raw in labels_body.items():
                loc = f"labels.{cname}"
                _expect(cname in index, f"unknown contract name {cname!r}", loc)
                pair = _expect_list(raw, loc)
                _expect(len(pair) == 2, "label must be [side1 agent, side2 agent]", loc)
                _expect_str(pair[0], f"{loc}[0]")
                _expect_str(pair[1], f"{loc}[1]")
            for cname in names:
                _expect(cname in labels_body, f"no label for contract {cname!r}", "labels")
        ordered = list(map(labels_body.__getitem__, names))
        label_owners = ([pair[0] for pair in ordered], [pair[1] for pair in ordered])

    # --- choice blocks ---
    choice_body = _expect_dict(body.get("choice"), "choice")
    for key in choice_body:
        _expect(key in ("side1", "side2"), f"unexpected key {key!r}", f"choice.{key}")
    sides: list[ChoiceFunction] = []
    owners: list[list[str] | None] = []
    for side in (1, 2):
        loc = f"choice.side{side}"
        block = _expect_dict(choice_body.get(f"side{side}"), loc)
        if "agents" in block:
            f = _parse_agents_block(block["agents"], names, index, loc, side, market)
            sides.append(f)
            owners.append(list(f.owners()))
        elif "variant" in block:
            sides.append(_parse_spec(block, names, loc, side, market))
            owners.append(None)
        else:
            raise ParseError("choice block needs either 'variant' or 'agents'", loc)

    # --- reconcile ownership across labels, market, and agent blocks ---
    derived: list[list[str] | None] = [
        [mc.producer for mc in market.slice_contracts] if market else None,
        [mc.consumer for mc in market.slice_contracts] if market else None,
    ]
    final_owner: list[list[str] | None] = [None, None]
    for side in (1, 2):
        candidates = [
            (label_owners[side - 1] if label_owners else None, "labels"),
            (derived[side - 1], "market.tuples"),
            (owners[side - 1], f"choice.side{side}.agents"),
        ]
        present = [(src, where) for src, where in candidates if src is not None]
        for (first, where_a), (other, where_b) in zip(present, present[1:]):
            if first != other:
                cid = next(c for c in range(n) if first[c] != other[c])
                raise ParseError(
                    f"contract {names[cid]!r} is owned by {first[cid]!r} per {where_a}"
                    f" but {other[cid]!r} per {where_b}",
                    where_b,
                )
        final_owner[side - 1] = present[0][0] if present else None

    # Two agent blocks record the labels themselves (Instance reads them back).
    labels = None
    if None in owners and None not in final_owner:
        labels = tuple(map(ContractLabel, *final_owner))

    instance = Instance(names=tuple(names), f1=sides[0], f2=sides[1], labels=labels)

    economy = None
    if market is not None:
        economy = MoneyEconomy(
            instance=instance,
            contracts=market.slice_contracts,
            price_grid=market.grid,
            templates=templates,
        )

    meta = _expect_dict(body.get("meta"), "meta") if "meta" in body else {}
    return LoadedFile(instance=instance, economy=economy, meta=meta)


def _parse_agents_block(
    raw_agents: Any,
    names: Sequence[str],
    index: Mapping[str, int],
    loc: str,
    side: int,
    market: _MarketContext | None,
) -> AggregateChoice:
    agents_body = _expect_dict(raw_agents, f"{loc}.agents")
    _expect(bool(agents_body), "need at least one agent", f"{loc}.agents")
    owned: dict[int, str] = {}
    agents = {}
    for agent in sorted(agents_body):
        aloc = f"{loc}.agents.{agent}"
        entry = _expect_dict(agents_body[agent], aloc)
        cloc = f"{aloc}.contracts"
        slice_ids = sorted(_parse_names(entry.get("contracts"), index, cloc, "listed twice"))
        _expect(bool(slice_ids), "agent owns no contracts", cloc)
        if twice := owned.keys() & slice_ids:
            cid = min(twice)
            raise ParseError(
                f"contract {names[cid]!r} owned by both {owned[cid]!r} and {agent!r}", cloc
            )
        owned.update(dict.fromkeys(slice_ids, agent))
        local_names = [names[cid] for cid in slice_ids]
        piece = market.sliced(slice_ids) if market else None
        spec = _parse_spec(entry.get("choice"), local_names, f"{aloc}.choice", side, piece)
        agents[agent] = spec, slice_ids
    if len(owned) < len(names):
        missing = [name for cid, name in enumerate(names) if cid not in owned]
        raise ParseError(f"contracts {missing} are owned by no agent", f"{loc}.agents")
    return _assemble_side(len(names), agents)


def to_document(
    instance: Instance,
    economy: MoneyEconomy | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict:
    """Serialize an instance (plus optional market data) to a JSON document."""
    names = instance.names
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "contracts": list(names),
    }
    if instance.labels is not None:
        doc["labels"] = {
            names[i]: [lab.side1, lab.side2] for i, lab in enumerate(instance.labels)
        }
    choice: dict[str, Any] = {}
    for side, f in (("side1", instance.f1), ("side2", instance.f2)):
        if isinstance(f, AggregateChoice):
            choice[side] = {
                "agents": {
                    part.agent: {
                        "contracts": [names[cid] for cid in part.contract_ids],
                        "choice": _spec_to_json(
                            part.spec, [names[cid] for cid in part.contract_ids]
                        ),
                    }
                    for part in f.parts
                }
            }
        else:
            choice[side] = _spec_to_json(f, names)
    doc["choice"] = choice
    if economy is not None:
        doc["market"] = {
            "prices": list(economy.price_grid),
            "templates": list(economy.templates),
            "tuples": {
                names[i]: {
                    "producer": c.producer,
                    "consumer": c.consumer,
                    "template": c.template,
                    "price": economy.price_grid[c.price],
                }
                for i, c in enumerate(economy.contracts)
            },
        }
    if meta:
        doc["meta"] = dict(meta)
    return doc


def dumps_document(doc: Mapping[str, Any]) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline end."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _refuse_repeated_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One decoded JSON object; a key it gives twice is an input error."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _expect(key not in seen, f"key {key!r} appears twice in one object", "")
            seen.add(key)
    return members


def load(path: str | Path) -> LoadedFile:
    """Read and parse an instance file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(e.strerror or str(e), str(path)) from None
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text ({e.reason} at byte {e.start})", str(path)) from None
    try:
        doc = json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except ParseError as e:  # a ValueError too, so caught before the digit limit's
        raise ParseError(str(e), str(path)) from None
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}", str(path)) from None
    except RecursionError:
        raise ParseError("arrays or objects nest too deeply to decode", str(path)) from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise ParseError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits", str(path)
        ) from None
    return parse_document(doc)


def save(
    path: str | Path,
    instance: Instance,
    economy: MoneyEconomy | None = None,
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Serialize to a file in canonical form."""
    Path(path).write_text(dumps_document(to_document(instance, economy, meta)))
