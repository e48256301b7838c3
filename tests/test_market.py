"""Money economies: structural checks, conforming builders, the two-price law."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from contractmatch.aggregation import aggregate_side
from contractmatch.choice import Identity, TableChoice, _Mapped
from contractmatch.coherence import check_coherent
from contractmatch.corpus import price_gap_economy
from contractmatch.engine import ContractLabel, Instance, is_stable_set, run
from contractmatch.errors import SizeBoundError, SpecError
from contractmatch.generators import random_money_economy
from contractmatch.instancefile import dumps_document, to_document
from contractmatch.market import (
    LinearProducerChoice,
    MarketContract,
    MoneyEconomy,
    MoneyMonotoneViolation,
    UnitDemandConsumerChoice,
    build_linear_producer,
    build_money_economy,
    build_unit_demand_consumer,
    check_money_monotone,
    check_no_shortage,
    check_two_prices,
)
from contractmatch.oracle import enumerate_stable_agreements
from contractmatch.sets import iter_submasks, mask_of


# ---------------------------------------------------------------------------
# Economy validation
# ---------------------------------------------------------------------------


def _tiny_instance(n=2):
    return Instance(
        names=tuple(f"k{i}" for i in range(n)),
        f1=Identity(n),
        f2=Identity(n),
        labels=tuple(ContractLabel("p1", "c1") for _ in range(n)),
    )


def test_economy_validation():
    inst = _tiny_instance()
    good = (
        MarketContract("p1", "c1", "t", 0),
        MarketContract("p1", "c1", "t", 1),
    )
    MoneyEconomy(inst, good, (10, 11), ("t",))
    with pytest.raises(SpecError, match="market tuples"):
        MoneyEconomy(inst, good[:1], (10, 11), ("t",))
    with pytest.raises(SpecError, match="strictly increasing"):
        MoneyEconomy(inst, good, (11, 10), ("t",))
    with pytest.raises(SpecError, match="price index"):
        MoneyEconomy(inst, good, (10,), ("t",))
    with pytest.raises(SpecError, match="unknown template"):
        MoneyEconomy(inst, good, (10, 11), ("other",))
    with pytest.raises(SpecError, match="template names must be unique"):
        MoneyEconomy(inst, good, (10, 11), ("t", "t"))
    with pytest.raises(SpecError, match="disagrees with market tuple"):
        MoneyEconomy(
            inst,
            (MarketContract("p9", "c1", "t", 0), good[1]),
            (10, 11),
            ("t",),
        )


def test_economy_accessors():
    econ = price_gap_economy()
    assert econ.producers == ("p1",)
    assert econ.consumers == ("c1", "c2")
    assert econ.price_value(0) == 10
    assert econ.price_value(1) == 12


# ---------------------------------------------------------------------------
# No-shortage
# ---------------------------------------------------------------------------


def test_no_shortage_flags_missing_combos():
    report = check_no_shortage(price_gap_economy())
    assert not report.ok
    assert ("p1", "c1", "widget", 1) in report.missing
    assert len(report.missing) == 4
    assert "no-shortage violations" in report.describe(("x", "y"))


def test_no_shortage_spare_copy_clause():
    econ = price_gap_economy()
    catalog = enumerate_stable_agreements(econ.instance)
    report = check_no_shortage(econ, catalog.sets)
    # Both members of the unique stable agreement lack identical spares.
    assert {cid for _, cid in report.unmatched} == {0, 1}
    assert report.describe(econ.instance.names).splitlines()[-2:] == [
        f"  agreement {{x, y}}: contract {name} has no identical spare copy outside"
        for name in "xy"
    ]
    assert "contract 1 has no identical spare copy outside" in report.describe()


def test_no_shortage_passes_on_conforming_builder():
    econ = build_money_economy(
        ["p1"], ["c1"], ["t"], [5, 6], {"p1": {"t": 5}}, {"c1": {"t": 6}}
    )
    catalog = enumerate_stable_agreements(econ.instance)
    report = check_no_shortage(econ, catalog.sets)
    assert report.ok
    assert report.describe(econ.instance.names) == "no-shortage: OK"


# ---------------------------------------------------------------------------
# Money monotonicity
# ---------------------------------------------------------------------------


def test_money_monotone_passes_on_builders():
    econ = build_money_economy(
        ["p1", "p2"],
        ["c1"],
        ["t"],
        [5, 6, 7],
        {"p1": {"t": 5}, "p2": {"t": 8}},
        {"c1": {"t": 7}},
    )
    report = check_money_monotone(econ)
    assert report.ok
    assert report.describe(econ.instance.names) == "money-monotonicity: OK"


def test_money_monotone_catches_price_averse_producer():
    # A producer that keeps the cheap contract alone but drops the pricier
    # same-template one when both are offered.
    grid = (10, 11, 12)
    contracts = (
        MarketContract("p1", "c1", "t", 0),
        MarketContract("p1", "c1", "t", 2),
    )
    f1 = TableChoice(2, (0b00, 0b01, 0b10, 0b01))
    inst = Instance(
        names=("cheap", "pricey"),
        f1=f1,
        f2=Identity(2),
        labels=(ContractLabel("p1", "c1"), ContractLabel("p1", "c1")),
    )
    econ = MoneyEconomy(inst, contracts, grid, ("t",))
    report = check_money_monotone(econ)
    assert not report.ok
    v = report.violations[0]
    assert v.side == 1 and v.agent == "p1"
    assert v.kept == 0 and v.candidate == 1
    assert "rejects the pricier" in v.describe(inst.names)
    lines = report.describe(inst.names).splitlines()
    assert lines[0] == "money-monotonicity violations:"
    assert lines[1:] == ["  " + v.describe(inst.names) for v in report.violations]


def test_money_monotone_catches_bargain_averse_consumer():
    # A consumer that keeps the pricier contract alone but drops the cheaper
    # same-template one when both are offered.
    grid = (10, 11, 12)
    contracts = (
        MarketContract("p1", "c1", "t", 0),
        MarketContract("p1", "c1", "t", 2),
    )
    f2 = TableChoice(2, (0b00, 0b01, 0b10, 0b10))
    inst = Instance(
        names=("cheap", "pricey"),
        f1=Identity(2),
        f2=f2,
        labels=(ContractLabel("p1", "c1"), ContractLabel("p1", "c1")),
    )
    econ = MoneyEconomy(inst, contracts, grid, ("t",))
    report = check_money_monotone(econ)
    assert any(
        v.side == 2 and v.kept == 1 and v.candidate == 0 for v in report.violations
    )
    assert "rejects the cheaper" in report.violations[0].describe(inst.names)


def test_money_monotone_slice_bound():
    econ = build_money_economy(
        ["p1"], ["c1"], ["t"], list(range(5, 12)), {"p1": {"t": 5}}, {"c1": {"t": 11}}
    )
    assert econ.instance.n == 14
    with pytest.raises(SizeBoundError, match="owns 14 contracts"):
        check_money_monotone(econ)
    assert check_money_monotone(econ, max_n=14).ok


def _whole_side_table_scan(economy: MoneyEconomy) -> tuple[MoneyMonotoneViolation, ...]:
    """Money monotonicity from a whole-side table over each agent's submenus:
    for every same-template pair, ``kept`` is chosen from ``menu`` but
    ``candidate`` not from ``menu | {candidate}``.  Each pair is tested on
    all menus at once; violations come in agent, menu, pair order."""
    violations = []
    for side in (1, 2):
        f = economy.instance.side(side)
        slices: dict[str, list[int]] = {}
        for cid, c in enumerate(economy.contracts):
            slices.setdefault(c.producer if side == 1 else c.consumer, []).append(cid)
        for agent in sorted(slices):
            ids = slices[agent]
            pairs = []
            for x in ids:
                for y in ids:
                    cx, cy = economy.contracts[x], economy.contracts[y]
                    if cx.template == cy.template and cx.price < cy.price:
                        pairs.append((x, y) if side == 1 else (y, x))
            menus = list(iter_submasks(mask_of(ids)))  # ascending: index = local mask
            table = np.array([f.choose_mask(menu) for menu in menus])
            index = np.arange(len(menus))
            bad = np.zeros((len(menus), len(pairs)), dtype=bool)
            for p, (kept, candidate) in enumerate(pairs):
                with_candidate = table[index | 1 << ids.index(candidate)]
                bad[:, p] = (table >> kept & 1 == 1) & (with_candidate >> candidate & 1 == 0)
            for m, p in np.argwhere(bad).tolist():
                violations.append(MoneyMonotoneViolation(agent, side, menus[m], *pairs[p]))
    return tuple(violations)


def test_money_monotone_matches_the_whole_side_table_scan():
    """Same violations in the same order on the 100 generated economies, and
    on those of at most 8 contracts with random whole-side tables."""
    rng = random.Random(8)
    violating = 0
    for seed in range(100):
        econ = random_money_economy(seed)
        inst = econ.instance
        assert check_money_monotone(econ, max_n=inst.n).violations == (
            _whole_side_table_scan(econ)
        )
        if inst.n > 8:
            continue
        f1, f2 = (
            TableChoice(inst.n, tuple(rng.getrandbits(inst.n) for _ in range(1 << inst.n)))
            for _ in range(2)
        )
        tables = MoneyEconomy(
            Instance(inst.names, f1, f2, inst.labels),
            econ.contracts, econ.price_grid, econ.templates,
        )
        violations = check_money_monotone(tables).violations
        assert violations == _whole_side_table_scan(tables)
        violating += bool(violations)
    assert violating >= 30


# ---------------------------------------------------------------------------
# Two-price law
# ---------------------------------------------------------------------------


def test_two_price_gap_flagged():
    econ = price_gap_economy()
    report = check_two_prices(econ, 0b11)
    assert not report.ok
    (v,) = report.violations
    assert v.cheaper == 0 and v.pricier == 1 and v.between_index == 1
    assert "lies strictly between" in v.describe(("x", "y"), econ.price_grid)


def test_adjacent_grid_indices_never_violate():
    # Wide numeric spread, adjacent indices: the law is on the grid.
    inst = _tiny_instance()
    econ = MoneyEconomy(
        inst,
        (MarketContract("p1", "c1", "t", 0), MarketContract("p1", "c1", "t", 1)),
        (10, 1000),
        ("t",),
    )
    assert check_two_prices(econ, 0b11).ok


def test_different_templates_never_violate():
    inst = _tiny_instance()
    econ = MoneyEconomy(
        inst,
        (MarketContract("p1", "c1", "a", 0), MarketContract("p1", "c1", "b", 2)),
        (10, 11, 12),
        ("a", "b"),
    )
    assert check_two_prices(econ, 0b11).ok


# ---------------------------------------------------------------------------
# Conforming agents
# ---------------------------------------------------------------------------


def _slice_contracts():
    return [
        MarketContract("p1", "c1", "t", 0),
        MarketContract("p1", "c1", "t", 1),
        MarketContract("p1", "c1", "t", 2),
        MarketContract("p1", "c1", "u", 1),
    ]


def test_linear_producer_semantics():
    f = build_linear_producer(_slice_contracts(), (10, 12, 14), {"t": 12, "u": 99})
    # Keeps t-contracts priced >= 12, never the unaffordable u.
    assert f.choose_mask(0b1111) == 0b0110
    assert check_coherent(f).coherent


def test_unit_demand_consumer_semantics():
    f = build_unit_demand_consumer(_slice_contracts(), (10, 12, 14), {"t": 12, "u": 20})
    # Cheapest affordable t (price 10), plus the only u.
    assert f.choose_mask(0b1111) == 0b1001
    # Without the cheapest t, the next affordable one is kept.
    assert f.choose_mask(0b1110) == 0b1010
    assert check_coherent(f).coherent


def test_agent_builders_require_declared_numbers():
    with pytest.raises(SpecError, match="no unit cost"):
        build_linear_producer(_slice_contracts(), (10, 12, 14), {"t": 12})
    with pytest.raises(SpecError, match="no willingness-to-pay"):
        build_unit_demand_consumer(_slice_contracts(), (10, 12, 14), {"u": 20})


def test_agents_reject_contracts_outside_their_universe():
    with pytest.raises(SpecError, match="keep mask 0x4 leaves the 2-contract universe"):
        LinearProducerChoice(2, 0b100, ())
    with pytest.raises(SpecError, match="keep mask"):
        LinearProducerChoice(2, -1, ())
    for bad in (2, -1):
        with pytest.raises(SpecError, match="leave the 2-contract universe"):
            UnitDemandConsumerChoice(2, ((0,), (1, bad)), ())
    assert LinearProducerChoice(2, 0b11, ()).choose_mask(0b10) == 0b10
    assert UnitDemandConsumerChoice(2, ((1, 0),), ()).choose_mask(0b11) == 0b10


def test_consumer_refuses_a_contract_listed_twice():
    """A contract in two places of ``picks`` would have two ranks; within one
    pick or across picks, the constructor refuses it."""
    for picks in (((1, 0, 1),), ((0,), (0,))):
        with pytest.raises(SpecError, match="list contract [01] more than once"):
            UnitDemandConsumerChoice(2, picks, ())


def test_economy_agents_are_evaluated_without_id_mapping():
    econ = random_money_economy(5)
    for f in (econ.instance.f1, econ.instance.f2):
        assert f._agents and not any(isinstance(agent, _Mapped) for agent in f._agents)


def test_generated_economies_conform():
    for seed in range(6):
        econ = random_money_economy(seed)
        assert check_no_shortage(econ).ok
        assert check_money_monotone(econ, max_n=econ.instance.n).ok
        for part in econ.instance.f1.parts + econ.instance.f2.parts:
            if part.spec.n <= 8:
                assert check_coherent(part.spec).coherent


# ---------------------------------------------------------------------------
# The constructive blocking step
# ---------------------------------------------------------------------------


def _gap_economy_with_mid_contract_first():
    """A conforming economy whose agreement {x, y} gaps the price grid.

    The mid-priced contract z between x's producer and y's consumer gets
    contract id 0, so the stability scan's minimal witness must be z itself.
    """
    grid = (10, 12, 14)
    rows = [
        ("z_mid", "p1", "c2", 1),
        ("x_cheap", "p1", "c1", 0),
        ("y_pricey", "p1", "c2", 2),
        ("c1_mid", "p1", "c1", 1),
        ("c1_high", "p1", "c1", 2),
        ("c2_low", "p1", "c2", 0),
        ("x_spare", "p1", "c1", 0),
        ("y_spare", "p1", "c2", 2),
    ]
    names = tuple(name for name, *_ in rows)
    contracts = tuple(MarketContract(p, c, "t", idx) for _, p, c, idx in rows)
    producer_owner = [c.producer for c in contracts]
    consumer_owner = [c.consumer for c in contracts]
    f1 = aggregate_side(
        {"p1": build_linear_producer(contracts, grid, {"t": 10})},
        producer_owner,
    )
    consumer_slices = {
        agent: [cid for cid, c in enumerate(contracts) if c.consumer == agent]
        for agent in ("c1", "c2")
    }
    f2 = aggregate_side(
        {
            agent: build_unit_demand_consumer(
                [contracts[cid] for cid in ids], grid, {"t": 14}
            )
            for agent, ids in consumer_slices.items()
        },
        consumer_owner,
    )
    inst = Instance(
        names=names,
        f1=f1,
        f2=f2,
        labels=tuple(ContractLabel(c.producer, c.consumer) for c in contracts),
    )
    return MoneyEconomy(inst, contracts, grid, ("t",))


def test_mid_priced_contract_blocks_gapped_agreement():
    econ = _gap_economy_with_mid_contract_first()
    inst = econ.instance
    assert check_no_shortage(econ).ok
    assert check_money_monotone(econ).ok

    a = inst.mask_of_names(["x_cheap", "y_pricey"])
    # The set is an agreement with a same-template price gap ...
    assert inst.f1.choose_mask(a) == a == inst.f2.choose_mask(a)
    gap = check_two_prices(econ, a)
    assert not gap.ok and gap.violations[0].between_index == 1

    # ... and the constructive mid-priced contract blocks it: z pairs the
    # cheaper contract's producer with the pricier one's consumer.
    z = inst.names.index("z_mid")
    zc, xc, yc = econ.contracts[z], econ.contracts[1], econ.contracts[2]
    assert zc.producer == xc.producer and zc.consumer == yc.consumer
    assert xc.price < zc.price < yc.price
    menu = a | (1 << z)
    assert inst.f1.choose_mask(menu) >> z & 1
    assert inst.f2.choose_mask(menu) >> z & 1

    # The stability checker's minimal witness is exactly z.
    verdict = is_stable_set(inst, a)
    assert not verdict.stable
    assert verdict.blocking_contract == z

    # Spare copies keep the no-shortage clause satisfiable on this set.
    assert check_no_shortage(econ, (a,)).ok


def test_conforming_economies_have_gap_free_stable_agreements():
    for seed in range(6):
        econ = random_money_economy(seed)
        catalog = enumerate_stable_agreements(econ.instance)
        for s in catalog.sets:
            assert check_two_prices(econ, s).ok


def test_builder_end_to_end_solve():
    econ = build_money_economy(
        ["p1"], ["c1"], ["t"], [10, 12, 14], {"p1": {"t": 11}}, {"c1": {"t": 13}}
    )
    result = run(econ.instance)
    assert result.stable_agreement
    assert econ.instance.names_of(result.chosen) == ["p1_c1_t_12_a"]


def test_builder_rejects_zero_copies():
    with pytest.raises(SpecError, match="at least one copy"):
        build_money_economy(["p"], ["c"], ["t"], [1], {"p": {"t": 1}}, {"c": {"t": 1}}, copies=0)


def test_builder_output_is_pinned():
    # The canonical document of every built economy, hashed: the generated
    # ones (at most 14 contracts each) and one 48-contract economy with two
    # agents a side, two templates, two prices and three copies of each tuple.
    generated = hashlib.sha256()
    for seed in range(100):
        econ = random_money_economy(seed)
        generated.update(dumps_document(to_document(econ.instance, econ)).encode())
    assert generated.hexdigest() == (
        "f3d61fe4acfddfdbbdffc63797ca0bc2f6ddefa933abb274d05897675a12dec7"
    )
    econ = build_money_economy(
        ["p1", "p2"],
        ["c1", "c2"],
        ["t1", "t2"],
        [10, 12],
        {"p1": {"t1": 11, "t2": 9}, "p2": {"t1": 12, "t2": 13}},
        {"c1": {"t1": 12, "t2": 10}, "c2": {"t1": 9, "t2": 11}},
        copies=3,
    )
    assert econ.instance.n == 48
    document = dumps_document(to_document(econ.instance, econ)).encode()
    assert hashlib.sha256(document).hexdigest() == (
        "94a9aa80b7d86f046a3afe1a61bdad029fa68ee98a645acd7d096d672a8b3192"
    )
