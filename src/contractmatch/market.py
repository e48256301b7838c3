"""Two-sided money markets: priced contracts and the two-price law.

A market contract names a producer, a consumer, a template (the good being
traded) and a price drawn from a finite, strictly increasing grid.  Two
structural conditions make price reasoning possible:

* **No shortage** -- every (producer, consumer, template, price) combination
  is represented by some contract, and every contract inside a stable
  agreement has an identical spare copy outside it.
* **Money monotonicity** -- producers who keep a contract would also keep an
  identical higher-priced one offered on top; consumers who keep a contract
  would also keep an identical cheaper one.

Under these conditions plus coherence, a stable agreement can never contain
two same-template contracts with a third grid price strictly between them:
the mid-priced copy (which exists by no shortage) would be accepted by the
cheaper contract's producer and the pricier contract's consumer alike,
blocking the agreement.  :func:`check_two_prices` tests the conclusion
directly; the other checkers validate the premises.

"Strictly between" is evaluated on grid *indices*: adjacent grid prices
never violate the law no matter how far apart their numeric values are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from . import limits
from .aggregation import aggregate_side
from .choice import _RankingChoice
from .engine import Instance
from .errors import SpecError
from .preference import COHERENCE_ASSERTED
from .sets import format_mask, ids_of, iter_submasks, mask_of


@dataclass(frozen=True, slots=True)
class MarketContract:
    """Who sells what to whom at which grid price (``price`` is a grid index)."""

    producer: str
    consumer: str
    template: str
    price: int

    def tuple_key(self) -> tuple[str, str, str, int]:
        return (self.producer, self.consumer, self.template, self.price)


@dataclass(frozen=True)
class MoneyEconomy:
    """An agreement problem whose contracts carry market data.

    ``contracts[i]`` describes the instance's contract ``i``;
    ``price_grid`` holds the strictly increasing price values the indices
    refer to.
    """

    instance: Instance
    contracts: tuple[MarketContract, ...]
    price_grid: tuple[int, ...]
    templates: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.contracts) != self.instance.n:
            raise SpecError(
                f"{len(self.contracts)} market tuples for {self.instance.n} contracts"
            )
        if not self.price_grid or any(
            a >= b for a, b in zip(self.price_grid, self.price_grid[1:])
        ):
            raise SpecError("price grid must be non-empty and strictly increasing")
        if len(set(self.templates)) != len(self.templates):
            raise SpecError("template names must be unique")
        known = set(self.templates)
        for i, c in enumerate(self.contracts):
            if not 0 <= c.price < len(self.price_grid):
                raise SpecError(
                    f"contract {self.instance.names[i]!r} uses price index {c.price},"
                    f" grid has {len(self.price_grid)} levels"
                )
            if c.template not in known:
                raise SpecError(
                    f"contract {self.instance.names[i]!r} uses unknown template"
                    f" {c.template!r}"
                )
        if self.instance.labels is not None:
            for i, (label, c) in enumerate(zip(self.instance.labels, self.contracts)):
                if (label.side1, label.side2) != (c.producer, c.consumer):
                    raise SpecError(
                        f"contract {self.instance.names[i]!r}: instance label"
                        f" ({label.side1}, {label.side2}) disagrees with market tuple"
                        f" ({c.producer}, {c.consumer})"
                    )

    @property
    def producers(self) -> tuple[str, ...]:
        return tuple(sorted({c.producer for c in self.contracts}))

    @property
    def consumers(self) -> tuple[str, ...]:
        return tuple(sorted({c.consumer for c in self.contracts}))

    def price_value(self, contract_id: int) -> int:
        return self.price_grid[self.contracts[contract_id].price]


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoShortageReport:
    """Missing (producer, consumer, template, price) combos and, per checked
    agreement, contracts lacking an identical spare copy outside it."""

    missing: tuple[tuple[str, str, str, int], ...]
    unmatched: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unmatched

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.ok:
            return "no-shortage: OK"
        lines = []
        for producer, consumer, template, price in self.missing:
            lines.append(
                f"no contract for ({producer}, {consumer}, {template},"
                f" price index {price})"
            )
        for subset, cid in self.unmatched:
            cname = names[cid] if names else str(cid)
            lines.append(
                f"agreement {format_mask(subset, names)}: contract {cname}"
                f" has no identical spare copy outside"
            )
        return "no-shortage violations:\n  " + "\n  ".join(lines)


def check_no_shortage(
    economy: MoneyEconomy, agreements: Sequence[int] = ()
) -> NoShortageReport:
    """Validate the no-shortage condition.

    Always checks that every (producer, consumer, template, price) combo is
    represented; additionally checks, for each given agreement, that every
    member contract has an identical copy outside it.
    """
    present: dict[tuple[str, str, str, int], list[int]] = {}
    for cid, c in enumerate(economy.contracts):
        present.setdefault(c.tuple_key(), []).append(cid)

    missing = [
        combo
        for combo in product(
            economy.producers,
            economy.consumers,
            economy.templates,
            range(len(economy.price_grid)),
        )
        if combo not in present
    ]

    unmatched = []
    for subset in agreements:
        for cid in ids_of(subset):
            copies = present[economy.contracts[cid].tuple_key()]
            if not any(other != cid and not subset >> other & 1 for other in copies):
                unmatched.append((subset, cid))

    return NoShortageReport(tuple(missing), tuple(unmatched))


@dataclass(frozen=True)
class MoneyMonotoneViolation:
    """A same-template pair breaking a monotonicity clause on one menu.

    Producer clause: ``kept`` was chosen from ``menu`` but the pricier
    ``candidate`` is not chosen from ``menu | {candidate}``.  Consumer
    clause: ``kept`` chosen but the cheaper ``candidate`` rejected.
    """

    agent: str
    side: int
    menu: int
    kept: int
    candidate: int

    def describe(self, names: Sequence[str] | None = None) -> str:
        kn = names[self.kept] if names else str(self.kept)
        cn = names[self.candidate] if names else str(self.candidate)
        direction = "pricier" if self.side == 1 else "cheaper"
        who = "producer" if self.side == 1 else "consumer"
        return (
            f"{who} {self.agent}: keeps {kn} from {format_mask(self.menu, names)}"
            f" but rejects the {direction} same-template {cn} offered on top"
        )


@dataclass(frozen=True)
class MoneyMonotoneReport:
    violations: tuple[MoneyMonotoneViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.ok:
            return "money-monotonicity: OK"
        return "money-monotonicity violations:\n  " + "\n  ".join(
            v.describe(names) for v in self.violations
        )


def check_money_monotone(
    economy: MoneyEconomy, max_n: int | None = None
) -> MoneyMonotoneReport:
    """Exhaustively validate both money-monotonicity clauses.

    For every agent, every menu within its slice, and every same-template
    pair: a producer keeping the cheaper contract must keep the pricier one
    when offered on top (side 1), a consumer keeping the pricier contract
    must keep the cheaper one (side 2).  "Kept when offered on top" is
    answered by the side's ``kept_additions``, which asks only the owner.
    """
    violations: list[MoneyMonotoneViolation] = []

    for side in (1, 2):
        f = economy.instance.side(side)
        slices: dict[str, list[int]] = {}
        for cid, c in enumerate(economy.contracts):
            agent = c.producer if side == 1 else c.consumer
            slices.setdefault(agent, []).append(cid)
        for agent in sorted(slices):
            ids = slices[agent]
            refusal = f"money-monotonicity scan refused: agent {agent!r} owns {len(ids)} contracts"
            limits.refuse_above(len(ids), limits.exhaustive_bound, max_n, refusal)
            above = dict.fromkeys(ids, 0)  # same-template contracts priced above each
            for x in ids:
                for y in ids:
                    cx, cy = economy.contracts[x], economy.contracts[y]
                    if cx.template == cy.template and cx.price < cy.price:
                        above[x] |= 1 << y
            slice_mask = mask_of(ids)
            for menu in iter_submasks(slice_mask):
                kept_set = f.choose_mask(menu) & slice_mask
                rejected = slice_mask & ~f.kept_additions(menu, slice_mask)
                # Producers must keep the pricier contract, consumers the cheaper.
                cheaper, pricier = (kept_set, rejected) if side == 1 else (rejected, kept_set)
                for x in ids_of(cheaper):
                    broken = above[x] & pricier
                    if not broken:  # the usual case: x is in no violating pair
                        continue
                    for y in ids_of(broken):
                        kept, candidate = (x, y) if side == 1 else (y, x)
                        violations.append(
                            MoneyMonotoneViolation(agent, side, menu, kept, candidate)
                        )
    return MoneyMonotoneReport(tuple(violations))


@dataclass(frozen=True)
class TwoPriceViolation:
    """Same-template contracts with a grid price strictly between them."""

    cheaper: int
    pricier: int
    between_index: int

    def describe(
        self,
        names: Sequence[str] | None = None,
        grid: Sequence[int] | None = None,
    ) -> str:
        a = names[self.cheaper] if names else str(self.cheaper)
        b = names[self.pricier] if names else str(self.pricier)
        level = grid[self.between_index] if grid else f"#{self.between_index}"
        return f"grid price {level} lies strictly between {a} and {b}"


@dataclass(frozen=True)
class TwoPriceReport:
    subset: int
    violations: tuple[TwoPriceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_two_prices(economy: MoneyEconomy, subset: int) -> TwoPriceReport:
    """Check the two-price law on one agreement.

    Flags every same-template pair in ``subset`` whose grid indices leave a
    gap.  Meaningful as a stability consequence only when ``subset`` is a
    stable agreement of a conforming economy; on non-conforming economies
    the result is advisory.
    """
    ids = ids_of(subset)
    violations = []
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            cx, cy = economy.contracts[x], economy.contracts[y]
            if cx.template != cy.template:
                continue
            lo, hi = sorted((cx.price, cy.price))
            if hi - lo >= 2:
                cheaper, pricier = (x, y) if cx.price < cy.price else (y, x)
                violations.append(TwoPriceViolation(cheaper, pricier, lo + 1))
    return TwoPriceReport(subset, tuple(violations))


# ---------------------------------------------------------------------------
# Conforming agents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearProducerChoice(_RankingChoice):
    """Keeps every contract priced at or above its template's unit cost.

    An independent accept/reject filter, hence coherent and money-monotone
    by construction.  A ranking: one order of the kept contracts (``keep``),
    whose quota is its length; a contract it does not keep is in no order,
    so it is never chosen.
    """

    n: int
    keep: int
    unit_costs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if self.keep < 0 or self.keep >> self.n:
            raise SpecError(f"keep mask {self.keep:#x} leaves the {self.n}-contract universe")

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        kept = ids_of(self.keep)
        return (kept,), len(kept)


@dataclass(frozen=True)
class UnitDemandConsumerChoice(_RankingChoice):
    """Keeps the cheapest affordable contract of each template.

    ``picks[t]`` lists the local candidate ids of template ``t`` by
    ascending (price, id); the first available one is kept.  Cheaper
    contracts displace pricier ones, so the consumer clause of money
    monotonicity holds by construction.  A ranking: one order per template,
    of its affordable contracts; an unaffordable contract is in no pick,
    so it is never chosen.
    """

    n: int
    picks: tuple[tuple[int, ...], ...]
    willingness: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        listed = [cid for pick in self.picks for cid in pick]
        if not all(0 <= cid < self.n for cid in listed):
            raise SpecError(f"picks {self.picks} leave the {self.n}-contract universe")
        if len(set(listed)) != len(listed):
            twice = next(cid for cid in listed if listed.count(cid) > 1)
            raise SpecError(f"picks {self.picks} list contract {twice} more than once")

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return self.picks, 1


def build_linear_producer(
    slice_contracts: Sequence[MarketContract],
    price_grid: Sequence[int],
    unit_costs: Mapping[str, int],
) -> LinearProducerChoice:
    """Producer keeping every contract whose price covers its template's cost."""
    keep = 0
    for local, c in enumerate(slice_contracts):
        if c.template not in unit_costs:
            raise SpecError(f"no unit cost declared for template {c.template!r}")
        if price_grid[c.price] >= unit_costs[c.template]:
            keep |= 1 << local
    return LinearProducerChoice(
        len(slice_contracts), keep, tuple(sorted(unit_costs.items()))
    )


def build_unit_demand_consumer(
    slice_contracts: Sequence[MarketContract],
    price_grid: Sequence[int],
    willingness: Mapping[str, int],
) -> UnitDemandConsumerChoice:
    """Consumer keeping, per template, the single cheapest affordable contract.

    Price ties break toward the lower contract id.
    """
    by_template: dict[str, list[int]] = {}
    for local, c in enumerate(slice_contracts):
        if c.template not in willingness:
            raise SpecError(f"no willingness-to-pay declared for template {c.template!r}")
        if price_grid[c.price] <= willingness[c.template]:
            by_template.setdefault(c.template, []).append(local)
    picks = tuple(
        tuple(sorted(cands, key=lambda cid: (slice_contracts[cid].price, cid)))
        for _, cands in sorted(by_template.items())
    )
    return UnitDemandConsumerChoice(
        len(slice_contracts), picks, tuple(sorted(willingness.items()))
    )


# ---------------------------------------------------------------------------
# Whole-economy construction
# ---------------------------------------------------------------------------


def build_money_economy(
    producers: Sequence[str],
    consumers: Sequence[str],
    templates: Sequence[str],
    price_grid: Sequence[int],
    unit_costs: Mapping[str, Mapping[str, int]],
    willingness: Mapping[str, Mapping[str, int]],
    copies: int = 2,
) -> MoneyEconomy:
    """Build a conforming economy: full tuple coverage, duplicated copies,
    linear producers, unit-demand consumers.

    ``unit_costs[producer][template]`` and ``willingness[consumer][template]``
    give each agent's numbers on the grid's value scale.  ``copies >= 2``
    keeps the spare-copy half of no-shortage satisfiable.
    """
    if copies < 1:
        raise SpecError("need at least one copy of each contract tuple")
    contracts = []
    names = []
    for producer, consumer, template, price, copy in product(
        producers, consumers, templates, range(len(price_grid)), range(copies)
    ):
        contracts.append(MarketContract(producer, consumer, template, price))
        names.append(f"{producer}_{consumer}_{template}_{price_grid[price]}_{chr(ord('a') + copy)}")

    # One agent per owner on each side, side 1's built first.
    sides = []
    for build, numbers, owners in (
        (build_linear_producer, unit_costs, [c.producer for c in contracts]),
        (build_unit_demand_consumer, willingness, [c.consumer for c in contracts]),
    ):
        slices: dict[str, list[MarketContract]] = {}
        for agent, c in zip(owners, contracts):
            slices.setdefault(agent, []).append(c)
        specs = {agent: build(own, price_grid, numbers[agent]) for agent, own in slices.items()}
        sides.append(aggregate_side(specs, owners))

    instance = Instance(tuple(names), *sides, coherence=COHERENCE_ASSERTED)
    return MoneyEconomy(
        instance=instance,
        contracts=tuple(contracts),
        price_grid=tuple(price_grid),
        templates=tuple(templates),
    )
