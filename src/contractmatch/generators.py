"""Seeded random construction of instances, valuations, and economies.

Everything takes a :class:`random.Random` (or a seed) and is fully
deterministic, so generated corpora can be referenced by seed in reports
and regenerated bit-for-bit.  All constructions are coherent by design:
sides aggregate agents drawn from the always-coherent variants, valuations
come from families whose induced choice functions are coherent, economies
use the conforming builders.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from .aggregation import aggregate_side
from .choice import (
    ChoiceFunction,
    Identity,
    ResponsiveQuota,
    TopOfOrder,
    UnionOfOrders,
)
from .engine import Instance, auto_names
from .preference import COHERENCE_ASSERTED
from .sets import ids_of

if TYPE_CHECKING:
    from fractions import Fraction

    from .market import MoneyEconomy

VALUATION_FAMILIES = ("additive", "unit_demand", "assignment")


def _rng(seed_or_rng: int | random.Random) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_order(rng: random.Random, k: int) -> tuple[int, ...]:
    order = list(range(k))
    rng.shuffle(order)
    return tuple(order)


AGENT_SPEC_KINDS = ("union_of_orders", "responsive_quota", "top_of_order", "identity")


def random_agent_spec(
    rng: random.Random, k: int, kinds: Sequence[str] = AGENT_SPEC_KINDS
) -> ChoiceFunction:
    """A coherent choice function over a k-contract slice."""
    kind = rng.choice(tuple(kinds))
    if kind == "identity":
        return Identity(k)
    if kind == "top_of_order":
        return TopOfOrder(k, random_order(rng, k))
    if kind == "responsive_quota":
        return ResponsiveQuota(k, random_order(rng, k), rng.randint(0, k))
    count = rng.randint(1, 3)
    # From a list: see AggregateChoice.__post_init__.
    return UnionOfOrders(k, tuple([random_order(rng, k) for _ in range(count)]))


def random_partition(rng: random.Random, n: int, parts: int) -> list[list[int]]:
    """Partition contract ids 0..n-1 into exactly ``parts`` non-empty slices."""
    if not 1 <= parts <= n:
        raise ValueError(f"cannot split {n} contracts into {parts} non-empty slices")
    ids = list(range(n))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    slices = []
    start = 0
    for cut in cuts + [n]:
        slices.append(sorted(ids[start:cut]))
        start = cut
    return slices


def random_side(
    rng: random.Random,
    n: int,
    side: int,
    min_agents: int = 1,
    max_agents: int = 3,
    kinds: Sequence[str] = AGENT_SPEC_KINDS,
) -> ChoiceFunction:
    """A coherent aggregate side of ``n`` contracts."""
    agents = rng.randint(min_agents, min(max_agents, n))
    slices = random_partition(rng, n, agents)
    prefix = "p" if side == 1 else "c"
    owner = [""] * n
    specs = {}
    for a, slice_ids in enumerate(slices):
        name = f"{prefix}{a + 1}"
        specs[name] = random_agent_spec(rng, len(slice_ids), kinds)
        for cid in slice_ids:
            owner[cid] = name
    return aggregate_side(specs, owner)


def random_instance(
    seed_or_rng: int | random.Random,
    n: int,
    min_agents: int = 1,
    max_agents: int = 3,
    kinds: Sequence[str] = AGENT_SPEC_KINDS,
) -> Instance:
    """A coherent two-sided instance with multi-agent aggregate sides."""
    rng = _rng(seed_or_rng)
    f1 = random_side(rng, n, 1, min_agents, max_agents, kinds)
    f2 = random_side(rng, n, 2, min_agents, max_agents, kinds)
    return Instance(names=auto_names(n), f1=f1, f2=f2, coherence=COHERENCE_ASSERTED)


def random_marriage_profile(
    seed_or_rng: int | random.Random, n_men: int, n_women: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Complete strict preference lists for a marriage market: one order
    per man over the women, then one per woman over the men, each a tuple
    that :func:`~contractmatch.aggregation.build_marriage_instance` keeps
    as the person's ranking without copying it."""
    rng = _rng(seed_or_rng)
    men = [random_order(rng, n_women) for _ in range(n_men)]
    women = [random_order(rng, n_men) for _ in range(n_women)]
    return men, women


# ---------------------------------------------------------------------------
# Valuation families with coherent induced choice
# ---------------------------------------------------------------------------


def random_valuation(
    seed_or_rng: int | random.Random, n: int, family: str
) -> tuple[Fraction, ...]:
    """A subset valuation table (indexed by bitmask) from a named family.

    ``additive``: sum of per-item values (mixed signs).  ``unit_demand``:
    the best single item's value.  ``assignment``: the best matching of
    items to a few weighted slots.  All three families induce coherent
    choice functions.
    """
    from fractions import Fraction

    rng = _rng(seed_or_rng)
    size = 1 << n
    if family == "additive":
        item = [Fraction(rng.randint(-4, 9)) for _ in range(n)]
        return tuple(
            sum((item[i] for i in ids_of(m)), Fraction(0))
            for m in range(size)
        )
    if family == "unit_demand":
        item = [Fraction(rng.randint(1, 12)) for _ in range(n)]
        return tuple(
            max((item[i] for i in ids_of(m)), default=Fraction(0))
            for m in range(size)
        )
    if family == "assignment":
        slots = rng.randint(1, 3)
        weight = [[Fraction(rng.randint(0, 9)) for _ in range(slots)] for _ in range(n)]

        def best_matching(m: int) -> Fraction:
            def go(slot: int, remaining: tuple[int, ...]) -> Fraction:
                if slot == slots:
                    return Fraction(0)
                best = go(slot + 1, remaining)  # leave this slot empty
                for idx, item_id in enumerate(remaining):
                    rest = remaining[:idx] + remaining[idx + 1 :]
                    best = max(best, weight[item_id][slot] + go(slot + 1, rest))
                return best

            return go(0, ids_of(m))

        return tuple(best_matching(m) for m in range(size))
    raise ValueError(f"unknown valuation family {family!r}; know {VALUATION_FAMILIES}")


# ---------------------------------------------------------------------------
# Conforming money economies
# ---------------------------------------------------------------------------

# (producers, consumers, templates, price levels): tuple counts x 2 copies <= 14.
_ECONOMY_SHAPES = (
    (1, 1, 1, 3),
    (1, 1, 1, 4),
    (1, 1, 2, 3),
    (1, 2, 1, 3),
    (2, 1, 1, 3),
    (1, 1, 1, 7),
    (1, 3, 1, 2),
    (2, 1, 1, 2),
)


def random_money_economy(seed_or_rng: int | random.Random) -> MoneyEconomy:
    """A conforming economy with at most 14 contracts.

    Shape drawn from a fixed menu; unit costs and willingness-to-pay drawn
    around the price grid so that profitable trades usually exist.
    """
    from .market import build_money_economy

    rng = _rng(seed_or_rng)
    n_producers, n_consumers, n_templates, n_prices = rng.choice(_ECONOMY_SHAPES)
    producers = [f"p{i + 1}" for i in range(n_producers)]
    consumers = [f"c{j + 1}" for j in range(n_consumers)]
    templates = [f"t{k + 1}" for k in range(n_templates)]
    start = rng.randint(5, 20)
    step = rng.randint(1, 3)
    grid = [start + step * level for level in range(n_prices)]
    unit_costs = {
        p: {t: rng.randint(grid[0] - step, grid[-1] + step) for t in templates}
        for p in producers
    }
    willingness = {
        c: {t: rng.randint(grid[0] - step, grid[-1] + step) for t in templates}
        for c in consumers
    }
    return build_money_economy(
        producers, consumers, templates, grid, unit_costs, willingness, copies=2
    )
