"""Choice-function variants: evaluation semantics and payload validation."""

from __future__ import annotations

import random
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contractmatch.aggregation import AggregateChoice, AggregatePart
from contractmatch.choice import (
    ChoiceFunction,
    Identity,
    PerturbationScheme,
    ResponsiveQuota,
    TableChoice,
    TopOfOrder,
    UnionOfOrders,
    ValuationArgmax,
    _Ranking,
    _RankingChoice,
    tabulate,
    valuation_choice,
)
from contractmatch.errors import DomainError, SpecError
from contractmatch.market import (
    LinearProducerChoice,
    MarketContract,
    UnitDemandConsumerChoice,
    build_linear_producer,
    build_unit_demand_consumer,
)
from contractmatch.sets import full_mask, iter_submasks, mask_of

from conftest import all_masks, deadline


# ---------------------------------------------------------------------------
# Identity / TableChoice
# ---------------------------------------------------------------------------


def test_identity():
    f = Identity(3)
    for m in all_masks(3):
        assert f.choose_mask(m) == m


def test_identity_rejects_out_of_universe():
    with pytest.raises(DomainError):
        Identity(2).choose_mask(0b100)
    with deadline(5), pytest.raises(DomainError, match="outside the 2-contract universe"):
        Identity(2).choose_mask(-1)


def test_table_lookup():
    f = TableChoice(2, (0b00, 0b01, 0b00, 0b11))
    assert f.choose_mask(0b00) == 0b00
    assert f.choose_mask(0b01) == 0b01
    assert f.choose_mask(0b10) == 0b00
    assert f.choose_mask(0b11) == 0b11


def test_table_must_cover_every_subset():
    with pytest.raises(SpecError, match="every subset exactly once"):
        TableChoice(2, (0, 1, 2))


def test_table_entries_must_stay_in_universe():
    with pytest.raises(SpecError, match="outside the universe"):
        TableChoice(1, (0b10, 0b01))


def test_table_may_violate_contraction():
    # Tables are raw material for checker tests; f({b}) = {} and even
    # f(A) not within A must be representable.
    TableChoice(1, (0b1, 0b0))


# ---------------------------------------------------------------------------
# Rankings
# ---------------------------------------------------------------------------


def test_top_of_order():
    f = TopOfOrder(3, (2, 0, 1))
    assert f.choose_mask(0b111) == 0b100
    assert f.choose_mask(0b011) == 0b001
    assert f.choose_mask(0b010) == 0b010
    assert f.choose_mask(0) == 0


def test_ranking_validation():
    # Each rejected ranking sits next to an accepted one of the same shape.
    assert TopOfOrder(2, (1, 0)).order == (1, 0)
    with pytest.raises(SpecError, match=re.escape("ranking (0, 0) repeats a contract")):
        TopOfOrder(3, (0, 0))
    with pytest.raises(SpecError, match=re.escape("ranking (0, 1, 1) repeats a contract")):
        TopOfOrder(3, (0, 1, 1))
    assert TopOfOrder(2, (0, 1)).order == (0, 1)
    with pytest.raises(
        SpecError, match=re.escape("ranking (0, 5) names contract 5 outside the universe")
    ):
        TopOfOrder(2, (0, 5))
    with pytest.raises(SpecError, match="names contract -1 outside the universe"):
        TopOfOrder(2, (-1, 0))
    assert TopOfOrder(3, (2, 0, 1)).order == (2, 0, 1)
    short = "must rank every contract of the 3-contract universe exactly once"
    with pytest.raises(SpecError, match=re.escape(f"ranking (2, 0) {short}")):
        TopOfOrder(3, (2, 0))
    assert ResponsiveQuota(3, (1, 2, 0), 1).order == (1, 2, 0)
    with pytest.raises(SpecError, match=re.escape(f"ranking (1,) {short}")):
        ResponsiveQuota(3, (1,), 1)


def test_responsive_quota():
    f = ResponsiveQuota(4, (3, 1, 0, 2), 2)
    assert f.choose_mask(0b1111) == 0b1010
    assert f.choose_mask(0b0101) == 0b0101
    assert f.choose_mask(0b0100) == 0b0100
    assert ResponsiveQuota(3, (0, 1, 2), 0).choose_mask(0b111) == 0
    assert ResponsiveQuota(3, (0, 1, 2), 7).choose_mask(0b111) == 0b111


def test_responsive_quota_negative():
    with pytest.raises(SpecError, match="quota"):
        ResponsiveQuota(2, (0, 1), -1)


def test_union_of_orders():
    f = UnionOfOrders(3, ((0, 1, 2), (2, 1, 0)))
    assert f.choose_mask(0b111) == 0b101
    assert f.choose_mask(0b011) == 0b011
    assert f.choose_mask(0b001) == 0b001


def test_union_of_orders_requires_total_orders():
    with pytest.raises(SpecError, match="at least one order"):
        UnionOfOrders(2, ())
    with pytest.raises(SpecError, match="exactly once"):
        UnionOfOrders(3, ((0, 1),))


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_union_of_orders_chooses_available_tops(n, rnd):
    orders = []
    for _ in range(rnd.randint(1, 3)):
        order = list(range(n))
        rnd.shuffle(order)
        orders.append(tuple(order))
    f = UnionOfOrders(n, tuple(orders))
    for menu in all_masks(n):
        expected = 0
        for order in orders:
            for c in order:
                if menu >> c & 1:
                    expected |= 1 << c
                    break
        assert f.choose_mask(menu) == expected


# ---------------------------------------------------------------------------
# The ranking evaluator, locally and relabelled into a larger universe
# ---------------------------------------------------------------------------


def _ranking_variants(rng: random.Random, k: int) -> list[ChoiceFunction]:
    order = tuple(rng.sample(range(k), k))
    quotas = sorted({q for q in (0, 1, k - 1, k, k + 1) if q >= 0})
    return [
        Identity(k),
        TopOfOrder(k, order),
        UnionOfOrders(k, tuple(tuple(rng.sample(range(k), k)) for _ in range(3))),
        *(ResponsiveQuota(k, order, q) for q in quotas),
    ]


def _market_agents(rng: random.Random, k: int) -> list[ChoiceFunction]:
    """Market agents on a random k-contract slice over three templates and a
    four-level grid: some contracts unaffordable, template ``t3`` never
    affordable, and one producer that keeps nothing."""
    grid = (10, 12, 14, 16)
    contracts = [
        MarketContract("p", "c", rng.choice(("t1", "t2", "t3")), rng.randrange(len(grid)))
        for _ in range(k)
    ]
    costs = {"t1": rng.choice(grid), "t2": rng.choice(grid), "t3": 11}
    return [
        build_linear_producer(contracts, grid, costs),
        build_linear_producer(contracts, grid, dict.fromkeys(costs, 99)),
        build_unit_demand_consumer(contracts, grid, {"t1": 13, "t2": 15, "t3": 9}),
        build_unit_demand_consumer(contracts, grid, {"t1": 16, "t2": 9, "t3": 9}),
    ]


@pytest.mark.parametrize("k", range(7))
def test_ranking_evaluator_matches_the_generic_paths(k):
    """The threshold walk of ``_kept_additions`` against the base-class loop
    over ``choose_mask``, and each relabelled evaluator on a scattered slice
    of a 10-contract universe against the base mapping evaluator.  Filters
    (identity, market producers) and market consumers are rankings too."""
    rng = random.Random(k)
    ids = tuple(sorted(rng.sample(range(10), k)))
    piece = mask_of(ids)
    outside = full_mask(10) & ~piece

    def spread(local: int) -> int:
        return mask_of(ids[i] for i in range(k) if local >> i & 1)

    for f in _ranking_variants(rng, k) + _market_agents(rng, k):
        if isinstance(f, ResponsiveQuota):
            for menu in all_masks(k):
                best = [c for c in f.order if menu >> c & 1][: f.quota]
                assert f.choose_mask(menu) == mask_of(best)
        if isinstance(f, LinearProducerChoice):
            for menu in all_masks(k):
                assert f.choose_mask(menu) == menu & f.keep
        if isinstance(f, UnitDemandConsumerChoice):
            for menu in all_masks(k):
                firsts = (next((c for c in pick if menu >> c & 1), None) for pick in f.picks)
                assert f.choose_mask(menu) == mask_of(c for c in firsts if c is not None)
        fast = f._relabelled(ids, piece)
        mapped = ChoiceFunction._relabelled(f, ids, piece)
        for subset in all_masks(k):
            # Contracts outside the slice must not change the answers.
            g_subset = spread(subset) | rng.getrandbits(10) & outside
            assert fast._choose(g_subset) == mapped._choose(g_subset) == spread(
                f.choose_mask(subset)
            )
            for candidates in all_masks(k):
                expected = ChoiceFunction._kept_additions(f, subset, candidates)
                assert f.kept_additions(subset, candidates) == expected
                g_candidates = spread(candidates) | rng.getrandbits(10) & outside
                assert fast._kept_additions(g_subset, g_candidates) == spread(expected)
                assert mapped._kept_additions(g_subset, g_candidates) == spread(expected)


@dataclass(frozen=True)
class _QuotaOfOrders(_RankingChoice):
    """The ``quota`` best available contracts of each of ``orders``, which
    may leave contracts unranked, as a market consumer does: the evaluator's
    piece is then the contracts some order ranks."""

    n: int
    orders: tuple[tuple[int, ...], ...]
    quota: int

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return self.orders, self.quota


def _large_menus(rng: random.Random, k: int) -> list[int]:
    """Dense menus (a few contracts removed), sparse ones (a few present)
    and half-full ones."""
    full = full_mask(k)
    menus = [0, full]
    for size in (1, 2, 3, 5):
        few = mask_of(rng.sample(range(k), size))
        menus += [full & ~few, few]
    menus += [rng.getrandbits(k) for _ in range(4)]
    return menus


@pytest.mark.parametrize("k", [40, 64])
def test_ranking_evaluator_at_large_k(k):
    """The top-mask-and-tail evaluator against a sorted-prefix reference for
    ``_choose`` and the base-class ``choose_mask`` loop for
    ``_kept_additions``, at quotas from 0 past k, on one order, three
    orders and orders that rank only part of the slice; directly and
    relabelled onto a scattered slice of a 3k-contract universe."""
    rng = random.Random(k)
    ids = tuple(sorted(rng.sample(range(3 * k), k)))
    piece = mask_of(ids)
    outside = full_mask(3 * k) & ~piece

    def spread(local: int) -> int:
        return mask_of(ids[i] for i in range(k) if local >> i & 1)

    partial = tuple(tuple(rng.sample(range(k), rng.randint(1, k - 1))) for _ in range(3))
    shapes = (
        (tuple(rng.sample(range(k), k)),),
        tuple(tuple(rng.sample(range(k), k)) for _ in range(3)),
        partial,
        partial[:1],
    )
    for orders in shapes:
        for quota in (0, 1, 2, k // 2, k - 1, k, k + 1):
            f = _QuotaOfOrders(k, orders, quota)
            fast = f._relabelled(ids, piece)
            for menu in _large_menus(rng, k):
                expected = mask_of(
                    c for order in orders for c in [c for c in order if menu >> c & 1][:quota]
                )
                g_menu = spread(menu) | rng.getrandbits(3 * k) & outside
                assert f.choose_mask(menu) == expected
                assert fast._choose(g_menu) == spread(expected)
                for candidates in (full_mask(k), rng.getrandbits(k)):
                    kept = ChoiceFunction._kept_additions(f, menu, candidates)
                    g_candidates = spread(candidates) | rng.getrandbits(3 * k) & outside
                    assert f.kept_additions(menu, candidates) == kept
                    assert fast._kept_additions(g_menu, g_candidates) == spread(kept)


class _CountedOrder(Sequence):
    """An order that counts, in a shared tally, the entries read from it; a
    slice of it is a counted order too."""

    def __init__(self, entries: Sequence[int], tally: list[int]):
        self.entries, self.tally = entries, tally

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _CountedOrder(self.entries[i], self.tally)
        self.tally[0] += 1
        return self.entries[i]

    def __iter__(self):
        for c in self.entries:
            self.tally[0] += 1
            yield c


def test_ranking_evaluator_walks_only_the_tail():
    """A menu holding the whole top of every order is answered without
    reading an order entry: ``_choose`` on the full menu, and
    ``_kept_additions`` on any menu that contains the tops.  A menu that
    lacks a top member makes the walk read the tail, and only the tail."""
    rng = random.Random(7)
    k = 40
    full = full_mask(k)
    for n_orders in (1, 3):
        orders = [rng.sample(range(k), k) for _ in range(n_orders)]
        for quota in (1, 2, k // 2, k - 2):
            tally = [0]
            splits = [(mask_of(o[:quota]), _CountedOrder(o[quota:], tally)) for o in orders]
            ranking = _Ranking(splits, quota, full)
            tops = mask_of(c for order in orders for c in order[:quota])
            tally[0] = 0
            assert ranking._choose(full) == tops
            assert ranking._kept_additions(full, full) == tops
            with_tops = tops | rng.getrandbits(k)
            assert ranking._kept_additions(with_tops, full) == tops
            assert tally[0] == 0
            # Without one top member, each order whose top held it reads one
            # tail entry: the member that replaces it.
            gone = orders[0][quota - 1]
            menu = full & ~(1 << gone)
            assert ranking._choose(menu) == mask_of(
                c for order in orders for c in [c for c in order if c != gone][:quota]
            )
            assert tally[0] == sum(gone in order[:quota] for order in orders)


def _consumer(templates: tuple[str, ...], k: int, pay: int = 16) -> UnitDemandConsumerChoice:
    """A unit-demand consumer on k contracts whose templates cycle through
    ``templates``, willing to pay ``pay`` for each: one order per template
    with an affordable contract (all of them at 16, none at 9)."""
    contracts = [MarketContract("p", "c", templates[i % len(templates)], i % 4) for i in range(k)]
    return build_unit_demand_consumer(contracts, (10, 12, 14, 16), dict.fromkeys(templates, pay))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_one_order_quota_1_agents_give_a_side_rank_arrays(k):
    """Every ranking and filter, whatever its shape, is relabelled to a
    :class:`_Ranking`.  An aggregate side made of one-order, quota-1 agents
    has ``_rank``, the mark of the rank paths: rankings, the identity on one
    contract and a producer keeping one contract of three.  One agent of any
    other shape takes it away: quota 0, 2 or k+1, two orders, a
    two-template consumer, an empty order, the identity on three contracts,
    a producer keeping none or two, or a consumer that can afford nothing
    (no order at all)."""
    rng = random.Random(k)
    order = tuple(rng.sample(range(k), k))
    tops = [
        TopOfOrder(k, order),
        ResponsiveQuota(k, order, 1),
        UnionOfOrders(k, (order,)),
        _consumer(("t1",), k),
        Identity(1),
        LinearProducerChoice(3, 0b010, ()),
    ]
    others = [
        *(ResponsiveQuota(k, order, q) for q in (0, 2, k + 1)),
        UnionOfOrders(k, (order, order[::-1])),
        _consumer(("t1", "t2"), max(k, 2)),
        TopOfOrder(0, ()),
        Identity(3),
        LinearProducerChoice(3, 0, ()),
        LinearProducerChoice(3, 0b101, ()),
        _consumer(("t1",), k, pay=9),
    ]
    assert others[-1]._orders_and_quota() == ((), 1)  # no affordable contract: no order
    for f in tops + others:
        ids = tuple(range(1, 2 * f.n, 2))
        assert type(f._relabelled(ids, mask_of(ids))) is _Ranking
        assert type(f._ranking) is _Ranking

    def side(specs: list[ChoiceFunction]) -> AggregateChoice:
        parts, n = [], 0
        for a, f in enumerate(specs):
            parts.append(AggregatePart(f"a{a}", f, range(n, n + f.n)))
            n += f.n
        return AggregateChoice(n, tuple(parts))

    assert hasattr(side(tops), "_rank")
    for f in others:
        assert not hasattr(side([*tops, f]), "_rank")
        assert not hasattr(side([f]), "_rank")


@pytest.mark.parametrize("k", [*range(1, 9), 40, 64])
def test_one_order_quota_1_ranking_matches_its_order(k):
    """A :class:`TopOfOrder` relabelled onto a scattered slice of a
    3k-contract universe against a reference read from the order itself, on
    every menu and candidate set up to k = 8, and on dense, sparse and
    half-full ones beyond: it chooses the first entry of the order present
    in the menu (always as a mask), and keeps a candidate ``x`` from
    ``S | {x}`` exactly when the order ranks ``x`` at or above the best
    member of ``S`` (any candidate of the slice when ``S`` holds none)."""
    rng = random.Random(k)
    ids = tuple(sorted(rng.sample(range(3 * k), k)))
    piece = mask_of(ids)
    outside = full_mask(3 * k) & ~piece
    order = tuple(rng.sample(range(k), k))
    top = TopOfOrder(k, order)._relabelled(ids, piece)
    ranked = [ids[c] for c in order]  # the order in global ids, best first
    menus = all_masks(k) if k <= 8 else _large_menus(rng, k)
    spread = [mask_of(ids[i] for i in range(k) if menu >> i & 1) for menu in menus]
    for subset in spread:
        present = [g for g in ranked if subset >> g & 1]
        subset |= rng.getrandbits(3 * k) & outside
        chosen = top._choose(subset)
        assert type(chosen) is int and chosen == (1 << present[0] if present else 0)
        at_or_above = mask_of(ranked[:ranked.index(present[0]) + 1] if present else ranked)
        for candidates in spread:
            candidates |= rng.getrandbits(3 * k) & outside
            assert top._kept_additions(subset, candidates) == candidates & at_or_above


# ---------------------------------------------------------------------------
# Valuation-driven choice
# ---------------------------------------------------------------------------


def test_value_tie_breaks_toward_lower_id():
    # v({0}) == v({1}) == v({0,1}): the perturbation must single out {0}.
    f = valuation_choice([0, 1, 1, 1])
    assert f.choose_mask(0b11) == 0b01
    assert f.choose_mask(0b10) == 0b10
    assert f.choose_mask(0b01) == 0b01


def test_unit_demand_valuation_picks_best_item():
    # Items worth 3 and 5; keep only the best offered one.
    f = valuation_choice([0, 3, 5, 5])
    assert f.choose_mask(0b11) == 0b10
    assert f.choose_mask(0b01) == 0b01


def test_additive_positive_valuation_keeps_everything():
    values = [0, 2, 3, 5, 4, 6, 7, 9]
    f = valuation_choice(values)
    for menu in all_masks(3):
        assert f.choose_mask(menu) == menu


def test_valuation_constant_shift_invariance():
    base = [0, 1, 1, 1, 2, 3, 2, 3]
    shifted = [v + 7 for v in base]
    f, g = valuation_choice(base), valuation_choice(shifted)
    for menu in all_masks(3):
        assert f.choose_mask(menu) == g.choose_mask(menu)


def test_chosen_set_attains_unperturbed_max():
    values = [Fraction(v) for v in [0, 4, 4, 4, 1, 5, 4, 6]]
    f = valuation_choice(values)
    for menu in all_masks(3):
        chosen = f.choose_mask(menu)
        assert chosen & ~menu == 0
        assert values[chosen] == max(values[sub] for sub in iter_submasks(menu))


def test_epsilon_too_large_rejected():
    # gap = 1, n = 2: epsilon must be < 1/2.
    scheme = PerturbationScheme.dyadic(2, Fraction(1, 2))
    with pytest.raises(SpecError, match="epsilon .* too large"):
        ValuationArgmax(2, tuple(Fraction(v) for v in [0, 1, 1, 1]), scheme)


def test_scheme_prices_must_stay_in_range():
    with pytest.raises(SpecError, match=r"\[0, epsilon\]"):
        ValuationArgmax(
            1,
            (Fraction(0), Fraction(1)),
            PerturbationScheme(Fraction(1, 8), (Fraction(1, 4),)),
        )
    with pytest.raises(SpecError, match="positive"):
        ValuationArgmax(
            1,
            (Fraction(0), Fraction(1)),
            PerturbationScheme(Fraction(0), (Fraction(0),)),
        )
    with pytest.raises(SpecError, match="scheme prices cover 2 contracts, expected 1"):
        ValuationArgmax(
            1,
            (Fraction(0), Fraction(1)),
            PerturbationScheme.dyadic(2, Fraction(1, 8)),
        )


def test_scheme_that_cannot_break_ties_rejected():
    # Zero prices leave v({0}) == v({1}) tied on the menu {0, 1}.
    scheme = PerturbationScheme(Fraction(1, 8), (Fraction(0), Fraction(0)))
    with pytest.raises(SpecError, match="fails to break ties"):
        ValuationArgmax(2, tuple(Fraction(v) for v in [0, 1, 1, 1]), scheme)


def test_dyadic_prices_increase_with_id():
    scheme = PerturbationScheme.dyadic(4, Fraction(1, 4))
    assert scheme.prices == (
        Fraction(1, 8),
        Fraction(3, 16),
        Fraction(7, 32),
        Fraction(15, 64),
    )
    assert all(0 < p < scheme.epsilon for p in scheme.prices)
    assert list(scheme.prices) == sorted(scheme.prices)


def test_for_valuation_derives_safe_epsilon():
    values = tuple(Fraction(v) for v in [0, 2, 6, 8])
    scheme = PerturbationScheme.for_valuation(values)
    assert scheme.epsilon == Fraction(2, 4)  # gap 2, n 2 -> gap / (2 n)
    ValuationArgmax(2, values, scheme)  # constructible


def test_valuation_table_length_must_be_power_of_two():
    with pytest.raises(SpecError, match="power of two"):
        valuation_choice([0, 1, 2])
    values = tuple(Fraction(v) for v in [0, 1, 2, 3])
    with pytest.raises(SpecError, match="valuation table covers 2 contracts, expected 3"):
        ValuationArgmax(3, values, PerturbationScheme.dyadic(3, Fraction(1, 8)))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def test_tabulate_roundtrip():
    f = UnionOfOrders(3, ((1, 0, 2),))
    t = tabulate(f)
    for m in all_masks(3):
        assert t.choose_mask(m) == f.choose_mask(m)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_valuation_choice_is_contraction_and_unique(n, seed):
    import random

    rnd = random.Random(seed)
    values = [Fraction(rnd.randint(0, 4)) for _ in all_masks(n)]
    values[0] = Fraction(0)
    f = valuation_choice(values)
    for menu in all_masks(n):
        chosen = f.choose_mask(menu)
        assert chosen & ~menu == 0
        # maximizer of the unperturbed value as well
        assert values[chosen] == max(values[sub] for sub in iter_submasks(menu))
