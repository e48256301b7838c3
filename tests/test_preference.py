"""Revealed preference: queries, laws on coherent functions, closure."""

from __future__ import annotations

import random

import numpy as np
import pytest

from contractmatch.aggregation import aggregate_side
from contractmatch.choice import TableChoice
from contractmatch.coherence import check_coherent
from contractmatch.corpus import no_stable_agreement_instance
from contractmatch.generators import random_instance
from contractmatch.preference import closure, indifferent, prefers

from contractmatch.sets import full_mask

from conftest import all_masks, random_coherent_function, table_of


# ---------------------------------------------------------------------------
# Basic queries on the canonical instance
# ---------------------------------------------------------------------------


def test_prefers_on_canonical_f2():
    f2 = no_stable_agreement_instance().f2
    # f2({a,b}) = {b} = f2({b}): merging {a} into {b} changes nothing.
    verdict = prefers(f2, 0b10, 0b01)
    assert verdict.holds
    assert verdict.union_choice == 0b10
    # ... but {a} does not absorb {b}.
    assert not prefers(f2, 0b01, 0b10).holds


def test_indifferent_is_choice_equality():
    f2 = no_stable_agreement_instance().f2
    assert indifferent(f2, 0b11, 0b10)  # both choose {b}
    assert not indifferent(f2, 0b01, 0b10)


def test_closure_on_canonical_f2():
    f2 = no_stable_agreement_instance().f2
    # a is rejected on top of {b}, so the closure of {b} is the universe.
    assert closure(f2, 0b10) == 0b11
    # b is kept on top of {a}, so {a}'s closure adds nothing.
    assert closure(f2, 0b01) == 0b01


# ---------------------------------------------------------------------------
# Laws on coherent functions (exhaustive at small n)
# ---------------------------------------------------------------------------


@pytest.fixture(params=[(0, 4), (1, 4), (2, 5), (3, 5), (4, 3)], ids=str)
def coherent_f(request):
    seed, n = request.param
    f = random_coherent_function(seed, n)
    assert check_coherent(f).coherent
    return f


def test_reflexive(coherent_f):
    for a in all_masks(coherent_f.n):
        assert prefers(coherent_f, a, a).holds


def test_transitive_via_matrix(coherent_f):
    n = coherent_f.n
    size = 1 << n
    table = table_of(coherent_f)
    f = lambda m: table[m]  # noqa: E731
    below = np.zeros((size, size), dtype=bool)
    for a in all_masks(n):
        for b in all_masks(n):
            below[b, a] = f(a | b) == f(a)
    # b <= a and c <= b imply c <= a: composing relations adds nothing new.
    composed = below @ below
    assert not np.any(composed.astype(bool) & ~below)


def test_subset_implies_below(coherent_f):
    table = table_of(coherent_f)
    for a in all_masks(coherent_f.n):
        sub = a
        while True:
            assert table[a | sub] == table[a]
            if sub == 0:
                break
            sub = (sub - 1) & a


def test_menu_indifferent_to_its_choice(coherent_f):
    table = table_of(coherent_f)
    for a in all_masks(coherent_f.n):
        assert table[table[a]] == table[a]
        assert prefers(coherent_f, a, table[a]).holds
        assert prefers(coherent_f, table[a], a).holds


def test_three_formulations_coincide_when_coherent(coherent_f):
    table = table_of(coherent_f)
    for a in all_masks(coherent_f.n):
        for b in all_masks(coherent_f.n):
            eq = table[a | b] == table[a]
            sub_choice = table[a | b] & ~table[a] == 0
            sub_menu = table[a | b] & ~a == 0
            assert eq == sub_choice == sub_menu


def test_closure_characterizes_order(coherent_f):
    n = coherent_f.n
    table = table_of(coherent_f)
    for b in all_masks(n):
        cl = closure(coherent_f, b)
        for a in all_masks(n):
            below = table[b | a] == table[b]
            assert below == (a & ~cl == 0)


def test_mutually_below_without_equality_exists():
    # The pre-order is not antisymmetric: a menu and its choice are mutually
    # below each other while being different sets.
    f = random_coherent_function(7, 4)
    table = table_of(f)
    found = False
    for a in all_masks(4):
        if table[a] != a:
            assert prefers(f, a, table[a]).holds and prefers(f, table[a], a).holds
            found = True
    assert found


def _closure_by_single_offers(f, subset: int) -> int:
    """The closure as first written: one ``choose_mask`` per outside contract."""
    extra = 0
    outside = full_mask(f.n) & ~subset
    while outside:
        xbit = outside & -outside
        if not f.choose_mask(subset | xbit) & xbit:
            extra |= xbit
        outside ^= xbit
    return subset | extra


def _random_table(rng: random.Random, n: int) -> TableChoice:
    """Any entries within the universe: Contraction and the axioms may fail."""
    return TableChoice(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))


def test_closure_matches_one_choice_per_outside_contract():
    functions = []
    for seed in range(30):
        instance = random_instance(seed, 2 + seed % 7, 1, 4)
        functions += [instance.f1, instance.f2]
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        owners = [rng.choice("abc") for _ in range(n)]
        specs = {a: _random_table(rng, owners.count(a)) for a in sorted(set(owners))}
        functions += [_random_table(rng, n), aggregate_side(specs, owners)]
    for f in functions:
        for subset in all_masks(f.n):
            assert closure(f, subset) == _closure_by_single_offers(f, subset), (f, subset)
