"""Aggregation of per-agent choice functions into sides."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractmatch.aggregation import (
    AggregateChoice,
    AggregatePart,
    aggregate_side,
    build_marriage_instance,
)
from contractmatch.choice import (
    ChoiceFunction,
    Identity,
    ResponsiveQuota,
    TableChoice,
    TopOfOrder,
    UnionOfOrders,
)
from contractmatch.coherence import (
    check_coherent,
    check_contraction,
    check_irc,
    check_substitutes,
)
from contractmatch.corpus import no_stable_agreement_instance
from contractmatch.engine import ContractLabel, Instance
from contractmatch.errors import DomainError, SpecError
from contractmatch.generators import random_instance, random_marriage_profile
from contractmatch.instancefile import load, save
from contractmatch.preference import COHERENCE_ASSERTED
from contractmatch.sets import ids_of, mask_of

from conftest import (
    all_masks,
    deadline,
    random_coherent_function,
    random_contraction_table,
    table_of,
)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_part_translation():
    # alice owns global ids 1 and 3 as local ids 0 and 1, and ranks local 1 first.
    alice = AggregatePart("alice", TopOfOrder(2, (1, 0)), (1, 3))
    f = AggregateChoice(4, (alice, AggregatePart("bob", Identity(2), (0, 2))))
    assert f.choose_mask(0b1010) == 0b1000
    assert f.choose_mask(0b0010) == 0b0010
    assert f.choose_mask(0b0101) == 0b0101
    assert f.kept_additions(0b0010, 0b1101) == 0b1101
    assert f.kept_additions(0b1000, 0b0111) == 0b0101  # alice keeps 3 over 1
    assert f.rechoose(0b1111, 0b0101, 0b0101) == 0b1101


def test_part_validation():
    with pytest.raises(SpecError, match="ascending and unique"):
        AggregatePart("a", Identity(2), (3, 1))
    with pytest.raises(SpecError, match="covers 2 contracts"):
        AggregatePart("a", Identity(2), (0, 1, 2))
    with pytest.raises(SpecError, match="rank every contract"):
        AggregatePart("a", TopOfOrder(2, (0,)), (0, 1))


def test_evenly_spaced_ids_are_held_as_a_range():
    strided = AggregatePart("a", Identity(3), (3, 5, 7))
    assert strided.contract_ids == range(3, 8, 2)
    assert strided == AggregatePart("a", Identity(3), range(3, 8, 2))
    assert hash(strided) == hash(AggregatePart("a", Identity(3), range(3, 8, 2)))
    assert AggregatePart("a", Identity(1), (4,)).contract_ids == range(4, 5)
    uneven = AggregatePart("a", Identity(3), (3, 5, 8))
    assert uneven.contract_ids == (3, 5, 8) and type(uneven.contract_ids) is tuple
    # Any other sequence of ids is held as one of these two.
    assert AggregatePart("a", Identity(3), [3, 5, 7]) == strided
    ranked = TopOfOrder(3, (0, 1, 2))
    listed, given = AggregatePart("a", ranked, [0, 2, 3]), AggregatePart("a", ranked, (0, 2, 3))
    assert listed == given and hash(listed) == hash(given)
    assert type(listed.contract_ids) is tuple


def test_given_labels_must_agree_with_the_owners():
    inst = build_marriage_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    labels = list(inst.labels)
    assert Instance(inst.names, inst.f1, inst.f2, tuple(labels)).labels == inst.labels
    labels[0] = ContractLabel("m1", "w2")
    with pytest.raises(SpecError) as raised:
        Instance(inst.names, inst.f1, inst.f2, tuple(labels))
    assert str(raised.value) == "contract 'm1_w1': label (m1, w2) disagrees with its owners (m1, w1)"
    # Labels of sides that are not both aggregates are taken as given.
    mixed = Instance(inst.names, inst.f1, Identity(4), tuple(labels))
    assert mixed.labels == tuple(labels)
    assert Instance(inst.names, inst.f1, Identity(4)).labels is None


def test_aggregate_requires_partition():
    for ids, bad in (((-1, 0), -1), ((0, 3), 3)):
        with pytest.raises(SpecError, match=f"contract {bad} outside the universe"):
            AggregateChoice(3, (AggregatePart("a", Identity(2), ids),))
    with pytest.raises(SpecError, match="label gap"):
        AggregateChoice(3, (AggregatePart("a", Identity(2), (0, 1)),))
    with pytest.raises(SpecError, match="more than one agent"):
        AggregateChoice(
            2,
            (
                AggregatePart("a", Identity(2), (0, 1)),
                AggregatePart("b", Identity(1), (1,)),
            ),
        )
    with pytest.raises(SpecError, match="unique"):
        AggregateChoice(
            2,
            (
                AggregatePart("a", Identity(1), (0,)),
                AggregatePart("a", Identity(1), (1,)),
            ),
        )


def test_aggregate_side_validation():
    with pytest.raises(SpecError, match="no choice function declared"):
        aggregate_side({}, ["a"])
    with pytest.raises(SpecError, match="own no contracts"):
        aggregate_side({"a": Identity(1), "ghost": Identity(1)}, ["a"])


def test_label_locality():
    f = aggregate_side(
        {"p1": TopOfOrder(2, (1, 0)), "p2": TopOfOrder(2, (0, 1))},
        ["p1", "p1", "p2", "p2"],
    )
    for menu in all_masks(4):
        expected = 0
        local1 = menu & 0b0011
        local2 = (menu & 0b1100) >> 2
        if local1:
            expected |= 0b10 if local1 & 0b10 else 0b01
        if local2:
            expected |= (0b01 if local2 & 0b01 else 0b10) << 2
        assert f.choose_mask(menu) == expected
    # An agent's contribution ignores everything outside its slice.
    for menu in all_masks(4):
        assert f.choose_mask(menu) & 0b0011 == f.choose_mask(menu & 0b0011) & 0b0011


# ---------------------------------------------------------------------------
# Agent-local evaluation: kept_additions and rechoose against choose_mask
# ---------------------------------------------------------------------------


def test_filter_agents_share_one_empty_tail():
    """A filter's quota is its order's length, so its tail is empty; each
    tail is typed by its own largest id, so every empty tail of a bulk
    instance (800 contracts, where most other tails are two-byte arrays) is
    the one shared ``b""``."""
    inst = random_instance(1, 800, 5, 20)
    tails = [
        agent.splits[0][1]
        for side in (inst.f1, inst.f2)
        for part, agent in zip(side.parts, side._agents)
        if type(part.spec) is Identity
    ]
    assert len(tails) >= 2 and all(tail is tails[0] for tail in tails)
    assert tails[0] == b""


class GlobalTable:
    """A table written in global ids, as an evaluator from an outside
    ``_relabelled`` would be: not a ``_Ranking``, so never skipped by
    ``rechoose``."""

    def __init__(self, entries, ids, piece):
        def lift(local):
            return mask_of(ids[i] for i in ids_of(local))

        self.table = {lift(m): lift(out) for m, out in enumerate(entries)}
        self.piece = piece

    def _choose(self, subset):
        return self.table[subset & self.piece]

    def _kept_additions(self, subset, candidates):
        share = subset & self.piece
        return mask_of(
            x for x in ids_of(candidates & self.piece) if self.table[share | 1 << x] >> x & 1
        )


class RelabelledTable(ChoiceFunction):
    """A table that relabels itself to a :class:`GlobalTable`."""

    def __init__(self, entries):
        self.n, self.entries = len(entries).bit_length() - 1, entries

    def _choose(self, subset):
        return self.entries[subset]

    def _relabelled(self, ids, piece):
        return GlobalTable(self.entries, ids, piece)


def _random_aggregate(rng: random.Random, n: int) -> AggregateChoice:
    """1-3 agents over random slices, of every variant an aggregate relabels
    (rankings and identity), of tables, which it maps per call, and of
    tables with their own relabelled evaluator.  Table agents choose
    arbitrary subsets of their slice, so they may break rejection
    consistency, and never contract on the empty menu (f({}) != {}); quotas
    run from 0 to the slice size."""
    owner = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
    specs = {}
    for agent in set(owner):
        size = owner.count(agent)
        kind = rng.choice(("table", "relabelled", "top", "union", "quota", "identity"))
        if kind in ("table", "relabelled"):
            entries = [rng.randrange(1 << size) for _ in range(1 << size)]
            entries[0] = rng.randrange(1, 1 << size)
            if kind == "table":
                specs[f"a{agent}"] = TableChoice(size, tuple(entries))
            else:
                specs[f"a{agent}"] = RelabelledTable(tuple(entries))
        elif kind == "top":
            specs[f"a{agent}"] = TopOfOrder(size, tuple(rng.sample(range(size), size)))
        elif kind == "union":
            specs[f"a{agent}"] = UnionOfOrders(
                size, tuple(tuple(rng.sample(range(size), size)) for _ in range(2))
            )
        elif kind == "quota":
            specs[f"a{agent}"] = ResponsiveQuota(
                size, tuple(rng.sample(range(size), size)), rng.randint(0, size)
            )
        else:
            specs[f"a{agent}"] = Identity(size)
    return aggregate_side(specs, [f"a{agent}" for agent in owner])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_kept_additions_and_rechoose_match_choose_mask(n, seed):
    agg = _random_aggregate(random.Random(seed), n)
    # The aggregate's overrides, and the generic defaults on one of its parts.
    for f in (agg, agg.parts[0].spec):
        table = table_of(f)
        for subset in all_masks(f.n):
            # Every contract x with x in f(subset | {x}), straight from the table.
            kept = 0
            for x in range(f.n):
                kept |= table[subset | 1 << x] & 1 << x
            for candidates in all_masks(f.n):
                assert f.kept_additions(subset, candidates) == kept & candidates
            for prev in all_masks(f.n):
                assert f.rechoose(subset, prev, table[prev]) == table[subset]


def test_agent_local_methods_check_the_universe():
    f = aggregate_side({"a": Identity(1), "b": Identity(1)}, ["a", "b"])
    # The aggregate's override and the base-class default on one part.
    for g in (f, f.parts[0].spec):
        for bad in (1 << g.n, -1):
            with deadline(5):
                with pytest.raises(DomainError, match=f"subset {bad:#x} lies outside"):
                    g.kept_additions(bad, 0)
                with pytest.raises(DomainError, match=f"candidate set {bad:#x} lies outside"):
                    g.kept_additions(0, bad)
    with pytest.raises(DomainError):
        f.rechoose(0b100, 0, 0)


# ---------------------------------------------------------------------------
# Axiom preservation (and violation propagation)
# ---------------------------------------------------------------------------


def _paired(table_a, table_b):
    """Aggregate of two 2-contract table agents over a 4-contract universe."""
    return AggregateChoice(
        4,
        (
            AggregatePart("a", TableChoice(2, table_a), (0, 1)),
            AggregatePart("b", TableChoice(2, table_b), (2, 3)),
        ),
    )


@pytest.mark.parametrize("seed", range(30))
def test_aggregation_preserves_each_axiom(seed):
    rng = random.Random(seed)
    table_a = random_contraction_table(rng, 2)
    table_b = random_contraction_table(rng, 2)
    agg = _paired(table_a, table_b)
    fa, fb = TableChoice(2, table_a), TableChoice(2, table_b)
    for check in (check_contraction, check_irc, check_substitutes):
        parts_clean = check(fa) == [] and check(fb) == []
        assert (check(agg) == []) == parts_clean


def test_aggregation_preserves_coherence():
    for seed in range(10):
        agg = AggregateChoice(
            5,
            (
                AggregatePart("a", random_coherent_function(seed, 3), (0, 2, 4)),
                AggregatePart("b", random_coherent_function(seed + 100, 2), (1, 3)),
            ),
        )
        report = check_coherent(agg)
        assert report.coherent and report.cross_check_ok


def test_aggregation_propagates_violation():
    bad = no_stable_agreement_instance().f1  # fails substitutes at (b, {b}, {a,b})
    agg = AggregateChoice(
        3,
        (
            AggregatePart("bad", bad, (0, 2)),
            AggregatePart("ok", Identity(1), (1,)),
        ),
    )
    violations = check_substitutes(agg)
    assert violations
    # The embedded witness appears at the part's global ids {0, 2}.
    assert any(
        v.set_a == mask_of([0, 2]) and v.set_b == mask_of([2]) and v.contract == 2
        for v in violations
    )


# ---------------------------------------------------------------------------
# Marriage construction
# ---------------------------------------------------------------------------


def test_marriage_instance_shape():
    inst = build_marriage_instance([[1, 0], [0, 1]], [[0, 1], [1, 0]])
    assert inst.names == ("m1_w1", "m1_w2", "m2_w1", "m2_w2")
    assert inst.labels is not None
    assert (inst.labels[1].side1, inst.labels[1].side2) == ("m1", "w2")
    # man 1 ranks woman 2 first; offered both, he keeps m1_w2.
    assert inst.f1.choose_mask(0b0011) == 0b0010


def test_marriage_sides_are_coherent():
    inst = build_marriage_instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert check_coherent(inst.f1).coherent
    assert check_coherent(inst.f2).coherent


def test_marriage_rejects_incomplete_lists():
    with pytest.raises(SpecError, match="man 0"):
        build_marriage_instance([[0, 0]], [[0]])
    with pytest.raises(SpecError, match="woman 1"):
        build_marriage_instance([[0, 1]], [[0], []])


def test_marriage_rectangular():
    inst = build_marriage_instance([[0, 1, 2]], [[0], [0], [0]])
    assert inst.n == 3
    assert inst.f1.choose_mask(0b111) == 0b001
    assert inst.f2.choose_mask(0b111) == 0b111  # three women, one offer each


def _marriage_via_aggregate_side(men_prefs, women_prefs) -> Instance:
    """Reference: the marriage instance built through the general builder,
    one owner name per contract."""
    n_men, n_women = len(men_prefs), len(women_prefs)
    men_specs = {f"m{i + 1}": TopOfOrder(n_women, tuple(men_prefs[i])) for i in range(n_men)}
    women_specs = {f"w{j + 1}": TopOfOrder(n_men, tuple(women_prefs[j])) for j in range(n_women)}
    men_owner = [f"m{i + 1}" for i in range(n_men) for _ in range(n_women)]
    women_owner = [f"w{j + 1}" for _ in range(n_men) for j in range(n_women)]
    return Instance(
        names=tuple(f"m{i + 1}_w{j + 1}" for i in range(n_men) for j in range(n_women)),
        f1=aggregate_side(men_specs, men_owner),
        f2=aggregate_side(women_specs, women_owner),
        labels=tuple(ContractLabel(m, w) for m, w in zip(men_owner, women_owner)),
        coherence=COHERENCE_ASSERTED,
    )


@pytest.mark.parametrize(
    "n_men, n_women", [(1, 1), (3, 3), (3, 5), (5, 3), (12, 12), (16, 16)]
)
def test_marriage_instance_equals_the_aggregate_side_build(n_men, n_women, tmp_path):
    """The marriage builder, ``aggregate_side`` and an instance file's agents
    blocks assemble the same sides.  The loaded instance differs from the
    built one only by its coherence label ("unknown" against "asserted")."""
    men, women = random_marriage_profile(n_men * 100 + n_women, n_men, n_women)
    built = build_marriage_instance(men, women)
    expected = _marriage_via_aggregate_side(men, women)
    assert built == expected
    assert built.names == expected.names and built.labels == expected.labels
    for side in (1, 2):
        assert built.side(side).parts == expected.side(side).parts
    save(tmp_path / "marriage.json", built)
    loaded = load(tmp_path / "marriage.json").instance
    assert (loaded.names, loaded.f1, loaded.f2, loaded.labels) == (
        expected.names, expected.f1, expected.f2, expected.labels
    )
    if n_men >= 10:  # parts are in name order, so m10 comes before m2
        agents = [part.agent for part in built.f1.parts]
        assert agents.index("m10") < agents.index("m2")


@pytest.mark.parametrize("n_men, n_women", [(0, 3), (3, 0), (0, 12)])
def test_marriage_with_an_empty_side_is_rejected(n_men, n_women):
    men, women = [[]] * n_men, [[]] * n_women
    with pytest.raises(SpecError) as expected:
        _marriage_via_aggregate_side(men, women)
    with pytest.raises(SpecError, match="declared but own no contracts") as raised:
        build_marriage_instance(men, women)
    assert str(raised.value) == str(expected.value)
