"""The offer/rejection engine: traces, stability verdicts, lattice operations."""

from __future__ import annotations

import pytest

from contractmatch.choice import Identity, TableChoice, TopOfOrder
from contractmatch.corpus import (
    marriage_1x1,
    marriage_2x2,
    marriage_3x3,
    no_stable_agreement_instance,
)
from contractmatch.engine import (
    MODE_FULL,
    MODE_SINGLETON,
    ContractLabel,
    Instance,
    auto_names,
    is_agreement,
    is_stable_agreement,
    is_stable_set,
    join,
    meet,
    run,
)
from contractmatch.errors import (
    DomainError,
    PreconditionError,
    SizeBoundError,
    SpecError,
)
from contractmatch.generators import random_instance
from contractmatch.oracle import brute_glb, brute_lub, enumerate_stable_agreements
from contractmatch.preference import prefers

from conftest import all_masks, deadline


# ---------------------------------------------------------------------------
# Instance validation
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(SpecError, match="unique"):
        Instance(("a", "a"), Identity(2), Identity(2))
    with pytest.raises(SpecError, match="covers 1 contracts"):
        Instance(("a", "b"), Identity(1), Identity(2))
    with pytest.raises(SpecError, match="rank every contract"):
        Instance(("a", "b"), TopOfOrder(2, (0,)), Identity(2))
    with pytest.raises(SpecError, match="labels"):
        Instance(
            ("a", "b"), Identity(2), Identity(2), labels=(ContractLabel("p", "c"),)
        )


def test_instance_helpers():
    inst = no_stable_agreement_instance()
    assert inst.n == 2 and inst.universe == 0b11
    assert inst.side(1) is inst.f1 and inst.side(2) is inst.f2
    with pytest.raises(ValueError):
        inst.side(3)
    assert inst.mask_of_names(["b"]) == 0b10
    with pytest.raises(SpecError, match="unknown contract"):
        inst.mask_of_names(["zz"])
    assert inst.names_of(0b11) == ["a", "b"]
    assert auto_names(2) == ("x0", "x1")


# ---------------------------------------------------------------------------
# The canonical two-contract run (frozen expected trace)
# ---------------------------------------------------------------------------


def test_canonical_trace():
    result = run(no_stable_agreement_instance(), proposer=1)
    assert result.trace.pools == (0b11, 0b10)
    assert result.trace.offers == (0b11, 0b00)
    assert result.trace.accepted == (0b10, 0b00)
    assert result.trace.iterations == 2
    assert result.trace.final_pool == 0b10
    assert result.chosen == 0
    assert result.agreement.holds  # the empty set is trivially an agreement
    assert not result.stability.stable  # ... but 'a' blocks it
    assert result.stability.blocking_contract == 0
    assert not result.stable_agreement
    assert result.coherence == "unknown"


def test_canonical_blocking_verdict_text():
    result = run(no_stable_agreement_instance())
    text = result.stability.describe(("a", "b"))
    assert "blocked" in text and "a" in text


# ---------------------------------------------------------------------------
# Marriage instances
# ---------------------------------------------------------------------------


def test_marriage_1x1():
    inst = marriage_1x1()
    result = run(inst)
    assert result.chosen == 0b1
    assert result.stable_agreement


def test_marriage_2x2_mutual_first_choices():
    inst = marriage_2x2()
    result = run(inst)
    assert inst.names_of(result.chosen) == ["m1_w1", "m2_w2"]
    assert result.stable_agreement
    assert result.trace.iterations <= inst.n + 1


def test_marriage_3x3_proposer_optimal_ends():
    inst = marriage_3x3()
    catalog = enumerate_stable_agreements(inst)
    men_best = run(inst, proposer=1).chosen
    women_best = run(inst, proposer=2).chosen
    assert men_best in catalog.sets and women_best in catalog.sets
    assert men_best != women_best
    # Every stable agreement sits below the proposer's outcome in the
    # proposer's revealed order.
    for a in catalog.sets:
        assert prefers(inst.f1, men_best, a).holds
        assert prefers(inst.f2, women_best, a).holds


# ---------------------------------------------------------------------------
# Trace invariants on coherent instances
# ---------------------------------------------------------------------------


@pytest.fixture(params=list(range(12)), ids=lambda s: f"seed{s}")
def coherent_instance(request):
    return random_instance(request.param, 4 + request.param % 4)


def test_pools_strictly_shrink(coherent_instance):
    trace = run(coherent_instance).trace
    for early, late in zip(trace.pools, trace.pools[1:]):
        assert late & ~early == 0
        assert late != early


def test_iteration_bound(coherent_instance):
    result = run(coherent_instance)
    assert result.trace.iterations <= coherent_instance.n + 1


def test_offer_persistence(coherent_instance):
    # What side 2 keeps stays on offer in the next round.
    trace = run(coherent_instance).trace
    for j in range(trace.iterations - 1):
        assert trace.accepted[j] & ~trace.offers[j + 1] == 0


def test_offers_improve_for_side_two(coherent_instance):
    inst = coherent_instance
    trace = run(inst).trace
    for j in range(trace.iterations - 1):
        assert prefers(inst.f2, trace.offers[j + 1], trace.offers[j]).holds


def test_rejection_finality(coherent_instance):
    inst = coherent_instance
    result = run(inst)
    dropped = inst.universe & ~result.trace.final_pool
    s = result.chosen
    while dropped:
        xbit = dropped & -dropped
        assert not inst.f2.choose_mask(s | xbit) & xbit
        dropped ^= xbit


def test_stable_agreements_live_in_final_pool(coherent_instance):
    inst = coherent_instance
    result = run(inst)
    catalog = enumerate_stable_agreements(inst)
    for a in catalog.sets:
        assert a & ~result.trace.final_pool == 0


def test_outcome_is_extreme(coherent_instance):
    inst = coherent_instance
    s = run(inst).chosen
    catalog = enumerate_stable_agreements(inst)
    assert s in catalog.sets
    for a in catalog.sets:
        assert prefers(inst.f1, s, a).holds  # A <=_1 S
        assert prefers(inst.f2, a, s).holds  # S <=_2 A


def test_run_from_restricted_pool():
    inst = marriage_3x3()
    full = run(inst).chosen
    again = run(inst, pool=full).chosen
    assert again == full
    with pytest.raises(DomainError):
        run(inst, pool=1 << inst.n)
    with deadline(5), pytest.raises(DomainError, match="exceeds"):
        run(marriage_2x2(), pool=-1)


# ---------------------------------------------------------------------------
# Agreement / stability predicates
# ---------------------------------------------------------------------------


def test_is_agreement():
    inst = no_stable_agreement_instance()
    assert is_agreement(inst, 0).holds
    assert not is_agreement(inst, 0b10).holds  # f1({b}) = {}
    assert "side 1 keeps" in is_agreement(inst, 0b10).describe(inst.names)


def test_singleton_vs_full_mode_agree_on_coherent_agreements():
    for seed in range(8):
        inst = random_instance(seed, 5)
        for subset in all_masks(inst.n):
            if not is_agreement(inst, subset).holds:
                continue
            singleton = is_stable_set(inst, subset, MODE_SINGLETON).stable
            full = is_stable_set(inst, subset, MODE_FULL).stable
            assert singleton == full


def test_full_mode_witness_is_minimal():
    inst = no_stable_agreement_instance()
    verdict = is_stable_set(inst, 0, MODE_FULL)
    assert verdict.blocking_set == 0b01
    assert verdict.blocking_contract == 0


def test_full_mode_respects_bound():
    inst = Instance(auto_names(14), Identity(14), Identity(14))
    with pytest.raises(SizeBoundError, match="full-mode stability"):
        is_stable_set(inst, 0, MODE_FULL)
    # Tight pools keep the scan feasible no matter the universe size.
    assert is_stable_set(inst, inst.universe, MODE_FULL).stable


def test_bad_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        is_stable_set(no_stable_agreement_instance(), 0, "both")


def test_supersets_of_stable_sets_are_stable():
    for seed in range(8):
        inst = random_instance(seed + 50, 5)
        for subset in all_masks(inst.n):
            if not is_stable_set(inst, subset, MODE_SINGLETON).stable:
                continue
            extra = inst.universe & ~subset
            sup = subset
            while True:
                assert is_stable_set(inst, sup | subset, MODE_SINGLETON).stable
                if sup == inst.universe:
                    break
                sup = ((sup | ~extra) + 1) & extra | subset


def test_is_stable_agreement_bundles_both():
    inst = marriage_2x2()
    good = inst.mask_of_names(["m1_w1", "m2_w2"])
    verdict = is_stable_agreement(inst, good)
    assert verdict.holds
    assert "agreement" in verdict.describe(inst.names)
    assert not is_stable_agreement(inst, 0).holds


# ---------------------------------------------------------------------------
# Meet / join
# ---------------------------------------------------------------------------


def test_meet_join_on_3x3_chain():
    inst = marriage_3x3()
    catalog = enumerate_stable_agreements(inst)
    for a in catalog.sets:
        for b in catalog.sets:
            assert meet(inst, a, b) == brute_glb(catalog, a, b)
            assert join(inst, a, b) == brute_lub(catalog, a, b)
    # Idempotence and commutativity on the catalog.
    for a in catalog.sets:
        assert meet(inst, a, a) == a and join(inst, a, a) == a


def test_meet_join_random_instances():
    for seed in range(25):
        inst = random_instance(seed + 400, 6)
        catalog = enumerate_stable_agreements(inst)
        for i, a in enumerate(catalog.sets):
            for b in catalog.sets[i:]:
                m, j = meet(inst, a, b), join(inst, a, b)
                assert m == brute_glb(catalog, a, b)
                assert j == brute_lub(catalog, a, b)
                assert meet(inst, b, a) == m and join(inst, b, a) == j


def test_meet_requires_stable_inputs():
    inst = marriage_2x2()
    good = inst.mask_of_names(["m1_w1", "m2_w2"])
    bad = inst.mask_of_names(["m1_w2"])
    with pytest.raises(PreconditionError, match="not a stable agreement"):
        meet(inst, good, bad)
    with pytest.raises(PreconditionError, match="not a stable agreement"):
        join(inst, bad, good)


def test_engine_never_needs_coherence_to_run():
    # The run itself works on incoherent instances; only its optimality
    # claims do not apply (demonstrated by the canonical instance).
    inst = Instance(
        ("a", "b"),
        TableChoice(2, (0b00, 0b01, 0b00, 0b11)),
        TableChoice(2, (0b00, 0b01, 0b10, 0b10)),
    )
    result = run(inst)
    assert result.trace.iterations <= inst.n + 1
    assert not result.stable_agreement
