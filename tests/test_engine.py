"""The offer/rejection engine: traces, stability verdicts, lattice operations."""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

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
    _Mapped,
    _Ranking,
    tabulate,
)
from contractmatch.corpus import (
    FIXTURE_DIR,
    marriage_1x1,
    marriage_2x2,
    marriage_3x3,
    no_stable_agreement_instance,
)
from contractmatch.engine import (
    MODE_FULL,
    MODE_SINGLETON,
    AgreementVerdict,
    ContractLabel,
    Instance,
    Trace,
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
from contractmatch.generators import random_instance, random_marriage_profile
from contractmatch.instancefile import load
from contractmatch.market import (
    LinearProducerChoice,
    MarketContract,
    build_unit_demand_consumer,
)
from contractmatch.oracle import (
    brute_glb,
    brute_lub,
    classical_gale_shapley,
    enumerate_stable_agreements,
)
from contractmatch.preference import closure, prefers
from contractmatch.sets import ids_of, mask_of

from conftest import all_masks, cycling_instance, deadline


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
    assert result.converged and result.trace.cycle == ()


def test_a_trace_is_unequal_to_anything_but_a_trace():
    trace = run(no_stable_agreement_instance()).trace
    assert trace != (trace.pools, trace.offers, trace.accepted)
    assert trace.__eq__(None) is NotImplemented


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


def test_is_stable_set_checks_the_universe():
    inst = marriage_2x2()
    for subset, mode in (
        (inst.universe | 1 << inst.n, MODE_SINGLETON),
        (-1, MODE_SINGLETON),
        (inst.universe | 1 << inst.n, MODE_FULL),
    ):
        with pytest.raises(DomainError, match=f"subset {subset:#x} exceeds"):
            is_stable_set(inst, subset, mode)


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


@pytest.mark.parametrize(("k", "seed"), [(16, 5), (32, 9)])
def test_lattice_laws_beyond_the_oracle_bound(k, seed):
    """Meet and join on k x k marriage markets, too large for the oracle's
    catalog, whose agents are all one-order, quota-1 evaluators.

    The agreements come from the engine: both extremes, runs from random
    pools that end in a stable agreement, and the meets and joins of those.
    On every pair, meet and join are stable agreements, commute and absorb,
    and the meet of the two extremes is the side-2-optimal agreement.
    """
    inst = build_marriage_instance(*random_marriage_profile(seed, k, k))
    assert hasattr(inst.f1, "_rank") and hasattr(inst.f2, "_rank")
    best1, best2 = run(inst, 1).chosen, run(inst, 2).chosen
    assert best1 != best2
    rng = random.Random(seed)
    found = {best1, best2}
    for _ in range(60):
        pool = inst.universe & ~mask_of(rng.sample(range(inst.n), rng.randint(1, k)))
        result = run(inst, rng.choice((1, 2)), pool)
        if result.stable_agreement:
            found.add(result.chosen)
    engine_found = tuple(found)
    found |= {op(inst, a, b) for a in engine_found for b in engine_found for op in (meet, join)}
    assert len(found) > 2
    with deadline(3):
        for a in found:
            for b in found:
                m, j = meet(inst, a, b), join(inst, a, b)
                assert is_stable_agreement(inst, m).holds
                assert is_stable_agreement(inst, j).holds
                assert meet(inst, b, a) == m and join(inst, b, a) == j
                assert meet(inst, a, j) == a and join(inst, a, m) == a
    assert meet(inst, best1, best2) == best2
    assert join(inst, best1, best2) == best1


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


# ---------------------------------------------------------------------------
# Non-contracting receivers: the pools may cycle
# ---------------------------------------------------------------------------


def test_run_stops_at_the_first_repeated_pool():
    inst = cycling_instance()
    with deadline(5):
        result = run(inst)
    assert not result.converged
    assert result.trace.pools == (0b11, 0b10, 0b01, 0b00)
    assert result.trace.cycle == result.trace.pools
    assert result.chosen == result.trace.offers[-1] == 0
    # On a cycle too, the last round's keep is side 2's choice from the final offer.
    assert result.agreement == AgreementVerdict(0, inst.f1.choose_mask(0), inst.f2.choose_mask(0))


def withdrawing_instance() -> Instance:
    """From the pool {a}, side 1 offers {a, b} and side 2 keeps exactly that
    offer, so the pools run {a, b} -> {a} -> {a, b}."""
    return Instance(
        ("a", "b"),
        TableChoice(2, (0b00, 0b11, 0b00, 0b10)),
        TableChoice(2, (0b00, 0b00, 0b00, 0b11)),
    )


def test_a_cycle_whose_last_round_rejects_nothing_has_not_converged():
    """The last round keeps every offer, yet leads back to the first pool:
    whether a run converged is read from its pools, not from an empty last
    rejection."""
    trace = run(withdrawing_instance()).trace
    assert trace.accepted[-1] == trace.offers[-1] == 0b11
    assert not trace.converged
    assert trace.cycle == (0b11, 0b01)
    assert trace.iterations == 2
    assert trace.final_pool == 0b01


def test_solve_results_pickle_and_deep_copy_on_both_paths():
    """A result copies with its trace's record, ids (a marriage run) or masks
    (a random instance, and a cycle): each copy equals the original, with
    the same hash and ``repr``, made before or after the first read of
    ``trace.pools``."""
    marriage = build_marriage_instance(*random_marriage_profile(2, 4, 5))
    bulk = random_instance(3, 12, 2, 3)
    assert hasattr(marriage.f1, "_rank") and not hasattr(bulk.f1, "_rank")
    for inst in (marriage, bulk, withdrawing_instance()):
        result = run(inst)
        before = (pickle.loads(pickle.dumps(result)), copy.deepcopy(result))
        assert result.trace.pools
        after = (pickle.loads(pickle.dumps(result)), copy.deepcopy(result))
        for copied in (*before, *after):
            assert copied == result
            assert hash(copied) == hash(result)
            assert repr(copied) == repr(result)
            assert copied.converged == result.converged
            assert copied.trace.final_pool == result.trace.final_pool


# ---------------------------------------------------------------------------
# Agent-local rounds reproduce the whole-side iteration exactly
# ---------------------------------------------------------------------------


def whole_side_blocker(instance: Instance, subset: int) -> int | None:
    """The singleton verdict evaluating both whole sides for each outside
    contract in id order: the first blocking contract's bit, or None."""
    outside = instance.universe & ~subset
    while outside:
        xbit = outside & -outside
        menu = subset | xbit
        if instance.f1.choose_mask(menu) & xbit and instance.f2.choose_mask(menu) & xbit:
            return xbit
        outside ^= xbit
    return None


def whole_side_run(
    instance: Instance, proposer: int, pool: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int | None]:
    """The iteration and singleton verdict evaluating both whole sides every time.

    Returns each round's pool, offer and accepted set, and the blocking
    contract bit (None when stable).  Only for instances whose receiving
    side is contracting: it stops at a fixpoint.
    """
    propose, other = instance.side(proposer), instance.side(3 - proposer)
    z = pool
    pools, offers, accepted = [], [], []
    while True:
        offer = propose.choose_mask(z)
        keep = other.choose_mask(offer)
        pools.append(z)
        offers.append(offer)
        accepted.append(keep)
        next_z = (z & ~offer) | keep
        if next_z == z:
            break
        z = next_z
    blocking = whole_side_blocker(instance, offers[-1])
    return tuple(pools), tuple(offers), tuple(accepted), blocking


def _assert_same_as_whole_side(instance: Instance, proposer: int, pool: int | None = None):
    result = run(instance, proposer, pool)
    pools, offers, accepted, blocking = whole_side_run(
        instance, proposer, instance.universe if pool is None else pool
    )
    trace = result.trace
    assert (trace.pools, trace.offers, trace.accepted) == (pools, offers, accepted)
    assert trace.final_pool == pools[-1] and trace.cycle == ()
    assert result.chosen == offers[-1]
    assert result.stability.blocking_set == blocking
    chosen = result.chosen
    assert result.agreement == AgreementVerdict(
        chosen, instance.f1.choose_mask(chosen), instance.f2.choose_mask(chosen)
    )


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_trace_identity_on_fixtures(path):
    instance = load(path).instance
    for proposer in (1, 2):
        _assert_same_as_whole_side(instance, proposer)


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_witness_identity_on_random_subsets(path):
    # Run outcomes are almost always stable; random subsets mostly are not.
    instance = load(path).instance
    rng = random.Random(path.stem)
    for _ in range(50):
        subset = rng.getrandbits(instance.n)
        verdict = is_stable_set(instance, subset)
        assert verdict.blocking_set == whole_side_blocker(instance, subset)


def test_trace_identity_on_acceptance_seeds():
    from test_acceptance import theorem_catalogs, theorem_corpus

    # Criterion 2: the 500 small marriage markets, man-proposing.
    for seed in range(500):
        rng = random.Random(seed)
        men, women = random_marriage_profile(rng, rng.randint(1, 4), rng.randint(1, 4))
        _assert_same_as_whole_side(build_marriage_instance(men, women), 1)
    # Criteria 3 and 4: the theorem corpus with both proposers, and the
    # meet/join runs from intersections of closures of catalog pairs.
    # Criterion 6 audits exactly these runs.
    for inst, catalog in zip(theorem_corpus(), theorem_catalogs()):
        for proposer in (1, 2):
            _assert_same_as_whole_side(inst, proposer)
            f = inst.side(proposer)
            pools = {closure(f, b) & closure(f, c) for b in catalog.sets for c in catalog.sets}
            for pool in pools:
                _assert_same_as_whole_side(inst, proposer, pool)


# ---------------------------------------------------------------------------
# Work: the rounds and the verdict touch only the agents concerned
# ---------------------------------------------------------------------------


class CountedChoice(ChoiceFunction):
    """Counts the evaluations of ``inner`` in a shared tally."""

    def __init__(self, inner: ChoiceFunction, tally: list[int]):
        self.inner, self.n, self.tally = inner, inner.n, tally

    def _choose(self, subset: int) -> int:
        self.tally[0] += 1
        return self.inner.choose_mask(subset)


def _counted(f: AggregateChoice, tally: list[int]) -> AggregateChoice:
    parts = tuple(
        AggregatePart(p.agent, CountedChoice(p.spec, tally), p.contract_ids) for p in f.parts
    )
    return AggregateChoice(f.n, parts)


def _count_ranking_calls(monkeypatch, method: str) -> list[int]:
    """Count, in the returned one-item tally, the calls of ``method`` on
    the ranking evaluator, :class:`_Ranking`."""
    calls = [0]
    original = getattr(_Ranking, method)

    def counting(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(_Ranking, method, counting)
    return calls


@pytest.mark.parametrize("k", [16, 32])
def test_agent_evaluations_follow_rejections(k, monkeypatch):
    """Per-agent evaluations in a k x k marriage run.

    In the generic rounds, round 0 evaluates every agent (2k).  A later
    round re-evaluates only the proposers just rejected and the receivers
    whose offers changed; the stability verdict evaluates at most the two
    owners of each outside contract.  The whole-side loop paid 2k per round
    and per outside contract.

    The bare instance's agents are all Gale-Shapley agents, so its whole run
    takes ``cursor_rounds``, which evaluates nobody.  The agreement verdict
    reuses the receivers' last choice and asks the proposers through
    ``rechoose`` from the last pool, which skips them all, and the verdict's
    ``kept_additions`` makes no ``_choose`` call: no ``_choose`` call at all.
    With one man's agent a quota-2 ranking instead, the run takes the
    generic rounds, where each rejection makes at most one proposer and one
    receiver choose again (a receiver that only lost the offer it rejected
    is skipped).
    """
    calls = _count_ranking_calls(monkeypatch, "_choose")
    for seed in range(5):
        inst = build_marriage_instance(*random_marriage_profile(seed, k, k))
        first = inst.f1.parts[0]
        quota2 = dataclasses.replace(first, spec=ResponsiveQuota(k, first.spec.order, 2))
        mixed = dataclasses.replace(
            inst, f1=AggregateChoice(inst.n, (quota2, *inst.f1.parts[1:]))
        )
        for proposer in (1, 2):
            tally = [0]
            counted = dataclasses.replace(
                inst, f1=_counted(inst.f1, tally), f2=_counted(inst.f2, tally)
            )
            result = run(counted, proposer)
            rejections = inst.n - result.trace.final_pool.bit_count()
            outside = inst.n - result.chosen.bit_count()
            assert tally[0] <= 2 * k + 2 * rejections + 2 * outside
            calls[0] = 0
            assert run(inst, proposer) == result
            assert calls[0] == 0
            result = run(mixed, proposer)
            rejections = inst.n - result.trace.final_pool.bit_count()
            assert 0 < calls[0] <= 2 * k + 2 * rejections


def _owners(f: AggregateChoice, subset: int) -> set[str]:
    """The agents of ``f`` that own a contract of ``subset``."""
    return {p.agent for p in f.parts if any(subset >> g & 1 for g in p.contract_ids)}


def _outside_and_kept_by_side_1(inst: Instance, chosen: int) -> tuple[int, int]:
    """The contracts outside ``chosen``, and those side 1 keeps on top of it."""
    outside = inst.universe & ~chosen
    kept = mask_of(
        x for x in ids_of(outside) if inst.f1.choose_mask(chosen | 1 << x) >> x & 1
    )
    return outside, kept


@pytest.mark.parametrize("k", [16, 32])
def test_verdict_evaluates_each_outside_contract_once_per_keeping_side(k, monkeypatch):
    """Side 1 evaluates the owner of every outside contract once; side 2
    evaluates the owner of each outside contract that side 1 keeps.

    The bare instance's agents are all Gale-Shapley agents, so its verdict
    is read from the sides' rank arrays and calls no ``_kept_additions``.
    With one man's agent a quota-2 ranking instead, the verdict takes the
    sides' ``kept_additions``: each side asks every owner concerned once,
    about all of its candidates, one call per distinct owner.
    """
    calls = _count_ranking_calls(monkeypatch, "_kept_additions")
    for seed in range(3):
        inst = build_marriage_instance(*random_marriage_profile(seed, k, k))
        tally = [0]
        counted = dataclasses.replace(
            inst, f1=_counted(inst.f1, tally), f2=_counted(inst.f2, tally)
        )
        first = inst.f1.parts[0]
        quota2 = dataclasses.replace(first, spec=ResponsiveQuota(k, first.spec.order, 2))
        mixed = dataclasses.replace(
            inst, f1=AggregateChoice(inst.n, (quota2, *inst.f1.parts[1:]))
        )
        for proposer in (1, 2):
            chosen = run(inst, proposer).chosen
            outside, kept1 = _outside_and_kept_by_side_1(inst, chosen)
            tally[0] = 0
            assert is_stable_set(counted, chosen).stable
            assert tally[0] == outside.bit_count() + kept1.bit_count()
            calls[0] = 0
            assert is_stable_set(inst, chosen).stable
            assert calls[0] == 0
            chosen = run(mixed, proposer).chosen
            outside, kept1 = _outside_and_kept_by_side_1(mixed, chosen)
            calls[0] = 0
            assert is_stable_set(mixed, chosen).stable
            assert calls[0] == len(_owners(mixed.f1, outside)) + len(_owners(mixed.f2, kept1))


class ChooseMaskOnly(ChoiceFunction):
    """Forwards ``choose_mask`` alone, as the benchmark's counting wrapper
    does: every other method is the base-class default over it."""

    def __init__(self, inner: ChoiceFunction):
        self.inner, self.n = inner, inner.n

    def choose_mask(self, subset: int) -> int:
        return self.inner.choose_mask(subset)


def _wrapped(f: AggregateChoice) -> ChoiceFunction:
    parts = tuple(
        AggregatePart(p.agent, ChooseMaskOnly(p.spec), p.contract_ids) for p in f.parts
    )
    return ChooseMaskOnly(AggregateChoice(f.n, parts))


def test_wrapped_agents_and_sides_give_the_same_runs():
    """Agents and sides that define only ``choose_mask`` are evaluated through
    the generic paths (the id-mapping evaluator, the whole-side defaults) and
    must give the same outcome, trace and verdicts as the bare instance."""
    instances = (
        build_marriage_instance(*random_marriage_profile(1, 16, 16)),
        random_instance(1, 200, 5, 20),
    )
    for inst in instances:
        wrapped = dataclasses.replace(inst, f1=_wrapped(inst.f1), f2=_wrapped(inst.f2))
        for proposer in (1, 2):
            assert run(wrapped, proposer) == run(inst, proposer)


# ---------------------------------------------------------------------------
# The cursor rounds of two sides of Gale-Shapley agents
# ---------------------------------------------------------------------------


def _generic(inst: Instance) -> Instance:
    """``inst`` with both sides wrapped, so ``run`` takes the generic rounds."""
    return dataclasses.replace(inst, f1=ChooseMaskOnly(inst.f1), f2=ChooseMaskOnly(inst.f2))


def _unit_demand_market(rng: random.Random) -> Instance:
    """Producers ranking their contracts, consumers of one template who keep
    the cheapest affordable one.  Every consumer has an affordable and an
    unaffordable contract, so each consumer's ``piece`` is smaller than its
    slice, and both sides are made of Gale-Shapley agents."""
    producers = [f"p{i}" for i in range(rng.randint(1, 5))]
    consumers = [f"c{j}" for j in range(rng.randint(1, 5))]
    grid, willingness = (1, 2, 3, 4, 5), {"t": 3}
    contracts = [
        MarketContract(p, c, "t", rng.randrange(len(grid)))
        for p in producers
        for c in consumers
        for _ in range(rng.randint(1, 3))
    ]
    for c in consumers:  # one affordable, one unaffordable contract
        contracts.append(MarketContract(rng.choice(producers), c, "t", 0))
        contracts.append(MarketContract(rng.choice(producers), c, "t", len(grid) - 1))
    rng.shuffle(contracts)
    mine = {
        a: [x for x in contracts if a in (x.producer, x.consumer)] for a in producers + consumers
    }
    f1 = aggregate_side(
        {p: TopOfOrder(len(mine[p]), tuple(rng.sample(range(len(mine[p])), len(mine[p]))))
         for p in producers},
        [x.producer for x in contracts],
    )
    f2 = aggregate_side(
        {c: build_unit_demand_consumer(mine[c], grid, willingness) for c in consumers},
        [x.consumer for x in contracts],
    )
    return Instance(auto_names(len(contracts)), f1, f2)


def _filter_market(rng: random.Random) -> Instance:
    """Nine contracts between rankings and filters that are Gale-Shapley
    agents.  Side 1: two ``TopOfOrder`` agents, the identity on one
    contract, and a producer keeping one contract of its three (the other
    two are outside its piece).  Side 2: two ``TopOfOrder`` agents and the
    identity on one contract, owning random contracts."""
    f1 = aggregate_side(
        {
            "a": TopOfOrder(3, tuple(rng.sample(range(3), 3))),
            "b": TopOfOrder(2, tuple(rng.sample(range(2), 2))),
            "i": Identity(1),
            "p": LinearProducerChoice(3, 1 << rng.randrange(3), ()),
        },
        ["a"] * 3 + ["b"] * 2 + ["i"] + ["p"] * 3,
    )
    owners = ["c"] * 4 + ["d"] * 4 + ["j"]
    rng.shuffle(owners)
    f2 = aggregate_side(
        {
            "c": TopOfOrder(4, tuple(rng.sample(range(4), 4))),
            "d": TopOfOrder(4, tuple(rng.sample(range(4), 4))),
            "j": Identity(1),
        },
        owners,
    )
    return Instance(auto_names(9), f1, f2)


def _cursor_cases():
    """Seeded instances whose two sides take the cursor rounds: square and
    rectangular marriage markets, unit-demand markets, and markets mixing
    ``TopOfOrder`` agents with one-contract filters."""
    rng = random.Random(15)
    for k in (*range(1, 10), 16, 32):
        for m in {k, rng.randint(1, 12)}:
            for seed in range(6 if k < 16 else 2):
                yield build_marriage_instance(*random_marriage_profile(seed + 100 * k, k, m))
    for _ in range(300):
        yield _unit_demand_market(rng)
    for _ in range(30):
        yield _filter_market(rng)


def test_cursor_rounds_give_the_generic_runs():
    """Two sides of Gale-Shapley agents (one-order, quota-1 ``_Ranking``
    agents) run the whole run, round 0 included, in ``cursor_rounds``; the
    generic rounds, reached by wrapping the sides, give the same outcome,
    trace and verdicts, from the universe and from random pools.  The
    traces are compared field by field as well as by ``repr``, so that the
    masks rebuilt from the cursor record's ids and its ``iterations``,
    ``final_pool`` and ``cycle``, read before and after the rebuild, are
    all checked."""
    rng = random.Random(7)
    for inst in _cursor_cases():
        assert hasattr(inst.f1, "_rank") and hasattr(inst.f2, "_rank")
        generic = _generic(inst)
        for proposer in (1, 2):
            for pool in (None, rng.getrandbits(inst.n), rng.getrandbits(inst.n)):
                cursor, expected = run(inst, proposer, pool), run(generic, proposer, pool)
                trace, want = cursor.trace, expected.trace
                unbuilt = (trace.iterations, trace.final_pool, trace.cycle)
                assert trace.pools == want.pools
                assert trace.offers == want.offers
                assert trace.accepted == want.accepted
                assert unbuilt == (trace.iterations, trace.final_pool, trace.cycle)
                assert unbuilt == (want.iterations, want.final_pool, want.cycle)
                assert cursor.converged == expected.converged
                assert repr(cursor) == repr(expected)


def test_cursor_rounds_are_taken_by_two_sides_of_top_agents_only(monkeypatch):
    """A side qualifies when every agent is a ``_Ranking`` of one order with
    quota 1: one agent of quota 2 or of two orders, a filter of four
    contracts (quota 4), a ``_Mapped`` agent, or a wrapped side, sends the
    run through the generic rounds."""
    calls = []
    original = AggregateChoice.cursor_rounds

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(AggregateChoice, "cursor_rounds", counting)
    inst = build_marriage_instance(*random_marriage_profile(3, 4, 4))
    for proposer in (1, 2):
        run(inst, proposer)
        assert calls == [inst.side(proposer)]
        calls.clear()
    first = inst.f1.parts[0]
    for spec, evaluator in (
        (ResponsiveQuota(4, first.spec.order, 2), _Ranking),
        (UnionOfOrders(4, (first.spec.order, first.spec.order[::-1])), _Ranking),
        (Identity(4), _Ranking),
        (tabulate(first.spec), _Mapped),
    ):
        parts = (dataclasses.replace(first, spec=spec), *inst.f1.parts[1:])
        side = AggregateChoice(inst.n, parts)
        assert type(side._agents[0]) is evaluator and not hasattr(side, "_rank")
        for proposer in (1, 2):
            run(dataclasses.replace(inst, f1=side), proposer)
    for proposer in (1, 2):
        run(_generic(inst), proposer)
        run(dataclasses.replace(inst, f2=ChooseMaskOnly(inst.f2)), proposer)
    assert calls == []


class ReadLog:
    """A sequence that logs the positions read from it."""

    def __init__(self, items):
        self.items, self.reads = items, []

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> int:
        self.reads.append(i)
        return self.items[i]

    def __iter__(self):
        for i, c in enumerate(self.items):
            self.reads.append(i)
            yield c


def _read_once_runs():
    """The cursor cases from the universe and a random pool, then a 3x3
    market from the empty pool and from pools that hold none of one
    proposer's order, whose walks end on the sentinel: each as
    ``(instance, proposer, pool, the contracts walked to their end)``."""
    rng = random.Random(5)
    for inst in _cursor_cases():
        for proposer in (1, 2):
            for pool in (inst.universe, rng.getrandbits(inst.n)):
                yield inst, proposer, pool, ()
    inst = build_marriage_instance(*random_marriage_profile(2, 3, 3))
    for proposer in (1, 2):
        yield inst, proposer, 0, range(inst.n)
        for part in inst.side(proposer).parts:
            yield inst, proposer, inst.universe & ~mask_of(part.contract_ids), part.contract_ids


def test_cursor_rounds_read_each_proposer_entry_at_most_once():
    """Round 0 walks each proposer's order from its first entry
    (``_firsts``), and a rejected proposer resumes after its refused
    contract through ``_next``: over a whole run, round 0 included, each
    entry of either array is read at most once, and the sentinel entry
    ``_next[n]`` never.  A proposer none of whose order is in the pool
    reads its whole chain and stops on the sentinel."""
    reads = 0
    for inst, proposer, pool, walked in _read_once_runs():
        expected = run(inst, proposer, pool)
        propose, other = inst.side(proposer), inst.side(3 - proposer)
        kept = {name: getattr(propose, name) for name in ("_next", "_firsts")}
        logs = {name: ReadLog(values) for name, values in kept.items()}
        for name, log in logs.items():
            object.__setattr__(propose, name, log)
        try:
            sent, rejected, held, final = propose.cursor_rounds(other, pool)
        finally:
            for name, values in kept.items():
                object.__setattr__(propose, name, values)
        assert Trace(pool, sent, rejected, final, True) == expected.trace
        assert final == expected.trace.final_pool
        assert mask_of(c for c in held if c >= 0) == expected.chosen
        for log in logs.values():
            assert len(set(log.reads)) == len(log.reads)
            assert set(log.reads) <= set(range(len(log.items)))
            reads += len(log.reads)
        assert inst.n not in logs["_next"].reads
        assert set(walked) <= set(logs["_next"].reads)
        if not pool:
            assert sent == [[]] and rejected == [[]]
    assert reads


def test_a_long_cursor_run_keeps_its_history_as_ids():
    """One more man than women makes rounds grow to about one per
    rejection: 2386 rounds at 129x128.  The run keeps each round's new
    offers and rejections as ids, so its ``SolveResult`` retains at most
    1 MB (three full-width ints per round held 15.9 MB), also once
    ``converged``, ``cycle`` and ``final_pool`` are read: none of them
    rebuilds the masks.  Reading the pools afterwards rebuilds one per
    round, the last being ``final_pool``."""
    inst = build_marriage_instance(*random_marriage_profile(1, 129, 128))
    gc.collect()
    tracemalloc.start()
    try:
        result = run(inst)
        assert result.converged and result.trace.cycle == ()
        assert result.trace.final_pool
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trace.iterations > 1000 and result.stable_agreement
    assert retained <= 1_000_000
    pools = result.trace.pools
    assert len(pools) == result.trace.iterations
    assert pools[-1] == result.trace.final_pool


def test_a_long_generic_run_keeps_two_masks_per_round():
    """A 64x64 market whose first man takes two wives runs the generic
    rounds, 652 of them.  Its ``SolveResult`` keeps two full-width masks
    per round, each round's changed offers and its rejections, so it
    retains at most 2.5 universe-sized ints per round (the rounds' pools,
    offers and accepted sets took 1 129 844 bytes here)."""
    inst = build_marriage_instance(*random_marriage_profile(1, 64, 64))
    first = inst.f1.parts[0]
    quota2 = dataclasses.replace(first, spec=ResponsiveQuota(64, first.spec.order, 2))
    mixed = dataclasses.replace(inst, f1=AggregateChoice(inst.n, (quota2, *inst.f1.parts[1:])))
    assert not hasattr(mixed.f1, "_rank")
    gc.collect()
    tracemalloc.start()
    try:
        result = run(mixed)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.trace.iterations == 652 and result.converged
    assert retained <= 2.5 * sys.getsizeof(inst.universe) * result.trace.iterations


def test_rank_is_each_contracts_place_in_its_owners_order():
    """A side of Gale-Shapley agents ranks each contract by its owner's order,
    read from the agent's spec: 0 for the first entry, ``n`` exactly for
    the contracts outside the owner's piece (a unit-demand consumer's
    unaffordable ones)."""
    outside = 0
    for inst in _cursor_cases():
        for side in (inst.f1, inst.f2):
            expected = [side.n] * side.n
            for part in side.parts:
                (order,), _ = part.spec._orders_and_quota()
                for place, c in enumerate(order):
                    expected[part.contract_ids[c]] = place
            assert list(side._rank) == expected
            pieces = 0
            for agent in side._agents:
                pieces |= agent.piece
            assert [g for g in range(side.n) if not pieces >> g & 1] == [
                g for g in range(side.n) if side._rank[g] == side.n
            ]
            outside += expected.count(side.n)
    assert outside


def test_the_successor_chains_are_the_orders():
    """Following ``_next`` from ``_firsts[a]`` gives agent ``a``'s order,
    read from its spec, and stops at the sentinel ``n``, where ``_next[n]``
    is ``n``; no contract outside its owner's piece (an unaffordable one of
    a unit-demand consumer) is in any chain."""
    outside = 0
    for inst in _cursor_cases():
        for side in (inst.f1, inst.f2):
            n, chained = side.n, set()
            assert len(side._next) == n + 1 and side._next[n] == n
            assert len(side._firsts) == len(side.parts)
            for part, c in zip(side.parts, side._firsts):
                (order,), _ = part.spec._orders_and_quota()
                chain = []
                while c != n and len(chain) <= n:  # a cycle fails below, not hangs
                    chain.append(c)
                    c = side._next[c]
                assert chain == [part.contract_ids[c] for c in order]
                chained.update(chain)
            off_piece = {g for g in range(n) if side._rank[g] == n}
            assert chained == set(range(n)) - off_piece
            outside += len(off_piece)
    assert outside


def test_a_256x256_market_takes_the_wide_successor_array():
    """Ranks are typed by the largest one stored: every contract of a
    256x256 market is in its owner's piece, so its ranks fit one byte and
    are stored as ``bytes``.  The successor array holds the sentinel ``n``
    (65 536), which needs the wide typecode, and it is never a real
    contract.  Both runs give classical Gale-Shapley's matchings."""
    men, women = random_marriage_profile(3, 256, 256)
    inst = build_marriage_instance(men, women)
    for side in (inst.f1, inst.f2):
        assert type(side._rank) is bytes
        assert max(side._rank) == 255 < side.n
        assert side._next.typecode == "L"
        assert side._next[side.n] == side.n == 65_536
    for proposer, pairs in (
        (1, classical_gale_shapley(men, women)),
        (2, {(m, w) for w, m in classical_gale_shapley(women, men)}),
    ):
        chosen = run(inst, proposer).chosen
        assert {divmod(g, 256) for g in ids_of(chosen)} == pairs


# ---------------------------------------------------------------------------
# The singleton verdict of two sides of Gale-Shapley agents
# ---------------------------------------------------------------------------


def _kept_by_both(inst: Instance, subset: int) -> int:
    """The generic verdict's blocker on the bare sides: the lowest
    outside contract both sides' ``kept_additions`` keep, or 0."""
    outside = inst.universe & ~subset
    both = inst.f2.kept_additions(subset, inst.f1.kept_additions(subset, outside))
    return both & -both


def _verdict_subsets(inst: Instance, rng: random.Random):
    """The empty set, the universe, random subsets, outcomes with one
    agent's random share of contracts added, and runs of both proposers
    from the universe and from random pools."""
    yield from (0, inst.universe, rng.getrandbits(inst.n), rng.getrandbits(inst.n))
    for proposer in (1, 2):
        for pool in (None, rng.getrandbits(inst.n)):
            chosen = run(inst, proposer, pool).chosen
            yield chosen
            side = inst.side(rng.choice((1, 2)))
            share = mask_of(rng.choice(side.parts).contract_ids) & rng.getrandbits(inst.n)
            yield chosen | share


def test_the_rank_verdict_gives_the_generic_verdict():
    """Two sides of Gale-Shapley agents (one-order, quota-1 ``_Ranking``
    agents) read the singleton verdict from their rank arrays; the wrapped
    sides' generic verdict gives the same witness on every subset, blocked
    or not."""
    rng = random.Random(16)
    blocked = stable = 0
    for inst in _cursor_cases():
        generic = _generic(inst)
        for subset in _verdict_subsets(inst, rng):
            verdict = is_stable_set(inst, subset)
            assert verdict == is_stable_set(generic, subset)
            assert inst.f1.rank_blocker(inst.f2, subset) == _kept_by_both(inst, subset)
            assert inst.f2.rank_blocker(inst.f1, subset) == _kept_by_both(inst, subset)
            blocked += not verdict.stable
            stable += verdict.stable
    assert blocked and stable


def test_the_rank_verdict_on_a_256x256_market():
    """A 256x256 market's one-byte rank tables (``bytes``), beside its
    wide (``L``) successor arrays, give the generic verdict too."""
    inst = build_marriage_instance(*random_marriage_profile(3, 256, 256))
    for side in (inst.f1, inst.f2):
        assert type(side._rank) is bytes and max(side._rank) == 255
        assert side._next.typecode == "L" and side._next[side.n] == 65_536
    rng = random.Random(256)
    for subset in _verdict_subsets(inst, rng):
        blocker = _kept_by_both(inst, subset)
        assert inst.f1.rank_blocker(inst.f2, subset) == blocker
        assert is_stable_set(inst, subset).blocking_set == (blocker or None)


def test_the_rank_verdict_walks_each_successor_entry_at_most_once():
    """``rank_blocker`` walks one side's successor chains, each agent's
    from ``_firsts`` through ``_next`` up to its best contract in the
    subset: the ``_next`` entries it reads are exactly the contracts
    ranked above their owner's best, each read once.  An agent that holds
    nothing (every agent, on the empty subset, and the partners of a
    contract taken out of a run's outcome) walks its whole chain and stops
    on the sentinel: ``_next[n]`` is never read."""
    rng = random.Random(30)
    empty = 0
    for inst in _cursor_cases():
        chosen = run(inst, rng.choice((1, 2))).chosen
        held = ids_of(chosen)
        for subset in (0, chosen, chosen ^ 1 << rng.choice(held), rng.getrandbits(inst.n)):
            for side, other in ((inst.f1, inst.f2), (inst.f2, inst.f1)):
                kept = {
                    (s, name): getattr(s, name) for s in (side, other) for name in ("_next", "_firsts")
                }
                logs = {key: ReadLog(values) for key, values in kept.items()}
                for (s, name), log in logs.items():
                    object.__setattr__(s, name, log)
                try:
                    blocker = side.rank_blocker(other, subset)
                finally:
                    for (s, name), values in kept.items():
                        object.__setattr__(s, name, values)
                assert blocker == _kept_by_both(inst, subset)
                walked = [s for s in (side, other) if logs[s, "_firsts"].reads]
                assert len(walked) == 1
                w = walked[0]
                best = [inst.n] * len(w.parts)
                for c in ids_of(subset):
                    best[w._owner[c]] = min(best[w._owner[c]], w._rank[c])
                reads = logs[w, "_next"].reads
                assert len(set(reads)) == len(reads) and inst.n not in reads
                assert set(reads) == {x for x in range(inst.n) if w._rank[x] < best[w._owner[x]]}
                assert not logs[other if w is side else side, "_next"].reads
                empty += best.count(inst.n)
    assert empty


def test_the_rank_verdict_is_taken_by_two_sides_of_top_agents_only(monkeypatch):
    """The verdict, whether reached from ``run``, ``is_stable_set`` or
    ``meet``'s input checks, is read from the ranks when both sides are made
    of one-order, quota-1 ``_Ranking`` agents: one agent of quota 2 or of
    two orders, a filter of four contracts (quota 4), a ``_Mapped`` agent,
    or a wrapped side, sends it through ``kept_additions``."""
    calls, kept = [], _count_ranking_calls(monkeypatch, "_kept_additions")
    original = AggregateChoice.rank_blocker

    def counting(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(AggregateChoice, "rank_blocker", counting)
    inst = build_marriage_instance(*random_marriage_profile(3, 4, 4))
    for proposer in (1, 2):
        chosen = run(inst, proposer).chosen
        assert is_stable_set(inst, chosen).stable
        assert calls == [inst.f1, inst.f1]
        calls.clear()
    first, last = run(inst, 1).chosen, run(inst, 2).chosen
    calls.clear()
    meet(inst, first, last)
    assert calls == [inst.f1] * 3  # two input checks and the run
    calls.clear()
    for which in ("f1", "f2"):
        first, *others = getattr(inst, which).parts
        for spec, evaluator in (
            (ResponsiveQuota(4, first.spec.order, 2), _Ranking),
            (UnionOfOrders(4, (first.spec.order, first.spec.order[::-1])), _Ranking),
            (Identity(4), _Ranking),
            (tabulate(first.spec), _Mapped),
        ):
            side = AggregateChoice(inst.n, (dataclasses.replace(first, spec=spec), *others))
            assert type(side._agents[0]) is evaluator and not hasattr(side, "_rank")
            mixed = dataclasses.replace(inst, **{which: side})
            kept[0] = 0
            is_stable_set(mixed, run(mixed, 1).chosen)
            assert kept[0] > 0
    for wrapped in (_generic(inst), dataclasses.replace(inst, f2=ChooseMaskOnly(inst.f2))):
        is_stable_set(wrapped, run(wrapped, 1).chosen)
    assert calls == []


@pytest.mark.parametrize("workload", ["marriage", "bulk"])
def test_phases_script_splits_a_cycle(workload):
    """``scripts/phases.py`` times ``run`` and the verdict over one cycle."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "phases.py"),
         "--workload", workload, "--seed", "1", "--passes", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    last = re.fullmatch(
        r"run (\d+\.\d+) ms verdict (\d+\.\d+) ms rounds (-?\d+\.\d+) ms in ([1-9]\d*) items",
        out[-1],
    )
    assert last, out[-1]
    run_ms, verdict_ms, rounds_ms = map(float, last.groups()[:3])
    assert 0 < verdict_ms and abs(run_ms - verdict_ms - rounds_ms) < 0.002


def test_phases_script_times_the_cycle_after_calibration():
    """The line before ``scripts/phases.py``'s last gives the cycle's ``run``
    time with a host-speed calibration after each item, scaled as the
    benchmark worker scales it, and in wall time.  The line before that
    gives the same for the next cycle's items, each built right before
    it runs, as the benchmark worker builds and times them."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "phases.py"),
         "--workload", "marriage", "--seed", "1", "--passes", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    line = re.fullmatch(r"calibrated run (\d+\.\d+) ms scaled (\d+\.\d+) ms wall", out[-2])
    assert line, out[-2]
    assert all(float(ms) > 0 for ms in line.groups())
    fresh = re.fullmatch(
        r"fresh run (\d+\.\d+) ms scaled (\d+\.\d+) ms wall in ([1-9]\d*) items", out[-3]
    )
    assert fresh, out[-3]
    assert all(float(ms) > 0 for ms in fresh.groups()[:2])
    assert fresh.group(3) == re.search(r"in (\d+) items$", out[-1]).group(1)


def test_80x80_marriage_is_fast():
    inst = build_marriage_instance(*random_marriage_profile(1, 80, 80))
    with deadline(10):
        for proposer in (1, 2):
            assert run(inst, proposer).stable_agreement
