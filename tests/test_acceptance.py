"""Acceptance gate: nine end-to-end guarantees, one test and one report line each.

Every test exercises the library at desk scale against an independent
oracle and emits an ``ACCEPTANCE k: PASS/FAIL`` line (echoed in the pytest
terminal summary by conftest).  Criteria with runtime budgets assert them.
Criterion 6 audits the iteration counts recorded by criteria 2-4, so this
file relies on pytest's in-file definition order.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

import contractmatch.engine as engine_module
from contractmatch.aggregation import aggregate_side
from contractmatch.aggregation import build_marriage_instance
from contractmatch.choice import ChoiceFunction, valuation_choice
from contractmatch.coherence import check_coherent
from contractmatch.corpus import FIXTURE_DIR, no_stable_agreement_instance
from contractmatch.engine import (
    MODE_FULL,
    ContractLabel,
    Instance,
    is_stable_agreement,
    is_stable_set,
    join,
    meet,
    run,
)
from contractmatch.generators import (
    random_instance,
    random_marriage_profile,
    random_money_economy,
    random_side,
    random_valuation,
)
from contractmatch.instancefile import load
from contractmatch.market import (
    MarketContract,
    MoneyEconomy,
    build_linear_producer,
    build_unit_demand_consumer,
    check_money_monotone,
    check_no_shortage,
    check_two_prices,
)
from contractmatch.oracle import (
    brute_glb,
    brute_lub,
    classical_gale_shapley,
    enumerate_stable_agreements,
)
from contractmatch.preference import prefers
from contractmatch.sets import iter_submasks

# Every engine run performed by criteria 2-4 lands here as (universe size,
# iterations); criterion 6 audits the lot.
RUN_RECORDS: list[tuple[int, int]] = []


def _record(instance: Instance, result) -> None:
    RUN_RECORDS.append((instance.n, result.trace.iterations))


# ---------------------------------------------------------------------------
# Shared corpus for criteria 3 and 4: 200 seeded coherent instances, n <= 10,
# sides aggregated from union-of-orders and responsive-quota parts.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def theorem_corpus() -> tuple[Instance, ...]:
    return tuple(
        random_instance(
            seed, 4 + seed % 7, kinds=("union_of_orders", "responsive_quota")
        )
        for seed in range(200)
    )


@lru_cache(maxsize=1)
def theorem_catalogs():
    return tuple(enumerate_stable_agreements(inst) for inst in theorem_corpus())


# ---------------------------------------------------------------------------
# Criterion 1 — the canonical two-contract fixture, end to end, < 1 s.
# ---------------------------------------------------------------------------


def test_criterion_1_canonical_fixture(acceptance):
    start = time.perf_counter()
    inst = no_stable_agreement_instance()
    problems: list[str] = []

    report = check_coherent(inst.f1)
    if report.coherent:
        problems.append("side 1 was not flagged")
    witness = next(iter(report.substitutes), None)
    if witness is None or (witness.contract, witness.set_b, witness.set_a) != (
        1,
        0b10,
        0b11,
    ):
        problems.append(f"unexpected witness {witness!r}")

    catalog = enumerate_stable_agreements(inst)
    if catalog.sets != ():
        problems.append(f"catalog not empty: {catalog.sets}")

    result = run(inst, proposer=1)
    if result.chosen != 0:
        problems.append(f"engine chose {result.chosen:#b}, expected the empty set")
    if not result.agreement.holds or result.stability.stable:
        problems.append("empty set should be an agreement yet unstable")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    acceptance(
        1,
        ok,
        f"canonical fixture: witness (b, {{b}}, {{a,b}}), empty catalog,"
        f" unstable empty outcome; {elapsed:.3f}s"
        + (f"; problems: {problems}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 2 — 500 marriage instances match classical Gale-Shapley, < 10 s.
# ---------------------------------------------------------------------------


def test_criterion_2_gale_shapley_equivalence(acceptance):
    start = time.perf_counter()
    mismatches: list[str] = []
    for seed in range(500):
        rng = random.Random(seed)
        n_men, n_women = rng.randint(1, 4), rng.randint(1, 4)
        men_prefs, women_prefs = random_marriage_profile(rng, n_men, n_women)
        inst = build_marriage_instance(men_prefs, women_prefs)

        result = run(inst, proposer=1)
        _record(inst, result)
        engine_pairs = frozenset(
            (cid // n_women, cid % n_women)
            for cid in range(inst.n)
            if result.chosen >> cid & 1
        )
        oracle_pairs = classical_gale_shapley(men_prefs, women_prefs)
        if engine_pairs != oracle_pairs:
            mismatches.append(
                f"seed {seed}: engine {sorted(engine_pairs)}"
                f" != oracle {sorted(oracle_pairs)}"
            )

    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    acceptance(
        2,
        ok,
        f"500/500 marriage instances equal the man-proposing oracle;"
        f" {elapsed:.2f}s"
        + (f"; first mismatches: {mismatches[:3]}" if mismatches else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 3 — run outputs are stable (full mode) and extreme, < 60 s.
# ---------------------------------------------------------------------------


def test_criterion_3_outcome_stability_and_extremeness(acceptance):
    start = time.perf_counter()
    failures: list[str] = []
    instances = theorem_corpus()
    catalogs = theorem_catalogs()

    for idx, (inst, catalog) in enumerate(zip(instances, catalogs)):
        for proposer in (1, 2):
            result = run(inst, proposer=proposer)
            _record(inst, result)
            s = result.chosen
            if not is_stable_agreement(inst, s, mode=MODE_FULL).holds:
                failures.append(f"instance {idx}: proposer {proposer} output unstable")
                continue
            if s not in catalog.sets:
                failures.append(f"instance {idx}: output missing from catalog")
            own = inst.side(proposer)
            other = inst.side(3 - proposer)
            for a in catalog.sets:
                # The outcome sits above every stable agreement for the
                # proposer and below every stable agreement for the other.
                if not prefers(own, s, a).holds:
                    failures.append(
                        f"instance {idx}: catalog set {a:#x} not below"
                        f" proposer-{proposer} outcome"
                    )
                if not prefers(other, a, s).holds:
                    failures.append(
                        f"instance {idx}: proposer-{proposer} outcome not below"
                        f" catalog set {a:#x} for the other side"
                    )

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    total = sum(len(c) for c in theorem_catalogs())
    acceptance(
        3,
        ok,
        f"200 instances x 2 proposers: outputs full-mode stable and extreme"
        f" against {total} cataloged agreements; {elapsed:.2f}s"
        + (f"; first failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 4 — engine meet/join equal brute-force bounds on every pair.
# ---------------------------------------------------------------------------


def test_criterion_4_lattice_operations(acceptance):
    failures: list[str] = []
    pairs = 0
    original_run = engine_module.run

    def recording_run(instance, proposer=1, pool=None):
        result = original_run(instance, proposer, pool)
        _record(instance, result)
        return result

    engine_module.run = recording_run
    try:
        for idx, (inst, catalog) in enumerate(
            zip(theorem_corpus(), theorem_catalogs())
        ):
            for b in catalog.sets:
                for c in catalog.sets:
                    pairs += 1
                    glb = brute_glb(catalog, b, c)
                    lub = brute_lub(catalog, b, c)
                    if glb is None or lub is None:
                        failures.append(
                            f"instance {idx}: pair ({b:#x}, {c:#x}) lacks a"
                            f" unique bound"
                        )
                        continue
                    if meet(inst, b, c) != glb:
                        failures.append(
                            f"instance {idx}: meet({b:#x}, {c:#x}) != {glb:#x}"
                        )
                    if join(inst, b, c) != lub:
                        failures.append(
                            f"instance {idx}: join({b:#x}, {c:#x}) != {lub:#x}"
                        )
    finally:
        engine_module.run = original_run

    ok = not failures
    acceptance(
        4,
        ok,
        f"meet/join equal brute-force glb/lub on {pairs} catalog pairs,"
        f" bounds always unique"
        + (f"; first failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 5 — the lemma battery, exhaustively, on every coherent fixture
# with up to 8 contracts (plus extra generated functions at the same sizes).
# ---------------------------------------------------------------------------


def _lemma_battery(f: ChoiceFunction, n: int) -> list[str]:
    """Exhaustively verify the coherence lemmas; returns violated items."""
    size = 1 << n
    full = size - 1
    table = [f.choose_mask(m) for m in range(size)]
    clos = []
    for a in range(size):
        extra = 0
        outside = full & ~a
        while outside:
            x = outside & -outside
            if not table[a | x] & x:
                extra |= x
            outside ^= x
        clos.append(a | extra)

    bad: set[str] = set()

    # Single-set sweeps: contraction, idempotence, closure items 2-5.
    for a in range(size):
        ta = table[a]
        if ta & ~a:
            bad.add("contraction")
        if table[ta] != ta:
            bad.add("idempotence")
        if table[clos[a]] != ta:
            bad.add("closure-preserves-choice")
        if clos[clos[a]] != clos[a]:
            bad.add("closure-idempotent")
        if table[a | clos[a]] != ta or table[a | clos[a]] != table[clos[a]]:
            bad.add("closure-indifferent")
        if clos[ta] != clos[a]:
            bad.add("closure-of-choice")
        # Rejection consistency: dropping one rejected contract never adds.
        rejected = a & ~ta
        while rejected:
            x = rejected & -rejected
            if table[a ^ x] & ~ta:
                bad.add("irc")
            rejected ^= x
        # Local monotonicity and cumulativity over f(A) <= B <= A.
        free = a & ~ta
        sub = free
        while True:
            b = ta | sub
            if table[b] & ~ta:
                bad.add("local-monotonicity")
            if table[b] != ta:
                bad.add("cumulativity")
            if sub == 0:
                break
            sub = (sub - 1) & free

    # Sweeps over B <= A: substitutes (pairwise and singleton-persistence
    # forms) and closure monotonicity.
    for a in range(size):
        ta = table[a]
        sub = a
        while True:
            b = sub
            if b & ta & ~table[b]:
                bad.add("substitutes")
            if clos[b] & ~clos[a]:
                bad.add("closure-monotone")
            for x in range(n):
                xbit = 1 << x
                if table[xbit | a] & xbit and not table[xbit | b] & xbit:
                    bad.add("substitutes-singleton-persistence")
            if sub == 0:
                break
            sub = (sub - 1) & a

    # Sweeps over arbitrary pairs: union bound, both path-independence
    # forms, closure items 6-8.
    for a in range(size):
        ta = table[a]
        ca = clos[a]
        for b in range(size):
            tu = table[a | b]
            if tu & ~(ta | table[b]):
                bad.add("union-bound")
            if tu != table[ta | b]:
                bad.add("path-independence")
            if tu != table[ta | table[b]]:
                bad.add("path-independence-product-form")
            if table[a | clos[b]] != tu:
                bad.add("closure-absorbs-in-unions")
            if clos[a & b] & ~(ca & clos[b]):
                bad.add("closure-of-intersection")
            if (tu == table[b]) != (a & ~clos[b] == 0):
                bad.add("closure-characterizes-order")

    return sorted(bad)


@lru_cache(maxsize=1)
def lemma_corpus() -> tuple[tuple[str, ChoiceFunction, int], ...]:
    functions: list[tuple[str, ChoiceFunction, int]] = []
    skipped_incoherent: list[str] = []
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        inst = load(path).instance
        if inst.n > 8:
            continue
        for side_no in (1, 2):
            label = f"{path.stem}/side{side_no}"
            f = inst.side(side_no)
            if not check_coherent(f).coherent:
                skipped_incoherent.append(label)
                continue
            functions.append((label, f, inst.n))
    # Exactly one shipped side is incoherent, by design.
    assert skipped_incoherent == ["no_stable_agreement/side1"]

    for family in ("additive", "unit_demand", "assignment"):
        for seed, n in ((0, 4), (1, 6), (2, 8)):
            values = random_valuation(seed, n, family)
            functions.append((f"{family}/n{n}", valuation_choice(values), n))
    functions.append(
        ("aggregate/n7", random_side(random.Random(9), 7, 1), 7)
    )
    functions.append(
        ("aggregate/n8", random_side(random.Random(11), 8, 2, min_agents=2), 8)
    )
    return tuple(functions)


def test_criterion_5_lemma_battery(acceptance):
    failures: list[str] = []
    for label, f, n in lemma_corpus():
        violated = _lemma_battery(f, n)
        if violated:
            failures.append(f"{label}: {violated}")
    count = len(lemma_corpus())
    ok = not failures and count >= 15
    acceptance(
        5,
        ok,
        f"lemma battery exhaustive on {count} coherent functions (n <= 8):"
        f" zero violations"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 6 — every recorded engine run reached its fixpoint in <= n+1.
# ---------------------------------------------------------------------------


def test_criterion_6_iteration_bound(acceptance):
    if not RUN_RECORDS:
        pytest.skip("criteria 2-4 did not run in this session")
    over = [(n, it) for n, it in RUN_RECORDS if it > n + 1]
    max_n, max_it = max(RUN_RECORDS, key=lambda rec: rec[1])
    ok = not over
    acceptance(
        6,
        ok,
        f"{len(RUN_RECORDS)} recorded runs all reached a fixpoint within"
        f" n+1 iterations; maximum observed {max_it} (on n={max_n})"
        + (f"; violations: {over[:3]}" if over else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 7 — 200 random multi-agent aggregates of coherent parts are
# coherent.
# ---------------------------------------------------------------------------


def test_criterion_7_aggregation_coherence(acceptance):
    failures: list[str] = []
    for seed in range(200):
        rng = random.Random(7000 + seed)
        n = rng.randint(2, 10)
        side = rng.choice((1, 2))
        f = random_side(rng, n, side, min_agents=2, max_agents=4)
        assert len(f.parts) >= 2
        report = check_coherent(f)
        if not report.coherent:
            failures.append(f"seed {seed}: n={n} aggregate failed coherence")
    ok = not failures
    acceptance(
        7,
        ok,
        "200/200 multi-agent aggregates from coherent parts pass the full"
        " coherence check (n <= 10)"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 8 — two-price law on 100 conforming economies, plus the
# constructive mid-priced blocker, < 120 s.
# ---------------------------------------------------------------------------


def _gapped_economy_with_leading_mid_contract() -> MoneyEconomy:
    """A conforming economy whose agreement {x, y} gaps the price grid.

    The mid-priced contract z between x's producer and y's consumer gets
    contract id 0, so the stability scan's minimal witness must be z.
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
    f1 = aggregate_side(
        {"p1": build_linear_producer(contracts, grid, {"t": 10})},
        [c.producer for c in contracts],
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
        [c.consumer for c in contracts],
    )
    inst = Instance(
        names=names,
        f1=f1,
        f2=f2,
        labels=tuple(ContractLabel(c.producer, c.consumer) for c in contracts),
    )
    return MoneyEconomy(inst, contracts, grid, ("t",))


def test_criterion_8_two_price_law(acceptance):
    start = time.perf_counter()
    failures: list[str] = []
    agreements_checked = 0
    for seed in range(100):
        econ = random_money_economy(seed)
        inst = econ.instance
        assert inst.n <= 14
        catalog = enumerate_stable_agreements(inst)
        if not check_no_shortage(econ, catalog.sets).ok:
            failures.append(f"seed {seed}: no-shortage premise failed")
        if not check_money_monotone(econ, max_n=inst.n).ok:
            failures.append(f"seed {seed}: money-monotone premise failed")
        for s in catalog.sets:
            agreements_checked += 1
            if not check_two_prices(econ, s).ok:
                failures.append(f"seed {seed}: gap in stable set {s:#x}")

    # Constructive half: on a hand-built configuration whose agreement
    # does gap the grid, the mid-priced contract itself blocks it.
    econ = _gapped_economy_with_leading_mid_contract()
    inst = econ.instance
    if not (check_no_shortage(econ).ok and check_money_monotone(econ).ok):
        failures.append("hand-built economy should satisfy both premises")
    a = inst.mask_of_names(["x_cheap", "y_pricey"])
    gap = check_two_prices(econ, a)
    if inst.f1.choose_mask(a) != a or inst.f2.choose_mask(a) != a:
        failures.append("hand-built set should be an agreement")
    if gap.ok or gap.violations[0].between_index != 1:
        failures.append("hand-built agreement should gap the grid at index 1")
    z = inst.names.index("z_mid")
    menu = a | (1 << z)
    if not (inst.f1.choose_mask(menu) >> z & 1 and inst.f2.choose_mask(menu) >> z & 1):
        failures.append("mid-priced contract should be kept by both sides")
    verdict = is_stable_set(inst, a)
    if verdict.stable or verdict.blocking_contract != z:
        failures.append("stability witness should be the mid-priced contract")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    acceptance(
        8,
        ok,
        f"100 conforming economies: {agreements_checked} stable agreements"
        f" all gap-free; mid-priced blocker reproduced as the stability"
        f" witness; {elapsed:.2f}s"
        + (f"; first failures: {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 9 — valuation-induced choice is coherent and maximizes the raw
# valuation, against exhaustive argmax.
# ---------------------------------------------------------------------------


def test_criterion_9_valuation_choice(acceptance):
    failures: list[str] = []
    count = 0
    for family in ("additive", "unit_demand", "assignment"):
        for n in (4, 6, 8):
            for seed in range(5):
                count += 1
                values = random_valuation(9000 + 31 * seed + n, n, family)
                f = valuation_choice(values)
                if not check_coherent(f).coherent:
                    failures.append(f"{family} n={n} seed={seed}: not coherent")
                    continue
                for menu in range(1 << n):
                    chosen = f.choose_mask(menu)
                    best = max(values[sub] for sub in iter_submasks(menu))
                    if chosen & ~menu or values[chosen] != best:
                        failures.append(
                            f"{family} n={n} seed={seed}: menu {menu:#x}"
                            f" chose value {values[chosen]}, max is {best}"
                        )
                        break
    ok = not failures and count == 45
    acceptance(
        9,
        ok,
        f"{count} generated valuations (3 families, n in {{4,6,8}}):"
        f" induced choice coherent and attains the exhaustive maximum on"
        f" every menu"
        + (f"; first failures: {failures[:3]}" if failures else ""),
    )
