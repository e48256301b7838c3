"""Axiom checkers: exact witnesses, axiom isolation, equivalences, bounds."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractmatch import limits
from contractmatch.choice import Identity, TableChoice, TopOfOrder, tabulate, valuation_choice
from contractmatch.coherence import (
    AXIOM_PATH,
    AXIOM_SUBSTITUTES,
    check_coherent,
    check_contraction,
    check_irc,
    check_path_independence,
    check_substitutes,
)
from contractmatch.corpus import no_stable_agreement_instance
from contractmatch.engine import MODE_FULL, is_stable_set
from contractmatch.errors import SizeBoundError, SpecError
from contractmatch.generators import random_instance, random_money_economy, random_valuation
from contractmatch.market import check_money_monotone
from contractmatch.oracle import enumerate_stable_agreements
from contractmatch.sets import iter_submasks

from conftest import all_masks, random_contraction_table, random_coherent_function


# ---------------------------------------------------------------------------
# The canonical two-contract instance: f1 fails substitutes at (b, {b}, {a,b})
# ---------------------------------------------------------------------------


def test_canonical_f1_substitutes_witness():
    f1 = no_stable_agreement_instance().f1
    violations = check_substitutes(f1)
    assert len(violations) == 1
    (v,) = violations
    assert v.axiom == AXIOM_SUBSTITUTES
    assert v.contract == 1  # contract 'b'
    assert v.set_b == 0b10  # the smaller menu {b}
    assert v.set_a == 0b11  # the larger menu {a, b}
    assert v.replay(f1)
    assert "b" in v.describe(("a", "b"))


def test_canonical_f1_other_axioms():
    f1 = no_stable_agreement_instance().f1
    assert check_contraction(f1) == []
    assert check_irc(f1) == []
    report = check_coherent(f1)
    assert not report.coherent
    assert report.cross_check_ok
    assert len(report.path_independence) > 0
    assert report.describe(("a", "b")).splitlines() == [
        "NOT coherent:",
        "  substitutes: b chosen from {a, b} but not from {b}",
        "  path-independence: f({b} | {a}) != f(f({b}) | {a})",
    ]


def test_canonical_f2_coherent():
    f2 = no_stable_agreement_instance().f2
    report = check_coherent(f2)
    assert report.coherent
    assert report.cross_check_ok
    assert report.all_violations() == ()
    assert report.describe(("a", "b")) == "coherent"


def test_witness_does_not_replay_on_other_function():
    inst = no_stable_agreement_instance()
    (v,) = check_substitutes(inst.f1)
    assert not v.replay(inst.f2)
    # A pair of menus that is not a counterexample's shape never replays.
    assert not dataclasses.replace(v, set_a=0b01).replay(inst.f1)  # {b} not within {a}
    assert not dataclasses.replace(v, set_b=0b01).replay(inst.f1)  # b not in {a}
    with pytest.raises(ValueError, match="unknown axiom 'mystery'"):
        dataclasses.replace(v, axiom="mystery").replay(inst.f1)


# ---------------------------------------------------------------------------
# Axiom isolation on hand-built tables
# ---------------------------------------------------------------------------


def test_contraction_violation_detected():
    f = TableChoice(1, (0b1, 0b1))  # chooses a from the empty menu
    violations = check_contraction(f)
    assert [v.set_a for v in violations] == [0]
    assert violations[0].replay(f)
    report = check_coherent(f)
    assert not report.coherent and report.cross_check_ok


def test_irc_only_violation():
    # f({a,b}) = {}, f({a}) = {a}: dropping rejected b resurrects a.
    f = TableChoice(2, (0b00, 0b01, 0b00, 0b00))
    assert check_contraction(f) == []
    irc = check_irc(f)
    assert any(v.set_a == 0b11 and v.set_b == 0b01 and v.contract == 1 for v in irc)
    for v in irc:
        assert v.replay(f)
        assert not v.replay(Identity(2))  # Identity chooses the dropped contract
    assert check_substitutes(f) == []  # nothing chosen from {a,b}: vacuous
    report = check_coherent(f)
    assert not report.coherent and report.cross_check_ok


def test_path_independence_flags_incoherent_table():
    f = no_stable_agreement_instance().f1
    path = check_path_independence(f)
    assert path
    for v in path:
        assert v.axiom == AXIOM_PATH
        assert v.replay(f)


def test_coherent_variants_pass_all_checks():
    cases = [
        Identity(4),
        TopOfOrder(4, (2, 0, 3, 1)),
        valuation_choice([0, 1, 1, 1]),
        random_coherent_function(5, 5),
    ]
    for f in cases:
        report = check_coherent(f)
        assert report.coherent, report.describe()
        assert report.cross_check_ok


class _Leaky(TopOfOrder):
    """Chooses a contract outside its universe (a contract bug)."""

    def _choose(self, subset: int) -> int:
        return 1 << 3


def test_choice_outside_universe_is_reported():
    f = _Leaky(3, (2, 0, 1))
    with pytest.raises(SpecError, match="outside the universe"):
        check_coherent(f)


# ---------------------------------------------------------------------------
# Equivalent formulations (exhaustive on random tables)
# ---------------------------------------------------------------------------


def _irc_direct(table: list[int], n: int) -> bool:
    for m in all_masks(n):
        rejected = m & ~table[m]
        for x in range(n):
            if rejected >> x & 1 and table[m ^ (1 << x)] & ~table[m]:
                return False
    return True


def _local_monotonicity(table: list[int], n: int) -> bool:
    # f(A) <= B <= A implies f(B) <= f(A)
    for m in all_masks(n):
        chosen = table[m]
        if chosen & ~m:
            continue
        between = m & ~chosen
        for extra in iter_submasks(between):
            b = chosen | extra
            if table[b] & ~chosen:
                return False
    return True


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_irc_equals_local_monotonicity_under_contraction(n, seed):
    rng = random.Random(seed)
    table = list(random_contraction_table(rng, n))
    f = TableChoice(n, tuple(table))
    checker_says = check_irc(f) == []
    assert checker_says == _irc_direct(table, n)
    assert checker_says == _local_monotonicity(table, n)


def _substitutes_membership(table: list[int], n: int) -> bool:
    # x in f({x} | A) and B <= A imply x in f({x} | B)
    for a in all_masks(n):
        for b in iter_submasks(a):
            for x in range(n):
                xb = 1 << x
                if table[a | xb] & xb and not table[b | xb] & xb:
                    return False
    return True


def _substitutes_intersection(table: list[int], n: int) -> bool:
    # B & f(A) <= f(B) whenever B <= A
    for a in all_masks(n):
        for b in iter_submasks(a):
            if b & table[a] & ~table[b]:
                return False
    return True


def _substitutes_rejection(table: list[int], n: int) -> bool:
    # x in B <= A and x not in f(B) imply x not in f(A)
    for a in all_masks(n):
        for b in iter_submasks(a):
            if b & ~table[b] & table[a]:
                return False
    return True


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_substitutes_formulations_agree(n, seed):
    rng = random.Random(seed)
    table = list(random_contraction_table(rng, n))
    f = TableChoice(n, tuple(table))
    checker_says = check_substitutes(f) == []
    assert checker_says == _substitutes_intersection(table, n)
    assert checker_says == _substitutes_rejection(table, n)
    # The singleton-persistence form is equivalent given contraction + IRC.
    if check_irc(f) == []:
        assert checker_says == _substitutes_membership(table, n)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
def test_coherence_equals_contraction_plus_path_independence(n, seed):
    rng = random.Random(seed)
    f = TableChoice(n, random_contraction_table(rng, n))
    report = check_coherent(f)
    assert report.cross_check_ok
    via_path = not report.contraction and not report.path_independence
    assert via_path == report.coherent


def _path_pairs_brute(table: list[int]) -> list[tuple[int, int]]:
    """Every pair (A, B) with f(A | B) != f(f(A) | B): b outer, a ascending."""
    size = len(table)
    return [
        (a, b)
        for b in range(size)
        for a in range(size)
        if table[a | b] != table[table[a] | b]
    ]


def _perturbed_coherent_table(rng: random.Random, n: int) -> list[int]:
    table = list(tabulate(random_coherent_function(rng.randrange(10**6), n)).entries)
    for _ in range(rng.randint(1, 2)):
        m, pick = rng.randrange(len(table)), rng.randrange(len(table))
        table[m] = pick & m if rng.random() < 0.7 else pick
    return table


def test_path_independence_equals_the_pairwise_enumeration():
    """The check through idempotence and one-element additions lists exactly
    the pairs of a full 4**n enumeration, in its order.  Arbitrary tables are
    needed: under Contraction the one-element half alone implies
    idempotence, and the table f(∅) = {a}, f({a}) = ∅ breaks only the
    latter."""
    rng = random.Random(17)
    tables = [[0b1, 0b0]]
    for i in range(900):
        n = i % 6
        kind = i // 6 % 3
        if kind == 0:
            tables.append([rng.randrange(1 << n) for _ in range(1 << n)])
        elif kind == 1:
            tables.append(list(random_contraction_table(rng, n)))
        else:
            tables.append(_perturbed_coherent_table(rng, max(n, 1)))
    failing = 0
    for table in tables:
        f = TableChoice(len(table).bit_length() - 1, tuple(table))
        expected = _path_pairs_brute(table)
        got = [(v.set_a, v.set_b) for v in check_path_independence(f)]
        assert got == expected, table
        failing += bool(expected)
    assert 0 < failing < len(tables)


def test_second_coherence_route_product_form():
    # With contraction, coherence also equals f(A|B) == f(f(A)|f(B)).
    for seed in range(40):
        rng = random.Random(seed)
        n = 3
        table = random_contraction_table(rng, n)
        f = TableChoice(n, table)
        product_form = all(
            table[a | b] == table[table[a] | table[b]]
            for a in all_masks(n)
            for b in all_masks(n)
        )
        assert product_form == check_coherent(f).coherent


# ---------------------------------------------------------------------------
# Size bounds
# ---------------------------------------------------------------------------


def test_exhaustive_bound_refusal():
    with pytest.raises(SizeBoundError, match="bound is 12"):
        check_contraction(Identity(13))


def test_pairwise_bound_refusal():
    with pytest.raises(SizeBoundError, match="bound is 10"):
        check_substitutes(Identity(11))
    with pytest.raises(SizeBoundError, match="bound is 10"):
        check_path_independence(Identity(11))
    # ... while the cheaper exhaustive scans still run at that size.
    assert check_contraction(Identity(11)) == []


def test_bound_override_via_argument():
    assert check_contraction(Identity(13), max_n=13) == []
    with pytest.raises(SizeBoundError):
        check_contraction(Identity(5), max_n=4)


def test_bound_override_via_environment(monkeypatch):
    monkeypatch.setenv("CONTRACTMATCH_EXHAUSTIVE_BOUND", "13")
    assert check_contraction(Identity(13)) == []
    for bad in ("bogus", "-5"):
        monkeypatch.setenv("CONTRACTMATCH_EXHAUSTIVE_BOUND", bad)
        with pytest.raises(SpecError, match=f"CONTRACTMATCH_EXHAUSTIVE_BOUND .*'{bad}'"):
            check_contraction(Identity(2))


_HINT = " (raise via max_n or the CONTRACTMATCH_*_BOUND environment variables)"


def _size_refusals() -> dict:
    """Each exhaustive scan refused at its bound: ``(variable, bound, call,
    message)``, where ``call(max_n)`` runs the scan."""
    inst, economy = random_instance(1, 6), random_money_economy(0)
    valuation = random_valuation(1, 3, "unit_demand")
    f = inst.f1
    domain = "scan refused: domain has 6 contracts, bound is 5" + _HINT
    return {
        "coherence": ("EXHAUSTIVE", 5, lambda m: check_coherent(f, m), f"coherence {domain}"),
        "coherence_pairwise": (
            "PAIRWISE", 5, lambda m: check_coherent(f, m), f"coherence {domain}"
        ),
        "contraction": (
            "EXHAUSTIVE", 5, lambda m: check_contraction(f, m), f"contraction {domain}"
        ),
        "irc": ("EXHAUSTIVE", 5, lambda m: check_irc(f, m), f"rejection-consistency {domain}"),
        "substitutes": (
            "PAIRWISE", 5, lambda m: check_substitutes(f, m), f"substitutes {domain}"
        ),
        "path_independence": (
            "PAIRWISE", 5, lambda m: check_path_independence(f, m), f"path-independence {domain}"
        ),
        "full_stability": (
            "EXHAUSTIVE", 5, lambda m: is_stable_set(inst, 0, MODE_FULL, m),
            "full-mode stability scan refused: 6 outside contracts, bound is 5",
        ),
        "oracle": (
            "ORACLE", 5, lambda m: enumerate_stable_agreements(inst, m),
            "stable-agreement enumeration refused: 6 contracts, bound is 5",
        ),
        "money_monotone": (
            "EXHAUSTIVE", 1, lambda m: check_money_monotone(economy, m),
            "money-monotonicity scan refused: agent 'p1' owns 12 contracts, bound is 1",
        ),
        "valuation_argmax": (  # takes no max_n
            "PAIRWISE", 2, lambda m: valuation_choice(valuation),
            "valuation argmax refused: building its table takes 3^3 steps for 3 contracts,"
            " bound is 2",
        ),
    }


@pytest.mark.parametrize("case", sorted(_size_refusals()))
def test_every_size_refusal_is_pinned(case, monkeypatch):
    """Each scan's refusal, word for word, through ``max_n`` and through its
    bound variable; an invalid variable raises :class:`SpecError` instead."""
    variable, bound, call, message = _size_refusals()[case]
    if case != "valuation_argmax":
        with pytest.raises(SizeBoundError) as caught:
            call(bound)
        assert str(caught.value) == message
    monkeypatch.setenv(f"CONTRACTMATCH_{variable}_BOUND", str(bound))
    with pytest.raises(SizeBoundError) as caught:
        call(None)
    assert str(caught.value) == message
    monkeypatch.setenv(f"CONTRACTMATCH_{variable}_BOUND", "bogus")
    with pytest.raises(SpecError, match=f"CONTRACTMATCH_{variable}_BOUND"):
        call(None)


def test_a_bound_too_long_to_convert_is_a_spec_error(monkeypatch):
    """Each bound variable refuses a decimal value of more digits than
    ``int()`` converts with a :class:`SpecError` that names only its start;
    4300 digits are still read as a bound."""
    for name, read in (
        ("EXHAUSTIVE", limits.exhaustive_bound),
        ("PAIRWISE", limits.pairwise_bound),
        ("ORACLE", limits.oracle_bound),
    ):
        monkeypatch.setenv(f"CONTRACTMATCH_{name}_BOUND", "9" * 4300)
        assert read() == 10**4300 - 1
        monkeypatch.setenv(f"CONTRACTMATCH_{name}_BOUND", "9" * 4301)
        with pytest.raises(SpecError) as caught:
            read()
        assert str(caught.value) == (
            f"CONTRACTMATCH_{name}_BOUND must be a non-negative integer,"
            f" got '{'9' * 20}... (4301 characters)'"
        )
