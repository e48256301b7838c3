"""Exhaustive validation of the choice-function axioms.

A choice function is *coherent* when it satisfies all three of:

* **Contraction** -- ``f(A) <= A``: nothing is chosen that was not offered.
* **Rejection consistency** -- if ``x`` is offered but rejected, dropping
  ``x`` from the menu never removes anything else from the choice:
  ``x in A, x not in f(A)  =>  f(A - {x}) <= f(A)``.
* **Substitutes** -- a contract chosen from a menu is still chosen from any
  smaller menu containing it: ``x in B <= A, x in f(A)  =>  x in f(B)``.

Coherence is equivalent to Contraction plus *path independence*
(``f(A | B) = f(f(A) | B)``), and :func:`check_coherent` re-derives its
verdict through that second route as an internal cross-check.

All checkers tabulate the function once over every subset of its universe
(:func:`~contractmatch.choice.tabulate`) and scan that table, so they refuse
universes above the bounds in :mod:`contractmatch.limits`.  Witnesses are
contract ids of the function's own universe.  Path independence is checked
through one-element additions plus idempotence, ``(n + 1) * 2**n`` table
lookups; the ``4**n`` pairs ``(A, B)`` are listed only for a table that
fails that check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import limits
from .choice import ChoiceFunction, tabulate
from .sets import format_mask, ids_of, iter_submasks

AXIOM_CONTRACTION = "contraction"
AXIOM_IRC = "rejection-consistency"
AXIOM_SUBSTITUTES = "substitutes"
AXIOM_PATH = "path-independence"
_BOUND_HINT = " (raise via max_n or the CONTRACTMATCH_*_BOUND environment variables)"


@dataclass(frozen=True)
class ViolationReport:
    """One concrete counterexample to an axiom.

    ``set_a`` is always the larger menu involved; ``set_b`` (when the axiom
    compares two menus) the smaller or second one; ``contract`` the pivotal
    contract (when the axiom singles one out).  ``replay`` re-evaluates the
    counterexample through the function, so every report can be verified
    independently of the checker that produced it.
    """

    axiom: str
    set_a: int
    set_b: int | None = None
    contract: int | None = None

    def replay(self, f: ChoiceFunction) -> bool:
        """Re-run the counterexample; True means it still violates the axiom."""
        if self.axiom == AXIOM_CONTRACTION:
            return bool(f.choose_mask(self.set_a) & ~self.set_a)
        if self.axiom == AXIOM_IRC:
            x = self.contract
            assert x is not None and self.set_b == self.set_a & ~(1 << x)
            if not (self.set_a >> x & 1) or f.choose_mask(self.set_a) >> x & 1:
                return False
            return bool(f.choose_mask(self.set_b) & ~f.choose_mask(self.set_a))
        if self.axiom == AXIOM_SUBSTITUTES:
            x = self.contract
            assert x is not None and self.set_b is not None
            if self.set_b & ~self.set_a or not (self.set_b >> x & 1):
                return False
            return bool(f.choose_mask(self.set_a) >> x & 1) and not (
                f.choose_mask(self.set_b) >> x & 1
            )
        if self.axiom == AXIOM_PATH:
            assert self.set_b is not None
            union = self.set_a | self.set_b
            return f.choose_mask(union) != f.choose_mask(
                f.choose_mask(self.set_a) | self.set_b
            )
        raise ValueError(f"unknown axiom {self.axiom!r}")

    def describe(self, names: Sequence[str] | None = None) -> str:
        fa = lambda m: format_mask(m, names)  # noqa: E731
        cn = (
            None
            if self.contract is None
            else (names[self.contract] if names else str(self.contract))
        )
        if self.axiom == AXIOM_CONTRACTION:
            return f"{self.axiom}: choice from {fa(self.set_a)} leaves the menu"
        if self.axiom == AXIOM_IRC:
            return (
                f"{self.axiom}: dropping rejected {cn} from {fa(self.set_a)}"
                f" changes the choice beyond {cn}"
            )
        if self.axiom == AXIOM_SUBSTITUTES:
            return (
                f"{self.axiom}: {cn} chosen from {fa(self.set_a)}"
                f" but not from {fa(self.set_b or 0)}"
            )
        return (
            f"{self.axiom}: f({fa(self.set_a)} | {fa(self.set_b or 0)})"
            f" != f(f({fa(self.set_a)}) | {fa(self.set_b or 0)})"
        )


@dataclass(frozen=True)
class CoherenceReport:
    """Bundled verdict of all axiom checks for one function."""

    contraction: tuple[ViolationReport, ...]
    irc: tuple[ViolationReport, ...]
    substitutes: tuple[ViolationReport, ...]
    path_independence: tuple[ViolationReport, ...]

    @property
    def coherent(self) -> bool:
        return not (self.contraction or self.irc or self.substitutes)

    @property
    def cross_check_ok(self) -> bool:
        """Contraction + path independence must be equivalent to coherence.

        A False value here cannot be blamed on the input: it means one of
        the checkers is buggy.
        """
        via_path = not self.contraction and not self.path_independence
        return via_path == self.coherent

    def all_violations(self) -> tuple[ViolationReport, ...]:
        return self.contraction + self.irc + self.substitutes + self.path_independence

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.coherent:
            return "coherent"
        lines = [v.describe(names) for v in self.all_violations()]
        return "NOT coherent:\n  " + "\n  ".join(lines)


def _bound_check(f: ChoiceFunction, max_n: int | None, default: Callable[[], int], what: str) -> None:
    refusal = f"{what} scan refused: domain has {f.n} contracts"
    limits.refuse_above(f.n, default, max_n, refusal, _BOUND_HINT)


# ---------------------------------------------------------------------------
# Individual axiom checks
# ---------------------------------------------------------------------------


def _contraction_violations(table: Sequence[int]) -> list[ViolationReport]:
    return [
        ViolationReport(AXIOM_CONTRACTION, m)
        for m, chosen in enumerate(table)
        if chosen & ~m
    ]


def _irc_violations(table: Sequence[int]) -> list[ViolationReport]:
    out = []
    for m, chosen in enumerate(table):
        for x in ids_of(m & ~chosen):
            if table[m ^ 1 << x] & ~chosen:
                out.append(ViolationReport(AXIOM_IRC, m, m ^ 1 << x, x))
    return out


def _substitutes_violations(table: Sequence[int]) -> list[ViolationReport]:
    # Pairwise scan over (menu, submenu): 3**n pairs total.  For each
    # violating pair the lowest-id dropped contract is reported.
    out = []
    for m, chosen in enumerate(table):
        if not chosen:
            continue
        for sub in iter_submasks(m):
            bad = sub & chosen & ~table[sub]
            if bad:
                out.append(
                    ViolationReport(AXIOM_SUBSTITUTES, m, sub, (bad & -bad).bit_length() - 1)
                )
    return out


def _path_violations(table: Sequence[int]) -> list[ViolationReport]:
    # f(A | B) == f(f(A) | B) for all A, B holds exactly when f(f(A)) == f(A)
    # and f(A | {x}) == f(f(A) | {x}) for every A and x (induction on |B|):
    # (n + 1) * 2**n lookups.  Only a failing table has its 4**n pairs
    # listed, b in the outer loop and a ascending.
    singles = [1 << i for i in range(len(table).bit_length() - 1)]
    if all(table[c] == c for c in table) and all(
        table[a | x] == table[c | x] for x in singles for a, c in enumerate(table)
    ):
        return []
    return [
        ViolationReport(AXIOM_PATH, a, b)
        for b in range(len(table))
        for a, c in enumerate(table)
        if table[a | b] != table[c | b]
    ]


def check_contraction(f: ChoiceFunction, max_n: int | None = None) -> list[ViolationReport]:
    """All Contraction counterexamples of ``f`` (empty list = axiom holds)."""
    _bound_check(f, max_n, limits.exhaustive_bound, "contraction")
    return _contraction_violations(tabulate(f).entries)


def check_irc(f: ChoiceFunction, max_n: int | None = None) -> list[ViolationReport]:
    """All rejection-consistency counterexamples of ``f``."""
    _bound_check(f, max_n, limits.exhaustive_bound, "rejection-consistency")
    return _irc_violations(tabulate(f).entries)


def check_substitutes(f: ChoiceFunction, max_n: int | None = None) -> list[ViolationReport]:
    """All Substitutes counterexamples of ``f`` (one per violating menu pair)."""
    _bound_check(f, max_n, limits.pairwise_bound, "substitutes")
    return _substitutes_violations(tabulate(f).entries)


def check_path_independence(f: ChoiceFunction, max_n: int | None = None) -> list[ViolationReport]:
    """All path-independence counterexamples ``f(A|B) != f(f(A)|B)``."""
    _bound_check(f, max_n, limits.pairwise_bound, "path-independence")
    return _path_violations(tabulate(f).entries)


def check_coherent(f: ChoiceFunction, max_n: int | None = None) -> CoherenceReport:
    """Run all axiom checks on one tabulation of ``f`` and bundle the verdicts.

    The report's ``cross_check_ok`` flag confirms that the axiom-by-axiom
    verdict agrees with the independent contraction-plus-path-independence
    characterization; a False flag indicates a checker bug, never bad input.
    """
    _bound_check(f, max_n, limits.exhaustive_bound, "coherence")
    _bound_check(f, max_n, limits.pairwise_bound, "coherence")
    table = tabulate(f).entries
    return CoherenceReport(
        contraction=tuple(_contraction_violations(table)),
        irc=tuple(_irc_violations(table)),
        substitutes=tuple(_substitutes_violations(table)),
        path_independence=tuple(_path_violations(table)),
    )
