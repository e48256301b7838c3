"""Two-sided agreement problems and the deferred-acceptance engine.

An :class:`Instance` pairs one choice function per side over a shared
contract universe.  An *agreement* is a set both sides would keep exactly
(``f1(A) == A == f2(A)``); it is *stable* when no outside contract (or, in
full mode, no outside set) would be accepted by both sides on top of it.

:func:`run` executes the offer/reject iteration: the proposing side offers
its choice from the current pool, the other side keeps what it likes, and
everything offered but not kept leaves the pool.  When the receiving side
satisfies Contraction (it keeps only offered contracts), the pool only
shrinks, so a fixpoint is reached after at most ``n + 1`` rounds.  Without
Contraction the pools can cycle; the run then stops at the first repeated
pool and reports that it did not converge.  Either way the proposer's choice
from the final pool is the candidate agreement.  On coherent instances it is
the proposer-optimal stable agreement; the run itself never assumes
coherence (useful precisely for demonstrating how the iteration fails on
incoherent inputs) and reports the instance's recorded coherence status
alongside its claims.

Later rounds call ``rechoose`` and the singleton verdict calls
``kept_additions`` once per side (see :mod:`contractmatch.choice`), so an
aggregate side re-evaluates only the agents whose menus changed, or, for
each outside contract, only its owner; two sides of Gale-Shapley agents
read the verdict from their rank tables instead (below).  The agreement
verdict takes the receiving side's choice from the last round, which
evaluated it on the final offer already, and asks the proposer through
``rechoose`` from the last pool, whose choice that offer is: ranking and
filter proposers, which only lost contracts they rejected, are not
evaluated again.

When both sides are aggregates of Gale-Shapley agents only (every agent's
evaluator is a ranking of one order with quota 1, as in every marriage
market), each side has a ``_rank`` table, and the whole run, round 0
included, goes to
:meth:`~contractmatch.aggregation.AggregateChoice.cursor_rounds` instead,
which returns each round's new offers and rejections and the receivers'
held contracts as ids, then the final pool (its docstring has the
mechanism).  The generic rounds record the same two sets of each round as
masks, and :class:`Trace` keeps either record, rebuilding the per-round
pools, offers and accepted sets only when they are read.
The singleton verdict of two such sides, for a run's outcome (read from
the held ids) or for any subset given to :func:`is_stable_set` (read
through :func:`~contractmatch.sets.ids_of`), is
:meth:`~contractmatch.aggregation.AggregateChoice.rank_blocker`: an outside
contract blocks exactly when it ranks above the best contract each of its
two owners holds; one side's entries so ranked are walked through its
successor chains (``_firsts``, ``_next``).  Neither path reads an agent's
evaluator.  Both choices are made from the sides themselves (both have
``_rank``), not by an option, and give the same trace and verdicts as the
generic rounds and ``kept_additions``, which stay their test reference.

Stable agreements of a coherent instance form a lattice under the revealed
preference of either side: :func:`meet` and :func:`join` compute greatest
lower / least upper bounds by re-running the iteration from a pool built
out of revealed-preference closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import limits
from .choice import ChoiceFunction
from .errors import DomainError, PreconditionError, SpecError
from .preference import COHERENCE_UNKNOWN, closure
from .sets import format_mask, full_mask, iter_submasks, mask_of, subset_names

MODE_SINGLETON = "singleton"
MODE_FULL = "full"


@dataclass(frozen=True, slots=True)
class ContractLabel:
    """Names of the two agents a contract is between (side 1, side 2)."""

    side1: str
    side2: str


def _owners(f1: ChoiceFunction, f2: ChoiceFunction) -> tuple[tuple[str, ...], ...] | None:
    """Each contract's owner on each side, when both sides are aggregates."""
    from .aggregation import AggregateChoice  # aggregation imports this module

    if isinstance(f1, AggregateChoice) and isinstance(f2, AggregateChoice):
        return f1.owners(), f2.owners()
    return None


class _Labels:
    """The ``labels`` field of :class:`Instance`, stored as ``_labels``.

    Labels given to the constructor are stored and read back as they are.
    Without them, reading the field builds the labels from the owners of
    two aggregate sides (``None`` otherwise), so an instance records each
    contract's two parties once, in its sides' partitions.
    """

    def __get__(self, instance: Instance | None, owner: type) -> tuple[ContractLabel, ...] | None:
        if instance is None:
            return None  # the field's default
        labels = instance.__dict__["_labels"]
        if labels is None:
            owners = _owners(instance.f1, instance.f2)
            if owners is not None:
                labels = tuple(map(ContractLabel, *owners))
        return labels

    def __set__(self, instance: Instance, labels: tuple[ContractLabel, ...] | None) -> None:
        instance.__dict__["_labels"] = labels


@dataclass(frozen=True)
class Instance:
    """A two-sided agreement problem over a shared contract universe.

    ``labels`` names each contract's (side-1, side-2) agents.  When both
    sides are :class:`~contractmatch.aggregation.AggregateChoice`, labels
    left out are read from the sides' owners, and labels given must agree
    with them.  Given or read, they compare, hash, print and pickle alike.
    """

    names: tuple[str, ...]
    f1: ChoiceFunction
    f2: ChoiceFunction
    labels: _Labels = _Labels()
    coherence: str = COHERENCE_UNKNOWN

    def __post_init__(self) -> None:
        n = len(self.names)
        if len(set(self.names)) != n or not all(self.names):
            raise SpecError("contract names must be unique and non-empty")
        for side, f in ((1, self.f1), (2, self.f2)):
            if f.n != n:
                raise SpecError(
                    f"side-{side} function covers {f.n} contracts, universe has {n}"
                )
        labels = self.__dict__["_labels"]
        if labels is None:
            return
        if len(labels) != n:
            raise SpecError("labels must cover every contract exactly once")
        owners = _owners(self.f1, self.f2)
        if owners is not None:
            for name, label, side1, side2 in zip(self.names, labels, *owners):
                if (label.side1, label.side2) != (side1, side2):
                    raise SpecError(
                        f"contract {name!r}: label ({label.side1}, {label.side2})"
                        f" disagrees with its owners ({side1}, {side2})"
                    )

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def universe(self) -> int:
        return full_mask(self.n)

    def side(self, which: int) -> ChoiceFunction:
        if which == 1:
            return self.f1
        if which == 2:
            return self.f2
        raise ValueError(f"side must be 1 or 2, got {which}")

    def mask_of_names(self, chosen: Sequence[str]) -> int:
        index = {name: i for i, name in enumerate(self.names)}
        try:
            return mask_of(index[name] for name in chosen)
        except KeyError as e:
            raise SpecError(f"unknown contract name {e.args[0]!r}") from None

    def names_of(self, mask: int) -> list[str]:
        return subset_names(mask, self.names)


def auto_names(n: int) -> tuple[str, ...]:
    """Default contract names x0, x1, ... for programmatically built instances."""
    return tuple(f"x{i}" for i in range(n))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementVerdict:
    """Whether both sides keep a subset exactly, with each side's choice."""

    subject: int
    side1_choice: int
    side2_choice: int

    @property
    def holds(self) -> bool:
        return self.side1_choice == self.subject == self.side2_choice

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.holds:
            return f"{format_mask(self.subject, names)} is an agreement"
        parts = []
        for side, choice in ((1, self.side1_choice), (2, self.side2_choice)):
            if choice != self.subject:
                parts.append(f"side {side} keeps {format_mask(choice, names)}")
        return f"{format_mask(self.subject, names)} is not an agreement: " + ", ".join(parts)


@dataclass(frozen=True)
class StabilityVerdict:
    """Whether a subset resists outside additions, with a minimal witness."""

    subject: int
    mode: str
    blocking_set: int | None

    @property
    def stable(self) -> bool:
        return self.blocking_set is None

    @property
    def blocking_contract(self) -> int | None:
        """The blocking contract id when the witness is a singleton."""
        if self.blocking_set is None or self.blocking_set.bit_count() != 1:
            return None
        return self.blocking_set.bit_length() - 1

    def describe(self, names: Sequence[str] | None = None) -> str:
        if self.stable:
            return f"{format_mask(self.subject, names)} is stable ({self.mode} mode)"
        return (
            f"{format_mask(self.subject, names)} is blocked by"
            f" {format_mask(self.blocking_set or 0, names)} ({self.mode} mode)"
        )


class Trace:
    """Per-round record of one engine run.

    Round ``j`` starts from pool ``pools[j]``; the proposer offers
    ``offers[j]``; the other side keeps ``accepted[j]``; the next pool is
    ``(pools[j] & ~offers[j]) | accepted[j]``.  One more round from the
    last pool leads back to a recorded pool: to the last pool itself at a
    fixpoint (``converged``), or to an earlier one when the run cycles.

    ``Trace(pool, sent, rejected, final_pool, converged)`` keeps what each
    round changed rather than its three sets: the first pool, and for each
    round ``j`` the offers ``sent[j]`` that differ from what was kept the
    round before (``offers[j] == accepted[j-1] ^ sent[j]``, nothing kept
    before round 0) and the offers ``rejected[j]`` not kept
    (``accepted[j] == offers[j] ^ rejected[j]``).  On coherent sides these
    are the new offers and the rejections; the symmetric difference also
    records an offer withdrawn without being rejected and a contract kept
    without being offered.  Each element is a mask, as the generic rounds
    compute it, or a list of ids, as the cursor rounds do: converting one
    to the other was measured to slow a run by 13-60%, so neither is
    converted.  ``iterations``, ``final_pool``, ``cycle`` (empty when
    ``converged``) and ``converged`` read the record as it is; ``pools``,
    ``offers`` and ``accepted`` are rebuilt on their first read and kept.
    Traces compare, hash and print as those rebuilt sets, so traces of the
    same rounds are equal however they were recorded.
    """

    __slots__ = ("_pool", "_sent", "_rejected", "final_pool", "converged", "_rounds")

    def __init__(
        self, pool: int, sent: list, rejected: list, final_pool: int, converged: bool
    ) -> None:
        self._pool, self._sent, self._rejected = pool, sent, rejected
        self.final_pool, self.converged = final_pool, converged
        self._rounds = None

    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        if self._rounds is None:
            pool, keep = self._pool, 0
            pools, offers, accepted = [], [], []
            for new, lost in zip(self._sent, self._rejected):
                offer = keep ^ (new if type(new) is int else mask_of(new))
                keep = offer ^ (lost if type(lost) is int else mask_of(lost))
                pools.append(pool)
                offers.append(offer)
                accepted.append(keep)
                pool = (pool & ~offer) | keep
            self._rounds = (tuple(pools), tuple(offers), tuple(accepted))
        return self._rounds

    @property
    def pools(self) -> tuple[int, ...]:
        return self._masks()[0]

    @property
    def offers(self) -> tuple[int, ...]:
        return self._masks()[1]

    @property
    def accepted(self) -> tuple[int, ...]:
        return self._masks()[2]

    @property
    def iterations(self) -> int:
        return len(self._sent)

    @property
    def cycle(self) -> tuple[int, ...]:
        """The pools the run kept revisiting, in order; empty at a fixpoint."""
        if self.converged:
            return ()
        pools, offers, accepted = self._masks()
        return pools[pools.index((pools[-1] & ~offers[-1]) | accepted[-1]):]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._masks() == other._masks()

    def __hash__(self) -> int:
        return hash(self._masks())

    def __repr__(self) -> str:
        pools, offers, accepted = self._masks()
        return f"Trace(pools={pools!r}, offers={offers!r}, accepted={accepted!r})"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one engine run: candidate set, trace, and verdicts."""

    chosen: int
    proposer: int
    trace: Trace
    agreement: AgreementVerdict
    stability: StabilityVerdict
    coherence: str

    @property
    def converged(self) -> bool:
        """Did the run reach a fixpoint pool (rather than stop on a cycle)?"""
        return self.trace.converged

    @property
    def stable_agreement(self) -> bool:
        return self.agreement.holds and self.stability.stable


# ---------------------------------------------------------------------------
# The iteration
# ---------------------------------------------------------------------------


def run(instance: Instance, proposer: int = 1, pool: int | None = None) -> SolveResult:
    """Run deferred acceptance from ``pool`` (default: the full universe).

    Each round the proposing side offers its choice from the pool, the
    other side accepts its choice among the offers, and rejected offers
    leave the pool.  Stops at the first repeated pool (a fixpoint, or a
    cycle: see :attr:`SolveResult.converged`) and returns the proposer's
    choice from the last pool, with agreement/stability verdicts evaluated
    against the full universe.
    """
    propose = instance.side(proposer)
    other = instance.side(3 - proposer)
    z = instance.universe if pool is None else pool
    if z >> instance.n:
        raise DomainError(f"pool {z:#x} exceeds the {instance.n}-contract universe")

    ids = None  # the outcome's ids, when the rounds give them
    if hasattr(propose, "_rank") and hasattr(other, "_rank"):
        sent, rejected, ids, final = propose.cursor_rounds(other, z)
        chosen = 0
        for c in ids:
            chosen |= 1 << c
        keep = chosen  # the last round rejected nothing
        trace = Trace(z, sent, rejected, final, True)
        z = final
    else:
        first, held = z, 0
        offer = propose.choose_mask(z)
        keep = other.choose_mask(offer)
        pools, sent, rejected = set(), [], []  # a repeated pool ends the run
        while True:
            pools.add(z)
            sent.append(offer ^ held)
            rejected.append(offer ^ keep)
            next_z = (z & ~offer) | keep
            if next_z in pools:
                break
            next_offer = propose.rechoose(next_z, z, offer)
            held, keep = keep, other.rechoose(next_offer, offer, keep)
            z, offer = next_z, next_offer
        trace = Trace(first, sent, rejected, z, next_z == z)
        chosen = offer

    # The last round already evaluated the receiving side on ``chosen``, and
    # ``chosen`` is the proposer's choice from ``z``: an aggregate proposer
    # re-evaluates only the agents that ``rechoose`` cannot skip.
    proposed = propose.rechoose(chosen, z, chosen)
    choices = (proposed, keep) if proposer == 1 else (keep, proposed)
    return SolveResult(
        chosen=chosen,
        proposer=proposer,
        trace=trace,
        agreement=AgreementVerdict(chosen, *choices),
        stability=_singleton_stability(instance, chosen, ids),
        coherence=instance.coherence,
    )


# ---------------------------------------------------------------------------
# Agreement and stability predicates
# ---------------------------------------------------------------------------


def is_agreement(instance: Instance, subset: int) -> AgreementVerdict:
    """Does each side keep ``subset`` exactly?"""
    return AgreementVerdict(
        subject=subset,
        side1_choice=instance.f1.choose_mask(subset),
        side2_choice=instance.f2.choose_mask(subset),
    )


def _singleton_stability(
    instance: Instance, subset: int, ids: Sequence[int] | None = None
) -> StabilityVerdict:
    f1, f2 = instance.f1, instance.f2
    if hasattr(f1, "_rank") and hasattr(f2, "_rank"):
        return StabilityVerdict(subset, MODE_SINGLETON, f1.rank_blocker(f2, subset, ids) or None)
    # Side 2 is asked only about the outside contracts side 1 keeps.
    both = f2.kept_additions(subset, f1.kept_additions(subset, instance.universe & ~subset))
    return StabilityVerdict(subset, MODE_SINGLETON, both & -both or None)


def _full_stability(instance: Instance, subset: int, max_n: int | None) -> StabilityVerdict:
    outside = instance.universe & ~subset
    refusal = f"full-mode stability scan refused: {outside.bit_count()} outside contracts"
    limits.refuse_above(outside.bit_count(), limits.exhaustive_bound, max_n, refusal)
    for block in iter_submasks(outside):
        if block == 0:
            continue
        menu = subset | block
        jointly_kept = instance.f1.choose_mask(menu) & instance.f2.choose_mask(menu)
        if block & ~jointly_kept == 0:
            return StabilityVerdict(subset, MODE_FULL, block)
    return StabilityVerdict(subset, MODE_FULL, None)


def is_stable_set(
    instance: Instance,
    subset: int,
    mode: str = MODE_SINGLETON,
    max_n: int | None = None,
) -> StabilityVerdict:
    """Does ``subset`` resist outside additions?

    Singleton mode tests one outside contract at a time; full mode tests
    every non-empty outside set (exponential in the number of outside
    contracts, hence bounded).  The two modes agree on coherent instances.
    Witnesses are minimal: the lowest-id contract, or the numerically first
    blocking set.
    """
    if subset >> instance.n:
        raise DomainError(f"subset {subset:#x} exceeds the {instance.n}-contract universe")
    if mode == MODE_SINGLETON:
        return _singleton_stability(instance, subset)
    if mode == MODE_FULL:
        return _full_stability(instance, subset, max_n)
    raise ValueError(f"mode must be {MODE_SINGLETON!r} or {MODE_FULL!r}, got {mode!r}")


@dataclass(frozen=True)
class StableAgreementVerdict:
    """Conjunction of the agreement and stability checks."""

    agreement: AgreementVerdict
    stability: StabilityVerdict

    @property
    def holds(self) -> bool:
        return self.agreement.holds and self.stability.stable

    def describe(self, names: Sequence[str] | None = None) -> str:
        return f"{self.agreement.describe(names)}; {self.stability.describe(names)}"


def is_stable_agreement(
    instance: Instance, subset: int, mode: str = MODE_SINGLETON
) -> StableAgreementVerdict:
    """Is ``subset`` both an agreement and stable?"""
    return StableAgreementVerdict(
        agreement=is_agreement(instance, subset),
        stability=is_stable_set(instance, subset, mode),
    )


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------


def _require_stable(instance: Instance, subset: int, role: str) -> None:
    verdict = is_stable_agreement(instance, subset)
    if not verdict.holds:
        raise PreconditionError(
            f"{role} {format_mask(subset, instance.names)} is not a stable agreement:"
            f" {verdict.describe(instance.names)}"
        )


def meet(instance: Instance, first: int, second: int) -> int:
    """Greatest lower bound of two stable agreements in side 1's order.

    Re-runs the iteration with side 1 proposing, from the pool of contracts
    that both inputs beat (the intersection of their side-1 closures).
    Requires coherent side functions for its lattice guarantee; the inputs'
    stability is verified, coherence is the caller's assertion.
    """
    _require_stable(instance, first, "meet input")
    _require_stable(instance, second, "meet input")
    pool = closure(instance.f1, first) & closure(instance.f1, second)
    return run(instance, proposer=1, pool=pool).chosen


def join(instance: Instance, first: int, second: int) -> int:
    """Least upper bound of two stable agreements in side 1's order.

    Mirror image of :func:`meet`: side 1's least upper bound is side 2's
    greatest lower bound (the two sides' orders on stable agreements are
    inverse), so the iteration is re-run with side 2 proposing from the
    intersection of the side-2 closures.
    """
    _require_stable(instance, first, "join input")
    _require_stable(instance, second, "join input")
    pool = closure(instance.f2, first) & closure(instance.f2, second)
    return run(instance, proposer=2, pool=pool).chosen
