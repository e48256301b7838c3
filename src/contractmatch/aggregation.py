"""Combining per-agent choice functions into one side of an instance.

A side of an agreement problem usually consists of many agents, each caring
only about the contracts naming them.  Given a partition of the universe
into agent slices and one choice function per agent over its slice, the
aggregate side function evaluates every agent on its share of the menu and
takes the union.  Aggregation preserves each axiom separately, so a side
built from coherent agents is coherent.

Agents' functions are written over their own compact universe
(``0 .. len(slice)-1``, in ascending order of the global ids they own);
:class:`AggregatePart` records the translation, holding evenly spaced ids
(every marriage slice) as a ``range`` and any others as a tuple.  The
parts are the only record of who owns each contract:
:meth:`AggregateChoice.owners` names each contract's agent, and an
:class:`~contractmatch.engine.Instance` with two aggregate sides reads its
labels from them.  One helper assembles every side of named agents, for
:func:`aggregate_side`, the marriage builder and instance files: it refuses
an agent that owns no contract and orders the parts by agent name.
:class:`AggregateChoice`
writes each agent in global ids once, when the side is built (see
``ChoiceFunction._relabelled``): a ranking or filter, the market's agents
included, becomes a ``_Ranking``, a top mask and a tail walk per order, and
only tables, valuations and foreign subclasses map ids on each call.  Its
``kept_additions`` asks each owner once about all of its candidates, and
its ``rechoose`` evaluates only the agents whose share of the menu changed.
A ``_Ranking`` agent whose share only lost contracts it had rejected is
skipped too: it is coherent by construction, so that loss cannot change
its choice.  Tables, valuations and other evaluators are re-evaluated on
any change.  The side keeps one complement mask per agent (the universe
minus its slice), so each agent touched costs a constant number of
full-width mask operations.  A side made only of
Gale-Shapley agents (each a ``_Ranking`` with quota 1 and one order with a
non-empty top, decided when the side is built) also keeps each contract's
rank in its owner's order (``_rank``), the contract after each one in its
owner's order (``_next``) and each agent's first entry (``_firsts``), and
can run deferred acceptance against another such side in
:meth:`AggregateChoice.cursor_rounds`, rounds 0.. included: each rejected
proposer's next offer is read from ``_next`` past its refused contract,
and each receiver compares a new offer with its held contract by rank
(the method's docstring has the pool table and the record it returns).
:func:`~contractmatch.engine.run` takes it for every marriage market and
for no side with any other kind of agent.  The singleton stability verdict
between two such sides is :meth:`AggregateChoice.rank_blocker`, read from
the same tables: the contracts a side keeps on top of a set are those
ranked above the best contract their owner holds in it, walked through
``_firsts`` and ``_next``.  Neither reads an agent's evaluator.  Every id
table is a :func:`~contractmatch.sets.id_table`, typed by its largest value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .choice import ChoiceFunction, TopOfOrder, _Ranking
from .engine import Instance
from .errors import DomainError, SpecError
from .preference import COHERENCE_ASSERTED
from .sets import full_mask, id_table, ids_of, mask_of


@dataclass(frozen=True, slots=True)
class AggregatePart:
    """One agent's share of a side: its name, function, and owned contracts.

    ``contract_ids`` lists the agent's global contract ids ascending; local
    id ``i`` of ``spec`` corresponds to ``contract_ids[i]``.  Whichever
    sequence was given, evenly spaced ids are held as a ``range``, so a part
    keeps no per-contract object for a contiguous or strided slice, and any
    other ids as a tuple: parts that own the same ids compare and hash
    equal.
    """

    agent: str
    spec: ChoiceFunction
    contract_ids: Sequence[int]

    def __post_init__(self) -> None:
        ids = self.contract_ids
        if list(ids) != sorted(set(ids)):
            raise SpecError(f"agent {self.agent!r}: contract ids must be ascending and unique")
        if not isinstance(ids, range):
            ids = tuple(ids)
            even = ids and range(ids[0], ids[-1] + 1, ids[1] - ids[0] if len(ids) > 1 else 1)
            object.__setattr__(self, "contract_ids", even if tuple(even) == ids else ids)
        if self.spec.n != len(self.contract_ids):
            raise SpecError(
                f"agent {self.agent!r}: function covers {self.spec.n} contracts,"
                f" slice has {len(self.contract_ids)}"
            )


@dataclass(frozen=True)
class AggregateChoice(ChoiceFunction):
    """Union of per-agent choices over a partition of the universe.

    Evaluation is label-local: an agent's contribution depends only on the
    menu's intersection with its slice.  When every agent is a Gale-Shapley
    agent (a ``_Ranking`` with quota 1 and one order with a non-empty top,
    whose ``(top, tail)`` is ``splits[0]``), the side has three more
    read-only tables, built in one pass over the orders, after which no
    rank path reads an agent's evaluator:

    * ``_rank``: each contract's position in its owner's order (0 for the
      top, ``i + 1`` for ``tail[i]``, ``n`` for a contract outside its
      owner's piece), so a marriage side's ranks are one-byte ``bytes``;
    * ``_next``: ``n + 1`` entries, the contract after ``c`` in its
      owner's order at ``c`` (``n`` after the last, and for a contract
      outside every order), and the sentinel ``_next[n] == n``;
    * ``_firsts``: each agent's first entry, by part index.

    A run between two such sides takes :meth:`cursor_rounds` from round 0,
    and their singleton stability verdict is :meth:`rank_blocker`.  Every
    table, ``_owner`` included, is a :func:`~contractmatch.sets.id_table`.
    """

    n: int
    parts: tuple[AggregatePart, ...]

    def __post_init__(self) -> None:
        # Each contract's owner (part index), as a compact table.
        owner, slices = [-1] * self.n, []
        for p, part in enumerate(self.parts):
            ids = part.contract_ids  # ascending, so only its ends can fall outside
            if ids and (ids[0] < 0 or ids[-1] >= self.n):
                bad = next(g for g in ids if not 0 <= g < self.n)
                raise SpecError(f"agent {part.agent!r} owns contract {bad} outside the universe")
            for g in ids:
                owner[g] = p
            slices.append(mask_of(ids))
        unowned = owner.count(-1)
        if sum(len(part.contract_ids) for part in self.parts) != self.n - unowned:
            ids = sorted(g for part in self.parts for g in part.contract_ids)
            twice = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise SpecError(f"contract {twice} is owned by more than one agent")
        if unowned:
            missing = [g for g in range(self.n) if owner[g] < 0]
            raise SpecError(f"contracts {missing} are owned by no agent (label gap)")
        if len({p.agent for p in self.parts}) != len(self.parts):
            raise SpecError("agent names must be unique within a side")
        # Per-agent tuples are built from lists, here, in the side assembly,
        # in the generators and in the ranking evaluators: CPython allocates a
        # generator-fed tuple at one size and frees it at another, so every
        # instance built would leave tuples in the interpreter's free lists,
        # which only a full garbage collection empties (+2.5 MB of bulk
        # peak RSS over a 50 s benchmark run).
        agents = tuple([
            part.spec._relabelled(part.contract_ids, piece)
            for part, piece in zip(self.parts, slices)
        ])
        # The slices of the agents that rechoose must re-evaluate on any change.
        unsure = 0
        for agent, piece in zip(agents, slices):
            if type(agent) is not _Ranking:
                unsure |= piece
        universe = full_mask(self.n)
        object.__setattr__(self, "_owner", id_table(owner))
        object.__setattr__(self, "_rest", tuple([universe ^ piece for piece in slices]))
        object.__setattr__(self, "_unsure", unsure)
        # Two sides of Gale-Shapley agents run deferred acceptance in
        # cursor_rounds, comparing contracts by their rank in _rank.
        if all(
            type(agent) is _Ranking and agent.quota == 1
            and len(agent.splits) == 1 and agent.splits[0][0]
            for agent in agents
        ):
            n = self.n
            rank = [n] * n  # n: outside its owner's piece
            succ = [n] * (n + 1)  # n: the end of an order, and the sentinel
            firsts = []
            for agent in agents:
                top, tail = agent.splits[0]
                c = top.bit_length() - 1
                firsts.append(c)
                rank[c] = 0
                for i, d in enumerate(tail, 1):
                    rank[d], succ[c], c = i, d, d
            object.__setattr__(self, "_rank", id_table(rank))
            object.__setattr__(self, "_next", id_table(succ))
            object.__setattr__(self, "_firsts", id_table(firsts))
        object.__setattr__(self, "_agents", agents)

    def owners(self) -> tuple[str, ...]:
        """Each contract's agent name, by contract id."""
        return tuple(map([part.agent for part in self.parts].__getitem__, self._owner))

    def _choose(self, subset: int) -> int:
        chosen = 0
        for agent in self._agents:
            chosen |= agent._choose(subset)
        return chosen

    def _kept_additions(self, subset: int, candidates: int) -> int:
        """Each owner of a candidate is asked once, about all of its candidates
        (an agent answers only for its own slice)."""
        owner, rest, agents, kept = self._owner, self._rest, self._agents, 0
        while candidates:
            p = owner[candidates.bit_length() - 1]
            kept |= agents[p]._kept_additions(subset, candidates)
            candidates &= rest[p]
        return kept

    def rechoose(self, subset: int, prev_subset: int, prev_choice: int) -> int:
        """Every agent whose share of ``subset`` equals its share of
        ``prev_subset`` keeps its part of ``prev_choice``: exact for any
        agent function, since an agent only ever chooses from its own slice.
        So does a ``_Ranking`` agent (a ranking or filter) whose share only
        lost contracts outside ``prev_choice``: it is coherent by
        construction, and removing rejected contracts cannot change its
        choice.
        """
        if subset >> self.n:
            raise DomainError(f"subset {subset:#x} lies outside the {self.n}-contract universe")
        owner, rest, agents, chosen = self._owner, self._rest, self._agents, prev_choice
        changed = (subset ^ prev_subset) & (subset | prev_choice | self._unsure)
        while changed:
            p = owner[changed.bit_length() - 1]
            changed &= rest[p]
            chosen = chosen & rest[p] | agents[p]._choose(subset)
        return chosen

    def cursor_rounds(
        self, receiver: AggregateChoice, pool: int
    ) -> tuple[list[list[int]], list[list[int]], list[int], int]:
        """Deferred acceptance from ``pool``, rounds 0.., this side
        proposing to ``receiver``, both sides made only of Gale-Shapley
        agents (both have ``_rank``).

        Returns the run as ids: each round's new offers and its rejections,
        round 0 first, and the contracts the receivers hold at the end (one
        per receiver that holds any), then the final pool as a mask.  A
        :class:`~contractmatch.engine.Trace` keeps the two lists as they
        are: they are the sets the generic rounds record as masks.  The
        held contracts are the outcome.  Each agent's ``piece`` is exactly
        its order, so a proposer's offer is the first entry of its order
        still in the pool, and a receiver keeps the best offer of its
        piece.

        Pool membership is a ``bytearray`` of the pool's binary digits,
        ``"1"`` or ``"0"`` at each contract's id, with a ``"1"`` at index
        ``n``.  A pool of all ``n`` contracts (every run from the universe)
        is ``n + 1`` ones, made in one call; any other pool is read once
        from its ``bin`` digits.  ``_next`` of each order's last entry is
        the sentinel ``n``, so every walk stops without a bounds test.  In
        round 0 each proposer walks from its ``_firsts`` entry through
        ``_next`` to the first entry in the pool; a proposer refused ``c``
        walks on from ``_next[c]``, so each entry of ``_next`` is read at
        most once per run, and a walk that reaches ``n`` sends nothing.
        Each rejected contract is cleared in the table as it is rejected
        (no walk reads it again, since it precedes its proposer's next
        offer), so at the end the table holds the final pool, which one
        ``int(..., 2)`` reads back.  A receiver holds one contract and
        keeps a new offer ``d`` when ``_rank[d]`` is below its held
        contract's rank, one comparison per offer; an offer outside its
        piece ranks ``n`` and is refused.  A quota-1 receiver keeps only
        offered contracts, so pools only shrink, and the run ends at the
        first round that rejects nothing.  No full-width int is built per
        offer, rejection or round.
        """
        n, succ = self.n, self._next
        r_owner, r_rank = receiver._owner, receiver._rank
        held = [-1] * len(receiver._agents)  # each receiver's held contract
        best = [receiver.n] * len(receiver._agents)  # and its rank; n: none
        # The pool's binary digits, lowest id first, and "1" at n: "0" (48)
        # marks a contract outside the pool, and every walk stops at n.
        if pool.bit_count() == n:
            in_pool = bytearray(b"1") * (n + 1)
        else:
            in_pool = bytearray(bin(pool | 1 << n)[:1:-1], "ascii")
        sents, rejections = [], []
        sent = []  # the round's new offers
        for e in self._firsts:
            while in_pool[e] == 48:
                e = succ[e]
            if e < n:
                sent.append(e)
        while True:
            rejected, resent = [], []
            for d in sent:
                b, r = r_owner[d], r_rank[d]
                if r < best[b]:
                    loser, held[b], best[b] = held[b], d, r
                    if loser < 0:
                        continue
                else:
                    loser = d
                rejected.append(loser)
                in_pool[loser] = 48
                # Its proposer's next offer: the first entry after the loser in the pool.
                e = succ[loser]
                while in_pool[e] == 48:
                    e = succ[e]
                if e < n:
                    resent.append(e)
            sents.append(sent)
            rejections.append(rejected)
            if not rejected:
                held = [c for c in held if c >= 0]
                return sents, rejections, held, int(in_pool[::-1], 2) ^ 1 << n
            sent = resent

    def rank_blocker(
        self, other: AggregateChoice, subset: int, ids: Sequence[int] | None = None
    ) -> int:
        """The lowest-id contract outside ``subset`` that this side and
        ``other`` both keep on top of it, as a one-bit mask (0 for none),
        both sides made only of Gale-Shapley agents (both have ``_rank``).

        Such an agent keeps ``x`` from ``subset | {x}`` exactly when
        ``x`` ranks above the best contract the agent holds in ``subset``.
        One pass over ``subset``'s ids finds each agent's best rank on each
        side (``n``: none) and the contract holding it, from ``ids`` when
        the caller has them (a run's held contracts), and from
        :func:`~contractmatch.sets.ids_of` otherwise.
        What a side keeps is each agent's chain from ``_firsts[a]`` through
        ``_next`` up to the contract it holds, or to the sentinel ``n``
        when it holds none, so no ``_next`` entry is read twice and
        ``_next[n]`` never.  Only the side whose best ranks sum lower is
        walked, and each entry ``x`` is tested against the other side with
        ``rank[x] < best[owner[x]]``.  The lowest such id does not depend
        on the side walked, so the verdict equals the two sides'
        ``kept_additions``.
        """
        n = self.n
        best, other_best = [n] * len(self._agents), [n] * len(other._agents)
        held, other_held = best[:], other_best[:]
        owner, rank, other_owner, other_rank = self._owner, self._rank, other._owner, other._rank
        for c in ids_of(subset) if ids is None else ids:
            a, r = owner[c], rank[c]
            if r < best[a]:
                best[a], held[a] = r, c
            a, r = other_owner[c], other_rank[c]
            if r < other_best[a]:
                other_best[a], other_held[a] = r, c
        firsts, succ = self._firsts, self._next
        if sum(other_best) < sum(best):
            firsts, succ, held, other_owner, other_rank, other_best = (
                other._firsts, other._next, other_held, owner, rank, best
            )
        witness = n
        for x, stop in zip(firsts, held):
            while x != stop:
                if x < witness and other_rank[x] < other_best[other_owner[x]]:
                    witness = x
                x = succ[x]
        return 1 << witness if witness < n else 0


def _assemble_side(
    n: int, agents: Mapping[str, tuple[ChoiceFunction, Sequence[int]]]
) -> AggregateChoice:
    """A side from ``{agent: (function, contract ids)}``, parts in agent-name order."""
    if unused := sorted(agent for agent, (_, ids) in agents.items() if not ids):
        raise SpecError(f"agents {unused} declared but own no contracts")
    return AggregateChoice(n, tuple([AggregatePart(a, *agents[a]) for a in sorted(agents)]))


def aggregate_side(
    specs: Mapping[str, ChoiceFunction], owner_by_contract: Sequence[str]
) -> AggregateChoice:
    """Build a side function from per-agent functions and an ownership map.

    ``owner_by_contract[i]`` names the agent owning contract ``i``; every
    owner must appear in ``specs`` and vice versa.  Each agent's function is
    over its compact slice universe (ascending global ids).
    """
    slices: dict[str, list[int]] = {}
    for cid, agent in enumerate(owner_by_contract):
        slices.setdefault(agent, []).append(cid)
    if missing := sorted(set(slices) - set(specs)):
        raise SpecError(f"no choice function declared for agents {missing}")
    agents = {agent: (f, tuple(slices.get(agent, ()))) for agent, f in specs.items()}
    return _assemble_side(len(owner_by_contract), agents)


# ---------------------------------------------------------------------------
# Marriage-market construction
# ---------------------------------------------------------------------------


def build_marriage_instance(
    men_prefs: Sequence[Sequence[int]], women_prefs: Sequence[Sequence[int]]
) -> Instance:
    """Classical one-to-one marriage market as an agreement problem.

    ``men_prefs[i]`` ranks all woman indices best-first (complete and
    strict), ``women_prefs[j]`` ranks all man indices.  Contract ``(i, j)``
    gets id ``i * n_women + j`` and name ``m{i+1}_w{j+1}``.  Each side
    aggregates one best-available-partner chooser per person, so both side
    functions are coherent by construction.  A preference list given as a
    tuple becomes that person's ranking as it is, not a copy, and every
    name is interned, so markets of one size share their name strings.
    """
    n_men, n_women = len(men_prefs), len(women_prefs)
    sides = ("man", men_prefs), ("woman", women_prefs)
    for (who, lists), (whom, others) in zip(sides, sides[::-1]):  # each ranks the other side
        for i, prefs in enumerate(lists):
            if sorted(prefs) != list(range(len(others))):
                raise SpecError(f"{who} {i}: preference list must rank every {whom} exactly once")

    men = [sys.intern(f"m{i + 1}") for i in range(n_men)]
    women = [sys.intern(f"w{j + 1}") for j in range(n_women)]
    # Man i owns the contiguous ids i*n_women.., woman j every n_women-th id
    # from j, both as ranges; the labels are read from these owners.
    n = n_men * n_women
    return Instance(
        names=tuple(map(sys.intern, map("_".join, product(men, women)))),
        f1=_assemble_side(n, {
            m: (TopOfOrder(n_women, tuple(p)), range(i * n_women, (i + 1) * n_women))
            for i, (m, p) in enumerate(zip(men, men_prefs))
        }),
        f2=_assemble_side(n, {
            w: (TopOfOrder(n_men, tuple(p)), range(j, n, n_women))
            for j, (w, p) in enumerate(zip(women, women_prefs))
        }),
        coherence=COHERENCE_ASSERTED,
    )
