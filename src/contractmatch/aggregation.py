"""Combining per-agent choice functions into one side of an instance.

A side of an agreement problem usually consists of many agents, each caring
only about the contracts naming them.  Given a partition of the universe
into agent slices and one choice function per agent over its slice, the
aggregate side function evaluates every agent on its share of the menu and
takes the union.  Aggregation preserves each axiom separately, so a side
built from coherent agents is coherent.

Agents' functions are written over their own compact universe
(``0 .. len(slice)-1``, in ascending order of the global ids they own);
:class:`AggregatePart` records the translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .choice import ChoiceFunction, TopOfOrder
from .engine import ContractLabel, Instance
from .errors import SpecError
from .preference import COHERENCE_ASSERTED
from .sets import full_mask


@dataclass(frozen=True)
class AggregatePart:
    """One agent's share of a side: its name, function, and owned contracts.

    ``contract_ids`` lists the agent's global contract ids ascending; local
    id ``i`` of ``spec`` corresponds to ``contract_ids[i]``.
    """

    agent: str
    spec: ChoiceFunction
    contract_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.contract_ids) != sorted(set(self.contract_ids)):
            raise SpecError(f"agent {self.agent!r}: contract ids must be ascending and unique")
        if self.spec.n != len(self.contract_ids):
            raise SpecError(
                f"agent {self.agent!r}: function covers {self.spec.n} contracts,"
                f" slice has {len(self.contract_ids)}"
            )

    def compress(self, global_mask: int) -> int:
        local = 0
        for i, g in enumerate(self.contract_ids):
            if global_mask >> g & 1:
                local |= 1 << i
        return local

    def expand(self, local_mask: int) -> int:
        global_mask = 0
        for i, g in enumerate(self.contract_ids):
            if local_mask >> i & 1:
                global_mask |= 1 << g
        return global_mask


@dataclass(frozen=True)
class AggregateChoice(ChoiceFunction):
    """Union of per-agent choices over a partition of the universe.

    Evaluation is label-local: an agent's contribution depends only on the
    menu's intersection with its slice.
    """

    n: int
    parts: tuple[AggregatePart, ...]

    def __post_init__(self) -> None:
        seen = 0
        for part in self.parts:
            for g in part.contract_ids:
                if not 0 <= g < self.n:
                    raise SpecError(
                        f"agent {part.agent!r} owns contract {g} outside the universe"
                    )
                if seen >> g & 1:
                    raise SpecError(f"contract {g} is owned by more than one agent")
                seen |= 1 << g
        if seen != full_mask(self.n):
            missing = [i for i in range(self.n) if not seen >> i & 1]
            raise SpecError(f"contracts {missing} are owned by no agent (label gap)")
        if len({p.agent for p in self.parts}) != len(self.parts):
            raise SpecError("agent names must be unique within a side")

    def _choose(self, subset: int) -> int:
        chosen = 0
        for part in self.parts:
            local = part.compress(subset)
            chosen |= part.expand(part.spec.choose_mask(local))
        return chosen


def aggregate_side(
    specs: Mapping[str, ChoiceFunction], owner_by_contract: Sequence[str]
) -> AggregateChoice:
    """Build a side function from per-agent functions and an ownership map.

    ``owner_by_contract[i]`` names the agent owning contract ``i``; every
    owner must appear in ``specs`` and vice versa.  Each agent's function is
    over its compact slice universe (ascending global ids).
    """
    n = len(owner_by_contract)
    slices: dict[str, list[int]] = {}
    for cid, agent in enumerate(owner_by_contract):
        slices.setdefault(agent, []).append(cid)
    missing = sorted(set(slices) - set(specs))
    if missing:
        raise SpecError(f"no choice function declared for agents {missing}")
    unused = sorted(set(specs) - set(slices))
    if unused:
        raise SpecError(f"agents {unused} declared but own no contracts")
    parts = tuple(
        AggregatePart(agent, specs[agent], tuple(slices[agent]))
        for agent in sorted(slices)
    )
    return AggregateChoice(n, parts)


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
    functions are coherent by construction.
    """
    n_men, n_women = len(men_prefs), len(women_prefs)
    for i, prefs in enumerate(men_prefs):
        if sorted(prefs) != list(range(n_women)):
            raise SpecError(
                f"man {i}: preference list must rank every woman exactly once"
            )
    for j, prefs in enumerate(women_prefs):
        if sorted(prefs) != list(range(n_men)):
            raise SpecError(
                f"woman {j}: preference list must rank every man exactly once"
            )

    names = tuple(
        f"m{i + 1}_w{j + 1}" for i in range(n_men) for j in range(n_women)
    )
    men_specs = {
        f"m{i + 1}": TopOfOrder(n_women, tuple(men_prefs[i])) for i in range(n_men)
    }
    men_owner = [f"m{i + 1}" for i in range(n_men) for _ in range(n_women)]
    women_specs = {
        f"w{j + 1}": TopOfOrder(n_men, tuple(women_prefs[j])) for j in range(n_women)
    }
    women_owner = [f"w{j + 1}" for _ in range(n_men) for j in range(n_women)]
    labels = tuple(
        ContractLabel(f"m{i + 1}", f"w{j + 1}")
        for i in range(n_men)
        for j in range(n_women)
    )
    return Instance(
        names=names,
        f1=aggregate_side(men_specs, men_owner),
        f2=aggregate_side(women_specs, women_owner),
        labels=labels,
        coherence=COHERENCE_ASSERTED,
    )
