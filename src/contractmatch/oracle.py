"""Ground-truth brute force, kept independent of the engine's iteration.

Everything here recomputes results straight from definitions: stable
agreements by scanning all ``2**n`` subsets, lattice bounds by scanning the
catalog, one-to-one matchings by the textbook proposal algorithm.  The only
thing shared with the engine is the bitmask subset representation and the
instance's choice evaluators, so an engine bug cannot leak into the oracle's
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import limits
from .choice import tabulate
from .engine import Instance
from .errors import PreconditionError
from .preference import prefers
from .sets import full_mask, ids_of


@dataclass(frozen=True)
class StableSetCatalog:
    """Every stable agreement of an instance, with side 1's revealed order.

    ``sets`` lists the stable agreements ascending by bitmask;
    ``below[i][j]`` is True when ``sets[i]`` is revealed weakly below
    ``sets[j]`` for side 1.  On coherent instances side 2's order is the
    exact inverse, so one matrix describes both.
    """

    n: int
    sets: tuple[int, ...]
    below: tuple[tuple[bool, ...], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def index(self, subset: int) -> int:
        try:
            return self.sets.index(subset)
        except ValueError:
            raise PreconditionError(
                f"subset {subset:#x} is not in the stable-agreement catalog"
            ) from None


def enumerate_stable_agreements(
    instance: Instance, max_n: int | None = None
) -> StableSetCatalog:
    """Exhaustively catalog the stable agreements of an instance.

    A subset qualifies when both sides keep it exactly and no single
    outside contract would be accepted by both sides on top of it; this is
    checked directly from the definitions on a full tabulation of both side
    functions.
    """
    n = instance.n
    refusal = f"stable-agreement enumeration refused: {n} contracts"
    limits.refuse_above(n, limits.oracle_bound, max_n, refusal)
    universe = full_mask(n)
    side1 = tabulate(instance.f1)
    t1, t2 = side1.entries, tabulate(instance.f2).entries

    found = []
    for subset in range(1 << n):
        if t1[subset] != subset or t2[subset] != subset:
            continue
        outside = ids_of(universe ^ subset)
        if not any(t1[subset | 1 << x] & t2[subset | 1 << x] & 1 << x for x in outside):
            found.append(subset)

    below = tuple(
        tuple(prefers(side1, bigger, smaller).holds for bigger in found)
        for smaller in found
    )
    return StableSetCatalog(n, tuple(found), below)


def brute_glb(catalog: StableSetCatalog, first: int, second: int) -> int | None:
    """Greatest lower bound of two catalog members in side 1's order.

    Scans the catalog for the unique common lower bound dominating all
    others.  Returns None when no unique greatest lower bound exists (which
    signals a theorem violation on coherent instances).
    """
    return _unique_bound(catalog, first, second, catalog.below)


def brute_lub(catalog: StableSetCatalog, first: int, second: int) -> int | None:
    """Least upper bound of two catalog members in side 1's order."""
    return _unique_bound(catalog, first, second, tuple(zip(*catalog.below)))


def _unique_bound(catalog: StableSetCatalog, a: int, b: int, under: Sequence) -> int | None:
    """The one common bound of ``a`` and ``b`` that every other lies beneath,
    where ``under[k][i]`` says ``sets[k]`` lies beneath ``sets[i]``, or None.
    ``below`` gives the lower bounds, its transpose the upper ones."""
    i, j = catalog.index(a), catalog.index(b)
    common = [k for k in range(len(catalog)) if under[k][i] and under[k][j]]
    best = [k for k in common if all(under[other][k] for other in common)]
    return catalog.sets[best[0]] if len(best) == 1 else None


def classical_gale_shapley(
    men_prefs: Sequence[Sequence[int]], women_prefs: Sequence[Sequence[int]]
) -> frozenset[tuple[int, int]]:
    """Textbook man-proposing deferred acceptance on complete strict lists.

    Returns the man-optimal stable matching as (man, woman) pairs.  Serves
    as the independent reference for engine runs on marriage instances.
    """
    woman_rank = [
        {man: rank for rank, man in enumerate(prefs)} for prefs in women_prefs
    ]
    next_proposal = [0] * len(men_prefs)
    engaged: dict[int, int] = {}
    free = list(reversed(range(len(men_prefs))))
    while free:
        man = free.pop()
        if next_proposal[man] >= len(men_prefs[man]):
            continue
        woman = men_prefs[man][next_proposal[man]]
        next_proposal[man] += 1
        if woman not in engaged:
            engaged[woman] = man
        elif woman_rank[woman][man] < woman_rank[woman][engaged[woman]]:
            free.append(engaged[woman])
            engaged[woman] = man
        else:
            free.append(man)
    return frozenset((man, woman) for woman, man in engaged.items())
