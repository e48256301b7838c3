"""Reference answers that do not come from the code under test.

Each workload's outputs are checked against these: a textbook Gale-Shapley
for marriage markets, an agent-by-agent stability loop written from the
definition, and a hand-written table of the CLI's exit codes on the shipped
fixtures, derived from the exit-code contract in the README.
"""

from __future__ import annotations


def gale_shapley(proposer_prefs, receiver_prefs) -> set[tuple[int, int]]:
    """Proposer-optimal stable matching on complete strict lists, as
    (proposer, receiver) pairs."""
    rank = [{p: r for r, p in enumerate(prefs)} for prefs in receiver_prefs]
    next_choice = [0] * len(proposer_prefs)
    holder: dict[int, int] = {}
    free = list(range(len(proposer_prefs)))
    while free:
        p = free.pop()
        r = proposer_prefs[p][next_choice[p]]
        next_choice[p] += 1
        current = holder.get(r)
        if current is None:
            holder[r] = p
        elif rank[r][p] < rank[r][current]:
            holder[r] = p
            free.append(current)
        else:
            free.append(p)
    return {(p, r) for r, p in holder.items()}


def _local(mask: int, ids) -> int:
    return sum(1 << i for i, g in enumerate(ids) if mask >> g & 1)


def side_verdict(side, subset: int) -> tuple[bool, int]:
    """Evaluate one aggregate side agent by agent on ``subset``.

    Returns whether every agent keeps its share of ``subset`` exactly, and
    the mask of outside contracts the owning agent would keep if offered on
    top of ``subset``.  Needs only the side's public ``parts``: each agent's
    choice function and the global ids of its slice.
    """
    keeps_all = True
    would_add = 0
    for part in side.parts:
        ids = part.contract_ids
        held = _local(subset, ids)
        keeps_all = keeps_all and part.spec.choose_mask(held) == held
        for i, g in enumerate(ids):
            if not held >> i & 1 and part.spec.choose_mask(held | 1 << i) >> i & 1:
                would_add |= 1 << g
    return keeps_all, would_add


def stable_agreement_problem(instance, subset: int) -> str | None:
    """None when ``subset`` is a singleton-stable agreement, else why not."""
    ok1, add1 = side_verdict(instance.f1, subset)
    ok2, add2 = side_verdict(instance.f2, subset)
    if not (ok1 and ok2):
        return f"{subset:#x} is not kept exactly by both sides"
    if add1 & add2:
        return f"contract {(add1 & add2).bit_length() - 1} blocks {subset:#x}"
    return None


# --- the CLI on the shipped fixtures ----------------------------------------
#
# README: exit 0 success, 1 a check failed (invalid instance, market
# violation), 2 parse or semantic error (here: `market` on a file without a
# market section), 3 refusal because an exhaustive scan exceeds its bound.
# The 12-contract economies have an agent owning all 12 contracts, past the
# per-agent subset-pair bound of 10 that `validate` scans under.

MARKET_FIXTURES = frozenset(
    {
        "economy_seed3.json",
        "economy_small.json",
        "economy_two_producers.json",
        "market_price_gap.json",
    }
)
FIXTURES = tuple(
    sorted(
        MARKET_FIXTURES
        | {
            "coherent_seed11.json",
            "coherent_seed7.json",
            "identity_3.json",
            "marriage_1x1.json",
            "marriage_2x2.json",
            "marriage_3x3.json",
            "no_stable_agreement.json",
        }
    )
)
# Side 1 of this instance is not coherent: the engine's outcome is blocked.
UNSTABLE_OUTCOME = frozenset({"no_stable_agreement.json"})
_EXIT = {
    ("validate", "economy_seed3.json"): 3,
    ("validate", "economy_two_producers.json"): 3,
    ("validate", "no_stable_agreement.json"): 1,  # side 1 not coherent
    ("validate", "market_price_gap.json"): 1,  # no-shortage fails
    ("market", "market_price_gap.json"): 1,  # no-shortage fails
}


def cli_exit_code(subcommand: str, fixture: str) -> int:
    if subcommand == "market" and fixture not in MARKET_FIXTURES:
        return 2
    return _EXIT.get((subcommand, fixture), 0)
