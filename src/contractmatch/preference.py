"""Revealed preference over subsets, induced by a choice function.

A choice function ``f`` reveals a weak preference between menus: ``b`` is
revealed weakly below ``a`` when merging ``b`` into ``a`` changes nothing,
``f(a | b) == f(a)``.  On coherent functions this relation is reflexive and
transitive (though distinct menus can be mutually below each other), and it
admits a closure operator: ``closure(f, a)`` adds every outside contract
that ``a`` already beats, producing the largest menu equivalent to ``a``.

The relation is only well-behaved for coherent ``f``.  Because callers may
query unvalidated functions, every verdict carries the coherence status the
caller supplied ("checked" / "asserted" / "unknown"), so downstream
consumers can see whether the usual laws are guaranteed to apply.

Setting ``DEBUG_EQUIVALENCE = True`` makes every query re-derive its answer
through the equivalent formulations (``f(a|b) == f(a)`` iff
``f(a|b) <= f(a)`` iff ``f(a|b) <= a``, which coincide under coherence) and
raise if they disagree, which is a cheap way to catch a non-coherent
function being used where coherence was assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choice import ChoiceFunction
from .sets import format_mask, full_mask

COHERENCE_CHECKED = "checked"
COHERENCE_ASSERTED = "asserted"
COHERENCE_UNKNOWN = "unknown"

DEBUG_EQUIVALENCE = False


@dataclass(frozen=True)
class PreferenceVerdict:
    """Outcome of one revealed-preference query.

    ``holds`` answers the query; ``union_choice`` is the witness ``f(a|b)``
    the answer was derived from; ``coherence`` flags whether the function's
    coherence was verified, merely asserted, or unknown (in which case the
    preference laws may fail to apply).
    """

    holds: bool
    union_choice: int
    coherence: str = COHERENCE_UNKNOWN


def prefers(
    f: ChoiceFunction, a: int, b: int, coherence: str = COHERENCE_UNKNOWN
) -> PreferenceVerdict:
    """Is ``b`` revealed weakly below ``a``, i.e. does ``a`` absorb ``b``?

    Holds exactly when ``f(a | b) == f(a)``.
    """
    union_choice = f.choose_mask(a | b)
    holds = union_choice == f.choose_mask(a)
    if DEBUG_EQUIVALENCE:
        contained_in_choice = union_choice & ~f.choose_mask(a) == 0
        contained_in_menu = union_choice & ~a == 0
        if not (holds == contained_in_choice == contained_in_menu):
            raise RuntimeError(
                f"revealed-preference equivalences disagree on"
                f" a={format_mask(a)}, b={format_mask(b)}:"
                f" the function is not coherent"
            )
    return PreferenceVerdict(holds, union_choice, coherence)


def indifferent(
    f: ChoiceFunction, a: int, b: int, coherence: str = COHERENCE_UNKNOWN
) -> bool:
    """Are ``a`` and ``b`` revealed equivalent?  Holds iff ``f(a) == f(b)``."""
    same = f.choose_mask(a) == f.choose_mask(b)
    if DEBUG_EQUIVALENCE:
        both_ways = (
            prefers(f, a, b, coherence).holds and prefers(f, b, a, coherence).holds
        )
        if both_ways != same:
            raise RuntimeError(
                f"indifference disagrees with mutual preference on"
                f" a={format_mask(a)}, b={format_mask(b)}:"
                f" the function is not coherent"
            )
    return same


def closure(f: ChoiceFunction, subset: int) -> int:
    """The largest menu revealed equivalent to ``subset``.

    Adds every outside contract that is rejected when offered on top of
    ``subset``, found by one ``kept_additions`` call.  On coherent functions
    the result chooses the same set as ``subset``, is idempotent, and
    characterizes the revealed order: ``a`` is below ``b`` exactly when
    ``a <= closure(f, b)``.
    """
    outside = full_mask(f.n) & ~subset
    return subset | outside & ~f.kept_additions(subset, outside)
