"""Revealed preference over subsets, induced by a choice function.

A choice function ``f`` reveals a weak preference between menus: ``b`` is
revealed weakly below ``a`` when merging ``b`` into ``a`` changes nothing,
``f(a | b) == f(a)``.  On coherent functions this relation is reflexive and
transitive (though distinct menus can be mutually below each other), and it
admits a closure operator: ``closure(f, a)`` adds every outside contract
that ``a`` already beats, producing the largest menu equivalent to ``a``.

The relation is only well-behaved for coherent ``f``; the queries here do
not check that.  :func:`~contractmatch.coherence.check_coherent` is the way
to establish it, and the ``COHERENCE_*`` labels record on an instance
whether it was checked, asserted by construction, or is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

from .choice import ChoiceFunction
from .sets import full_mask

COHERENCE_CHECKED = "checked"
COHERENCE_ASSERTED = "asserted"
COHERENCE_UNKNOWN = "unknown"


@dataclass(frozen=True)
class PreferenceVerdict:
    """Outcome of one revealed-preference query.

    ``holds`` answers the query; ``union_choice`` is the witness ``f(a|b)``
    the answer was derived from.
    """

    holds: bool
    union_choice: int


def prefers(f: ChoiceFunction, a: int, b: int) -> PreferenceVerdict:
    """Is ``b`` revealed weakly below ``a``, i.e. does ``a`` absorb ``b``?

    Holds exactly when ``f(a | b) == f(a)``.
    """
    union_choice = f.choose_mask(a | b)
    return PreferenceVerdict(union_choice == f.choose_mask(a), union_choice)


def indifferent(f: ChoiceFunction, a: int, b: int) -> bool:
    """Are ``a`` and ``b`` revealed equivalent?  Holds iff ``f(a) == f(b)``."""
    return f.choose_mask(a) == f.choose_mask(b)


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
