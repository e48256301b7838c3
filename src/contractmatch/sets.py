"""Bitmask utilities for subsets of a fixed contract universe.

Contracts are identified by integer ids ``0 .. n-1``.  A subset of the
universe is stored as a plain Python int: bit ``i`` is set exactly when
contract ``i`` is in the subset.  Ints give O(1) union / intersection /
equality and make exhaustive scans over all ``2**n`` subsets cheap, which
is what every checker and oracle in this package relies on.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence


def full_mask(n: int) -> int:
    """The subset containing every contract of an ``n``-contract universe."""
    return (1 << n) - 1


def id_table(values: list[int]) -> bytes | array:
    """A read-only table of ids (or ranks), typed by its largest value: a
    ``bytes`` when it is below 256, else an ``array("H")`` below 65 536,
    else an ``array("L")``.  A ``bytes`` subscript is cheaper than an
    ``array("B")`` one at the same byte per entry, and an empty table is
    the interpreter's one shared ``b""``."""
    top = max(values, default=0)
    return bytes(values) if top < 1 << 8 else array("H" if top < 1 << 16 else "L", values)


def mask_of(contracts: Iterable[int]) -> int:
    """Build a subset mask from an iterable of contract ids.

    A ``range`` whose ids are not far apart gets its mask in closed form:
    bits ``step`` apart sum to ``(2**(step*len) - 1) // (2**step - 1)``,
    shifted to the lowest id.  The quotient makes about ``step / 30``
    passes over the mask (one per 30-bit digit of the divisor), the loop
    about ``len / 2``, so a sparse range (two far-apart ids, say) takes the
    loop.
    """
    if isinstance(contracts, range) and contracts and abs(contracts.step) < 16 * len(contracts):
        step = abs(contracts.step)
        lowest = min(contracts[0], contracts[-1])
        return ((1 << step * len(contracts)) - 1) // ((1 << step) - 1) << lowest
    mask = 0
    for c in contracts:
        mask |= 1 << c
    return mask


def ids_of(mask: int) -> tuple[int, ...]:
    """Contract ids present in ``mask``, ascending: the package's one walk
    over a subset's contracts.  Each step peels the top id, so the int
    shrinks as it goes, and the list is reversed once.  A negative mask is
    refused: it has infinitely many bits, and the peel would never end."""
    if mask < 0:
        raise ValueError(f"a subset mask cannot be negative, got {mask}")
    out = []
    while mask:
        c = mask.bit_length() - 1
        out.append(c)
        mask ^= 1 << c
    out.reverse()
    return tuple(out)


def iter_submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask`` in increasing numeric order (0 and mask included)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def subset_names(mask: int, names: Sequence[str]) -> list[str]:
    """The names of the contracts in ``mask``, sorted alphabetically."""
    return sorted(names[i] for i in ids_of(mask))


def format_mask(mask: int, names: Sequence[str] | None = None) -> str:
    """Human-readable rendering of a subset, e.g. ``{a, b}``."""
    if names is None:
        items = [str(i) for i in ids_of(mask)]
    else:
        items = subset_names(mask, names)
    return "{" + ", ".join(items) + "}"
