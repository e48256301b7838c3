"""Size bounds for exhaustive scans and their one refusal rule, :func:`refuse_above`.

Every exhaustive checker refuses universes larger than a configured bound
instead of silently taking minutes.  Bounds can be raised (or lowered) per
process through environment variables, or per call through the ``max_n``
argument the checkers accept.  A variable that is set must hold a
non-negative integer that ``int()`` converts (at most 4300 digits); any
other value raises :class:`~contractmatch.errors.SpecError` when the bound
is read, naming at most its first 20 characters if it is long.

Environment variables:

* ``CONTRACTMATCH_EXHAUSTIVE_BOUND`` -- scans in the ``2**n * n`` class
  (contraction, rejection consistency, money monotonicity, full-mode
  stability).  Default 12.
* ``CONTRACTMATCH_PAIRWISE_BOUND`` -- scans in the ``3**n`` / ``4**n`` class
  (substitutes, path independence, building a valuation argmax table).
  Path independence is checked in ``(n + 1) * 2**n`` lookups, but stays
  in this class because its violations are listed over all ``4**n``
  pairs.  Default 10.
* ``CONTRACTMATCH_ORACLE_BOUND`` -- the ``2**n`` stable-agreement catalog
  enumeration.  Default 16.
"""

from __future__ import annotations

import os
from typing import Callable

from .errors import SizeBoundError, SpecError

EXHAUSTIVE_DEFAULT = 12
PAIRWISE_DEFAULT = 10
ORACLE_DEFAULT = 16

_ENV_PREFIX = "CONTRACTMATCH"


def _from_env(name: str, default: int) -> int:
    var = f"{_ENV_PREFIX}_{name}"
    raw = os.environ.get(var)
    if raw is None:
        return default
    if raw.strip().isdecimal():
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    shown = raw if len(raw) <= 40 else f"{raw[:20]}... ({len(raw)} characters)"
    raise SpecError(f"{var} must be a non-negative integer, got {shown!r}")


def exhaustive_bound() -> int:
    """Bound for 2**n * n scans."""
    return _from_env("EXHAUSTIVE_BOUND", EXHAUSTIVE_DEFAULT)


def pairwise_bound() -> int:
    """Bound for 3**n and 4**n subset-pair scans."""
    return _from_env("PAIRWISE_BOUND", PAIRWISE_DEFAULT)


def oracle_bound() -> int:
    """Bound for the 2**n stable-agreement enumeration."""
    return _from_env("ORACLE_BOUND", ORACLE_DEFAULT)


def refuse_above(
    size: int, bound: Callable[[], int], max_n: int | None, refusal: str, hint: str = ""
) -> None:
    """Raise ``SizeBoundError("<refusal>, bound is <limit><hint>")`` if ``size``
    exceeds ``max_n``, else ``bound()``: the one refusal of every scan."""
    limit = bound() if max_n is None else max_n
    if size > limit:
        raise SizeBoundError(f"{refusal}, bound is {limit}{hint}")
