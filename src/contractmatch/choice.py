"""Choice functions over a finite contract universe.

A choice function maps every subset ``A`` of the universe to a chosen subset
``f(A)``.  The well-behaved ones are *coherent*: they satisfy Contraction
(``f(A) <= A``), rejection consistency (removing a rejected contract never
shrinks the choice) and Substitutes (a contract chosen from a large pool is
still chosen from any smaller pool containing it).  The checkers live in
:mod:`contractmatch.coherence`; this module provides the evaluators.

Each variant is a frozen dataclass with a declarative payload plus a
``choose_mask`` evaluator working on bitmask subsets (see
:mod:`contractmatch.sets`).  Every variant is total: it is defined on every
subset of its universe, so rankings must rank every contract, and only a
subset outside the universe raises
:class:`~contractmatch.errors.DomainError`.

For the engine, ``kept_additions(subset, candidates)`` finds every
candidate ``x`` kept from ``subset | {x}``, and ``rechoose`` re-evaluates a
menu next to one already evaluated.  Both default to whole ``choose_mask``
calls; :class:`~contractmatch.aggregation.AggregateChoice` overrides them to
evaluate only the agents concerned.

The rankings (:class:`TopOfOrder`, :class:`ResponsiveQuota`,
:class:`UnionOfOrders`, the market's unit-demand consumer) all choose "the
``quota`` best available contracts of each order", where "``x`` is kept
from ``S | {x}``" is one rank threshold.  So do the filters
(:class:`Identity`, the market's linear producer): one order of the
contracts they keep, whose quota is its length.  One evaluator,
``_Ranking``, does this for every shape: each order is split once into a
top mask (its first ``quota`` contracts) and a tail, so a menu holding the
whole top is answered by mask operations alone and only the tail is
walked, for the members the top lacks.  A Gale-Shapley agent is its
one-order, quota-1 case.  ``_relabelled`` fits a function to a slice of a
larger universe: a ranking or filter is rewritten in global ids once, and
only tables, valuations and foreign subclasses are evaluated through a
per-call id mapping of their ``choose_mask`` and ``kept_additions``
(``_Mapped``).  A contract that no order ranks (one a market agent does
not keep or cannot afford) is never chosen: the evaluator's piece is the
contracts its orders rank.  A ``_Ranking`` is coherent by construction,
so a menu that only lost contracts it did not choose leaves its choice
unchanged (the irrelevance of rejected contracts), and an aggregate's
``rechoose`` may skip it.  Any other evaluator, tables above all, may
break rejection consistency and is never skipped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import limits
from .errors import DomainError, SpecError
from .sets import format_mask, full_mask, id_table, ids_of, iter_submasks, mask_of

if TYPE_CHECKING:
    from fractions import Fraction


class ChoiceFunction:
    """Base class for all choice-function variants.

    Subclasses carry a universe size ``n`` and implement ``_choose`` on
    masks already checked to lie within the universe; they may override
    ``_kept_additions`` (also given checked masks) and ``rechoose`` to
    evaluate less, and ``_relabelled`` to evaluate on a larger universe
    without mapping ids on every call.
    """

    n: int

    def choose_mask(self, subset: int) -> int:
        """Evaluate the function on a subset given as a bitmask."""
        if subset >> self.n:
            raise DomainError(f"subset {subset:#x} lies outside the {self.n}-contract universe")
        return self._choose(subset)

    def kept_additions(self, subset: int, candidates: int) -> int:
        """The mask of the candidates ``x`` with ``x`` in ``f(subset | {x})``."""
        for what, mask in (("subset", subset), ("candidate set", candidates)):
            if mask >> self.n:
                raise DomainError(f"{what} {mask:#x} lies outside the {self.n}-contract universe")
        return self._kept_additions(subset, candidates)

    def rechoose(self, subset: int, prev_subset: int, prev_choice: int) -> int:
        """``choose_mask(subset)``, given ``prev_choice == choose_mask(prev_subset)``."""
        return self.choose_mask(subset)

    def _choose(self, subset: int) -> int:
        raise NotImplementedError

    def _kept_additions(self, subset: int, candidates: int) -> int:
        kept = 0
        for x in ids_of(candidates):
            if self.choose_mask(subset | 1 << x) >> x & 1:
                kept |= 1 << x
        return kept

    def _relabelled(self, ids: Sequence[int], piece: int):
        """This function on the contracts ``ids`` (ascending) of a larger
        universe, local id ``i`` being global id ``ids[i]``; ``piece`` is
        their mask.

        The evaluator's ``_choose(subset)`` and ``_kept_additions(subset,
        candidates)`` take and return global masks that lie within the larger
        universe, and answer for ``subset & piece`` and ``candidates & piece``
        only.  This default maps each call's masks to local ids and back.
        """
        return _Mapped(self, ids, piece)


class _Mapped:
    """A function evaluated through ``choose_mask`` and ``kept_additions``
    on local ids, mapped from and to global ids through ``ids_of``."""

    __slots__ = ("spec", "ids", "piece")

    def __init__(self, spec: ChoiceFunction, ids: Sequence[int], piece: int):
        self.spec, self.ids, self.piece = spec, ids, piece

    def _to_local(self, subset: int) -> int:
        ids = self.ids
        return mask_of([bisect_left(ids, c) for c in ids_of(subset & self.piece)])

    def _choose(self, subset: int) -> int:
        return _lift(self.ids, self.spec.choose_mask(self._to_local(subset)))

    def _kept_additions(self, subset: int, candidates: int) -> int:
        local = self.spec.kept_additions(self._to_local(subset), self._to_local(candidates))
        return _lift(self.ids, local)


def _lift(ids: Sequence[int], local_mask: int) -> int:
    """The global mask of ``local_mask``, local id ``i`` being global id ``ids[i]``."""
    return mask_of([ids[i] for i in ids_of(local_mask)])


class _Ranking:
    """Chooses the ``quota`` best available contracts of each order.

    Every contract of ``piece`` is in some order, each order best-first, in
    whatever id space the masks use; only ``subset & piece`` is looked at.
    A menu share of at most ``quota`` contracts is chosen whole.  ``splits``
    holds each order split once into its *top* (the mask of its first
    ``quota`` contracts) and its *tail* (the rest, in order), so the top is
    answered by one mask operation and only the tail is walked, for the
    members the top lacks.  The evaluator of every ranking and filter;
    coherent by construction, so removing contracts it did not choose never
    changes its choice.  With quota 1 and one order (a Gale-Shapley agent),
    an aggregate side reads ``splits[0]`` only while building its tables,
    from which it runs deferred acceptance and the stability verdict by
    rank (see :mod:`contractmatch.aggregation`).
    """

    __slots__ = ("splits", "quota", "piece")

    def __init__(self, splits: Sequence[tuple[int, Sequence[int]]], quota: int, piece: int):
        self.splits, self.quota, self.piece = splits, quota, piece

    def _choose(self, subset: int) -> int:
        share, quota = subset & self.piece, self.quota
        if share.bit_count() <= quota:
            return share
        chosen = 0
        for top, tail in self.splits:
            got = share & top
            chosen |= got
            left = quota - got.bit_count()
            if left:
                for c in tail:
                    if share >> c & 1:
                        chosen |= 1 << c
                        left -= 1
                        if not left:
                            break
        return chosen

    def _kept_additions(self, subset: int, candidates: int) -> int:
        """``x`` is kept from ``S | {x}`` exactly when some order ranks ``x``
        no lower than its ``quota``-th member of ``S``: the whole top of each
        order, and the tail up to that member when the top holds fewer than
        ``quota`` members of ``S``."""
        share, quota = subset & self.piece, self.quota
        if share.bit_count() < quota:
            return candidates & self.piece
        better = 0
        for top, tail in self.splits:
            better |= top
            left = quota - (share & top).bit_count()
            if left:
                for c in tail:
                    better |= 1 << c
                    if share >> c & 1:
                        left -= 1
                        if not left:
                            break
        return candidates & better


class _RankingChoice(ChoiceFunction):
    """A variant that chooses the ``quota`` best available contracts of each
    of its orders, given by ``_orders_and_quota``.  Its own calls and its
    relabelled form share one :class:`_Ranking` evaluator."""

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        raise NotImplementedError

    @cached_property
    def _ranking(self) -> _Ranking:
        """The evaluator over local ids, built on the first direct call: an
        agent inside an aggregate is only ever called relabelled."""
        return self._relabelled(range(self.n), full_mask(self.n))

    def _choose(self, subset: int) -> int:
        return self._ranking._choose(subset)

    def _kept_additions(self, subset: int, candidates: int) -> int:
        return self._ranking._kept_additions(subset, candidates)

    def _relabelled(self, ids: Sequence[int], piece: int) -> _Ranking:
        """Each order split once, from local ids, into its top mask and its
        tail as a compact table of global ids (:func:`~contractmatch.sets.id_table`,
        typed by the tail's own largest id, so a filter's empty tail is the
        shared ``b""``).  The evaluator's piece is the contracts some order
        ranks: ``piece`` itself when an order ranks all ``n`` contracts; a
        contract no order ranks is never chosen."""
        orders, quota = self._orders_and_quota()
        if all(len(order) < self.n for order in orders):
            piece = mask_of([ids[c] for order in orders for c in order])
        # From a list: see AggregateChoice.__post_init__.
        splits = tuple([
            (mask_of([ids[c] for c in order[:quota]]), id_table([ids[c] for c in order[quota:]]))
            for order in orders
        ])
        return _Ranking(splits, quota, piece)


@dataclass(frozen=True)
class Identity(_RankingChoice):
    """Chooses every offered contract: ``f(A) = A``.  Trivially coherent: a
    ranking of one order, of every contract, whose quota is its length."""

    n: int

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return (range(self.n),), self.n


@dataclass(frozen=True)
class TableChoice(ChoiceFunction):
    """An explicit lookup table with one entry per subset of the universe.

    ``entries[m]`` is the chosen mask for the subset with bitmask ``m``.
    Tables may deliberately violate any axiom (entries need not be submasks
    of their argument); they are the raw material for checker tests.
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 1 << self.n
        if len(self.entries) != size:
            raise SpecError(
                f"table must define every subset exactly once:"
                f" got {len(self.entries)} entries for a {self.n}-contract universe"
                f" ({size} subsets)"
            )
        universe = full_mask(self.n)
        for m, out in enumerate(self.entries):
            if out < 0 or out & ~universe:
                raise SpecError(
                    f"table entry for {format_mask(m)} chooses contracts"
                    f" outside the universe: {format_mask(out)}"
                )

    def _choose(self, subset: int) -> int:
        return self.entries[subset]


@dataclass(frozen=True)
class TopOfOrder(_RankingChoice):
    """Chooses the single best available contract of a strict ranking.

    ``order`` lists every contract id of the universe, best-first.  The
    empty set maps to the empty set.
    """

    n: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_ranking(self.order, self.n)

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return (self.order,), 1


@dataclass(frozen=True)
class ResponsiveQuota(_RankingChoice):
    """Chooses the ``quota`` best available contracts of a strict ranking.

    ``order`` ranks every contract of the universe.  With ``quota=1`` this
    is :class:`TopOfOrder`; with ``quota=0`` it chooses nothing.
    """

    n: int
    order: tuple[int, ...]
    quota: int

    def __post_init__(self) -> None:
        _validate_ranking(self.order, self.n)
        if self.quota < 0:
            raise SpecError(f"quota must be non-negative, got {self.quota}")

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return (self.order,), self.quota


@dataclass(frozen=True)
class UnionOfOrders(_RankingChoice):
    """Chooses the best available contract of each of several total orders.

    Every order must rank the whole universe.  Functions of this shape are
    always coherent, and conversely every coherent function arises this way
    from some finite family of orders, so this variant doubles as a
    generator of arbitrary coherent functions.
    """

    n: int
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise SpecError("union-of-orders needs at least one order")
        for order in self.orders:
            _validate_ranking(order, self.n)

    def _orders_and_quota(self) -> tuple[Sequence[Sequence[int]], int]:
        return self.orders, 1


def _validate_ranking(order: Sequence[int], n: int) -> None:
    """Require ``order`` to be a permutation of ``0 .. n-1``."""
    # A valid ranking passes this one C-speed test; the walk below only names
    # the fault.  Sets, unlike sorted(), accept elements of mixed types.
    if len(order) == n and set(order) == set(range(n)):
        return
    if len(set(order)) != len(order):
        raise SpecError(f"ranking {order!r} repeats a contract")
    for contract in order:
        if not 0 <= contract < n:
            raise SpecError(f"ranking {order!r} names contract {contract} outside the universe")
    if len(order) != n:
        raise SpecError(
            f"ranking {order!r} must rank every contract of the {n}-contract universe exactly once"
        )


# ---------------------------------------------------------------------------
# Valuation-driven choice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationScheme:
    """Per-contract tie-breaking prices subtracted from a subset valuation.

    Subtracting a tiny price ``prices[x]`` for every chosen contract turns a
    subset valuation with ties into one with a unique maximizer on every
    menu, without ever changing which unperturbed values are maximal.  For
    that to hold the prices must stay within ``[0, epsilon]`` and ``epsilon``
    must be below ``gap / n``, where ``gap`` is the smallest difference
    between distinct valuation values.

    The default scheme deducts strictly more from later contract ids
    (``epsilon * (1 - 2**-(x+1))``), so value ties resolve in favor of the
    lowest-id contracts.
    """

    epsilon: Fraction
    prices: tuple[Fraction, ...]

    @classmethod
    def dyadic(cls, n: int, epsilon: Fraction | int) -> "PerturbationScheme":
        from fractions import Fraction

        eps = Fraction(epsilon)
        prices = tuple(eps * (1 - Fraction(1, 2 ** (x + 1))) for x in range(n))
        return cls(eps, prices)

    @classmethod
    def for_valuation(cls, values: Sequence[Fraction]) -> "PerturbationScheme":
        """A safe default scheme for the given valuation table."""
        n = _universe_size(len(values))
        gap = _min_gap(values)
        eps = gap / (2 * n) if gap is not None else 1
        return cls.dyadic(n, eps)


def _universe_size(table_len: int) -> int:
    n = max(table_len - 1, 0).bit_length()
    if table_len != 1 << n:
        raise SpecError(
            f"valuation table must have one entry per subset (a power of two);"
            f" got {table_len} entries"
        )
    return n


def _min_gap(values: Sequence[Fraction]) -> Fraction | None:
    """Smallest difference between distinct values, or None if all equal."""
    distinct = sorted(set(values))
    if len(distinct) < 2:
        return None
    return min(b - a for a, b in zip(distinct, distinct[1:]))


@dataclass(frozen=True)
class ValuationArgmax(ChoiceFunction):
    """Chooses the subset of the menu maximizing a perturbed valuation.

    ``values[m]`` is the (exact, rational) value of the subset with bitmask
    ``m``.  The scheme's prices are subtracted per chosen contract; the
    construction validates that the perturbed valuation has a *unique*
    maximizer on every menu and that this maximizer also attains the
    unperturbed maximum.  That table costs ``3**n`` steps, so a universe
    above :func:`~contractmatch.limits.pairwise_bound` raises
    :class:`~contractmatch.errors.SizeBoundError` before it is built.
    """

    n: int
    values: tuple[Fraction, ...]
    scheme: PerturbationScheme

    def __post_init__(self) -> None:
        if _universe_size(len(self.values)) != self.n:
            raise SpecError(
                f"valuation table covers {_universe_size(len(self.values))} contracts,"
                f" expected {self.n}"
            )
        steps = f"3^{self.n} steps for {self.n} contracts"
        refusal = f"valuation argmax refused: building its table takes {steps}"
        limits.refuse_above(self.n, limits.pairwise_bound, None, refusal)
        self._validate_scheme()
        perturbed = self._perturbed_values()
        object.__setattr__(self, "_table", self._argmax_table(perturbed))

    def _validate_scheme(self) -> None:
        s = self.scheme
        if len(s.prices) != self.n:
            raise SpecError(f"scheme prices cover {len(s.prices)} contracts, expected {self.n}")
        if s.epsilon <= 0:
            raise SpecError("scheme epsilon must be positive")
        for x, p in enumerate(s.prices):
            if not 0 <= p <= s.epsilon:
                raise SpecError(f"price for contract {x} must lie in [0, epsilon], got {p}")
        gap = _min_gap(self.values)
        if gap is not None and self.n and not s.epsilon < gap / self.n:
            raise SpecError(
                f"epsilon {s.epsilon} too large: must be below gap/n = {gap}/{self.n}"
                f" so perturbation can never override a real value difference"
            )

    def _perturbed_values(self) -> list[Fraction]:
        from fractions import Fraction

        size = 1 << self.n
        price_sum = [Fraction(0)] * size
        for m in range(1, size):
            low = (m & -m).bit_length() - 1
            price_sum[m] = price_sum[m & (m - 1)] + self.scheme.prices[low]
        return [self.values[m] - price_sum[m] for m in range(size)]

    def _argmax_table(self, perturbed: list[Fraction]) -> tuple[int, ...]:
        table = []
        for menu in range(1 << self.n):
            best, best_value, tied = 0, perturbed[0], False
            for sub in iter_submasks(menu):
                if sub == 0:
                    continue
                v = perturbed[sub]
                if v > best_value:
                    best, best_value, tied = sub, v, False
                elif v == best_value:
                    tied = True
            if tied:
                raise SpecError(
                    f"perturbation scheme fails to break ties on menu {format_mask(menu)};"
                    f" choose distinct prices or a smaller epsilon"
                )
            table.append(best)
        return tuple(table)

    def _choose(self, subset: int) -> int:
        return self._table[subset]  # type: ignore[attr-defined]


def valuation_choice(
    values: Sequence[Fraction | int],
    scheme: PerturbationScheme | None = None,
) -> ValuationArgmax:
    """Build the choice function of a subset valuation.

    ``values`` must have one entry per subset of the universe, indexed by
    bitmask.  When ``scheme`` is omitted a safe default is derived from the
    table.
    """
    from fractions import Fraction

    table = tuple(Fraction(v) for v in values)
    n = _universe_size(len(table))
    if scheme is None:
        scheme = PerturbationScheme.for_valuation(table)
    return ValuationArgmax(n, table, scheme)


def tabulate(f: ChoiceFunction) -> TableChoice:
    """Materialize any choice function as an explicit table.

    Raises :class:`~contractmatch.errors.SpecError` when ``f`` chooses a
    contract outside its universe.
    """
    return TableChoice(f.n, tuple(f.choose_mask(m) for m in range(1 << f.n)))
