"""Many-to-many matching with contracts under revealed preferences.

The package turns one idea into runnable machinery: when every agent's
choice behaviour satisfies three consistency axioms (contraction,
rejection consistency, substitutability), two-sided agreement problems
gain a complete theory — an offer/rejection iteration that terminates at
an extreme stable agreement, a lattice structure over all stable
agreements, and, once prices enter, a law restricting how many distinct
prices a stable agreement can carry.

Layers:

- :mod:`contractmatch.choice` — choice-function representations
- :mod:`contractmatch.coherence` — axiom checkers with counterexamples
- :mod:`contractmatch.preference` — revealed comparisons and closure
- :mod:`contractmatch.aggregation` — gluing per-agent choices into sides
- :mod:`contractmatch.engine` — the iteration, stability, meet/join
- :mod:`contractmatch.oracle` — independent brute-force enumeration
- :mod:`contractmatch.market` — priced contracts and the two-price law
- :mod:`contractmatch.instancefile` — the JSON file format
- :mod:`contractmatch.cli` — the ``contractmatch`` command

The public names below are re-exported lazily (PEP 562): a submodule is
imported on first access to a name it defines, so ``import contractmatch``
costs no more than the names a program actually uses.
"""

import sys as _sys

__version__ = "0.1.0"

# Each submodule reachable as an attribute of the package, with the public
# names it re-exports (``limits`` and ``sets`` re-export none).
_EXPORTS = {
    "aggregation": (
        "AggregateChoice",
        "AggregatePart",
        "aggregate_side",
        "build_marriage_instance",
    ),
    "choice": (
        "ChoiceFunction",
        "Identity",
        "PerturbationScheme",
        "ResponsiveQuota",
        "TableChoice",
        "TopOfOrder",
        "UnionOfOrders",
        "ValuationArgmax",
        "tabulate",
        "valuation_choice",
    ),
    "coherence": (
        "AXIOM_CONTRACTION",
        "AXIOM_IRC",
        "AXIOM_PATH",
        "AXIOM_SUBSTITUTES",
        "CoherenceReport",
        "ViolationReport",
        "check_coherent",
        "check_contraction",
        "check_irc",
        "check_path_independence",
        "check_substitutes",
    ),
    "engine": (
        "MODE_FULL",
        "MODE_SINGLETON",
        "AgreementVerdict",
        "ContractLabel",
        "Instance",
        "SolveResult",
        "StabilityVerdict",
        "StableAgreementVerdict",
        "Trace",
        "auto_names",
        "is_agreement",
        "is_stable_agreement",
        "is_stable_set",
        "join",
        "meet",
        "run",
    ),
    "errors": (
        "DomainError",
        "ParseError",
        "PreconditionError",
        "SizeBoundError",
        "SpecError",
    ),
    "instancefile": ("LoadedFile", "load", "parse_document", "save", "to_document"),
    "limits": (),
    "market": (
        "LinearProducerChoice",
        "MarketContract",
        "MoneyEconomy",
        "MoneyMonotoneReport",
        "NoShortageReport",
        "TwoPriceReport",
        "UnitDemandConsumerChoice",
        "build_linear_producer",
        "build_money_economy",
        "build_unit_demand_consumer",
        "check_money_monotone",
        "check_no_shortage",
        "check_two_prices",
    ),
    "oracle": (
        "StableSetCatalog",
        "brute_glb",
        "brute_lub",
        "classical_gale_shapley",
        "enumerate_stable_agreements",
    ),
    "preference": (
        "COHERENCE_ASSERTED",
        "COHERENCE_CHECKED",
        "COHERENCE_UNKNOWN",
        "PreferenceVerdict",
        "closure",
        "indifferent",
        "prefers",
    ),
    "sets": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule behind a public name (or the submodule itself) on
    first access; later accesses find the value in the package namespace."""
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, unlike importlib.import_module, is
    # what ``python -X importtime`` reports on.
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = _sys.modules[qualified]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
