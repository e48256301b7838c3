#!/usr/bin/env python3
"""Regenerate the packaged fixture files.

Every fixture is deterministic: hand-built instances come from
:mod:`contractmatch.corpus`, seeded ones echo their generator and seed in
``meta`` so the file can be reproduced from scratch.  Run from anywhere::

    python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from contractmatch.choice import UnionOfOrders, valuation_choice
from contractmatch.corpus import (
    FIXTURE_DIR,
    identity_instance,
    marriage_1x1,
    marriage_2x2,
    marriage_3x3,
    no_stable_agreement_instance,
    price_gap_economy,
)
from contractmatch.engine import Instance, auto_names
from contractmatch.generators import (
    random_instance,
    random_money_economy,
    random_order,
    random_valuation,
)
from contractmatch.instancefile import save
from contractmatch.market import build_money_economy


def main() -> int:
    out = FIXTURE_DIR
    out.mkdir(parents=True, exist_ok=True)

    save(out / "no_stable_agreement.json", no_stable_agreement_instance())
    save(out / "identity_3.json", identity_instance(3))
    save(out / "marriage_1x1.json", marriage_1x1())
    save(out / "marriage_2x2.json", marriage_2x2())
    save(out / "marriage_3x3.json", marriage_3x3())

    save(
        out / "coherent_seed7.json",
        random_instance(7, 6),
        meta={"generator": "random_instance", "seed": 7, "n": 6},
    )
    save(
        out / "coherent_seed11.json",
        random_instance(11, 5),
        meta={"generator": "random_instance", "seed": 11, "n": 5},
    )

    # A valuation side (unit demand over three contracts) against two orders.
    rng = random.Random(16)
    save(
        out / "valuation_seed16.json",
        Instance(
            names=auto_names(3),
            f1=valuation_choice(random_valuation(16, 3, "unit_demand")),
            f2=UnionOfOrders(3, (random_order(rng, 3), random_order(rng, 3))),
        ),
        meta={"generator": "random_valuation", "family": "unit_demand", "seed": 16, "n": 3},
    )

    economy_small = build_money_economy(
        producers=["p1"],
        consumers=["c1"],
        templates=["widget"],
        price_grid=[10, 12, 14],
        unit_costs={"p1": {"widget": 11}},
        willingness={"c1": {"widget": 13}},
    )
    save(
        out / "economy_small.json",
        economy_small.instance,
        economy_small,
        meta={"generator": "build_money_economy", "note": "1 producer, 1 consumer"},
    )

    economy_two = build_money_economy(
        producers=["p1", "p2"],
        consumers=["c1"],
        templates=["widget"],
        price_grid=[10, 12, 14],
        unit_costs={"p1": {"widget": 11}, "p2": {"widget": 9}},
        willingness={"c1": {"widget": 13}},
    )
    save(
        out / "economy_two_producers.json",
        economy_two.instance,
        economy_two,
        meta={"generator": "build_money_economy", "note": "2 producers, 1 consumer"},
    )

    seeded = random_money_economy(3)
    save(
        out / "economy_seed3.json",
        seeded.instance,
        seeded,
        meta={"generator": "random_money_economy", "seed": 3},
    )

    gap = price_gap_economy()
    save(out / "market_price_gap.json", gap.instance, gap)

    for path in sorted(out.glob("*.json")):
        print(f"wrote {path.relative_to(Path.cwd()) if path.is_relative_to(Path.cwd()) else path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
