#!/usr/bin/env python3
"""Survey the stable-agreement lattice over random coherent instances.

For each seeded instance this script enumerates every stable agreement by
brute force, recomputes meets and joins with the iteration engine, and
cross-checks them against order-theoretic bounds.  It also *observes* (but
never asserts) algebraic properties whose general status is open here:
distributivity of meet over join, and whether the meet contains the
intersection of the two inputs.

Usage::

    python3 scripts/lattice_census.py [--instances 60] [--max-n 8] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from contractmatch.aggregation import build_marriage_instance
from contractmatch.engine import join, meet
from contractmatch.generators import random_instance, random_marriage_profile
from contractmatch.oracle import brute_glb, brute_lub, enumerate_stable_agreements


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=60)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes: Counter[int] = Counter()
    pairs_checked = 0
    glb_matches = 0
    lub_matches = 0
    distributive = 0
    distributive_total = 0
    meet_contains_intersection = 0

    for i in range(args.instances):
        if i % 2:
            k = 3 + (args.seed + i) % 2
            men, women = random_marriage_profile(args.seed * 10_000 + i, k, k)
            instance = build_marriage_instance(men, women)
        else:
            n = 4 + (args.seed + i) % (args.max_n - 3)
            instance = random_instance(args.seed * 10_000 + i, n)
        catalog = enumerate_stable_agreements(instance)
        sizes[len(catalog)] += 1

        for a, b in combinations(catalog.sets, 2):
            m = meet(instance, a, b)
            j = join(instance, a, b)
            pairs_checked += 1
            if brute_glb(catalog, a, b) == m:
                glb_matches += 1
            if brute_lub(catalog, a, b) == j:
                lub_matches += 1
            if a & b == m & (a & b):
                meet_contains_intersection += 1

        for a, b, c in combinations(catalog.sets, 3):
            lhs = meet(instance, a, join(instance, b, c))
            rhs = join(instance, meet(instance, a, b), meet(instance, a, c))
            distributive_total += 1
            if lhs == rhs:
                distributive += 1

    print(f"instances surveyed: {args.instances}")
    print("stable-agreement counts (size: how many instances):")
    for size in sorted(sizes):
        print(f"  {size}: {sizes[size]}")
    print(f"pairs checked: {pairs_checked}")
    print(f"  meet == greatest lower bound: {glb_matches}/{pairs_checked}")
    print(f"  join == least upper bound:    {lub_matches}/{pairs_checked}")
    print(f"  meet contains intersection:   {meet_contains_intersection}/{pairs_checked}")
    if distributive_total:
        print(
            f"distributivity meet(a, join(b,c)) == join(meet(a,b), meet(a,c)):"
            f" {distributive}/{distributive_total} triples (observed, not asserted)"
        )
    else:
        print("no triples of stable agreements encountered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
