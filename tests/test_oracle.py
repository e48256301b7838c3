"""Brute-force ground truth: catalogs, lattice bounds, classical matching."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from contractmatch.corpus import (
    identity_instance,
    marriage_2x2,
    marriage_3x3,
    no_stable_agreement_instance,
)
from contractmatch.engine import Instance, auto_names, is_stable_agreement, join, meet, run
from contractmatch.errors import PreconditionError, SizeBoundError
from contractmatch.generators import random_instance, random_marriage_profile
from contractmatch.aggregation import build_marriage_instance
from contractmatch.choice import Identity
from contractmatch.oracle import (
    brute_glb,
    brute_lub,
    classical_gale_shapley,
    enumerate_stable_agreements,
)


# ---------------------------------------------------------------------------
# Catalogs (frozen)
# ---------------------------------------------------------------------------


def test_no_stable_agreement_catalog_is_empty():
    catalog = enumerate_stable_agreements(no_stable_agreement_instance())
    assert len(catalog) == 0
    assert catalog.sets == ()


def test_identity_catalog_is_the_universe():
    inst = identity_instance(3)
    catalog = enumerate_stable_agreements(inst)
    assert catalog.sets == (inst.universe,)
    assert catalog.below == ((True,),)


def test_marriage_2x2_catalog():
    inst = marriage_2x2()
    catalog = enumerate_stable_agreements(inst)
    assert [inst.names_of(s) for s in catalog.sets] == [["m1_w1", "m2_w2"]]


def test_marriage_3x3_catalog_is_a_chain():
    inst = marriage_3x3()
    catalog = enumerate_stable_agreements(inst)
    assert len(catalog) == 3
    expected = [
        ["m1_w2", "m2_w3", "m3_w1"],
        ["m1_w3", "m2_w1", "m3_w2"],
        ["m1_w1", "m2_w2", "m3_w3"],
    ]
    assert [inst.names_of(s) for s in catalog.sets] == expected
    # below[i][j]: sets[i] weakly below sets[j] in side 1's order.
    assert catalog.below == (
        (True, False, True),
        (True, True, True),
        (False, False, True),
    )


def test_catalog_members_verify_independently():
    inst = marriage_3x3()
    catalog = enumerate_stable_agreements(inst)
    for subset in range(1 << inst.n):
        expected = subset in catalog.sets
        assert is_stable_agreement(inst, subset).holds == expected


def test_catalog_index():
    inst = marriage_2x2()
    catalog = enumerate_stable_agreements(inst)
    assert catalog.index(catalog.sets[0]) == 0
    with pytest.raises(PreconditionError, match="not in the stable-agreement catalog"):
        catalog.index(0b1)


def test_oracle_bound():
    inst = Instance(auto_names(17), Identity(17), Identity(17))
    with pytest.raises(SizeBoundError, match="enumeration refused"):
        enumerate_stable_agreements(inst)
    assert enumerate_stable_agreements(inst, max_n=17).sets == (inst.universe,)


# ---------------------------------------------------------------------------
# Lattice bounds straight from the relation matrix
# ---------------------------------------------------------------------------


def test_brute_bounds_on_chain():
    inst = marriage_3x3()
    catalog = enumerate_stable_agreements(inst)
    bottom, mid, top = catalog.sets[1], catalog.sets[0], catalog.sets[2]
    assert brute_glb(catalog, top, bottom) == bottom
    assert brute_lub(catalog, top, bottom) == top
    assert brute_glb(catalog, mid, top) == mid
    assert brute_lub(catalog, mid, bottom) == mid
    assert brute_glb(catalog, mid, mid) == mid


def test_brute_bounds_none_when_no_unique_bound():
    # A hand-built catalog with two incomparable members and no third one:
    # no common lower or upper bound exists at all.
    from contractmatch.oracle import StableSetCatalog

    catalog = StableSetCatalog(
        n=2,
        sets=(0b01, 0b10),
        below=((True, False), (False, True)),
    )
    assert brute_glb(catalog, 0b01, 0b10) is None
    assert brute_lub(catalog, 0b01, 0b10) is None


def test_swapping_the_sides_inverts_the_order():
    """The two sides' orders on stable agreements are inverse: with the
    sides swapped, the catalog is the same, its relation is the transpose,
    and each side's least upper bound is the other's greatest lower bound,
    both by brute force and by the engine's ``meet`` and ``join``."""
    instances = [random_instance(seed, 4 + seed % 5) for seed in range(100)]
    instances += [
        build_marriage_instance(*random_marriage_profile(seed, 3, 3)) for seed in range(50)
    ]
    several = pairs = 0
    for inst in instances:
        swapped = Instance(inst.names, inst.f2, inst.f1)
        catalog, mirror = enumerate_stable_agreements(inst), enumerate_stable_agreements(swapped)
        assert mirror.sets == catalog.sets
        assert mirror.below == tuple(zip(*catalog.below))
        several += len(catalog) > 1
        for i, a in enumerate(catalog.sets):
            for b in catalog.sets[i:]:
                pairs += 1
                assert brute_lub(catalog, a, b) == brute_glb(mirror, a, b)
                assert brute_glb(catalog, a, b) == brute_lub(mirror, a, b)
                assert join(inst, a, b) == meet(swapped, a, b)
                assert meet(inst, a, b) == join(swapped, a, b)
    assert (several, pairs) == (26, 215)  # instances with two or more agreements; pairs


# ---------------------------------------------------------------------------
# Classical man-proposing reference
# ---------------------------------------------------------------------------


def test_gale_shapley_textbook_example():
    men = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    women = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    assert classical_gale_shapley(men, women) == frozenset({(0, 0), (1, 1), (2, 2)})


def test_gale_shapley_matches_engine_on_random_profiles():
    for seed in range(40):
        n_men = 1 + seed % 4
        n_women = 1 + (seed // 4) % 4
        men, women = random_marriage_profile(seed, n_men, n_women)
        inst = build_marriage_instance(men, women)
        chosen = run(inst, proposer=1).chosen
        pairs = frozenset(
            (cid // n_women, cid % n_women)
            for cid in range(inst.n)
            if chosen >> cid & 1
        )
        assert pairs == classical_gale_shapley(men, women)


def test_gale_shapley_unbalanced():
    # Two men, one woman: she keeps her preferred proposer.
    assert classical_gale_shapley([[0], [0]], [[1, 0]]) == frozenset({(1, 0)})


def test_lattice_census_script_runs_without_pythonpath(tmp_path):
    """``scripts/lattice_census.py`` finds this tree's package by itself, run
    from outside the checkout with no ``PYTHONPATH``."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "lattice_census.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(script), "--instances", "2", "--max-n", "4"],
        capture_output=True, text=True, check=True, timeout=120, cwd=tmp_path, env=env,
    ).stdout.splitlines()
    assert out[0] == "instances surveyed: 2"
    pairs = next(line for line in out if line.startswith("pairs checked: "))
    total = pairs.rpartition(" ")[2]
    assert f"meet == greatest lower bound: {total}/{total}" in "\n".join(out)
    assert f"join == least upper bound:    {total}/{total}" in "\n".join(out)
