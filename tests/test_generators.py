"""Seeded generators and the instances they build: pinned benchmark inputs
and a lean per-contract footprint."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from contractmatch.aggregation import build_marriage_instance
from contractmatch.generators import (
    random_instance,
    random_marriage_profile,
    random_money_economy,
    random_partition,
    random_valuation,
)
from contractmatch.instancefile import dumps_document, to_document


# ---------------------------------------------------------------------------
# The benchmark's inputs are pinned
# ---------------------------------------------------------------------------


def _digest(instance) -> str:
    return hashlib.sha256(dumps_document(to_document(instance)).encode()).hexdigest()


# SHA-256 of the canonical document of each input the `bulk` and `marriage`
# workloads draw from; a generator or builder change that alters them fails here.
PINNED = {
    ("bulk", 1, 200): "97df7844cd568e64fcb66e694a6ae06aa1da515ff9f2873b2c723c3395234820",
    ("bulk", 1, 500): "52992e26f4eca8dff8c94168659c28d9c8c212722ba803463868e445ac489cb9",
    ("bulk", 1, 800): "21737275d643326f9aa29f57e16d793032ac87fae6a10ac08b8f15867fb19fbf",
    ("bulk", 2, 200): "f99c1befca7c39a3c83eb05177c6895ecd2f2f69e7d5598642b8f650c9805d6d",
    ("bulk", 2, 500): "51c08a20107d878824c55ec0d647c73a51973fb3389498394eb738d63d6bdfe4",
    ("bulk", 2, 800): "fb05f9d626c77a896e10afa0fee6b2532c92970a37ec184e48cbb788b4d96a38",
    ("marriage", 1, 16): "967dbc5ac5c7f4a9768f28ff9e96c59a2047ed1fdd22fd691246a7292b6810d9",
    ("marriage", 1, 24): "e291e68a9cb85a2d38d9b2a59dd230a00a4ae34cdcec44b11471be7eae202052",
    ("marriage", 1, 32): "b049ebbc234e58529ae2688af2ae6c3b32dc948ecc709de49c9e62748f2e694e",
    ("marriage", 2, 16): "2e40a7d69ee0696825d4ac8954dd0015136a3781c42d79a175b99b91649d8f8b",
    ("marriage", 2, 24): "86500813d013c1104468edc3fc910ef48868e408e72e03e1cba51a444dffa15d",
    ("marriage", 2, 32): "4b31c842e635adb2c532fc604d95206dd54418fcc8304e9ed76f60ea878df02d",
}


@pytest.mark.parametrize("workload, seed, size", sorted(PINNED))
def test_benchmark_inputs_are_pinned(workload, seed, size):
    if workload == "bulk":
        instance = random_instance(seed, size, 5, 20)
    else:
        instance = build_marriage_instance(*random_marriage_profile(seed, size, size))
    assert _digest(instance) == PINNED[workload, seed, size]


def test_generators_refuse_requests_they_cannot_meet():
    with pytest.raises(ValueError, match="cannot split 3 contracts into 4 non-empty slices"):
        random_partition(random.Random(0), 3, 4)
    with pytest.raises(ValueError, match="unknown valuation family 'cubic'"):
        random_valuation(0, 2, "cubic")


# ---------------------------------------------------------------------------
# Per-contract footprint
# ---------------------------------------------------------------------------


def test_marriage_parts_hold_their_contract_ids_as_ranges():
    k, m = 5, 3
    instance = build_marriage_instance(*random_marriage_profile(3, k, m))
    men = {part.agent: part.contract_ids for part in instance.f1.parts}
    women = {part.agent: part.contract_ids for part in instance.f2.parts}
    assert all(type(ids) is range for ids in (*men.values(), *women.values()))
    for i in range(k):
        assert men[f"m{i + 1}"] == range(i * m, (i + 1) * m)
    for j in range(m):
        assert women[f"w{j + 1}"] == range(j, k * m, m)


def _built_instances():
    """A marriage, a bulk and a money-economy instance, as built."""
    return (
        build_marriage_instance(*random_marriage_profile(6, 4, 5)),
        random_instance(6, 30, 2, 5),
        random_money_economy(6).instance,
    )


@pytest.mark.parametrize("which", range(3))
def test_built_instances_read_their_labels_from_the_sides(which):
    built = _built_instances()[which]
    assert built.__dict__["_labels"] is None
    labels = built.labels
    assert len(labels) == built.n
    owners = (built.f1.owners(), built.f2.owners())
    assert [(lab.side1, lab.side2) for lab in labels] == list(zip(*owners))
    given = dataclasses.replace(built, labels=labels)
    assert given.__dict__["_labels"] is labels
    assert given.labels == built.labels and given == built and built == given
    assert hash(given) == hash(built) and repr(given) == repr(built)
    assert to_document(given) == to_document(built)
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert copied.__dict__["_labels"] is None and copied == given
        assert repr(copied) == repr(given) and hash(copied) == hash(given)
    replaced = dataclasses.replace(built)
    assert replaced == given and repr(replaced) == repr(given)


def _names(instance) -> list[str]:
    """Every contract and agent name an instance holds."""
    names = [*instance.names]
    for label in instance.labels:
        names += [label.side1, label.side2]
    for side in (instance.f1, instance.f2):
        names += [part.agent for part in side.parts]
    return names


def test_marriage_instances_of_one_size_share_each_name_object():
    k = 12
    first = build_marriage_instance(*random_marriage_profile(1, k, k))
    second = build_marriage_instance(*random_marriage_profile(2, k, k))
    assert first != second
    for x, y in zip(_names(first), _names(second), strict=True):
        assert x is y
    assert all(name is sys.intern(name) for name in _names(first))


def test_marriage_rankings_are_the_profile_tuples():
    men, women = random_marriage_profile(4, 7, 5)
    assert all(type(prefs) is tuple for prefs in men + women)
    instance = build_marriage_instance(men, women)
    for side, prefs in ((instance.f1, men), (instance.f2, women)):
        for part in side.parts:
            assert part.spec.order is prefs[int(part.agent[1:]) - 1], part.agent


def test_contract_records_have_no_instance_dict():
    marriage = build_marriage_instance(*random_marriage_profile(1, 3, 3))
    bulk = random_instance(1, 20, 2, 4)
    labels = marriage.labels + bulk.labels
    parts = marriage.f1.parts + marriage.f2.parts + bulk.f1.parts + bulk.f2.parts
    contracts = random_money_economy(1).contracts
    for record in (*labels, *parts, *contracts):
        assert not hasattr(record, "__dict__"), record


def test_slotted_records_copy_pickle_and_replace():
    marriage = build_marriage_instance(*random_marriage_profile(5, 6, 6))
    economy = random_money_economy(5)
    part = marriage.f1.parts[0]
    for obj in (marriage, economy, part):
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
    moved = dataclasses.replace(part, agent="m9")
    assert (moved.agent, moved.spec, moved.contract_ids) == ("m9", part.spec, part.contract_ids)
    assert dataclasses.replace(moved, agent=part.agent) == part
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.agent = "m9"
    label = marriage.labels[0]
    moved = dataclasses.replace(label, side2="w9")
    assert (moved.side1, moved.side2) == (label.side1, "w9") and moved != label
    back = dataclasses.replace(moved, side2=label.side2)
    assert back == label and hash(back) == hash(label) and repr(back) == repr(label)
    assert repr(label) == "ContractLabel(side1='m1', side2='w1')"
    price = dataclasses.replace(economy.contracts[0], price=0)
    assert price.tuple_key()[:3] == economy.contracts[0].tuple_key()[:3]


def _retained(workload: str) -> int:
    """The bytes ``scripts/footprint.py`` reports for a seed-1 cycle."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "footprint.py"),
         "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert len(out) > 1
    for line in out[:-1]:
        assert re.fullmatch(r" *\d+ B +-?\d+ blocks  \S+:\d+", line), line
    retained = re.fullmatch(r"retained (\d+) bytes in [1-9][0-9]* inputs", out[-1])
    assert retained and int(retained[1]) > 0, out[-1]
    return int(retained[1])


# Instances keep no per-contract label or id object (2 306 750 and 1 133 802
# bytes when the bounds were set, against 4 107 150 and 1 497 246 with them).
def test_footprint_script_reports_a_marriage_cycle():
    assert _retained("marriage") <= 2_600_000


def test_footprint_script_reports_a_bulk_cycle():
    assert _retained("bulk") <= 1_250_000
