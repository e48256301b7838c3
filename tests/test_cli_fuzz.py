"""No input file crashes or hangs the CLI.

Hypothesis feeds ``cli.main`` mutated copies of the shipped fixtures and
random table instances (n <= 4, usually incoherent), running every
subcommand on each.  Every call must return an exit code 0-3 (success,
check failed, bad input, size bound) within a deadline; an exception that
escapes ``main`` fails the test.  The runs are derandomized, so the same
examples are drawn on every run.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contractmatch.aggregation import aggregate_side
from contractmatch.choice import TableChoice
from contractmatch.cli import main
from contractmatch.corpus import FIXTURE_DIR
from contractmatch.engine import Instance
from contractmatch.instancefile import save

from conftest import deadline

FIXTURES = {path.stem: json.loads(path.read_text()) for path in FIXTURE_DIR.glob("*.json")}

FORMS = (
    ("validate",),
    ("solve",),
    ("solve", "--proposer", "2", "--trace"),
    ("lattice",),
    ("market",),
    ("oracle",),
    ("query", "--op", "prefers", "--side", "2"),
)

# Values a mutation writes in place of a node: wrong types, edge numbers,
# names that may or may not exist.
JUNK = (None, True, -1, 0, 2, 10**30, 1.5, "", "x", "1/0", "m1_w1", [], [[]], {}, {"a": 1})

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _nodes(node, path=()):
    """Every node of a JSON document with its path of keys and indices."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_fixtures(draw) -> dict:
    """A fixture with one to three nodes replaced, deleted or duplicated."""
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "replace":
            parent[key] = draw(st.sampled_from(JUNK))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(("x", "m1", key + "_")))] = copy.deepcopy(parent[key])
    return doc


def _random_table(draw, k: int) -> TableChoice:
    """Any entry within the universe: contraction and the axioms may fail."""
    entries = st.lists(st.integers(0, (1 << k) - 1), min_size=1 << k, max_size=1 << k)
    return TableChoice(k, tuple(draw(entries)))


@st.composite
def table_instances(draw) -> Instance:
    """Both sides arbitrary tables over n <= 4 contracts, either whole or
    split among up to three agents."""
    n = draw(st.integers(1, 4))
    sides = []
    for _ in range(2):
        owners = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
        if draw(st.booleans()):
            sides.append(_random_table(draw, n))
        else:
            specs = {a: _random_table(draw, owners.count(a)) for a in sorted(set(owners))}
            sides.append(aggregate_side(specs, owners))
    return Instance(tuple(f"c{i}" for i in range(n)), *sides)


def _run_every_form(path, names) -> None:
    for form in FORMS:
        argv = [form[0], str(path), "--json", *form[1:]]
        if form[0] == "query":
            argv += ["-A", names[0], "-B", names[-1]]
        out, err = io.StringIO(), io.StringIO()
        with deadline(10), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())


@settings(FUZZ, max_examples=40)
@given(doc=mutated_fixtures())
def test_mutated_fixtures_end_in_an_exit_code(doc, tmp_path):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    names = doc.get("contracts") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not names or not all(isinstance(x, str) for x in names):
        names = ["x"]
    _run_every_form(path, names)


@settings(FUZZ, max_examples=40)
@given(instance=table_instances())
def test_random_tables_end_in_an_exit_code(instance, tmp_path):
    path = tmp_path / "tables.json"
    save(path, instance)
    _run_every_form(path, instance.names)
