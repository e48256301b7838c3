"""No input file crashes or hangs the CLI.

Hypothesis feeds ``cli.main`` mutated copies of the shipped fixtures,
random table instances (n <= 4, usually incoherent), one-contract valuation
files whose numbers are drawn from number-like strings and long literals,
and fixtures with a node replaced by deeply nested arrays or objects,
running every subcommand on each.  Every call must return an exit code 0-3
(success, check failed, bad input, size bound) within a deadline; an
exception that escapes ``main`` fails the test.  The runs are derandomized, so the same
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

# Number strings the rational grammar (``[-]digits[/digits]``) must read or
# refuse at once, whatever ``Fraction(str)`` or ``int(str)`` would make of
# them: exponents, long digit runs, ``_`` separators, whitespace.
NUMBER_STRINGS = st.one_of(
    st.sampled_from(
        (
            "1e1000000000", "-1E-999999999", "1_000", " 3/2", "3/2\n", "+1", "1.5",
            "\u0661\u0662", "0x1f", "inf", "nan", "1/0", "3/-2", "1" * 5000, "9" * 4000 + "/7",
        )
    ),
    st.from_regex(
        r"\s?-?[0-9_]{1,6}(\.[0-9]{1,3})?([eE][-+]?[0-9]{1,10})?(/[0-9_]{1,4})?\s?",
        fullmatch=True,
    ),
)

# Raw JSON number literals: past the decoder's digit limit (4300 by
# default), at it, and floats that overflow or underflow.
NUMBER_LITERALS = ("9" * 5000, "-" + "1" * 4301, "1" * 4300, "1e1000000000", "1E-400", "-0.0")

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


def _parent(doc, path):
    """The container holding the node at ``path`` (a non-empty path)."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_fixtures(draw) -> dict:
    """A fixture with one to three nodes replaced, deleted or duplicated."""
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            continue
        parent, key = _parent(doc, path), path[-1]
        action = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))  # later edits stay local
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[draw(st.sampled_from(("x", "m1", key + "_")))] = copy.deepcopy(parent[key])
    return doc


def _splice(doc, raw: list[str]) -> str:
    """``doc`` as JSON text, each string ``"<raw i>"`` in it replaced by the
    JSON text ``raw[i]``."""
    text = json.dumps(doc)
    for i, piece in enumerate(raw):
        text = text.replace(json.dumps(f"<raw {i}>"), piece)
    return text


@st.composite
def valuation_numbers(draw) -> str:
    """A one-contract valuation file whose values, epsilon and price are
    ints, number strings or raw number literals."""
    raw: list[str] = []

    def number():
        kind = draw(st.sampled_from(("int", "string", "literal")))
        if kind == "int":
            return draw(st.integers(-10, 10))
        if kind == "string":
            return draw(NUMBER_STRINGS)
        raw.append(draw(st.sampled_from(NUMBER_LITERALS)))
        return f"<raw {len(raw) - 1}>"

    values = [{"set": [], "value": number()}, {"set": ["a"], "value": number()}]
    block = {"variant": "valuation_argmax", "values": values}
    if draw(st.booleans()):
        block["epsilon"] = number()
        if draw(st.booleans()):
            block["prices"] = [number()]
    doc = {
        "schema_version": 1,
        "contracts": ["a"],
        "choice": {"side1": block, "side2": {"variant": "identity"}},
    }
    return _splice(doc, raw)


@st.composite
def nested_fixtures(draw) -> str:
    """A fixture with one node (or the whole document) replaced by arrays
    or objects nested up to and past the decoder's recursion limit."""
    doc = copy.deepcopy(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    depth = draw(st.sampled_from((2, 50, 500, 990, 5000, 100_000)))
    if draw(st.booleans()):
        nested = "[" * depth + "]" * depth
    else:
        nested = '{"a": ' * depth + "1" + "}" * depth
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return nested
    _parent(doc, path)[path[-1]] = "<raw 0>"
    return _splice(doc, [nested])


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


@settings(FUZZ, max_examples=40)
@given(text=valuation_numbers())
def test_number_strings_end_in_an_exit_code(text, tmp_path):
    path = tmp_path / "numbers.json"
    path.write_text(text)
    _run_every_form(path, ["a"])


@settings(FUZZ, max_examples=30)
@given(text=nested_fixtures())
def test_deep_nesting_ends_in_an_exit_code(text, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(text)
    _run_every_form(path, ["x"])
