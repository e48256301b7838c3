#!/usr/bin/env python3
"""One SHA-256 over the CLI's answers on the shipped fixtures.

Runs every form below on every fixture (or on the fixtures named), each with
and without ``--json``, in a fresh interpreter that imports this tree's
``src``.  The digest covers each form's arguments, exit code, stdout and
stderr, with the tree's absolute path replaced by ``<tree>``, so two
checkouts that behave alike print the same digest wherever they live.
``--verbose`` adds one line per form (exit code, digest prefix, arguments)
to find the forms that differ.

Usage::

    python3 scripts/cli_digest.py [--verbose] [FIXTURE ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path("src") / "contractmatch" / "fixtures"
JOBS = 2  # forms run at once, each in its own interpreter

FORMS = (
    ("validate",),
    ("solve",),
    ("solve", "--trace"),
    ("solve", "--proposer", "2"),
    ("lattice",),
    ("oracle",),
    ("market",),
    ("market", "--check", "no-shortage"),
    ("market", "--check", "money"),
    ("market", "--check", "two-prices"),
    ("query", "--op", "closure"),
)


def argvs(fixture: str) -> list[list[str]]:
    """Every form on one fixture, plain then ``--json``; ``query`` asks for
    the closure of the fixture's first contract."""
    path = FIXTURES / f"{fixture}.json"
    first = json.loads((ROOT / path).read_text())["contracts"][0]
    out = []
    for command, *options in FORMS:
        if command == "query":
            options += ["-A", first]
        for json_flag in ([], ["--json"]):
            out.append([command, str(path), *json_flag, *options])
    return out


def run_form(argv: list[str]) -> tuple[int, bytes]:
    """The form's exit code, and its arguments, exit code, stdout and
    stderr as one record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "contractmatch.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    tree = str(ROOT).encode()
    fields = [
        "\0".join(argv).encode(),
        str(proc.returncode).encode(),
        proc.stdout.replace(tree, b"<tree>"),
        proc.stderr.replace(tree, b"<tree>"),
    ]
    return proc.returncode, b"".join(b"%d:%b," % (len(field), field) for field in fields)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fixtures", nargs="*", help="fixture names (default: all)")
    parser.add_argument("--verbose", action="store_true", help="one line per form")
    args = parser.parse_args()
    fixtures = args.fixtures or sorted(p.stem for p in (ROOT / FIXTURES).glob("*.json"))
    unknown = [f for f in fixtures if not (ROOT / FIXTURES / f"{f}.json").is_file()]
    if unknown:
        parser.error(f"no such fixture: {', '.join(unknown)}")
    forms = [argv for fixture in fixtures for argv in argvs(fixture)]
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(run_form, forms))
    total = hashlib.sha256()
    for argv, (code, record) in zip(forms, results):
        total.update(record)
        if args.verbose:
            print(f"{code:>2} {hashlib.sha256(record).hexdigest()[:16]} {' '.join(argv)}")
    print(f"{len(forms)} forms")
    print(f"sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
