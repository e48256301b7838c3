"""Shared test helpers: small builders and exhaustive-scan utilities."""

from __future__ import annotations

import contextlib
import random
import signal

import pytest

from contractmatch.choice import ChoiceFunction, TableChoice, UnionOfOrders
from contractmatch.engine import Instance
from contractmatch.sets import iter_submasks


def all_masks(n: int) -> range:
    """Every subset of an n-contract universe."""
    return range(1 << n)


def table_of(f: ChoiceFunction) -> list[int]:
    """Dense evaluation of a choice function over its whole universe."""
    return [f.choose_mask(m) for m in all_masks(f.n)]


def random_coherent_function(seed: int, n: int, max_orders: int = 3) -> UnionOfOrders:
    """A random always-coherent function (tops of a few random total orders)."""
    rng = random.Random(seed)
    count = rng.randint(1, max_orders)
    orders = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        orders.append(tuple(order))
    return UnionOfOrders(n, tuple(orders))


def random_contraction_table(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random table satisfying Contraction (each entry a submask of its menu)."""
    entries = []
    for menu in all_masks(n):
        subs = list(iter_submasks(menu))
        entries.append(rng.choice(subs))
    return tuple(entries)


def cycling_instance() -> Instance:
    """Side 2 keeps {a, b} from the empty offer, so the pools run 11 -> 10 -> 01 -> 00 -> 11."""
    return Instance(
        ("a", "b"),
        TableChoice(2, (0b00, 0b01, 0b10, 0b01)),
        TableChoice(2, (0b11, 0b00, 0b01, 0b00)),
    )


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError, instead of hanging, if the body runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ---------------------------------------------------------------------------
# Acceptance reporting: one PASS/FAIL line per criterion, echoed in the
# terminal summary so it survives output capture.
# ---------------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Reporter for acceptance tests: records the line, then asserts."""

    def report(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
