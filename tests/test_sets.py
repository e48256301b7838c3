"""Bitmask subset utilities."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contractmatch.sets import (
    format_mask,
    full_mask,
    id_table,
    ids_of,
    iter_submasks,
    mask_of,
    subset_names,
)

from conftest import deadline


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(1) == 0b1
    assert full_mask(4) == 0b1111


def test_id_table_is_bytes_while_its_largest_value_fits_a_byte():
    assert id_table([]) is b"" and id_table([0]) == b"\x00"
    assert type(id_table([3, 255, 0])) is bytes and list(id_table([3, 255, 0])) == [3, 255, 0]
    for values, code in (([256, 0], "H"), ([65_535], "H"), ([65_536, 1], "L")):
        table = id_table(values)
        assert table.typecode == code and list(table) == values


def test_mask_of():
    assert mask_of([]) == 0
    assert mask_of([0, 2]) == 0b101
    assert mask_of([2, 0, 2]) == 0b101


def _mask_by_loop(ids) -> int:
    mask = 0
    for c in ids:
        mask |= 1 << c
    return mask


@given(st.integers(-40, 200), st.integers(-40, 200), st.integers(-70, 70).filter(bool))
def test_mask_of_a_range_equals_the_loop(start, stop, step):
    """Closed form or loop, a range's mask is the one the loop builds,
    for any step sign, empty ranges, and sparse ranges; a range with a
    negative id is refused like the loop refuses it."""
    ids = range(start, stop, step)
    if ids and min(ids) < 0:
        with pytest.raises(ValueError, match="negative shift"):
            mask_of(ids)
        with pytest.raises(ValueError, match="negative shift"):
            _mask_by_loop(ids)
    else:
        assert mask_of(ids) == _mask_by_loop(ids) == mask_of(list(ids))


def test_mask_of_a_wide_sparse_range_is_quick():
    with deadline(5):
        for g in range(1, 201):
            assert mask_of(range(g, 10**6, 10**6 // 2)) == 1 << g | 1 << g + 10**6 // 2


def test_ids_of_ascending():
    assert ids_of(0) == ()
    assert ids_of(0b1011) == (0, 1, 3)
    with deadline(5), pytest.raises(ValueError, match="negative"):
        ids_of(-1)


def test_iter_submasks_exact():
    assert list(iter_submasks(0)) == [0]
    assert list(iter_submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]


@given(st.integers(min_value=0, max_value=full_mask(10)))
def test_iter_submasks_complete_and_ascending(mask):
    subs = list(iter_submasks(mask))
    assert subs == sorted(subs)
    assert len(subs) == 1 << mask.bit_count()
    assert all(sub & ~mask == 0 for sub in subs)
    assert subs[0] == 0 and subs[-1] == mask


@given(
    st.sets(st.integers(min_value=0, max_value=20))
    | st.sets(st.integers(min_value=0, max_value=70_000), max_size=64)
)
def test_mask_roundtrip(ids):
    """Narrow masks and masks up to 70 001 bits wide give their ids back in
    exact ascending order (``ids_of`` peels from the top and reverses once)."""
    assert ids_of(mask_of(ids)) == tuple(sorted(ids))


def test_subset_names_sorted():
    names = ("zeta", "alpha", "mid")
    assert subset_names(0b111, names) == ["alpha", "mid", "zeta"]
    assert subset_names(0b101, names) == ["mid", "zeta"]


def test_format_mask():
    assert format_mask(0) == "{}"
    assert format_mask(0b101) == "{0, 2}"
    assert format_mask(0b11, ("b", "a")) == "{a, b}"
    with deadline(5), pytest.raises(ValueError, match="negative"):
        format_mask(-1)
