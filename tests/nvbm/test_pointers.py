"""Handle encoding tests: a handle is ``arena << 48 | index``, the way the
arenas build them."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidHandleError
from repro.nvbm.pointers import (
    ARENA_DRAM,
    ARENA_NVBM,
    NULL_HANDLE,
    arena_of,
    index_of,
    is_dram,
    is_nvbm,
)


def _handle(arena: int, index: int) -> int:
    return arena << 48 | index


def test_null():
    assert NULL_HANDLE == 0
    assert not is_dram(NULL_HANDLE)
    assert not is_nvbm(NULL_HANDLE)


def test_tags():
    h = _handle(ARENA_DRAM, 5)
    assert is_dram(h) and not is_nvbm(h)
    h2 = _handle(ARENA_NVBM, 5)
    assert is_nvbm(h2) and not is_dram(h2)
    assert h != h2  # same index, different arena


def test_invalid_inputs(dram_arena):
    """An arena rejects a handle of another arena, or of a slot it never
    handed out."""
    h = dram_arena.alloc()
    for bad in (_handle(ARENA_NVBM, index_of(h)), h + 1, NULL_HANDLE):
        with pytest.raises(InvalidHandleError):
            dram_arena.read_octant(bad)


@given(
    arena=st.integers(min_value=1, max_value=0xFFFF),
    index=st.integers(min_value=0, max_value=(1 << 48) - 1),
)
def test_roundtrip_property(arena, index):
    h = _handle(arena, index)
    assert arena_of(h) == arena
    assert index_of(h) == index
    assert h != NULL_HANDLE
