"""FIFO (wear-leveling) recycling: correctness + endurance benefit."""

import pytest
from hypothesis import given, strategies as st

from repro.config import NVBM_SPEC
from repro.errors import InvalidHandleError, OutOfMemoryError
from repro.nvbm.allocator import RecordAllocator
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_NVBM
from repro.nvbm.records import OctantRecord


def test_fifo_recycling_rotates_slots():
    alloc = RecordAllocator(4, fifo=True)
    a = alloc.alloc()
    alloc.free(a)
    # fresh slots go first; 'a' comes back only after the arena wraps
    others = [alloc.alloc() for _ in range(3)]
    assert a not in others
    assert alloc.alloc() == a


def test_exhaustion_and_validation():
    alloc = RecordAllocator(2, fifo=True)
    a = alloc.alloc()
    alloc.alloc()
    with pytest.raises(OutOfMemoryError):
        alloc.alloc()
    alloc.free(a)
    assert alloc.alloc() == a
    with pytest.raises(InvalidHandleError):
        alloc.free(a + 100)


def test_used_and_free_fraction():
    alloc = RecordAllocator(8, fifo=True)
    idxs = [alloc.alloc() for _ in range(4)]
    assert alloc.used == 4
    alloc.free(idxs[0])
    assert alloc.used == 3
    assert alloc.free_fraction == pytest.approx(5 / 8)


def test_reset():
    alloc = RecordAllocator(4, fifo=True)
    a = alloc.alloc()
    alloc.free(a)
    alloc.reset()
    assert alloc.used == 0
    assert alloc.alloc() == 0


@given(ops=st.lists(st.booleans(), max_size=120))
def test_behaves_like_allocator_property(ops):
    """Same external contract as the base allocator under any op mix."""
    alloc = RecordAllocator(16, fifo=True)
    live = []
    for do_alloc in ops:
        if do_alloc:
            try:
                idx = alloc.alloc()
            except OutOfMemoryError:
                assert alloc.used == 16
                continue
            assert idx not in live
            live.append(idx)
        elif live:
            alloc.free(live.pop())
        assert alloc.used == len(live)
        assert set(int(i) for i in alloc.live_indices()) == set(live)


def _churn(arena, rounds=300, working_set=4):
    """Allocate/free a small working set repeatedly; return max slot wear."""
    for _ in range(rounds):
        handles = [arena.new_octant(OctantRecord(loc=1)) for _ in range(working_set)]
        for h in handles:
            arena.free(h)
    return arena.device.wear_max()


def test_wear_leveling_reduces_max_wear():
    """FIFO recycling spreads a churning working set over all slots."""
    clock = SimClock()
    lifo = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 64, wear_leveling=False)
    fifo = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 64, wear_leveling=True)
    hot_lifo = _churn(lifo)
    hot_fifo = _churn(fifo)
    # same total writes, far lower peak wear with leveling
    assert lifo.device.wear_total() == fifo.device.wear_total()
    assert hot_fifo * 4 < hot_lifo
    # near the theoretical floor: total/capacity
    floor = fifo.device.wear_total() / 64
    assert hot_fifo <= 2 * floor