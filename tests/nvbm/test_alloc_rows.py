"""``MemoryArena.alloc_rows(n)`` == ``n`` ``alloc()`` calls, in order.

A C1 -> C0 load chunk, a persist-merge chunk and a replica
materialisation allocate a chunk's worth of slots with one call.  Equal
means the handles and their order, the allocator (bump pointer, free deque
in either recycling order, allocated flags, retired set), ``stats.allocs``,
the per-slot store arrays (grown in the same 1.5x steps, so the same size)
and, on a full arena, the same ``OutOfMemoryError`` after the same prefix
with the same state left behind.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.errors import OutOfMemoryError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.nvbm.records import OctantRecord


def _arena(spec, capacity, wear_leveling, live=0, freed=(), retired=()):
    """An arena with ``live`` records stored, then the ``freed`` and
    ``retired`` ones (indices into them) handed back."""
    arena_id = ARENA_DRAM if spec.volatile else ARENA_NVBM
    arena = MemoryArena(arena_id, spec, SimClock(), capacity,
                        wear_leveling=wear_leveling)
    handles = [arena.new_octant(OctantRecord(loc=1 + i)) for i in range(live)]
    for i in freed:
        arena.free(handles[i])
    for i in retired:
        arena.retire(handles[i])
    return arena


def _state(arena):
    a = arena.allocator
    return {
        "bump": a._bump,
        "free": list(a._free),
        "allocated": a._allocated.tolist(),
        "retired": sorted(a._retired),
        "used": a.used,
        "stats": dataclasses.asdict(arena.stats),
        "slots": arena.slots,
        "sizes": [arr.shape for arr in (arena._rows, arena._present,
                                        arena._seal, arena._dirty_mask,
                                        arena._crow)],
        "crow": arena._crow.tolist(),
        "seal": arena._seal.tolist(),
    }


def _alloc_both(make, counts):
    """Each of ``counts`` allocated by ``alloc_rows`` on one twin and by an
    ``alloc`` loop on the other: both must hand out (or fail) alike."""
    out = []
    for batched in (False, True):
        arena = make()
        got = []
        for n in counts:
            try:
                if batched:
                    handles = arena.alloc_rows(n)
                    assert handles.dtype == np.uint64
                    got.append(handles.tolist())
                else:
                    got.append([arena.alloc() for _ in range(n)])
            except OutOfMemoryError as exc:
                got.append(str(exc))  # the state below holds the prefix
            got.append(_state(arena))
        out.append(got)
    assert out[0] == out[1]
    return out[0]


SPECS = [(DRAM_SPEC, False), (NVBM_SPEC, False), (NVBM_SPEC, True)]
IDS = ["dram", "nvbm-lifo", "nvbm-fifo"]


@pytest.mark.parametrize("spec,wear_leveling", SPECS, ids=IDS)
@pytest.mark.parametrize("capacity", [100, 1 << 12])
@pytest.mark.parametrize("seed", range(4))
def test_alloc_rows_is_the_alloc_loop(spec, wear_leveling, capacity, seed):
    """At capacity 100 the bump range runs out after 40 slots, so FIFO
    reaches the free deque too; no call here finds the arena full."""
    rng = random.Random(seed)
    freed = rng.sample(range(60), rng.randint(20, 40))

    def make():
        return _arena(spec, capacity, wear_leveling, live=60, freed=freed)

    handed = _alloc_both(make, [0, 1, rng.randint(2, 19), 30, 7])
    assert all(isinstance(got, list) for got in handed[::2])


@pytest.mark.parametrize("spec,wear_leveling", SPECS, ids=IDS)
def test_retired_slots_in_the_free_deque_are_skipped(spec, wear_leveling):
    """A retired slot that still sits in the free deque is popped and
    passed over, by either order."""
    def make():
        arena = _arena(spec, 64, wear_leveling, live=30,
                       freed=range(0, 20, 2), retired=[5, 9])
        arena.allocator._retired.update(list(arena.allocator._free)[1::3])
        return arena

    # the bump range runs out in the third call, the free deque in the last
    out = _alloc_both(make, [4, 12, 20, 10])
    assert isinstance(out[4], list) and "is full" in out[6]


@pytest.mark.parametrize("spec,wear_leveling", SPECS, ids=IDS)
@pytest.mark.parametrize("counts", [[1023, 1, 1], [1024, 1], [1025],
                                    [600, 900, 2000], [5000], [1, 4999]],
                         ids=str)
def test_the_store_grows_in_the_per_call_steps(spec, wear_leveling,
                                               counts):
    """Across 1024 and the 1.5x steps after it, one call leaves the store
    the size the calls would, capped at the capacity."""
    state = _alloc_both(lambda: _arena(spec, 6000, wear_leveling), counts)[-1]
    assert state["slots"] in (1024, 1536, 2304, 3456, 5184, 6000)


@pytest.mark.parametrize("spec,wear_leveling", SPECS, ids=IDS)
@pytest.mark.parametrize("live,freed,n", [(40, range(0, 40, 3), 60),
                                          (64, range(10), 11),
                                          (64, (), 1), (0, (), 65)],
                         ids=["bump-then-full", "free-then-full", "full",
                              "empty-too-small"])
def test_a_full_arena_fails_after_the_same_prefix(spec, wear_leveling, live,
                                                  freed, n):
    out = _alloc_both(lambda: _arena(spec, 64, wear_leveling, live=live,
                                     freed=freed), [n, 1])
    assert "is full" in out[0]
    state = out[1]
    assert state["used"] == 64 and state["bump"] == 64
    assert not state["free"]
    # the failing call counts as an alloc, as the loop's last call did
    assert state["stats"]["allocs"] == live + 64 - (live - len(freed)) + 1
