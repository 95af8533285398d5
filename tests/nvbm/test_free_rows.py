"""``MemoryArena.free_rows`` == ``free`` of each handle, in order.

Coarsen's frees land as one call: inside a ``tree.batch()`` scope a volatile
arena's frees wait in the tree's landing buffer and land with one
``free_rows`` before the arena's next allocation, or when the scope lands.
Equal means the allocator (free-list order included, LIFO and FIFO), the
per-slot state, ``stats.frees``, the tracer's ``on_free`` sequence, the
cache rows released and the error a bad handle raises.
"""

import dataclasses
import random
from contextlib import nullcontext

import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC
from repro.errors import InvalidHandleError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.nvbm.records import OctantRecord
from repro.octree import morton
from repro.octree.refine import refine_uniform
from repro.octree.tree import PointerOctree
from tests.core.test_batch_persist import _arena_state


class _Frees:
    """A tracer that records the frees it is told of."""

    def __init__(self):
        self.freed = []

    def on_free(self, handle):
        self.freed.append(handle)

    def __getattr__(self, name):  # every other event: ignored
        return lambda *args, **kwargs: None


def _arena(spec, wear_leveling):
    arena_id = ARENA_DRAM if spec.volatile else ARENA_NVBM
    arena = MemoryArena(arena_id, spec, SimClock(), 64,
                        wear_leveling=wear_leveling)
    handles = [arena.new_octant(OctantRecord(loc=1 + i)) for i in range(40)]
    if not spec.volatile:
        arena.flush_records(handles[::2])  # half clean, half cached
    arena.tracer = _Frees()
    return arena, handles


def _state(arena):
    # the free deque (either order) is _arena_state's "free"
    return (_arena_state(arena), arena.allocator._allocated.tolist(),
            list(arena._cdir.items()), list(arena._crows_free),
            arena.tracer.freed)


def _free_both(spec, wear_leveling, pick):
    """``pick(handles)`` freed by the loop on one twin and by one
    ``free_rows`` on the other; both must end (or fail) alike."""
    out = []
    for batched in (False, True):
        arena, handles = _arena(spec, wear_leveling)
        victims = pick(handles)
        try:
            if batched:
                arena.free_rows(victims)
            else:
                for handle in victims:
                    arena.free(handle)
            error = None
        except InvalidHandleError as exc:
            error = str(exc)
        out.append((error, _state(arena)))
        for _ in range(len(victims)):  # reuse order follows the free list
            out[-1] += (arena.alloc(),)
    assert out[0] == out[1]
    return out[0][0]


SPECS = [(DRAM_SPEC, False), (NVBM_SPEC, False), (NVBM_SPEC, True)]


@pytest.mark.parametrize("spec,wear_leveling", SPECS,
                         ids=["dram", "nvbm-lifo", "nvbm-fifo"])
@pytest.mark.parametrize("seed", range(4))
def test_free_rows_is_the_free_loop(spec, wear_leveling, seed):
    def pick(handles):
        rng = random.Random(seed)
        return rng.sample(handles, rng.randint(1, len(handles)))

    assert _free_both(spec, wear_leveling, pick) is None


@pytest.mark.parametrize("spec,wear_leveling", SPECS,
                         ids=["dram", "nvbm-lifo", "nvbm-fifo"])
def test_a_bad_handle_fails_where_its_free_would(spec, wear_leveling):
    assert _free_both(spec, wear_leveling,
                      lambda hs: hs[3:9] + [hs[5]] + hs[20:22])
    assert _free_both(spec, wear_leveling,
                      lambda hs: hs[3:6] + [hs[-1] + 7] + hs[20:22])


def _incore(scoped):
    clock = SimClock()
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 10)
    tree = PointerOctree(arena, dim=2)
    refine_uniform(tree, 3)
    parents = sorted({loc >> 2 for loc in tree.leaves()})[::3]
    fresh = [loc for loc in sorted(tree.leaves())[1::5]
             if loc >> 2 not in parents]
    freed = [tree._index[c] for p in parents for c in morton.children_of(p, 2)]
    kids = []
    with tree.batch() if scoped else nullcontext():
        for parent in parents:
            tree.coarsen(parent)
        if scoped:  # the frees wait in the scope until the next alloc
            assert tree._landing.frees[arena] == freed
            assert arena.stats.frees == 0
        for loc in fresh + parents[:2]:
            tree.refine(loc)
            kids += [tree._index[c] for c in morton.children_of(loc, 2)]
    return freed, (kids, _arena_state(arena), list(tree._index.items()),
                   list(tree._leaf_set), clock.now_ns,
                   dataclasses.asdict(arena.stats))


def test_a_scope_that_coarsens_then_refines_reuses_slots_in_order():
    freed, scoped = _incore(True)
    _, per_item = _incore(False)
    for got, want in zip(scoped, per_item):
        assert got == want
    # the refines took the freed slots back, last freed first
    assert scoped[0][:len(freed)] == freed[::-1]
