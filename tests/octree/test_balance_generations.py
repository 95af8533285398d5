"""Balance's generation ripple == the per-entry FIFO queue.

``balance_tree`` walks its queue a generation at a time and runs the
per-entry body only on the faces ``tree.forcing_faces`` flags at the start
of each generation.  The oracle is ``tests/oracles/scalar_kernels.
balance_tree``: the unfiltered queue, every entry and every face through the
body.  On twin trees built alike the two must make the same ``refine``
calls in the same order and leave the same arena bytes, allocator state
(free-list order included), counters and clock — on ``PointerOctree``, on a
``PMOctree`` whose tight C0 crosses ``threshold_dram`` part way through the
ripple, and on ``EtreeOctree``, whose every index search is metered.
"""

import dataclasses
import random

import pytest

from repro.baselines.etree import EtreeOctree
from repro.config import DRAM_SPEC, NVBM_FS_SPEC
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM
from repro.octree import morton
from repro.octree.balance import balance_tree, is_balanced
from repro.octree.refine import refine_uniform
from repro.octree.tree import PointerOctree
from repro.storage.block import BlockDevice
from tests.core.conftest import PMRig
from tests.core.test_batch_cow import _full_state
from tests.core.test_batch_persist import _arena_state
from tests.oracles import scalar_kernels


def _logged(tree):
    """The codes ``tree.refine`` is called on, in order, from here on."""
    log = []
    refine = tree.refine

    def logging(loc):
        log.append(loc)
        return refine(loc)

    tree.refine = logging
    return log


def _chains(tree, rng, chains: int, depth: int):
    """Refine ``chains`` random leaves ``depth`` times down a random child:
    level gaps for Balance to ripple out; returns the leaves made."""
    made = []
    dim = tree.dim
    for _ in range(chains):
        loc = rng.choice(sorted(tree.leaves()))
        for _ in range(depth):
            kids = tree.refine(loc)
            made += kids
            loc = kids[rng.randrange(morton.fanout(dim))]
    return [loc for loc in made if tree.is_leaf(loc)]


def _pointer(dim):
    clock = SimClock()
    return PointerOctree(MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16),
                         dim=dim), clock


def _pointer_state(tree, clock):
    return {"arena": _arena_state(tree.arena),
            "allocated": tree.arena.allocator._allocated.tolist(),
            "index": list(tree._index.items()),
            "leaf_order": list(tree._leaf_set),
            "clock": (clock.now_ns, dict(clock.by_category))}


def _run_both(ours, theirs, **kw):
    """src ``balance_tree`` on ``ours``, the oracle on ``theirs``; returns
    both refine logs and counts."""
    mine, want = _logged(ours), _logged(theirs)
    n = balance_tree(ours, **kw)
    m = scalar_kernels.balance_tree(theirs, **kw)
    assert mine == want
    assert n == m == len(mine)
    return n


CASES = [(dim, seed, mode) for dim in (2, 3) for seed in (0, 1, 2)
         for mode in ("all", "seeds", "clamp")]


def _kwargs(mode, made, max_level):
    if mode == "seeds":
        return {"seeds": made}
    if mode == "clamp":
        return {"max_level": max_level}
    return {}


@pytest.mark.parametrize("dim,seed,mode", CASES)
def test_pointer_ripple_is_the_queue(dim, seed, mode):
    (ours, clock_a), (theirs, clock_b) = _pointer(dim), _pointer(dim)
    for tree in (ours, theirs):
        refine_uniform(tree, 1)
        made = _chains(tree, random.Random(seed), chains=3,
                       depth=5 if dim == 2 else 4)
    n = _run_both(ours, theirs, **_kwargs(mode, made, 3))
    assert n > 0
    assert _pointer_state(ours, clock_a) == _pointer_state(theirs, clock_b)
    if mode != "clamp":
        assert is_balanced(ours)


@pytest.mark.parametrize("mode", ["all", "seeds", "clamp"])
def test_pm_ripple_crossing_threshold_dram_is_the_queue(mode):
    """A tight C0: the ripple's refines run out of DRAM headroom part way,
    so C0 evicts mid-ripple on both twins alike."""
    ours, theirs = (PMRig(dram_octants=80, nvbm_octants=1 << 12)
                    for _ in "ab")
    for rig in (ours, theirs):
        refine_uniform(rig.tree, 2)
        made = _chains(rig.tree, random.Random(7), chains=3, depth=4)
    evictions = ours.tree.stats.evictions
    n = _run_both(ours.tree, theirs.tree, **_kwargs(mode, made, 4))
    assert n > 0
    assert ours.tree.stats.evictions > evictions
    a, b = _full_state(ours), _full_state(theirs)
    for key in a:
        assert a[key] == b[key], key
    ours.tree.check_invariants()


def _etree(dim):
    clock = SimClock()
    device = BlockDevice(NVBM_FS_SPEC, clock)
    return EtreeOctree(device, dim=dim), clock, device


@pytest.mark.parametrize("dim,mode", [(2, "all"), (2, "seeds"), (2, "clamp"),
                                      (3, "all")])
def test_etree_ripple_charges_what_the_queue_charges(dim, mode):
    (ours, clock_a, dev_a), (theirs, clock_b, dev_b) = _etree(dim), \
        _etree(dim)
    for tree in (ours, theirs):
        tree.refine(morton.ROOT_LOC)
        made = _chains(tree, random.Random(3), chains=2,
                       depth=4 if dim == 2 else 3)
    assert dataclasses.asdict(dev_a.stats) == dataclasses.asdict(dev_b.stats)
    n = _run_both(ours, theirs, **_kwargs(mode, made, 3))
    assert n > 0
    assert dataclasses.asdict(dev_a.stats) == dataclasses.asdict(dev_b.stats)
    assert (clock_a.now_ns, dict(clock_a.by_category)) == \
        (clock_b.now_ns, dict(clock_b.by_category))
    assert sorted(ours.leaves()) == sorted(theirs.leaves())
