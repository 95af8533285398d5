"""The level-order structure walks equal the record-by-record oracles.

``gc._mark``, ``PMOctree.reachable_from`` and ``recovery._restore_traverse``
visit one tree level per arena call (:mod:`repro.core.walks`); their
depth-first, one-``read_octant``-per-record predecessors live verbatim in
``tests/oracles/structure_walks.py``.  On seeded droplet and wave trees —
2-D and 3-D, tight and roomy C0, pipelined and synchronous persists, crashed
with dirty lines torn — twin rigs built identically must agree in everything
a walk leaves behind: the marked/reachable set, ``_index`` *including its
insertion order*, ``_leaf_set``, the restored epoch, ``DeviceStats``, the
``SimClock`` tables and the wear map.  The restore audit must still name the
record it condemns.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (DRAM_SPEC, NVBM_SPEC, PMOctreeConfig,
                          SolverConfig)
from repro.core import gc as core_gc
from repro.core import recovery
from repro.core.api import pm_create
from repro.core.pmoctree import SLOT_CURR, SLOT_PREV, PMOctree
from repro.errors import ConsistencyError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, NULL_HANDLE
from repro.nvbm.records import FLAG_DELETED
from repro.octree import morton
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from tests.oracles import structure_walks as oracle

ROOMY = 1 << 14

#: (scenario, dim, C0 budget, max_inflight_epochs)
CASES = [
    pytest.param("droplet", 2, 96, 0, id="droplet-2d-tight-sync"),
    pytest.param("droplet", 2, 96, 1, id="droplet-2d-tight-pipelined"),
    pytest.param("droplet", 2, ROOMY, 1, id="droplet-2d-roomy-pipelined"),
    pytest.param("wave", 2, 96, 2, id="wave-2d-tight-pipelined"),
    pytest.param("wave", 2, ROOMY, 0, id="wave-2d-roomy-sync"),
    pytest.param("droplet", 3, 256, 1, id="droplet-3d-tight-pipelined"),
    pytest.param("wave", 3, ROOMY, 0, id="wave-3d-roomy-sync"),
]


@dataclasses.dataclass
class Rig:
    clock: SimClock
    dram: MemoryArena
    nvbm: MemoryArena
    config: PMOctreeConfig
    tree: PMOctree
    dim: int


def _build(scenario: str, dim: int, budget: int, inflight: int) -> Rig:
    """A seeded run: five persisted steps, then one whose epoch is still in
    flight (its stores dirty in the write-back cache)."""
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 18)
    config = PMOctreeConfig(dram_capacity_octants=budget, seed=11,
                            max_inflight_epochs=inflight)
    tree = pm_create(dram, nvbm, dim=dim, config=config)
    level = 5 if dim == 2 else 3

    def persistence(sim):
        sim.tree.persist()
        sim.tree.gc()

    if scenario == "droplet":
        sim = DropletSimulation(
            tree, SolverConfig(dim=dim, min_level=2, max_level=level,
                               dt=0.01),
            clock=clock, persistence=persistence)
    else:
        sim = WaveSimulation(
            tree, WaveConfig(dim=dim, min_level=2, max_level=level, dt=0.02,
                             epicenter=(0.5,) * dim),
            clock=clock, persistence=persistence)
    sim.run(5)
    sim.persistence = None
    sim.step()  # unpersisted work on top: COW copies, dirty lines
    return Rig(clock, dram, nvbm, config, tree, dim)


def _crash(rig: Rig) -> PMOctree:
    """Power loss with torn dirty lines; returns the bare tree object
    ``attach_and_restore`` would run the traversal on."""
    rig.dram.crash()
    rig.nvbm.crash(np.random.default_rng(5))
    pmo = PMOctree.__new__(PMOctree)
    pmo._init_state(rig.dram, rig.nvbm, rig.dim, rig.config, None)
    rig.tree = pmo
    return pmo


def _meters(rig: Rig) -> dict:
    return {
        "dram": dataclasses.asdict(rig.dram.device.stats),
        "nvbm": dataclasses.asdict(rig.nvbm.device.stats),
        "now_ns": rig.clock.now_ns,
        "by_phase": dict(rig.clock.by_phase),
        "by_category": dict(rig.clock.by_category),
        "wear": rig.nvbm.device._wear.tolist(),
        "dram_wear": rig.dram.device._wear.tolist(),
    }


def _marked_handles(rig: Rig, mask: np.ndarray) -> set:
    return set(rig.nvbm.handles_of(np.flatnonzero(mask)).tolist())


@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_restore_traverse_equals_oracle(scenario, dim, budget, inflight):
    ours, theirs = (_build(scenario, dim, budget, inflight) for _ in "ab")
    count = recovery._restore_traverse(_crash(ours))
    assert count == oracle._restore_traverse(_crash(theirs))
    assert count == len(ours.tree._index) > 20
    # insertion order included: it decides later allocation orders
    assert list(ours.tree._index.items()) == list(theirs.tree._index.items())
    assert list(ours.tree._leaf_set) == list(theirs.tree._leaf_set)
    assert ours.tree.epoch == theirs.tree.epoch
    assert _meters(ours) == _meters(theirs)
    ours.tree.check_invariants()


@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_mark_equals_oracle(scenario, dim, budget, inflight):
    """Live (mid-epoch) trees, then the same trees crashed and restored —
    torn and orphaned records are in the arena by then."""
    ours, theirs = (_build(scenario, dim, budget, inflight) for _ in "ab")
    for restored in (False, True):
        if restored:
            recovery._restore_traverse(_crash(ours))
            recovery._restore_traverse(_crash(theirs))
        marked = _marked_handles(ours, core_gc._mark(ours.tree))
        assert marked == oracle._mark(theirs.tree)
        assert len(marked) > 20
        assert _meters(ours) == _meters(theirs)
    # and the sweep built on it frees the same slots in the same order
    assert ours.tree.gc() == theirs.tree.gc()
    assert list(ours.nvbm.live_handles()) == list(theirs.nvbm.live_handles())
    assert ours.nvbm.allocator._free == theirs.nvbm.allocator._free


@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_reachable_from_equals_oracle(scenario, dim, budget, inflight):
    rig = _build(scenario, dim, budget, inflight)
    before = _meters(rig)
    for restored in (False, True):
        if restored:
            recovery._restore_traverse(_crash(rig))
            before = _meters(rig)
        for slot in (SLOT_PREV, SLOT_CURR):
            with rig.tree.unmetered_inspection():
                root = rig.nvbm.roots.get(slot)
            got = rig.tree.reachable_from(root)
            want = oracle.reachable_from(rig.tree, root)
            assert got == want
            # a set's iteration order follows its insertion order; replica
            # deltas are built by iterating this one
            assert list(got) == list(want)
    assert len(got) > 20
    assert _meters(rig) == before  # an inspection probe charges nothing
    assert rig.tree.reachable_from(NULL_HANDLE) == set()
    assert rig.tree.reachable_from(ARENA_DRAM << 48) == set()


# ------------------------------------------------------------ the restore audit

def _published_rig():
    rig = _build("droplet", 2, ROOMY, 0)
    pmo = _crash(rig)
    with pmo.unmetered_inspection():
        root = rig.nvbm.roots.get(SLOT_PREV)
        parent = rig.nvbm.read_octant(root)
    child = parent.children[1]
    return rig, pmo, root, child


def _corrupt_unallocated(rig, root, child):
    rig.nvbm.free(child)
    return child


def _corrupt_loc(rig, root, child):
    rec = rig.nvbm.read_octant(child)
    rec.loc ^= 1
    rig.nvbm.write_octant(child, rec)
    return child


def _corrupt_level(rig, root, child):
    rec = rig.nvbm.read_octant(child)
    rec.level += 1
    rig.nvbm.write_octant(child, rec)
    return child


def _corrupt_deleted(rig, root, child):
    rig.nvbm.set_flags(child, rig.nvbm.read_flags(child) | FLAG_DELETED)
    return child


def _corrupt_null_child(rig, root, child):
    rig.nvbm.write_child_slot(root, 2, NULL_HANDLE)
    return root


def _corrupt_dram_pointer(rig, root, child):
    rig.nvbm.write_child_slot(root, 2, ARENA_DRAM << 48 | 3)
    return root


AUDITS = [
    (_corrupt_unallocated, "unallocated record"),
    (_corrupt_loc, "claims loc"),
    (_corrupt_level, "claims loc"),
    (_corrupt_deleted, "deleted record"),
    (_corrupt_null_child, "null child slot"),
    (_corrupt_dram_pointer, "points into DRAM"),
]


@pytest.mark.parametrize("corrupt,what", AUDITS,
                         ids=[c.__name__[9:] for c, _ in AUDITS])
@pytest.mark.parametrize("walk", [recovery._restore_traverse,
                                  oracle._restore_traverse],
                         ids=["level-order", "oracle"])
def test_restore_audit_names_the_record(walk, corrupt, what):
    rig, pmo, root, child = _published_rig()
    named = corrupt(rig, root, child)
    rig.nvbm.flush()  # the corruption is durable and carries a valid seal
    with pytest.raises(ConsistencyError) as err:
        walk(pmo)
    assert what in str(err.value)
    assert f"{named:#x}" in str(err.value)


def test_dfs_order_is_preorder_with_descending_siblings():
    """The sort key in isolation: a hand-built 2-D tree, two levels."""
    from repro.core import walks

    dim = 2
    root = np.zeros(1, dtype=np.uint64)
    slots = np.arange(4, dtype=np.uint64)
    level1 = walks.child_keys(root[:, None], slots, dim).ravel()
    # only child 2 of the root has children
    level2 = walks.child_keys(level1[2:3, None], slots, dim).ravel()
    order = walks.dfs_order([root, level1, level2], dim)
    names = ["r", "c0", "c1", "c2", "c3", "c20", "c21", "c22", "c23"]
    assert [names[i] for i in order] == [
        "r", "c3", "c2", "c23", "c22", "c21", "c20", "c1", "c0"]
    assert morton.fanout(dim) == 4


@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_postorder_equals_the_stack_walk(scenario, dim, budget, inflight):
    """The persist merge's one-sort postorder lists the working tree below
    the root and below every registered C0 root exactly as the stack walk
    does.  Every internal octant has a child in slot 0, whose key ties
    with its parent's."""
    from repro.core import merge

    tree = _build(scenario, dim, budget, inflight).tree
    roots = [morton.ROOT_LOC, *tree._c0_roots]
    for root in roots:
        want = oracle._postorder_locs(tree, root)
        assert merge._postorder_locs(tree, root).tolist() == want, root
    assert len(want) > 1


def test_postorder_puts_slot_0_children_before_their_parent():
    """The tie-break in isolation: a hand-built 2-D chain down slot 0,
    where a parent's padded key equals its children's."""
    from repro.core import walks

    dim = 2
    codes = [1, *morton.children_of(1, dim), *morton.children_of(4, dim),
             *morton.children_of(16, dim)]
    shuffled = np.random.default_rng(0).permutation(codes)
    assert walks.postorder(shuffled, dim).tolist() == [
        7, 6, 5, 19, 18, 17, 67, 66, 65, 64, 16, 4, 1]
    keys, spans = walks.postorder_keys(np.array([1, 4, 16, 64]), dim)
    assert len(set(keys.tolist())) == 1 and spans.tolist() == [63, 15, 3, 0]
