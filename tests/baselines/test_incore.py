"""In-core baseline: meshing + snapshot checkpoint/restore.

The batches are twinned against their per-record definition on two trees
built alike: the refine/coarsen loops run inside one ``tree.batch()`` scope
against the same loops on the per-item bodies
(``structure_walks.inject_scalar_mutations``), ``checkpoint``/
``restore_from`` against their per-record bodies in
``tests/oracles/structure_walks.py``.  Equal means the same arena bytes,
allocator (free-list order included), arena and device counters, wear,
clock, index and leaf-set order.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.config import DRAM_SPEC, NVBM_FS_SPEC
from repro.baselines.incore import (_HEADER, _MAGIC, _SNAP, CheckpointPolicy,
                                    InCoreOctree)
from repro.errors import RecoveryError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.pointers import ARENA_DRAM
from repro.nvbm.records import FLAG_LEAF
from repro.octree import morton
from repro.octree.refine import refine_uniform
from repro.octree.store import validate_tree
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem
from tests.oracles import structure_walks as oracle


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def arena(clock):
    return MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)


@pytest.fixture
def fs(clock):
    return SimFileSystem(BlockDevice(NVBM_FS_SPEC, clock))


def _build(arena, dim=2):
    t = InCoreOctree(arena, dim=dim)
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    for i, leaf in enumerate(sorted(t.leaves())):
        t.set_payload(leaf, (float(i), 0.0, 0.0, 0.0))
    return t


def test_requires_volatile_arena(clock):
    from repro.config import NVBM_SPEC
    from repro.nvbm.pointers import ARENA_NVBM

    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 64)
    with pytest.raises(ValueError):
        InCoreOctree(nvbm)


def test_checkpoint_restore_roundtrip(clock, arena, fs):
    t = _build(arena)
    sig = {loc: t.get_payload(loc) for loc in t.leaves()}
    written = t.checkpoint(fs, "snap.gfs")
    assert written > 0
    # crash: DRAM gone
    arena.crash()
    fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    t2 = InCoreOctree.restore_from(fs, "snap.gfs", fresh)
    assert {loc: t2.get_payload(loc) for loc in t2.leaves()} == sig
    validate_tree(t2)


def test_checkpoint_cost_scales_with_tree(clock, arena, fs):
    t = _build(arena)
    io0 = clock.category_ns(Category.IO)
    small = t.checkpoint(fs, "a.gfs")
    io_small = clock.category_ns(Category.IO) - io0
    for _ in range(2):  # grow well past one filesystem page
        for leaf in list(t.leaves()):
            t.refine(leaf)
    io1 = clock.category_ns(Category.IO)
    big = t.checkpoint(fs, "b.gfs")
    io_big = clock.category_ns(Category.IO) - io1
    assert big > small
    assert io_big > io_small  # full-tree I/O every time: the §1 bottleneck


def test_restore_missing_snapshot(fs, arena):
    with pytest.raises(RecoveryError):
        InCoreOctree.restore_from(fs, "ghost.gfs", arena)


def test_restore_corrupt_snapshot(clock, fs, arena):
    f = fs.create("bad.gfs")
    f.append(b"not a snapshot at all")
    with pytest.raises(RecoveryError):
        InCoreOctree.restore_from(fs, "bad.gfs", arena)


def test_restore_truncated_snapshot(clock, arena, fs):
    t = _build(arena)
    t.checkpoint(fs, "snap.gfs")
    blob = fs.open("snap.gfs").read_all()
    f = fs.create("trunc.gfs")
    f.append(blob[: len(blob) // 2])
    fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    with pytest.raises(RecoveryError):
        InCoreOctree.restore_from(fs, "trunc.gfs", fresh)


def test_internal_payloads_survive_roundtrip(clock, arena, fs):
    t = _build(arena)
    t.set_payload(morton.ROOT_LOC, (42.0, 0, 0, 0))
    t.checkpoint(fs, "s.gfs")
    fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    t2 = InCoreOctree.restore_from(fs, "s.gfs", fresh)
    assert t2.get_payload(morton.ROOT_LOC)[0] == 42.0
    t2.coarsen(morton.loc_from_coords(1, (0, 0), 2))
    validate_tree(t2)


def test_checkpoint_policy_cadence(clock, arena, fs):
    t = _build(arena)
    policy = CheckpointPolicy(fs, interval=10)
    writes = [policy.maybe_checkpoint(t, step) for step in range(1, 31)]
    assert sum(1 for w in writes if w > 0) == 3  # steps 10, 20, 30
    assert policy.latest() == "snapshot.gfs"


def test_checkpoint_policy_validates(fs):
    with pytest.raises(ValueError):
        CheckpointPolicy(fs, interval=0)
    with pytest.raises(RecoveryError):
        CheckpointPolicy(fs).latest()


def test_3d_roundtrip(clock, fs):
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    t = InCoreOctree(arena, dim=3)
    t.refine(morton.ROOT_LOC)
    t.checkpoint(fs, "3d.gfs")
    fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    t2 = InCoreOctree.restore_from(fs, "3d.gfs", fresh)
    assert t2.dim == 3
    assert t2.num_leaves() == 8


# ------------------------------------------- batches vs per-record definition

def _deep_state(tree):
    arena, alloc = tree.arena, tree.arena.allocator
    clock = arena.device.clock
    return {
        "rows": arena._rows.tobytes(),
        "present": arena._present.tobytes(),
        "allocator": (alloc._bump, list(alloc._free),
                      alloc._allocated.tobytes()),
        "arena": dataclasses.asdict(arena.stats),
        "device": dataclasses.asdict(arena.device.stats),
        # a scatter grows the wear array in one step, the loop in several
        "wear": np.trim_zeros(arena.device._wear, "b").tolist(),
        "clock": (clock.now_ns, dict(clock.by_phase),
                  dict(clock.by_category)),
        "index": list(tree._index.items()),
        "leaves": list(tree._leaf_set),
    }


def _eligible(tree):
    """Parents whose children are all leaves, ascending."""
    dim = tree.dim
    return sorted({p for p in (leaf >> dim for leaf in tree.leaves())
                   if p and all(tree.is_leaf(c)
                                for c in morton.children_of(p, dim))})


def _grown(dim, seed):
    """A random tree with holes in its free list (coarsens free children),
    so an allocation order shows in the handles it hands out."""
    rng = random.Random(seed)
    tree = InCoreOctree(MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(),
                                    1 << 14), dim=dim)
    refine_uniform(tree, 2)
    for _ in range(12):
        tree.refine(rng.choice(sorted(tree.leaves())))
        tree.coarsen(rng.choice(_eligible(tree)))
    for i, loc in enumerate(sorted(tree._index)):
        tree.set_payload(loc, (rng.random(), float(i), 0.5, -1.0))
    return tree


def _batch_steps(tree, seed):
    """Refine and coarsen batches, each drawn from the tree as the steps
    before it left it: repeats, a code the same batch creates, a parent
    with its grandparent (batched) and with its parent (the loop), leaves
    and unknown codes among the parents, and empty batches."""
    dim, rng = tree.dim, random.Random(seed + 1)
    picks = rng.sample(sorted(tree.leaves()), 5)
    yield "refine", picks + picks[:2]
    leaf = rng.choice(sorted(tree.leaves()))
    yield "refine", [leaf, morton.children_of(leaf, dim)[1]]
    yield "refine", []
    eligible = _eligible(tree)
    yield "coarsen", eligible[::2] + eligible[:1] + [min(tree.leaves()),
                                                     1 << 40]
    parent = rng.choice([p for p in _eligible(tree)
                         if morton.level_of(p, dim) >= 2])
    yield "coarsen", [parent, parent >> 2 * dim]
    parent = rng.choice(_eligible(tree))
    child = morton.children_of(parent, dim)[0]
    yield "refine", [child]
    yield "coarsen", [child, parent]
    yield "coarsen", []


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_refine_and_coarsen_batches_equal_the_loop(monkeypatch, dim, seed):
    ours, theirs = _grown(dim, seed), _grown(dim, seed)
    assert _deep_state(ours) == _deep_state(theirs)
    for kind, batch in _batch_steps(ours, seed):
        loop = {"refine": oracle.refine_leaves,
                "coarsen": oracle.coarsen_parents}[kind]
        with ours.batch():
            got = loop(ours, batch)
        with monkeypatch.context() as patch:
            oracle.inject_scalar_mutations(patch)
            want = loop(theirs, batch)
        assert got == want, (kind, batch)
        assert _deep_state(ours) == _deep_state(theirs), (kind, batch)
    validate_tree(ours)


def _checkpointed(dim, seed, write):
    tree = _grown(dim, seed)
    fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, tree.arena.device.clock))
    write(tree, fs, "snap.gfs")
    return tree, fs


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_checkpoint_and_restore_equal_per_record_bodies(dim, seed):
    """Same blob byte for byte and the same charges to write it; the
    restored tree equal in every arena byte, allocator state, counter and
    clock to the one ``refine`` + ``set_payload`` per entry builds."""
    ours, fs_ours = _checkpointed(dim, seed, InCoreOctree.checkpoint)
    theirs, fs_theirs = _checkpointed(dim, seed, oracle.incore_checkpoint)
    blob = fs_ours.open("snap.gfs").read_all()
    assert blob == fs_theirs.open("snap.gfs").read_all()
    assert _deep_state(ours) == _deep_state(theirs)
    assert fs_ours.device.stats == fs_theirs.device.stats

    def restored(restore):
        fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 1 << 14)
        return restore(InCoreOctree, fs_ours, "snap.gfs", fresh)

    got = restored(InCoreOctree.restore_from.__func__)
    want = restored(oracle.incore_restore_from)
    assert _deep_state(got) == _deep_state(want)
    validate_tree(got)


def _snapshot(fs, name, dim, entries):
    f = fs.create(name)
    f.append(_HEADER.pack(_MAGIC, dim, len(entries))
             + np.array(entries, dtype=_SNAP).tobytes())


def test_restore_rejects_an_internal_octant_listed_twice(fs, arena):
    kids = [(c, FLAG_LEAF, (0.0,) * 4) for c in morton.children_of(1, 2)]
    _snapshot(fs, "twice.gfs", 2, [(1, 0, (0.0,) * 4)] + kids
              + [(1, 0, (0.0,) * 4)])
    with pytest.raises(RecoveryError, match="twice"):
        InCoreOctree.restore_from(fs, "twice.gfs", arena)
    assert arena.stats.allocs == 0  # validated before the arena is touched


def test_restore_rejects_an_internal_root_without_children(fs, arena):
    _snapshot(fs, "bare.gfs", 2, [(1, 0, (1.0, 2.0, 3.0, 4.0))])
    with pytest.raises(RecoveryError, match="omits 4 octants"):
        InCoreOctree.restore_from(fs, "bare.gfs", arena)
    assert arena.stats.allocs == 0
