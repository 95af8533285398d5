"""Property tests for the batch structure queries of the tree protocol.

``tree.face_neighbors(locs)`` is *defined* as ``face_neighbor_leaves(tree,
loc)`` for each ``loc`` in order.  The array implementation
(``soa.face_table``, behind ``PointerOctree`` and ``PMOctree``) must equal
the loop-backed default entry for entry — code, axis, direction, order — and
touch neither ``DeviceStats`` nor the ``SimClock``; the loop-backed default
(``EtreeOctree``) must charge exactly what the loop charges.
``tree.unbalanced`` may only ever say False where Balance has nothing to do.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.etree import EtreeOctree
from repro.config import DRAM_SPEC, NVBM_FS_SPEC, NVBM_SPEC, PMOctreeConfig
from repro.core.api import pm_create
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton, soa
from repro.octree.neighbors import face_neighbor_leaves
from repro.octree.store import LoopBackedAccess
from repro.octree.tree import PointerOctree
from repro.storage.block import BlockDevice
from tests.oracles import scalar_kernels

CAP = 5  # deepest level the generated trees reach


def _pointer(dim):
    clock = SimClock()
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    return PointerOctree(arena, dim=dim), clock, [arena.device]


def _pm(dim):
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 16)
    # a small C0, so part of the tree lives in NVBM
    tree = pm_create(dram, nvbm, dim=dim,
                     config=PMOctreeConfig(dram_capacity_octants=48, seed=3))
    return tree, clock, [dram.device, nvbm.device]


def _etree(dim):
    clock = SimClock()
    device = BlockDevice(NVBM_FS_SPEC, clock)
    return EtreeOctree(device, dim=dim), clock, [device]


def _grow(tree, shape, picks):
    """``root``: the single root leaf; ``uniform``: every leaf at one level;
    ``unbalanced``: refined at the picked leaves, level gaps and all;
    ``balanced``: the same, then 2:1 balanced by the per-leaf oracle."""
    dim = tree.dim
    if shape == "uniform":
        for _ in range(1 + picks[0] % 3):
            for loc in sorted(tree.leaves()):
                tree.refine(loc)
    elif shape != "root":
        for pick in picks:
            open_leaves = sorted(loc for loc in tree.leaves()
                                 if morton.level_of(loc, dim) < CAP)
            tree.refine(open_leaves[pick % len(open_leaves)])
        if shape == "balanced":
            scalar_kernels.balance_tree(tree)


def _subset(tree, order_seed):
    """A permuted subset of the leaves."""
    rng = random.Random(order_seed)
    locs = sorted(tree.leaves())
    rng.shuffle(locs)
    return locs[:rng.randint(0, len(locs))]


def _machine(clock, devices):
    return (clock.now_ns, dict(clock.by_category),
            [dataclasses.asdict(d.stats) for d in devices])


def _assert_tables_equal(got, want):
    for field, g, w in zip(soa.FaceTable._fields, got, want):
        assert np.array_equal(g, w), field


def _forcing(tree, loc):
    """The per-leaf Balance test: some face of ``loc`` is covered by a leaf
    more than one level coarser."""
    dim = tree.dim
    level = morton.level_of(loc, dim)
    for axis in range(dim):
        for direction in (-1, 1):
            anc = morton.neighbor_of(loc, dim, axis, direction)
            if anc is None:
                continue
            while not tree.exists(anc):
                anc = morton.parent_of(anc, dim)
            if tree.is_leaf(anc) and morton.level_of(anc, dim) < level - 1:
                return True
    return False


trees = dict(
    dim=st.sampled_from([2, 3]),
    shape=st.sampled_from(["root", "uniform", "balanced", "unbalanced"]),
    picks=st.lists(st.integers(0, 10_000), min_size=1, max_size=14),
    order_seed=st.integers(0, 10_000),
)


@pytest.mark.parametrize("make", [_pointer, _pm], ids=["pointer", "pm"])
@settings(max_examples=40, deadline=None)
@given(**trees)
def test_array_table_is_the_loop_and_is_free(make, dim, shape, picks,
                                             order_seed):
    tree, clock, devices = make(dim)
    _grow(tree, shape, picks)
    for locs in (sorted(tree.leaves()), _subset(tree, order_seed)):
        before = _machine(clock, devices)
        table = tree.face_neighbors(locs)
        todo = tree.unbalanced(locs)
        assert _machine(clock, devices) == before
        _assert_tables_equal(table, LoopBackedAccess.face_neighbors(tree, locs))
        assert table.offsets[-1] == len(table.codes) == len(table.rows())
        forcing = np.array([_forcing(tree, loc) for loc in locs], dtype=bool)
        assert todo.dtype == bool and todo.shape == forcing.shape
        assert not (forcing & ~todo).any()


@settings(max_examples=15, deadline=None)
@given(**trees)
def test_loop_backed_table_charges_what_the_loop_charges(dim, shape, picks,
                                                         order_seed):
    tree, clock, devices = _etree(dim)
    _grow(tree, shape, picks[:6])
    locs = _subset(tree, order_seed)
    start = _machine(clock, devices)
    for loc in locs:
        list(face_neighbor_leaves(tree, loc))
    loop = _machine(clock, devices)
    table = tree.face_neighbors(locs)
    batch = _machine(clock, devices)
    assert batch[0] - loop[0] == loop[0] - start[0]
    reads = [m[2][0]["page_reads"] for m in (start, loop, batch)]
    assert reads[2] - reads[1] == reads[1] - reads[0]
    assert batch[2][0]["page_writes"] == start[2][0]["page_writes"]
    # the same answer the array implementation gives for these leaf codes
    _assert_tables_equal(
        table, soa.face_table(list(tree.leaves()), locs, dim))
    # deciding would cost index searches: every leaf stays in Balance's queue
    before = _machine(clock, devices)
    assert tree.unbalanced(locs).all()
    assert _machine(clock, devices) == before
