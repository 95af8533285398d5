"""Property tests for the batch structure queries of the tree protocol.

``tree.face_neighbors(locs)`` is *defined* as ``face_neighbor_leaves(tree,
loc)`` for each ``loc`` in order.  The array implementation
(``soa.face_table``, behind ``PointerOctree`` and ``PMOctree``) must equal
the loop-backed default entry for entry — code, axis, direction, order — and
touch neither ``DeviceStats`` nor the ``SimClock``; the loop-backed default
(``EtreeOctree``) must charge exactly what the loop charges.
``tree.forcing_faces`` may only ever say False where Balance has nothing to
do on that face, and on the array trees it is exact: a face forces iff the
level gap across it is below −1.  ``tree.face_leaves`` (the advect kernel's
upwind probe) is defined as ``leaf_neighbor`` + ``is_leaf`` per code.
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
from repro.octree.neighbors import face_neighbor_leaves, leaf_neighbor
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
    """The per-leaf Balance test, per face (axis-major, −1 before +1): the
    face of ``loc`` is covered by a leaf more than one level coarser."""
    dim = tree.dim
    level = morton.level_of(loc, dim)
    out = []
    for axis in range(dim):
        for direction in (-1, 1):
            anc = morton.neighbor_of(loc, dim, axis, direction)
            if anc is not None:
                while not tree.exists(anc):
                    anc = morton.parent_of(anc, dim)
            out.append(anc is not None and tree.is_leaf(anc)
                       and morton.level_of(anc, dim) < level - 1)
    return out


def _gap_faces(table, locs, dim):
    """Per (loc, face): some entry across it has a level gap below −1."""
    out = np.zeros((len(locs), 2 * dim), dtype=bool)
    low = soa.level_gaps(table, locs, dim) < -1
    out[table.rows()[low], (2 * table.axes + (table.dirs > 0))[low]] = True
    return out


def _probe(tree, locs, axis, direction):
    """``face_leaves`` by its definition: the per-code loop."""
    out = []
    for loc in locs:
        code = leaf_neighbor(tree, loc, axis, direction)
        out.append(code if code is not None and tree.is_leaf(code) else 0)
    return out


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
        todo = tree.forcing_faces(locs)
        assert _machine(clock, devices) == before
        _assert_tables_equal(table, LoopBackedAccess.face_neighbors(tree, locs))
        assert table.offsets[-1] == len(table.codes) == len(table.rows())
        forcing = np.array([_forcing(tree, loc) for loc in locs],
                           dtype=bool).reshape(len(locs), 2 * dim)
        assert todo.dtype == bool and todo.shape == forcing.shape
        assert not (forcing & ~todo).any()
        # exact on the array trees: the level gaps below −1, per face
        assert np.array_equal(todo, _gap_faces(table, locs, dim))
        assert np.array_equal(todo, forcing)


@pytest.mark.parametrize("make", [_pointer, _pm], ids=["pointer", "pm"])
@pytest.mark.parametrize("dim", [2, 3])
def test_deduplicated_forcing_faces_equal_the_per_face_lookup(make, dim):
    """One lookup per distinct neighbour parent answers what the per-face
    Balance test does, on a tree where most faces share a neighbour parent: a
    uniform level-2 tree whose first cell is refined to level 5 (gaps of
    three levels) and whose last once (gaps of one), asked for every leaf,
    shuffled, with repeats."""
    tree, _clock, _devices = make(dim)
    _grow(tree, "uniform", [1])
    corner, far = min(tree.leaves()), max(tree.leaves())
    for _ in range(3):
        for loc in sorted(tree.leaves()):
            if loc >> dim * (morton.level_of(loc, dim) - 2) == corner:
                tree.refine(loc)
    tree.refine(far)
    locs = sorted(tree.leaves())
    random.Random(dim).shuffle(locs)
    locs += locs[:len(locs) // 3]
    todo = tree.forcing_faces(locs)
    assert np.array_equal(todo, np.array([_forcing(tree, loc) for loc in locs],
                                         dtype=bool).reshape(todo.shape))
    assert todo.any() and not todo.all()
    ups = [code >> dim for loc in locs for axis in range(dim)
           for direction in (-1, 1)
           if (code := morton.neighbor_of(loc, dim, axis, direction))]
    assert len(set(ups)) * 4 < len(ups)


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
    # deciding would cost index searches: every face stays in Balance's queue
    before = _machine(clock, devices)
    todo = tree.forcing_faces(locs)
    assert todo.shape == (len(locs), 2 * dim) and todo.all()
    assert _machine(clock, devices) == before


@pytest.mark.parametrize("make", [_pointer, _pm], ids=["pointer", "pm"])
@settings(max_examples=30, deadline=None)
@given(**trees)
def test_face_leaves_is_the_probe_loop_and_is_free(make, dim, shape, picks,
                                                  order_seed):
    tree, clock, devices = make(dim)
    _grow(tree, shape, picks)
    inner = [loc for loc in tree._index if loc not in tree._leaf_set]
    for locs in (sorted(tree.leaves()), _subset(tree, order_seed), inner):
        for axis in range(dim):
            for direction in (-1, 1):
                before = _machine(clock, devices)
                got = tree.face_leaves(locs, axis, direction)
                assert _machine(clock, devices) == before
                assert got.dtype == np.int64
                assert got.tolist() == _probe(tree, locs, axis, direction)


def test_face_leaves_misses_the_boundary_and_the_finer_side():
    tree, _clock, _devices = _pointer(2)
    west, east = tree.refine(morton.ROOT_LOC)[:2]
    tree.refine(east)
    north = morton.child_of(morton.ROOT_LOC, 2, 2)
    # west's +x face sees east's children (finer): a miss; its −x face is
    # the domain boundary: a miss; east's first child sees west (coarser),
    # west's +y face a leaf of its own level
    for axis, direction, loc, want in ((0, 1, west, 0), (0, -1, west, 0),
                                       (0, -1, east << 2, west),
                                       (1, 1, west, north)):
        assert tree.face_leaves([loc], axis, direction).tolist() == [want]
        assert _probe(tree, [loc], axis, direction) == [want]


@settings(max_examples=15, deadline=None)
@given(**trees)
def test_loop_backed_face_leaves_charges_what_the_loop_charges(
        dim, shape, picks, order_seed):
    tree, clock, devices = _etree(dim)
    _grow(tree, shape, picks[:6])
    locs = _subset(tree, order_seed)
    for axis in range(dim):
        for direction in (-1, 1):
            start = _machine(clock, devices)
            want = _probe(tree, locs, axis, direction)
            loop = _machine(clock, devices)
            got = tree.face_leaves(locs, axis, direction)
            batch = _machine(clock, devices)
            assert got.tolist() == want
            assert batch[0] - loop[0] == loop[0] - start[0]
            reads = [m[2][0]["page_reads"] for m in (start, loop, batch)]
            assert reads[2] - reads[1] == reads[1] - reads[0]
