"""Seeded property tests for the SoA batch layer and the tree protocol.

Three families:

* the vectorised locational-code arithmetic in :mod:`repro.octree.soa` is
  integer-exact against the scalar :mod:`repro.octree.morton` loops;
* gather/scatter round-trips on every :class:`AdaptiveTree` implementation
  (PMOctree, InCoreOctree, EtreeOctree): a batch write-back of gathered
  payloads is a no-op on values, and random payloads written through the
  batch path read back exactly;
* metering conservation, same three trees: the batch accessors charge the
  device *exactly* what the per-element calls charge — same counters, same
  wear, same simulated clock (PMOctree and InCoreOctree aggregate the
  charge, Etree inherits the loop-backed accessors) — and so do the
  arenas' own ``read_rows``/``write_rows`` underneath, through a crash and
  a media fault.
"""

import random

import numpy as np
import pytest

from repro.baselines.etree import EtreeOctree
from repro.baselines.incore import InCoreOctree
from repro.config import (DRAM_SPEC, NVBM_FS_SPEC, NVBM_SPEC,
                          OCTANT_RECORD_SIZE, PMOctreeConfig)
from repro.core.api import pm_create
from repro.core.pmoctree import PMOctree
from repro.errors import MediaError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import (LINES_PER_RECORD, MediaFaultModel,
                               MemoryDevice, lines_spanned)
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, index_of
from repro.nvbm.records import PAYLOAD_SPAN, child_span
from repro.octree import morton, soa
from repro.octree.store import AdaptiveTree
from repro.octree.tree import PointerOctree
from repro.storage.block import BlockDevice
from tests.baselines.test_incore import _deep_state

MAX_LEVEL = 5


def _random_tree(seed: int, dim: int = 2, ops: int = 40):
    """Random refine/coarsen sequence on a pointer octree."""
    rng = random.Random(seed)
    clock = SimClock()
    tree = PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14), dim=dim
    )
    leaves = {morton.ROOT_LOC}
    for _ in range(ops):
        if rng.random() < 0.7:
            cands = sorted(
                leaf for leaf in leaves
                if morton.level_of(leaf, dim) < MAX_LEVEL
            )
            if not cands:
                continue
            loc = rng.choice(cands)
            tree.refine(loc)
            leaves.discard(loc)
            leaves.update(morton.children_of(loc, dim))
        else:
            parents = sorted({
                morton.parent_of(leaf, dim)
                for leaf in leaves if leaf != morton.ROOT_LOC
            })
            parents = [
                p for p in parents
                if all(c in leaves for c in morton.children_of(p, dim))
            ]
            if not parents:
                continue
            loc = rng.choice(parents)
            tree.coarsen(loc)
            for c in morton.children_of(loc, dim):
                leaves.discard(c)
            leaves.add(loc)
    for i, loc in enumerate(sorted(leaves)):
        tree.set_payload(loc, (rng.random(), float(i), rng.random(), 0.25))
    return tree


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_code_arithmetic_matches_morton(seed, dim):
    tree = _random_tree(seed, dim=dim)
    locs = np.array(sorted(tree.leaves()), dtype=np.int64)
    levels = soa.levels_of_codes(locs, dim)
    coords = soa.coords_of_codes(locs, levels, dim)
    max_level = int(levels.max())
    keys = soa.zorder_keys(locs, levels, dim, max_level)
    h, mins, maxs, centers = soa.cell_geometry(coords, levels)
    for i, loc in enumerate(int(v) for v in locs):
        assert int(levels[i]) == morton.level_of(loc, dim)
        assert tuple(int(c) for c in coords[i]) == morton.coords_of(loc, dim)
        assert int(keys[i]) == morton.zorder_key(loc, dim, max_level)
        lo, hi = morton.cell_bounds(loc, dim)
        assert tuple(mins[i]) == lo
        assert tuple(maxs[i]) == hi
        assert tuple(centers[i]) == morton.cell_center(loc, dim)
        assert float(h[i]) == morton.cell_size(loc, dim)


@pytest.mark.parametrize("dim,top", [(2, 26), (3, 17)])
def test_code_decode_at_every_level(dim, top):
    """The decode at every level up to the float-exact limit (the deepest
    level whose codes stay below 2**53), so every mask step is used:
    random codes and the all-ones code of each level."""
    assert 1 << dim * top < soa._EXACT_FLOAT_LIMIT <= 1 << dim * (top + 1)
    rng = random.Random(dim)
    codes = []
    for level in range(top + 1):
        sentinel = 1 << dim * level
        codes += [sentinel | rng.getrandbits(dim * level) for _ in range(40)]
        codes.append(2 * sentinel - 1)
    levels = soa.levels_of_codes(codes, dim)
    coords = soa.coords_of_codes(codes, levels, dim)
    assert levels.tolist() == [morton.level_of(c, dim) for c in codes]
    assert [tuple(row) for row in coords.tolist()] \
        == [morton.coords_of(c, dim) for c in codes]
    assert coords.max() == (1 << top) - 1


def _pm_rig(seed: int):
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=24, seed=seed,
                         max_inflight_epochs=0)
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    return clock, tree, [dram.device, nvbm.device]


def _incore_rig(seed: int):
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    return clock, InCoreOctree(dram, dim=2), [dram.device]


def _etree_rig(seed: int):
    clock = SimClock()
    device = BlockDevice(NVBM_FS_SPEC, clock)
    return clock, EtreeOctree(device, dim=2), [device]


RIGS = {"pm": _pm_rig, "incore": _incore_rig, "etree": _etree_rig}

#: (tree kind, seed); PMOctree cases keep their pre-protocol ids
TREE_CASES = [
    pytest.param(kind, seed,
                 id=str(seed) if kind == "pm" else f"{kind}-{seed}")
    for kind in RIGS for seed in (0, 1, 2)
]


def _grow(tree, seed: int):
    """Refine a few random leaves (on PMOctree some are evicted to NVBM by
    the tight budget), seed payloads, and on PMOctree persist once so COW
    paths are live."""
    rng = random.Random(seed)
    for _ in range(3):
        cands = sorted(
            leaf for leaf in tree.leaves()
            if morton.level_of(leaf, 2) < MAX_LEVEL
        )
        for loc in rng.sample(cands, min(4, len(cands))):
            if tree.is_leaf(loc):
                tree.refine(loc)
    for i, loc in enumerate(sorted(tree.leaves())):
        tree.set_payload(loc, (rng.random(), float(i), 0.0, 1.0))
    if isinstance(tree, PMOctree):
        tree.persist()
        tree.drain_persists()


@pytest.mark.parametrize("kind,seed", TREE_CASES)
def test_gather_scatter_round_trip(kind, seed):
    clock, tree, devices = RIGS[kind](seed)
    assert isinstance(tree, AdaptiveTree)
    _grow(tree, seed)
    assert tree.num_leaves() == len(list(tree.leaves()))
    batch = soa.gather(tree, tree.leaves())
    # write back exactly what was read: values must be unchanged
    tree.batch_set_payloads(batch.loc_list, batch.payloads)
    again = soa.gather(tree, tree.leaves())
    assert again.loc_list == batch.loc_list
    assert np.array_equal(again.payloads, batch.payloads)
    # fresh random payloads survive a batch write -> batch read round trip
    rng = np.random.default_rng(seed)
    fresh = rng.random((len(batch), 4))
    tree.batch_set_payloads(batch.loc_list, fresh)
    assert np.array_equal(
        soa.gather(tree, tree.leaves()).payloads, fresh)


def _arena_level_accesses(mode: str, tree: PMOctree, seed: int) -> dict:
    """The arena's own batch accessors against the per-record calls they
    are defined as, on both arenas of a PM rig: whole-record and child-slot
    reads, field and whole-record stores, the tear of the dirty lines those
    stores leave, and the media error a planted rot raises."""
    out = {}
    for name, arena in (("dram", tree.dram), ("nvbm", tree.nvbm)):
        handles = [h for h in tree._index.values() if arena.contains(h)]
        rng = np.random.default_rng(seed + 7)
        child_off, child_size = child_span(0, 4)
        payloads = rng.random((len(handles), 4))
        images = [bytes(rng.integers(0, 256, OCTANT_RECORD_SIZE,
                                     dtype=np.uint8)) for _ in handles[:5]]
        if mode == "batch":
            records = arena.read_rows(handles).tobytes()
            slots = arena.read_rows(handles, child_off, child_size).tobytes()
            arena.write_rows(handles, PAYLOAD_SPAN[0],
                             payloads.view(np.uint8))
            arena.write_rows(handles[:5], 0, np.frombuffer(
                b"".join(images), np.uint8).reshape(-1, OCTANT_RECORD_SIZE))
        else:
            records = b"".join(arena.read_field(h, 0, OCTANT_RECORD_SIZE)
                               for h in handles)
            slots = b"".join(arena.read_field(h, child_off, child_size)
                             for h in handles)
            for h, row in zip(handles, payloads):
                arena.write_payload(h, tuple(row))
            for h, image in zip(handles[:5], images):
                arena.write(h, image)
        out[name] = (records, slots, arena.dirty_handles(),
                     arena.stats.stores)
    # tear what the stores left dirty, then read the medium back
    nvbm = tree.nvbm
    nvbm.crash(np.random.default_rng(seed + 8))
    live = [h for h in nvbm.live_handles() if nvbm._present[index_of(h)]]
    with nvbm.device.unmetered():
        out["torn"] = b"".join(nvbm.read_field(h, 0, OCTANT_RECORD_SIZE)
                               for h in live)
    # planted rot on the line-1 of one survivor: same error, same charges
    model = MediaFaultModel()
    nvbm.attach_fault_model(model)
    model.plant_rot(index_of(live[len(live) // 2]) * LINES_PER_RECORD + 1)
    with pytest.raises(MediaError) as err:
        if mode == "batch":
            nvbm.read_rows(live)
        else:
            for h in live:
                nvbm.read_field(h, 0, OCTANT_RECORD_SIZE)
    out["media"] = (type(err.value).__name__, err.value.kind, err.value.slot,
                    err.value.lines, str(err.value))
    return out


@pytest.mark.parametrize("kind,seed", TREE_CASES)
def test_batch_metering_equals_scalar_metering(kind, seed):
    """Twin rigs, same logical accesses: the batch accessors equal the
    per-element calls in the values they return and in every device/block
    counter, in wear, and on the simulated clock.  On a PM rig the same
    holds one layer down, for the arenas' whole-record / child-slot batch
    reads and batch stores (:func:`_arena_level_accesses`), through a
    crash and a media fault; on an in-core rig, for the DRAM arena's bytes,
    allocator and the tree's index (``test_incore._deep_state``)."""
    rigs = {}
    for mode in ("batch", "scalar"):
        clock, tree, devices = RIGS[kind](seed)
        _grow(tree, seed)
        locs = sorted(tree.leaves())
        vals = np.random.default_rng(seed + 99).random((len(locs), 4))
        items = [(loc, tuple(vals[i])) for i, loc in enumerate(locs)]
        if mode == "batch":
            tree.batch_set_payloads(locs, vals)
            tree.batch_set_fields(locs, vals[:, 1], 1)
            payloads = tree.batch_read_payloads(locs)
            slot0 = tree.batch_read_fields(locs, 0)
        else:
            for loc, payload in items:
                tree.set_payload(loc, payload)
            for i, loc in enumerate(locs):
                tree.set_field(loc, 1, float(vals[i][1]))
            payloads = np.array([tree.get_payload(loc) for loc in locs])
            slot0 = np.array([tree.get_field(loc, 0) for loc in locs])
        below = None
        if kind == "pm":
            below = _arena_level_accesses(mode, tree, seed)
        elif kind == "incore":
            below = _deep_state(tree)
        rigs[mode] = (clock, devices, payloads, slot0, below)
    cb, devs_b, payloads_b, slot0_b, below_b = rigs["batch"]
    cs, devs_s, payloads_s, slot0_s, below_s = rigs["scalar"]
    assert np.array_equal(payloads_b, payloads_s)
    assert np.array_equal(slot0_b, slot0_s)
    assert below_b == below_s
    for dev_b, dev_s in zip(devs_b, devs_s):
        assert dev_b.stats == dev_s.stats
        if isinstance(dev_b, MemoryDevice):
            assert np.array_equal(dev_b._wear, dev_s._wear)
    assert cb.now_ns == cs.now_ns
    assert cb.by_phase == cs.by_phase and cb.by_category == cs.by_category


def test_batch_write_charge_is_sum_of_lines_spanned():
    """The aggregate charge is arithmetically the per-element sum: a whole
    payload spans ``lines_spanned(16, 32)`` lines, a slot
    ``lines_spanned(16 + 8*slot, 8)``.  Everything is kept DRAM-resident
    (generous budget, no persist) so the payload stores are the *only*
    device traffic — no COW or eviction side-writes to untangle.
    """
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    tree = pm_create(dram, nvbm, dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=1 << 16))
    for loc in sorted(tree.leaves()):
        tree.refine(loc)
    locs = sorted(tree.leaves())
    stats = dram.device.stats

    before_lines, before_writes = stats.lines_written, stats.writes
    tree.batch_set_payloads(locs, np.tile((0.5, 1.0, 2.0, 3.0),
                                          (len(locs), 1)))
    assert stats.lines_written - before_lines \
        == len(locs) * lines_spanned(16, 32)
    assert stats.writes - before_writes == len(locs)

    before_lines, before_writes = stats.lines_written, stats.writes
    tree.batch_set_fields(locs, np.full(len(locs), 7.0), 1)
    assert stats.lines_written - before_lines \
        == len(locs) * lines_spanned(16 + 8 * 1, 8)
    assert stats.writes - before_writes == len(locs)
