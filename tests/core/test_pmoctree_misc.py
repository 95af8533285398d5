"""Odds and ends of the PMOctree surface: point location, budgets, stats."""

import pytest

from repro.errors import ReproError
from repro.octree import morton, soa
from tests.core.conftest import PMRig


def test_find_leaf_at(rig):
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    loc = t.find_leaf_at((0.9, 0.1))
    assert morton.coords_of(loc, 2) == (3, 0)
    assert t.is_leaf(loc)
    # works identically after octants migrate to NVBM
    t.persist(transform=False)
    assert t.find_leaf_at((0.9, 0.1)) == loc
    with pytest.raises(ValueError):
        t.find_leaf_at((0.5, 0.5, 0.5))


def test_c0_capacity_properties():
    rig = PMRig(dram_octants=256, dram_capacity_octants=100)
    t = rig.tree
    assert t.c0_capacity == 100  # min(arena, budget)
    assert t.c0_free == 99  # root octant is resident
    from dataclasses import replace

    t.config = replace(t.config, dram_capacity_octants=10_000)
    assert t.c0_capacity == 256  # capped by the arena


def test_stats_accumulate(rig):
    t = rig.tree
    for leaf in list(t.leaves()):
        t.refine(leaf)
    t.persist(transform=False)
    leaf = sorted(t.leaves())[0]
    t.set_payload(leaf, (1.0, 0, 0, 0))
    t.persist(transform=False)
    t.gc()
    s = t.stats
    assert s.persists == 2
    assert s.merges >= 1
    assert s.cow_copies >= 2
    assert s.gc_runs == 1
    assert s.marked_deleted >= 1
    assert s.octants_reclaimed >= 1


def test_handle_of_missing(rig):
    with pytest.raises(ReproError):
        rig.tree.handle_of(0xDEAD)


def test_tree_depth(rig):
    t = rig.tree
    assert t.tree_depth() == 0
    loc = t.refine(morton.ROOT_LOC)[0]
    t.refine(loc)
    assert t.tree_depth() == 2


def test_memory_usage_counts_both_arenas(rig):
    t = rig.tree
    for leaf in list(t.leaves()):
        t.refine(leaf)
    assert t.memory_usage_octants() == rig.dram.used + rig.nvbm.used == 5
    t.persist(transform=False)
    assert t.memory_usage_octants() == rig.nvbm.used  # DRAM emptied


def test_register_feature(rig):
    fn = soa.per_octant(lambda loc, p: True)
    rig.tree.register_feature(fn)
    assert fn in rig.tree.features
