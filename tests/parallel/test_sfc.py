"""Hilbert indexing and partition-quality metrics."""

import pytest

from repro.octree import morton
from repro.octree.refine import refine_uniform
from repro.parallel.sfc import (
    compare_curves,
    edge_cut,
    hilbert_index_2d,
    hilbert_index_3d,
    hilbert_key,
    partition_by_key,
)


def test_hilbert_2d_order1():
    # the canonical order-1 curve: (0,0) (0,1) (1,1) (1,0)
    cells = sorted(
        ((x, y) for x in range(2) for y in range(2)),
        key=lambda c: hilbert_index_2d(c[0], c[1], 1),
    )
    assert cells == [(0, 0), (0, 1), (1, 1), (1, 0)]


def test_hilbert_2d_is_bijection():
    order = 3
    side = 1 << order
    idxs = {
        hilbert_index_2d(x, y, order) for x in range(side) for y in range(side)
    }
    assert idxs == set(range(side * side))


def test_hilbert_2d_consecutive_cells_adjacent():
    order = 4
    side = 1 << order
    by_index = {
        hilbert_index_2d(x, y, order): (x, y)
        for x in range(side)
        for y in range(side)
    }
    for d in range(side * side - 1):
        (x0, y0), (x1, y1) = by_index[d], by_index[d + 1]
        assert abs(x0 - x1) + abs(y0 - y1) == 1  # face neighbors, always


def test_hilbert_2d_bounds():
    with pytest.raises(ValueError):
        hilbert_index_2d(4, 0, 2)


def test_hilbert_3d_is_bijection():
    order = 2
    side = 1 << order
    idxs = {
        hilbert_index_3d(x, y, z, order)
        for x in range(side) for y in range(side) for z in range(side)
    }
    assert idxs == set(range(side ** 3))


def test_gray3_octant_walk_adjacent():
    """Consecutive octants of the level-1 walk share a face."""
    from repro.parallel.sfc import _GRAY3

    for a, b in zip(_GRAY3, _GRAY3[1:]):
        assert bin(a ^ b).count("1") == 1


def test_hilbert_3d_bounds():
    with pytest.raises(ValueError):
        hilbert_index_3d(0, 0, 8, 3)


def test_hilbert_key_orders_mixed_levels():
    parent = morton.loc_from_coords(1, (0, 0), 2)
    child = morton.child_of(parent, 2, 0)
    kp = hilbert_key(parent, 2, 4)
    kc = hilbert_key(child, 2, 4)
    assert kp < kc  # ancestors first, like zorder_key
    with pytest.raises(ValueError):
        hilbert_key(morton.loc_from_coords(5, (0, 0), 2), 2, 4)


def test_partition_by_key_balanced(quadtree):
    refine_uniform(quadtree, 3)
    leaves = list(quadtree.leaves())
    assignment = partition_by_key(leaves, 2, 3, 4, hilbert_key)
    counts = [list(assignment.values()).count(r) for r in range(4)]
    assert sum(counts) == 64
    assert max(counts) - min(counts) <= 1


def test_edge_cut_counts_boundary_faces(quadtree):
    refine_uniform(quadtree, 2)
    # split the 4x4 grid into left/right halves by hand: cut = 4 faces
    assignment = {
        loc: (0 if morton.coords_of(loc, 2)[0] < 2 else 1)
        for loc in quadtree.leaves()
    }
    assert edge_cut(quadtree, assignment) == 4


def test_hilbert_matches_morton_on_aligned_counts(quadtree):
    """With power-of-two rank counts both curves cut the grid into the same
    aligned blocks — the cuts tie exactly."""
    refine_uniform(quadtree, 4)
    cuts = compare_curves(quadtree, nranks=8)
    assert cuts["hilbert"] == cuts["morton"]


def test_hilbert_beats_morton_on_unaligned_counts(quadtree):
    """Off power-of-two, Morton's diagonal jumps fragment the ranges while
    Hilbert's stay compact: smaller boundary surface in aggregate."""
    refine_uniform(quadtree, 4)
    total = {"morton": 0, "hilbert": 0}
    for p in (3, 6, 7, 12):
        cuts = compare_curves(quadtree, nranks=p)
        for k, v in cuts.items():
            total[k] += v
    assert total["hilbert"] < total["morton"]


def test_hilbert_no_worse_on_random_adaptive_trees():
    """Aggregated over many random adaptive trees, Hilbert's boundary
    surface is no larger than Morton's (per-tree results are noisy at this
    size, so the claim is statistical)."""
    import random

    from repro.config import DRAM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.clock import SimClock
    from repro.nvbm.pointers import ARENA_DRAM
    from repro.octree.balance import balance_tree
    from repro.octree.tree import PointerOctree

    total = {"morton": 0, "hilbert": 0}
    for seed in range(12):
        rng = random.Random(seed)
        tree = PointerOctree(
            MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 1 << 15), dim=2
        )
        refine_uniform(tree, 2)
        for _ in range(8):
            leaves = [leaf for leaf in tree.leaves() if morton.level_of(leaf, 2) < 5]
            if leaves:
                tree.refine(rng.choice(leaves))
        balance_tree(tree, max_level=5)
        for name, cut in compare_curves(tree, nranks=6).items():
            total[name] += cut
    assert total["hilbert"] <= total["morton"]
