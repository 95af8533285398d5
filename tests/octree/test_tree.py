"""PointerOctree structural tests."""

import pytest

from repro.errors import ReproError
from repro.nvbm.clock import Category
from repro.octree import morton
from repro.octree.refine import refine_uniform
from repro.octree.store import validate_tree
from repro.octree.tree import PointerOctree


def test_new_tree_is_single_root_leaf(quadtree):
    assert quadtree.num_octants() == 1
    assert quadtree.is_leaf(morton.ROOT_LOC)
    assert list(quadtree.leaves()) == [morton.ROOT_LOC]
    validate_tree(quadtree)


def test_refine_root(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    assert len(kids) == 4
    assert quadtree.num_octants() == 5
    assert not quadtree.is_leaf(morton.ROOT_LOC)
    assert all(quadtree.is_leaf(k) for k in kids)
    validate_tree(quadtree)


def test_refine_3d(octree3d):
    kids = octree3d.refine(morton.ROOT_LOC)
    assert len(kids) == 8
    assert octree3d.num_octants() == 9
    validate_tree(octree3d)


def test_refine_non_leaf_rejected(quadtree):
    quadtree.refine(morton.ROOT_LOC)
    with pytest.raises(ReproError):
        quadtree.refine(morton.ROOT_LOC)


def test_refine_missing_rejected(quadtree):
    with pytest.raises(ReproError):
        quadtree.refine(morton.loc_from_coords(3, (0, 0), 2))


def test_children_inherit_payload(quadtree):
    quadtree.set_payload(morton.ROOT_LOC, (0.5, 1.0, 2.0, 3.0))
    kids = quadtree.refine(morton.ROOT_LOC)
    for k in kids:
        assert quadtree.get_payload(k) == (0.5, 1.0, 2.0, 3.0)


def test_coarsen_roundtrip(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.coarsen(morton.ROOT_LOC)
    assert quadtree.num_octants() == 1
    assert quadtree.is_leaf(morton.ROOT_LOC)
    assert not any(quadtree.exists(k) for k in kids)
    validate_tree(quadtree)


def test_coarsen_leaf_rejected(quadtree):
    with pytest.raises(ReproError):
        quadtree.coarsen(morton.ROOT_LOC)


def test_coarsen_with_grandchildren_rejected(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    with pytest.raises(ReproError):
        quadtree.coarsen(morton.ROOT_LOC)


def test_refine_uniform(quadtree):
    refine_uniform(quadtree, 3)
    leaves = list(quadtree.leaves())
    assert len(leaves) == 4**3
    assert all(morton.level_of(leaf, 2) == 3 for leaf in leaves)
    # total octants: 1 + 4 + 16 + 64
    assert quadtree.num_octants() == 85
    validate_tree(quadtree)


def test_payload_set_get(quadtree):
    quadtree.refine(morton.ROOT_LOC)
    loc = morton.loc_from_coords(1, (1, 1), 2)
    quadtree.set_payload(loc, (9.0, 8.0, 7.0, 6.0))
    assert quadtree.get_payload(loc) == (9.0, 8.0, 7.0, 6.0)
    # siblings untouched
    other = morton.loc_from_coords(1, (0, 0), 2)
    assert quadtree.get_payload(other) == (0.0, 0.0, 0.0, 0.0)


def test_payload_of_missing_rejected(quadtree):
    with pytest.raises(ReproError):
        quadtree.get_payload(12345)


def test_find_leaf_at(quadtree):
    refine_uniform(quadtree, 2)
    loc = quadtree.find_leaf_at((0.9, 0.1))
    assert morton.coords_of(loc, 2) == (3, 0)
    loc = quadtree.find_leaf_at((0.0, 0.0))
    assert morton.coords_of(loc, 2) == (0, 0)


def test_find_leaf_at_validates_dim(quadtree):
    with pytest.raises(ValueError):
        quadtree.find_leaf_at((0.5, 0.5, 0.5))


def test_memory_traffic_charged(clock, quadtree):
    before = clock.category_ns(Category.MEM_DRAM)
    refine_uniform(quadtree, 2)
    assert clock.category_ns(Category.MEM_DRAM) > before


def test_record_parent_child_links(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    root_rec = quadtree.get_record(morton.ROOT_LOC)
    for i, k in enumerate(kids):
        assert root_rec.children[i] == quadtree.handle_of(k)
        child_rec = quadtree.get_record(k)
        assert child_rec.parent == quadtree.handle_of(morton.ROOT_LOC)


def test_invalid_dim_rejected(dram_arena):
    with pytest.raises(ValueError):
        PointerOctree(dram_arena, dim=1)
