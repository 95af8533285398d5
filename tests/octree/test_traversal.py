"""Traversal-order tests."""

from repro.octree import morton
from repro.octree.refine import refine_uniform
from repro.octree.traversal import preorder


def test_preorder_parent_before_children(quadtree):
    refine_uniform(quadtree, 2)
    seen = {}
    for i, loc in enumerate(preorder(quadtree)):
        seen[loc] = i
    for loc in seen:
        if loc != morton.ROOT_LOC:
            assert seen[morton.parent_of(loc, 2)] < seen[loc]
    assert len(seen) == quadtree.num_octants()


def test_leaves_zorder_is_sorted_by_zkey(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[2])
    leaves = [loc for loc in preorder(quadtree) if quadtree.is_leaf(loc)]
    assert set(leaves) == set(quadtree.leaves())
    keys = [morton.zorder_key(leaf, 2, 4) for leaf in leaves]
    assert keys == sorted(keys)


def test_preorder_subtree_start(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    sub = list(preorder(quadtree, start=kids[0]))
    assert sub[0] == kids[0]
    assert len(sub) == 5  # subtree root + its 4 children
