"""2:1 balance tests, including hypothesis-driven random refinement."""

from hypothesis import given, settings, strategies as st

from repro.config import DRAM_SPEC
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM
from repro.octree import morton
from repro.octree.balance import balance_tree, find_violation, is_balanced
from repro.octree.refine import refine_uniform
from repro.octree.store import validate_tree
from repro.octree.tree import PointerOctree


def _fresh_tree(dim=2):
    clock = SimClock()
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, capacity_octants=1 << 17)
    return PointerOctree(arena, dim=dim)


def test_uniform_tree_is_balanced(quadtree):
    refine_uniform(quadtree, 3)
    assert is_balanced(quadtree)
    assert balance_tree(quadtree) == 0  # no work needed


def _inner_corner_chain(tree, depth):
    """Refine root's (0,0) child, then repeatedly the child nearest the
    domain center.  Unlike a corner-aligned chain (which is naturally
    face-balanced), the deep cells end up face-adjacent to level-1 leaves.
    """
    loc = tree.refine(morton.ROOT_LOC)[0]  # (0,0) quadrant
    for _ in range(depth - 1):
        loc = tree.refine(loc)[-1]  # child 3/7: the inner corner
    return loc


def test_single_deep_refinement_unbalances(quadtree):
    _inner_corner_chain(quadtree, 3)
    assert not is_balanced(quadtree)
    assert find_violation(quadtree) is not None


def test_balance_fixes_violations(quadtree):
    _inner_corner_chain(quadtree, 4)
    n = balance_tree(quadtree)
    assert n > 0
    assert is_balanced(quadtree)
    validate_tree(quadtree)


def test_balance_is_idempotent(quadtree):
    _inner_corner_chain(quadtree, 4)
    balance_tree(quadtree)
    assert balance_tree(quadtree) == 0


def test_balance_3d():
    tree = _fresh_tree(dim=3)
    _inner_corner_chain(tree, 3)
    assert not is_balanced(tree)
    balance_tree(tree)
    assert is_balanced(tree)
    validate_tree(tree)


def test_balance_respects_max_level(quadtree):
    _inner_corner_chain(quadtree, 4)
    octants_before = quadtree.num_octants()
    # capping at level 1 forbids any repair refinement (repairs would need
    # to create level-2+ leaves), so the tree must be left unchanged
    balance_tree(quadtree, max_level=1)
    assert quadtree.num_octants() == octants_before


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_balance_random_trees_property(seed):
    """Property: after balance_tree, any random tree is 2:1 balanced and
    still tiles the domain."""
    import random

    rng = random.Random(seed)
    tree = _fresh_tree()
    for _ in range(12):
        leaves = [leaf for leaf in tree.leaves() if morton.level_of(leaf, 2) < 6]
        if not leaves:
            break
        tree.refine(rng.choice(leaves))
    balance_tree(tree, max_level=6)
    assert is_balanced(tree)
    validate_tree(tree)


def test_balance_seeds_subset(quadtree):
    """Incremental balance starting from just-refined seeds also reaches a
    balanced state."""
    loc = quadtree.refine(morton.ROOT_LOC)[0]
    created = []
    for _ in range(3):
        kids = quadtree.refine(loc)
        created = kids
        loc = kids[-1]
    balance_tree(quadtree, seeds=created)
    assert is_balanced(quadtree)
