"""Seeded property tests for locational-code arithmetic.

Plain stdlib ``random`` with fixed seeds (no extra dependencies): each test
draws a few hundred random codes and checks an algebraic property that must
hold for *every* code, not just the hand-picked ones in test_morton.py.
"""

import random

import numpy as np
import pytest

from repro.octree import morton, soa

DIMS = (2, 3)
MAX_LEVEL = 7


def random_loc(rng, dim, max_level=MAX_LEVEL, min_level=0):
    level = rng.randint(min_level, max_level)
    loc = morton.ROOT_LOC
    for _ in range(level):
        loc = morton.child_of(loc, dim, rng.randrange(morton.fanout(dim)))
    return loc


@pytest.mark.parametrize("dim", DIMS)
def test_coords_round_trip(dim):
    rng = random.Random(1000 + dim)
    for _ in range(300):
        loc = random_loc(rng, dim)
        level = morton.level_of(loc, dim)
        coords = morton.coords_of(loc, dim)
        assert len(coords) == dim
        assert all(0 <= c < (1 << level) for c in coords)
        assert morton.loc_from_coords(level, coords, dim) == loc


@pytest.mark.parametrize("dim", DIMS)
def test_coords_round_trip_from_coords_side(dim):
    rng = random.Random(2000 + dim)
    for _ in range(300):
        level = rng.randint(0, MAX_LEVEL)
        coords = tuple(rng.randrange(1 << level) for _ in range(dim))
        loc = morton.loc_from_coords(level, coords, dim)
        assert morton.level_of(loc, dim) == level
        assert morton.coords_of(loc, dim) == coords


@pytest.mark.parametrize("dim", DIMS)
def test_parent_child_inverse(dim):
    rng = random.Random(3000 + dim)
    for _ in range(300):
        loc = random_loc(rng, dim, min_level=1)
        parent = morton.parent_of(loc, dim)
        idx = morton.child_index_of(loc, dim)
        assert morton.child_of(parent, dim, idx) == loc
        assert morton.ancestor_at(loc, dim, morton.level_of(parent, dim)) \
            == parent
        # child coords = 2*parent coords + child-index bits, axis by axis
        pc = morton.coords_of(parent, dim)
        cc = morton.coords_of(loc, dim)
        for axis in range(dim):
            assert cc[axis] == 2 * pc[axis] + ((idx >> axis) & 1)


def _dfs_preorder(dim, depth, rng, max_nodes=400):
    """Random tree, preorder leaves-and-internals in Morton child order."""
    out = []
    stack = [morton.ROOT_LOC]
    while stack and len(out) < max_nodes:
        loc = stack.pop()
        out.append(loc)
        if morton.level_of(loc, dim) < depth and rng.random() < 0.6:
            # push in reverse so children pop in Morton order
            stack.extend(reversed(morton.children_of(loc, dim)))
    return out


@pytest.mark.parametrize("dim", DIMS)
def test_zorder_key_strictly_increasing_along_dfs_preorder(dim):
    """The Etree B-tree key is exactly DFS (ancestors-first) order."""
    for seed in range(5):
        rng = random.Random(4000 + dim * 10 + seed)
        order = _dfs_preorder(dim, depth=5, rng=rng)
        keys = [morton.zorder_key(loc, dim, 5) for loc in order]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("dim", DIMS)
def test_zorder_key_orders_ancestors_before_descendants(dim):
    rng = random.Random(5000 + dim)
    for _ in range(200):
        loc = random_loc(rng, dim, min_level=1, max_level=MAX_LEVEL)
        anc_level = rng.randint(0, morton.level_of(loc, dim) - 1)
        anc = morton.ancestor_at(loc, dim, anc_level)
        assert morton.zorder_key(anc, dim, MAX_LEVEL) \
            < morton.zorder_key(loc, dim, MAX_LEVEL)


@pytest.mark.parametrize("dim", DIMS)
def test_neighbor_of_neighbor_is_identity(dim):
    """neighbor(+d) then neighbor(-d) along the same axis returns home."""
    rng = random.Random(6000 + dim)
    checked = 0
    for _ in range(400):
        loc = random_loc(rng, dim)
        axis = rng.randrange(dim)
        direction = rng.choice((-1, 1))
        n = morton.neighbor_of(loc, dim, axis, direction)
        if n is None:
            level = morton.level_of(loc, dim)
            c = morton.coords_of(loc, dim)[axis]
            # None only at the domain boundary on that side
            assert c == (0 if direction < 0 else (1 << level) - 1)
            continue
        assert morton.neighbor_of(n, dim, axis, -direction) == loc
        checked += 1
    assert checked > 100  # most draws must exercise the symmetric case


@pytest.mark.parametrize("dim", DIMS)
def test_neighbor_differs_by_one_on_one_axis(dim):
    rng = random.Random(7000 + dim)
    for _ in range(300):
        loc = random_loc(rng, dim, min_level=1)
        axis = rng.randrange(dim)
        direction = rng.choice((-1, 1))
        n = morton.neighbor_of(loc, dim, axis, direction)
        if n is None:
            continue
        a, b = morton.coords_of(loc, dim), morton.coords_of(n, dim)
        assert morton.level_of(n, dim) == morton.level_of(loc, dim)
        for ax in range(dim):
            assert b[ax] - a[ax] == (direction if ax == axis else 0)


@pytest.mark.parametrize("dim", DIMS)
def test_cell_bounds_nest_in_parent(dim):
    rng = random.Random(9000 + dim)
    for _ in range(200):
        loc = random_loc(rng, dim, min_level=1)
        lo, hi = morton.cell_bounds(loc, dim)
        plo, phi = morton.cell_bounds(morton.parent_of(loc, dim), dim)
        assert all(pl <= l_ and h <= ph
                   for pl, l_, h, ph in zip(plo, lo, hi, phi))


def _neighbor_by_coords(loc, dim, axis, direction):
    """The coords round trip ``neighbor_of`` used to be."""
    level = morton.level_of(loc, dim)
    coords = list(morton.coords_of(loc, dim))
    coords[axis] += direction
    if not 0 <= coords[axis] < (1 << level):
        return None
    return morton.loc_from_coords(level, coords, dim)


@pytest.mark.parametrize("dim", DIMS)
def test_neighbor_step_is_the_coords_round_trip(dim):
    """The dilated-integer step (scalar and array) equals the coords round
    trip on every face, at levels 0-20, with both domain boundaries drawn
    often on every axis."""
    rng = random.Random(8000 + dim)
    locs = []
    for level in range(21):
        side = 1 << level
        for _ in range(40):
            coords = [rng.choice((0, side - 1, rng.randrange(side)))
                      for _ in range(dim)]
            locs.append(morton.loc_from_coords(level, coords, dim))
    arr = np.array(locs, dtype=np.int64)
    levels = soa.levels_of_codes(arr, dim)
    edges = 0
    for axis in range(dim):
        for direction in (-1, 1):
            want = [_neighbor_by_coords(loc, dim, axis, direction)
                    for loc in locs]
            assert [morton.neighbor_of(loc, dim, axis, direction)
                    for loc in locs] == want
            inside, codes = soa.face_steps(arr, levels, dim, axis, direction)
            assert inside.tolist() == [w is not None for w in want]
            assert codes[inside].tolist() == [w for w in want if w is not None]
            edges += want.count(None)
    assert edges > 200  # both boundaries, every axis, are exercised
