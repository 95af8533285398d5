"""Locational-code arithmetic tests (both dims, plus property checks)."""

import pytest
from hypothesis import given, strategies as st

from repro.octree import morton
from tests.octree.bottom_up import is_ancestor


@pytest.mark.parametrize("dim,expected", [(2, 4), (3, 8)])
def test_fanout(dim, expected):
    assert morton.fanout(dim) == expected


def test_fanout_rejects_bad_dim():
    with pytest.raises(ValueError):
        morton.fanout(4)


def test_root_properties():
    assert morton.level_of(morton.ROOT_LOC, 2) == 0
    assert morton.level_of(morton.ROOT_LOC, 3) == 0
    with pytest.raises(ValueError):
        morton.parent_of(morton.ROOT_LOC, 2)
    with pytest.raises(ValueError):
        morton.child_index_of(morton.ROOT_LOC, 2)


def test_child_parent_roundtrip_2d():
    for c in range(4):
        child = morton.child_of(morton.ROOT_LOC, 2, c)
        assert morton.parent_of(child, 2) == morton.ROOT_LOC
        assert morton.child_index_of(child, 2) == c
        assert morton.level_of(child, 2) == 1


def test_children_of():
    kids = morton.children_of(morton.ROOT_LOC, 3)
    assert len(kids) == 8
    assert len(set(kids)) == 8
    assert all(morton.parent_of(k, 3) == morton.ROOT_LOC for k in kids)


def test_child_of_rejects_bad_index():
    with pytest.raises(ValueError):
        morton.child_of(morton.ROOT_LOC, 2, 4)


def test_coords_roundtrip_2d():
    # level 2, all 16 cells
    for x in range(4):
        for y in range(4):
            loc = morton.loc_from_coords(2, (x, y), 2)
            assert morton.coords_of(loc, 2) == (x, y)
            assert morton.level_of(loc, 2) == 2


def test_coords_axis_convention():
    # child index bit 0 is x: child 1 of root has x=1, y=0
    loc = morton.child_of(morton.ROOT_LOC, 2, 1)
    assert morton.coords_of(loc, 2) == (1, 0)
    loc = morton.child_of(morton.ROOT_LOC, 2, 2)
    assert morton.coords_of(loc, 2) == (0, 1)


def test_loc_from_coords_validates():
    with pytest.raises(ValueError):
        morton.loc_from_coords(1, (2, 0), 2)
    with pytest.raises(ValueError):
        morton.loc_from_coords(1, (0,), 2)


def test_ancestor_at_and_is_ancestor():
    loc = morton.loc_from_coords(3, (5, 2), 2)
    anc1 = morton.ancestor_at(loc, 2, 1)
    assert morton.level_of(anc1, 2) == 1
    assert is_ancestor(anc1, loc, 2)
    assert not is_ancestor(loc, anc1, 2)
    assert not is_ancestor(loc, loc, 2)
    assert morton.ancestor_at(loc, 2, 3) == loc
    with pytest.raises(ValueError):
        morton.ancestor_at(loc, 2, 4)


def test_neighbor_of_interior():
    loc = morton.loc_from_coords(2, (1, 1), 2)
    right = morton.neighbor_of(loc, 2, 0, +1)
    assert morton.coords_of(right, 2) == (2, 1)
    up = morton.neighbor_of(loc, 2, 1, +1)
    assert morton.coords_of(up, 2) == (1, 2)


def test_neighbor_of_boundary_is_none():
    loc = morton.loc_from_coords(2, (0, 0), 2)
    assert morton.neighbor_of(loc, 2, 0, -1) is None
    assert morton.neighbor_of(loc, 2, 1, -1) is None
    far = morton.loc_from_coords(2, (3, 3), 2)
    assert morton.neighbor_of(far, 2, 0, +1) is None


def test_neighbor_of_validates():
    loc = morton.loc_from_coords(1, (0, 0), 2)
    with pytest.raises(ValueError):
        morton.neighbor_of(loc, 2, 0, 0)
    with pytest.raises(ValueError):
        morton.neighbor_of(loc, 2, 2, 1)


def test_cell_geometry():
    loc = morton.loc_from_coords(1, (1, 0), 2)
    lo, hi = morton.cell_bounds(loc, 2)
    assert lo == (0.5, 0.0)
    assert hi == (1.0, 0.5)
    assert morton.cell_center(loc, 2) == (0.75, 0.25)
    assert morton.cell_size(loc, 2) == 0.5


def test_zorder_ancestors_sort_first():
    parent = morton.loc_from_coords(1, (0, 0), 2)
    child = morton.child_of(parent, 2, 0)
    kp = morton.zorder_key(parent, 2, 5)
    kc = morton.zorder_key(child, 2, 5)
    assert kp < kc


def test_zorder_respects_space_order():
    a = morton.loc_from_coords(2, (0, 0), 2)
    b = morton.loc_from_coords(2, (3, 3), 2)
    assert morton.zorder_key(a, 2, 4) < morton.zorder_key(b, 2, 4)


def test_zorder_rejects_too_deep():
    loc = morton.loc_from_coords(3, (0, 0), 2)
    with pytest.raises(ValueError):
        morton.zorder_key(loc, 2, 2)


@given(
    dim=st.sampled_from([2, 3]),
    level=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
def test_coords_roundtrip_property(dim, level, data):
    side = 1 << level
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=side - 1)) for _ in range(dim)
    )
    loc = morton.loc_from_coords(level, coords, dim)
    assert morton.coords_of(loc, dim) == coords
    assert morton.level_of(loc, dim) == level


@given(dim=st.sampled_from([2, 3]), steps=st.lists(st.integers(0, 7), max_size=10))
def test_descend_ascend_property(dim, steps):
    loc = morton.ROOT_LOC
    for s in steps:
        loc = morton.child_of(loc, dim, s % morton.fanout(dim))
    for _ in steps:
        loc = morton.parent_of(loc, dim)
    assert loc == morton.ROOT_LOC


@given(
    dim=st.sampled_from([2, 3]),
    level=st.integers(min_value=1, max_value=6),
    axis=st.integers(min_value=0, max_value=2),
    direction=st.sampled_from([-1, 1]),
    data=st.data(),
)
def test_neighbor_is_involution_property(dim, level, axis, direction, data):
    if axis >= dim:
        axis = axis % dim
    side = 1 << level
    coords = tuple(
        data.draw(st.integers(min_value=0, max_value=side - 1)) for _ in range(dim)
    )
    loc = morton.loc_from_coords(level, coords, dim)
    n = morton.neighbor_of(loc, dim, axis, direction)
    if n is not None:
        assert morton.neighbor_of(n, dim, axis, -direction) == loc
