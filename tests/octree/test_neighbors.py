"""Leaf-neighbor resolution on adaptive (non-uniform) trees."""

import numpy as np
import pytest

from repro.octree import morton, soa
from repro.octree.neighbors import (
    face_neighbor_leaves,
    finer_face_neighbors,
    leaf_neighbor,
)


@pytest.fixture
def adaptive(quadtree):
    """Root refined once, then the (0,0) child refined again.

    Leaves: four level-2 cells in the lower-left quadrant, three level-1
    quadrants elsewhere.
    """
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    return quadtree


def test_equal_level_neighbor(adaptive):
    loc = morton.loc_from_coords(2, (0, 0), 2)
    n = leaf_neighbor(adaptive, loc, 0, +1)
    assert n == morton.loc_from_coords(2, (1, 0), 2)


def test_coarser_neighbor(adaptive):
    # level-2 cell (1,1)'s +x neighbor code is level-2 (2,1), which does not
    # exist; its parent, quadrant (1,0) at level 1, is the leaf.
    loc = morton.loc_from_coords(2, (1, 1), 2)
    n = leaf_neighbor(adaptive, loc, 0, +1)
    assert n == morton.loc_from_coords(1, (1, 0), 2)
    assert adaptive.is_leaf(n)


def test_boundary_neighbor_is_none(adaptive):
    loc = morton.loc_from_coords(2, (0, 0), 2)
    assert leaf_neighbor(adaptive, loc, 0, -1) is None
    assert leaf_neighbor(adaptive, loc, 1, -1) is None


def test_finer_face_neighbors(adaptive):
    # quadrant (1,0) looking -x sees the two level-2 cells on its west face
    loc = morton.loc_from_coords(1, (1, 0), 2)
    fine = finer_face_neighbors(adaptive, loc, 0, -1)
    expected = {
        morton.loc_from_coords(2, (1, 0), 2),
        morton.loc_from_coords(2, (1, 1), 2),
    }
    assert set(fine) == expected


def test_finer_face_neighbors_empty_when_same_level(adaptive):
    loc = morton.loc_from_coords(1, (1, 0), 2)
    # +x is the domain boundary
    assert finer_face_neighbors(adaptive, loc, 0, +1) == []


def test_face_neighbor_leaves_enumeration(adaptive):
    loc = morton.loc_from_coords(1, (1, 0), 2)
    found = list(face_neighbor_leaves(adaptive, loc))
    leaves = {f[0] for f in found}
    # west: two fine cells; north: quadrant (1,1)
    assert morton.loc_from_coords(2, (1, 0), 2) in leaves
    assert morton.loc_from_coords(2, (1, 1), 2) in leaves
    assert morton.loc_from_coords(1, (1, 1), 2) in leaves
    assert len(found) == 3


def test_neighbor_level_gap(adaptive):
    """Largest face level gap of a leaf, read off the face table the way
    Balance's ``find_violation`` reads it."""
    def gap(loc):
        gaps = soa.level_gaps(adaptive.face_neighbors([loc]), [loc], 2)
        return int(np.abs(gaps).max(initial=0))

    fine = morton.loc_from_coords(2, (1, 1), 2)
    assert gap(fine) == 1
    # quadrant (1,1) only touches the refined quadrant at a corner, so its
    # *face* gap is 0
    quadtree_leaf = morton.loc_from_coords(1, (1, 1), 2)
    assert gap(quadtree_leaf) == 0
    # quadrant (1,0) shares a face with the two fine west cells -> gap 1
    east = morton.loc_from_coords(1, (1, 0), 2)
    assert gap(east) == 1


def test_3d_neighbors(octree3d):
    kids = octree3d.refine(morton.ROOT_LOC)
    octree3d.refine(kids[0])
    loc = morton.loc_from_coords(2, (1, 1, 1), 3)
    n = leaf_neighbor(octree3d, loc, 2, +1)
    assert n == morton.loc_from_coords(1, (0, 0, 1), 3)
