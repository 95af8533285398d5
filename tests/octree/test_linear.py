"""Linear octree tests: ordering, search, slicing, completeness."""

import numpy as np
import pytest

from repro.errors import ConsistencyError
from repro.octree import morton
from repro.octree.linear import LinearOctree
from repro.octree.refine import refine_uniform


def _adaptive_quadtree(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[1])
    return quadtree


def test_from_tree_roundtrip(quadtree):
    _adaptive_quadtree(quadtree)
    loc = morton.loc_from_coords(1, (0, 1), 2)
    quadtree.set_payload(loc, (3.0, 1.0, 0.0, 0.0))
    lin = LinearOctree.from_tree(quadtree)
    assert len(lin) == 7
    assert set(lin) == set(quadtree.leaves())
    assert tuple(lin.payloads[lin.index_of(loc)]) == (3.0, 1.0, 0.0, 0.0)


def test_sorted_by_zorder(quadtree):
    _adaptive_quadtree(quadtree)
    lin = LinearOctree.from_tree(quadtree)
    assert list(lin.keys) == sorted(lin.keys)


def test_index_of_and_contains(quadtree):
    _adaptive_quadtree(quadtree)
    lin = LinearOctree.from_tree(quadtree)
    present = morton.loc_from_coords(1, (0, 0), 2)
    absent = morton.loc_from_coords(1, (1, 0), 2)  # refined away
    assert lin.contains(present)
    assert not lin.contains(absent)
    assert lin.index_of(absent) == -1


def test_validate_complete_accepts_tiling(quadtree):
    _adaptive_quadtree(quadtree)
    lin = LinearOctree.from_tree(quadtree)
    lin.validate_complete()


def test_validate_complete_rejects_gap():
    locs = [morton.loc_from_coords(1, (0, 0), 2),
            morton.loc_from_coords(1, (1, 1), 2)]  # missing two quadrants
    lin = LinearOctree(2, locs)
    with pytest.raises(ConsistencyError):
        lin.validate_complete()


def test_slice_and_merge_roundtrip(quadtree):
    refine_uniform(quadtree, 2)
    lin = LinearOctree.from_tree(quadtree)
    half = len(lin) // 2
    left, right = lin.slice(0, half), lin.slice(half, len(lin))
    merged = LinearOctree(lin.dim, [*right, *left],
                          np.vstack([right.payloads, left.payloads]))
    assert list(merged) == list(lin)
    assert (merged.payloads == lin.payloads).all()
    merged.validate_complete()
