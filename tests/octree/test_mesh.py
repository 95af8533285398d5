"""Mesh extraction: element/vertex counts and hanging-node classification."""

from repro.octree import morton
from repro.octree.mesh import extract_mesh
from repro.octree.refine import refine_uniform


def test_uniform_mesh_counts(quadtree):
    refine_uniform(quadtree, 2)
    mesh = extract_mesh(quadtree)
    assert mesh.num_elements == 16
    assert mesh.num_vertices == 25  # (4+1)^2 grid
    assert mesh.dangling == set()


def test_single_cell_mesh(quadtree):
    mesh = extract_mesh(quadtree)
    assert mesh.num_elements == 1
    assert mesh.num_vertices == 4
    assert mesh.dangling == set()


def test_adaptive_mesh_has_hanging_nodes(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    mesh = extract_mesh(quadtree)
    assert mesh.num_elements == 7
    # 2-D: refining one quadrant introduces exactly 2 hanging nodes (the
    # midpoints of the two interior faces shared with coarser quadrants)
    assert len(mesh.dangling) == 2
    # hanging nodes are at (0.5, 0.25) and (0.25, 0.5): fine-int coords at
    # max_level 2 are (2,1) and (1,2)
    hang_coords = {
        c for c, vid in mesh.vertex_ids.items() if vid in mesh.dangling
    }
    assert hang_coords == {(2, 1), (1, 2)}


def test_anchored_dangling_partition(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[3])
    mesh = extract_mesh(quadtree)
    all_ids = set(mesh.vertex_ids.values())
    # the anchored vertices are the rest: some of each
    assert set() < mesh.dangling < all_ids


def test_elements_reference_valid_vertices(quadtree):
    quadtree.refine(morton.ROOT_LOC)
    mesh = extract_mesh(quadtree)
    valid = set(mesh.vertex_ids.values())
    for _loc, corners in mesh.elements:
        assert len(corners) == 4
        assert set(corners) <= valid


def test_3d_uniform_mesh(octree3d):
    refine_uniform(octree3d, 1)
    mesh = extract_mesh(octree3d)
    assert mesh.num_elements == 8
    assert mesh.num_vertices == 27  # 3^3
    assert mesh.dangling == set()


def test_3d_adaptive_hanging_nodes(octree3d):
    kids = octree3d.refine(morton.ROOT_LOC)
    octree3d.refine(kids[0])
    mesh = extract_mesh(octree3d)
    assert mesh.num_elements == 15
    # Refining one octant of 8: each of the 3 interior faces carries a face
    # center + 4 edge midpoints = 5 hanging nodes, but the 3 edges shared
    # between face pairs are double-counted: 3*5 - 3 = 12.
    assert len(mesh.dangling) == 12
