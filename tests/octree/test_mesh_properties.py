"""Property-based mesh-extraction checks on random balanced trees."""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DRAM_SPEC
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM
from repro.octree import morton
from repro.octree.balance import balance_tree
from repro.octree.mesh import extract_mesh
from repro.octree.tree import PointerOctree


def _random_balanced_tree(seed: int, dim: int = 2, max_level: int = 5):
    rng = random.Random(seed)
    clock = SimClock()
    tree = PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16), dim=dim
    )
    for _ in range(10):
        leaves = [
            leaf for leaf in tree.leaves() if morton.level_of(leaf, dim) < max_level
        ]
        if not leaves:
            break
        tree.refine(rng.choice(leaves))
    balance_tree(tree, max_level=max_level)
    return tree


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_mesh_extraction_properties(seed):
    tree = _random_balanced_tree(seed)
    mesh = extract_mesh(tree)

    # elements == leaves, each with the full corner count
    assert mesh.num_elements == tree.num_leaves()
    fanout_corners = 1 << tree.dim
    for _loc, corners in mesh.elements:
        assert len(corners) == fanout_corners
        assert len(set(corners)) == fanout_corners  # no degenerate cells

    # vertex ids are dense
    ids = set(mesh.vertex_ids.values())
    assert ids == set(range(mesh.num_vertices))

    # dangling vertices are vertices; the anchored ones are the rest
    assert mesh.dangling <= ids

    # a vertex is dangling iff it's a corner of some leaf AND the midpoint
    # of a coarser leaf's edge: so it can never be a corner of every leaf
    # touching it. Corner vertices of the domain are always anchored.
    scale = 1 << mesh.max_level
    for corner in [(0, 0), (0, scale), (scale, 0), (scale, scale)]:
        vid = mesh.vertex_ids.get(corner)
        if vid is not None:
            assert vid not in mesh.dangling


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_dangling_nodes_sit_on_level_jumps(seed):
    """Every dangling vertex is the midpoint of an edge of some coarser
    leaf, i.e. it lies strictly inside that leaf's boundary."""
    tree = _random_balanced_tree(seed)
    mesh = extract_mesh(tree)
    if not mesh.dangling:
        return
    coords_of_vid = {v: c for c, v in mesh.vertex_ids.items()}
    leaf_corner_sets = {
        loc: set(corners) for loc, corners in mesh.elements
    }
    scale = 1 << mesh.max_level
    for vid in mesh.dangling:
        x, y = coords_of_vid[vid]
        hosted = False
        for loc, corner_vids in leaf_corner_sets.items():
            if vid in corner_vids:
                continue
            level = morton.level_of(loc, 2)
            side = scale >> level
            bx, by = (c * side for c in morton.coords_of(loc, 2))
            on_boundary = (
                bx <= x <= bx + side and by <= y <= by + side
                and (x in (bx, bx + side) or y in (by, by + side))
            )
            if on_boundary:
                hosted = True
                break
        assert hosted, f"dangling vertex {vid} hangs on no coarser leaf"


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_vtk_export_never_crashes_and_counts_match(seed):
    from repro.octree.vtkout import mesh_to_vtk

    tree = _random_balanced_tree(seed)
    mesh = extract_mesh(tree)
    vtk = mesh_to_vtk(mesh)
    assert f"POINTS {mesh.num_vertices} double" in vtk
    assert f"CELL_TYPES {mesh.num_elements}" in vtk
    assert vtk.count("\n9") >= mesh.num_elements  # one type row per quad
