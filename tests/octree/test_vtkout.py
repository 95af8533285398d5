"""VTK export tests: structure, winding, fields, dangling markers."""

import pytest

from repro.octree import morton
from repro.octree.mesh import extract_mesh
from repro.octree.refine import refine_uniform
from repro.octree.vtkout import mesh_to_vtk, tree_to_vtk


def _parse_sections(vtk: str):
    lines = vtk.strip().split("\n")
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    return lines


def test_single_cell_quad(quadtree):
    vtk = tree_to_vtk(quadtree, payload_slot=None)
    lines = _parse_sections(vtk)
    assert "POINTS 4 double" in vtk
    assert "CELLS 1 5" in vtk
    assert "CELL_TYPES 1" in vtk
    i = lines.index("CELL_TYPES 1")
    assert lines[i + 1] == "9"  # VTK_QUAD


def test_quad_winding_is_ccw(quadtree):
    vtk = tree_to_vtk(quadtree, payload_slot=None)
    lines = vtk.strip().split("\n")
    pts_start = lines.index("POINTS 4 double") + 1
    pts = [tuple(map(float, lines[pts_start + k].split())) for k in range(4)]
    cell_line = lines[lines.index("CELLS 1 5") + 1].split()
    ids = list(map(int, cell_line[1:]))
    poly = [pts[i] for i in ids]
    # shoelace formula: positive area = counter-clockwise
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(poly, poly[1:] + poly[:1]):
        area += x0 * y1 - x1 * y0
    assert area > 0


def test_uniform_mesh_counts(quadtree):
    refine_uniform(quadtree, 2)
    mesh = extract_mesh(quadtree)
    vtk = mesh_to_vtk(mesh)
    assert "POINTS 25 double" in vtk
    assert "CELLS 16 80" in vtk
    assert vtk.count("\n9\n") + vtk.endswith("9\n") >= 1  # 16 quad type rows


def test_cell_field_emitted(quadtree):
    quadtree.refine(morton.ROOT_LOC)
    for i, loc in enumerate(sorted(quadtree.leaves())):
        quadtree.set_payload(loc, (float(i), 0, 0, 0))
    vtk = tree_to_vtk(quadtree, payload_slot=0, field_name="vof")
    assert "CELL_DATA 4" in vtk
    assert "SCALARS vof double 1" in vtk
    # all four payload values appear after the lookup table
    tail = vtk.split("LOOKUP_TABLE default", 1)[1]
    for i in range(4):
        assert f"\n{float(i):.10g}" in "\n" + tail


def test_dangling_markers(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    mesh = extract_mesh(quadtree)
    vtk = mesh_to_vtk(mesh)
    assert "SCALARS dangling int 1" in vtk
    marks = vtk.strip().split("\n")[-mesh.num_vertices:]
    assert marks.count("1") == len(mesh.dangling) == 2


def test_field_length_validated(quadtree):
    mesh = extract_mesh(quadtree)
    with pytest.raises(ValueError):
        mesh_to_vtk(mesh, {"bad": [1.0, 2.0]})


def test_title_single_line(quadtree):
    mesh = extract_mesh(quadtree)
    with pytest.raises(ValueError):
        mesh_to_vtk(mesh, title="two\nlines")


def test_3d_hexahedra(octree3d):
    octree3d.refine(morton.ROOT_LOC)
    vtk = tree_to_vtk(octree3d, payload_slot=None)
    assert "POINTS 27 double" in vtk
    assert "CELLS 8 72" in vtk
    lines = vtk.strip().split("\n")
    i = lines.index("CELL_TYPES 8")
    assert lines[i + 1] == "12"  # VTK_HEXAHEDRON
    # points carry a real z coordinate
    pts_start = lines.index("POINTS 27 double") + 1
    zs = {lines[pts_start + k].split()[2] for k in range(27)}
    assert len(zs) == 3  # 0, 0.5, 1


def test_hex_winding_consistent(octree3d):
    """Signed volume of the emitted hexahedron must be positive (no
    inside-out cells)."""
    import numpy as np

    vtk = tree_to_vtk(octree3d, payload_slot=None)
    lines = vtk.strip().split("\n")
    pts_start = lines.index("POINTS 8 double") + 1
    pts = np.array([
        list(map(float, lines[pts_start + k].split())) for k in range(8)
    ])
    ids = list(map(int, lines[lines.index("CELLS 1 9") + 1].split()[1:]))
    p = pts[ids]
    # VTK hex: 0-3 bottom CCW, 4-7 top CCW; build 5 tetrahedra and sum
    base = p[0]
    vol = 0.0
    for tet in ((1, 2, 5), (2, 7, 5), (2, 3, 7), (5, 7, 4), (2, 6, 7)):
        a, b, c = p[tet[0]] - base, p[tet[1]] - base, p[tet[2]] - base
        vol += np.dot(a, np.cross(b, c)) / 6.0
    assert vol > 0
