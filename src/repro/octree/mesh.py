"""Mesh extraction (the *Extract* routine; Fig 1b's anchored/dangling nodes).

Extraction turns the leaves of an adaptive tree into an unstructured mesh:
elements (one per leaf) over shared vertices.  On a non-conforming adaptive
mesh a vertex can be *dangling* (hanging): it is a corner of the fine leaves
on one side of a face but sits mid-edge/mid-face of the coarser leaf on the
other side, so the solver must constrain it rather than treat it as a degree
of freedom.

Vertices are keyed by integer coordinates at the finest level's resolution,
which makes the dangling test exact: a vertex is dangling iff it coincides
with an edge midpoint (2-D/3-D) or face center (3-D) of some leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Set, Tuple

from repro.octree import morton
from repro.octree.store import AdaptiveTree

Coord = Tuple[int, ...]


@dataclass
class ExtractedMesh:
    """Unstructured mesh produced from a tree's leaves."""

    dim: int
    max_level: int
    #: vertex integer coords (at 2**max_level resolution) -> vertex id
    vertex_ids: Dict[Coord, int] = field(default_factory=dict)
    #: per element: the leaf code and its corner vertex ids in lexicographic order
    elements: List[Tuple[int, Tuple[int, ...]]] = field(default_factory=list)
    dangling: Set[int] = field(default_factory=set)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


def _leaf_corners(loc: int, dim: int, max_level: int) -> List[Coord]:
    level = morton.level_of(loc, dim)
    scale = 1 << (max_level - level)
    base = tuple(c * scale for c in morton.coords_of(loc, dim))
    return [
        tuple(b + o * scale for b, o in zip(base, offs))
        for offs in product((0, 1), repeat=dim)
    ]


def _leaf_hanging_candidates(loc: int, dim: int, max_level: int) -> List[Coord]:
    """Edge midpoints (and 3-D face centers) of a leaf, in fine-int coords.

    These are the only positions where a vertex of a finer neighbor can land
    on this leaf's boundary without being one of its corners (under 2:1
    balance).
    """
    level = morton.level_of(loc, dim)
    scale = 1 << (max_level - level)
    if scale % 2:
        return []  # finest-level leaves cannot host hanging nodes
    half = scale // 2
    base = tuple(c * scale for c in morton.coords_of(loc, dim))
    out: List[Coord] = []
    # Boundary positions with offsets in {0, half, scale}: n_half == 0 is a
    # corner, n_half == dim is the (interior) cell center; everything in
    # between is an edge midpoint or, in 3-D, a face center.
    for offs in product((0, half, scale), repeat=dim):
        n_half = sum(1 for o in offs if o == half)
        if 1 <= n_half <= dim - 1:
            out.append(tuple(b + o for b, o in zip(base, offs)))
    return out


def extract_mesh(tree: AdaptiveTree) -> ExtractedMesh:
    """Build the element/vertex mesh with anchored/dangling classification."""
    dim = tree.dim
    leaves = list(tree.leaves())
    max_level = max((morton.level_of(leaf, dim) for leaf in leaves), default=0)
    mesh = ExtractedMesh(dim=dim, max_level=max_level)

    for loc in leaves:
        corner_ids = []
        for coord in _leaf_corners(loc, dim, max_level):
            vid = mesh.vertex_ids.setdefault(coord, len(mesh.vertex_ids))
            corner_ids.append(vid)
        mesh.elements.append((loc, tuple(corner_ids)))

    # A vertex is dangling iff it coincides with an edge-midpoint/face-center
    # of some leaf (then that leaf does not see it as a corner).
    for loc in leaves:
        for coord in _leaf_hanging_candidates(loc, dim, max_level):
            vid = mesh.vertex_ids.get(coord)
            if vid is not None:
                mesh.dangling.add(vid)
    return mesh
