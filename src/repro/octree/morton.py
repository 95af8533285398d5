"""Locational codes: level-prefixed Morton (Z-order) keys.

An octant's *locational code* encodes both its level and its position in one
integer, the standard trick from the linear-octree literature (Sundar et al.;
the Etree Z-values).  The root is ``1``; descending to child ``c`` appends
``dim`` bits: ``loc' = (loc << dim) | c``.  The leading 1 acts as a sentinel
so codes are unique across levels:

* level of a code: ``(bit_length - 1) // dim``
* parent: ``loc >> dim``
* child index within its parent: ``loc & (2**dim - 1)``

Child index bit ``k`` is the coordinate bit on axis ``k`` (bit 0 = x,
bit 1 = y, bit 2 = z), so at level ``L`` the code below the sentinel is the
interleave of ``dim`` coordinates in ``[0, 2**L)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

#: Locational code of the root octant.
ROOT_LOC = 1


def fanout(dim: int) -> int:
    """Children per node: 4 for quadtrees, 8 for octrees."""
    if dim not in (2, 3):
        raise ValueError(f"only dim 2 and 3 are supported, got {dim}")
    return 1 << dim


def level_of(loc: int, dim: int) -> int:
    """Tree level encoded in a locational code (root = 0)."""
    if loc < 1:
        raise ValueError(f"invalid locational code {loc}")
    return (loc.bit_length() - 1) // dim


def parent_of(loc: int, dim: int) -> int:
    """Locational code of the parent (root has no parent)."""
    if loc <= 1:
        raise ValueError("root has no parent")
    return loc >> dim

def child_of(loc: int, dim: int, child_index: int) -> int:
    """Locational code of child ``child_index`` of ``loc``."""
    if not 0 <= child_index < fanout(dim):
        raise ValueError(f"child index {child_index} out of range for dim {dim}")
    return (loc << dim) | child_index


def children_of(loc: int, dim: int) -> List[int]:
    """All ``2**dim`` child codes, in Morton order."""
    return [(loc << dim) | c for c in range(fanout(dim))]


def child_index_of(loc: int, dim: int) -> int:
    """Which child of its parent this octant is."""
    if loc <= 1:
        raise ValueError("root is not a child")
    return loc & (fanout(dim) - 1)


def ancestor_at(loc: int, dim: int, level: int) -> int:
    """The ancestor of ``loc`` at the given (shallower or equal) level."""
    own = level_of(loc, dim)
    if level > own or level < 0:
        raise ValueError(f"no ancestor of level-{own} code at level {level}")
    return loc >> (dim * (own - level))


@lru_cache(maxsize=1 << 17)
def coords_of(loc: int, dim: int) -> Tuple[int, ...]:
    """Integer coordinates of the octant's min corner at its own level."""
    level = level_of(loc, dim)
    bits = loc - (1 << (dim * level))
    coords = [0] * dim
    for i in range(level):
        for axis in range(dim):
            coords[axis] |= ((bits >> (dim * i + axis)) & 1) << i
    return tuple(coords)


def loc_from_coords(level: int, coords: Sequence[int], dim: int) -> int:
    """Inverse of :func:`coords_of`."""
    if len(coords) != dim:
        raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
    side = 1 << level
    bits = 0
    for axis, c in enumerate(coords):
        if not 0 <= c < side:
            raise ValueError(f"coordinate {c} out of [0, {side}) at level {level}")
        for i in range(level):
            bits |= ((c >> i) & 1) << (dim * i + axis)
    return (1 << (dim * level)) | bits


def axis_mask(sentinel, dim: int, axis: int):
    """The bits of ``axis`` below a code's ``sentinel`` (int or int64s)."""
    return (sentinel - 1) // ((1 << dim) - 1) << axis


def neighbor_of(loc: int, dim: int, axis: int, direction: int) -> Optional[int]:
    """Same-level face neighbor along ``axis`` (+1/-1); None at the boundary:
    a dilated-integer step, one add or subtract on the axis' bits."""
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dim {dim}")
    sentinel = 1 << dim * level_of(loc, dim)
    bits = loc ^ sentinel
    mask = axis_mask(sentinel, dim, axis)
    along = bits & mask
    if direction < 0:
        if not along:
            return None
        moved = (along - 1) & mask
    else:
        if along == mask:
            return None
        moved = ((bits | ~mask) + 1) & mask
    return sentinel | (bits & ~mask) | moved


def cell_bounds(loc: int, dim: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """(min, max) corners of the octant in the unit cube."""
    level = level_of(loc, dim)
    h = 1.0 / (1 << level)
    mins = tuple(c * h for c in coords_of(loc, dim))
    return mins, tuple(m + h for m in mins)


def cell_center(loc: int, dim: int) -> Tuple[float, ...]:
    """Centroid of the octant in the unit cube."""
    lo, hi = cell_bounds(loc, dim)
    return tuple((a + b) / 2.0 for a, b in zip(lo, hi))


def cell_size(loc: int, dim: int) -> float:
    """Edge length of the octant in the unit cube."""
    return 1.0 / (1 << level_of(loc, dim))


@lru_cache(maxsize=1 << 17)
def zorder_key(loc: int, dim: int, max_level: int) -> int:
    """Total order for linear octrees: depth-first (Z-curve) position.

    Codes are left-aligned to ``max_level`` so descendants sort immediately
    after (never before) their ancestors; ties between an ancestor and its
    first descendant are broken by level, ancestors first.  This is the key
    Etree stores in its B-tree.
    """
    level = level_of(loc, dim)
    if level > max_level:
        raise ValueError(f"code level {level} exceeds max_level {max_level}")
    aligned = (loc - (1 << (dim * level))) << (dim * (max_level - level))
    return (aligned << 6) | level  # 6 bits of level break the tie
