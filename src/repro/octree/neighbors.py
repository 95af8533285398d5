"""Leaf-neighbor resolution on adaptive trees.

Same-level neighbor *codes* come from Morton arithmetic
(:func:`repro.octree.morton.neighbor_of`); resolving them against a concrete
tree — where the neighbor may be coarser, same level, or refined — is what
this module does.  This is the pointer-equivalent of Gerris'
``ftt_cell_neighbor()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

from repro.octree import morton, soa

if TYPE_CHECKING:  # store builds its loop-backed default on this module
    from repro.octree.store import AdaptiveTree


def leaf_neighbor(tree: AdaptiveTree, loc: int, axis: int,
                  direction: int) -> Optional[int]:
    """The equal-or-coarser leaf sharing the face of ``loc`` on that side.

    Returns None at the domain boundary.  If the true neighbor region is
    *finer* than ``loc`` this returns the equal-level ancestor of those finer
    leaves (a non-leaf); callers that need the finer leaves use
    :func:`finer_face_neighbors`.
    """
    code = morton.neighbor_of(loc, tree.dim, axis, direction)
    if code is None:
        return None
    # Walk up until we hit an octant that exists.
    while not tree.exists(code):
        if code <= 1:
            return None
        code = morton.parent_of(code, tree.dim)
    return code


def finer_face_neighbors(tree: AdaptiveTree, loc: int, axis: int,
                         direction: int) -> List[int]:
    """All leaves finer than ``loc`` touching its face on that side."""
    code = morton.neighbor_of(loc, tree.dim, axis, direction)
    if code is None or not tree.exists(code):
        return []
    out: List[int] = []
    # The children touching the shared face have child-index bit `axis`
    # opposite to `direction`.
    face_bit = 0 if direction > 0 else 1
    stack = [code]
    while stack:
        c = stack.pop()
        if tree.is_leaf(c):
            out.append(c)
        else:
            for idx in range(morton.fanout(tree.dim)):
                if (idx >> axis) & 1 == face_bit:
                    stack.append(morton.child_of(c, tree.dim, idx))
    return out


def face_neighbor_leaves(tree: AdaptiveTree, loc: int) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(neighbor_leaf, axis, direction)`` for every face of ``loc``.

    When the neighbor side is finer, each finer leaf is yielded; when equal
    or coarser, the single covering leaf is yielded.
    """
    for axis in range(tree.dim):
        for direction in (-1, 1):
            code = morton.neighbor_of(loc, tree.dim, axis, direction)
            if code is None:
                continue
            if tree.exists(code) and not tree.is_leaf(code):
                for leaf in finer_face_neighbors(tree, loc, axis, direction):
                    yield leaf, axis, direction
            else:
                n = leaf_neighbor(tree, loc, axis, direction)
                if n is not None and tree.is_leaf(n):
                    yield n, axis, direction


def neighbor_level_gap(tree: AdaptiveTree, loc: int) -> int:
    """Largest |level(loc) - level(neighbor leaf)| over the faces of ``loc``."""
    gaps = soa.level_gaps(tree.face_neighbors([loc]), [loc], tree.dim)
    return int(np.abs(gaps).max(initial=0))
