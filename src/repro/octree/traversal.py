"""Traversal orders over adaptive trees (Gerris' ``ftt_cell_traverse``)."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.octree import morton
from repro.octree.store import AdaptiveTree


def preorder(tree: AdaptiveTree, start: Optional[int] = None) -> Iterator[int]:
    """Depth-first, parents before children, children in Morton order."""
    stack = [start if start is not None else tree.root_loc()]
    dim = tree.dim
    while stack:
        loc = stack.pop()
        if not tree.exists(loc):
            continue
        yield loc
        if not tree.is_leaf(loc):
            # Reverse so child 0 pops first.
            stack.extend(reversed(morton.children_of(loc, dim)))

