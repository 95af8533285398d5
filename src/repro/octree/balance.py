"""2:1 balance enforcement (the *Balance* meshing routine, §2).

Two leaves sharing a face may differ by at most one level.  Balancing is the
classic ripple algorithm: refining an octant can un-balance its own
neighbors, so newly-created leaves are pushed back onto the work queue until
a fixed point is reached.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Iterable, Optional

import numpy as np

from repro.octree import morton, soa
from repro.octree.store import AdaptiveTree


def is_balanced(tree: AdaptiveTree) -> bool:
    """Check the 2:1 face-balance condition over all leaves."""
    return find_violation(tree) is None


def find_violation(tree: AdaptiveTree) -> Optional[tuple]:
    """Return one ``(coarse_leaf, fine_leaf)`` violating pair, or None."""
    locs = list(tree.leaves())
    table = tree.face_neighbors(locs)
    hits = np.nonzero(soa.level_gaps(table, locs, tree.dim) > 1)[0]
    if not hits.size:
        return None
    return locs[table.rows()[hits[0]]], int(table.codes[hits[0]])


def balance_tree(tree: AdaptiveTree, max_level: Optional[int] = None,
                 seeds: Optional[Iterable[int]] = None) -> int:
    """Refine leaves until the tree is 2:1 balanced; returns refinement count.

    ``seeds`` narrows the initial work queue to leaves whose neighborhood may
    have changed (incremental balance after a refinement batch); by default
    every leaf is examined.  Leaves the tree already knows force nothing
    (``tree.unbalanced``) never enter the queue: refinement only makes
    neighbors finer, so a leaf that forces nothing when queued forces
    nothing when popped, and the ``refine`` sequence is the same.
    """
    dim = tree.dim
    locs = list(seeds if seeds is not None else tree.leaves())
    queue = deque(compress(locs, tree.unbalanced(locs)))
    refined = 0
    while queue:
        loc = queue.popleft()
        if not tree.exists(loc) or not tree.is_leaf(loc):
            continue  # stale entry: got refined while queued
        level = morton.level_of(loc, dim)
        # A leaf at `level` forces every face-adjacent region to be refined
        # to at least `level - 1`.
        if level <= 1:
            continue
        for axis in range(dim):
            for direction in (-1, 1):
                code = morton.neighbor_of(loc, dim, axis, direction)
                if code is None:
                    continue
                # Find the existing ancestor covering this neighbor code.
                anc = code
                while not tree.exists(anc):
                    anc = morton.parent_of(anc, dim)
                if not tree.is_leaf(anc):
                    continue  # neighbor region is at least as fine
                anc_level = morton.level_of(anc, dim)
                while anc_level < level - 1:
                    if max_level is not None and anc_level >= max_level:
                        break
                    children = tree.refine(anc)
                    refined += 1
                    # Each new child may in turn violate 2:1 with *its*
                    # neighbors: ripple.
                    queue.extend(children)
                    anc = morton.ancestor_at(code, dim, anc_level + 1)
                    anc_level += 1
    return refined
