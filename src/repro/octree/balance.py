"""2:1 balance enforcement (the *Balance* meshing routine, §2).

Two leaves sharing a face may differ by at most one level.  Balancing is the
classic ripple algorithm: refining an octant can un-balance its own
neighbors, so newly-created leaves are pushed back onto the work queue until
a fixed point is reached.  The queue runs a generation at a time, one
``tree.forcing_faces`` call each keeping the per-entry body off the faces
that force nothing (docs/performance.md, "The adapt step as a batch").
"""

from __future__ import annotations

from typing import Iterable, List, Optional

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
    every leaf is examined.  The ripple runs in one ``tree.batch()`` scope:
    its refines land together.
    """
    with tree.batch():
        return _ripple(tree, max_level, seeds)


def _ripple(tree: AdaptiveTree, max_level: Optional[int],
            seeds: Optional[Iterable[int]]) -> int:
    """The FIFO queue one *generation* at a time (the seeds, then the
    children the last generation's refines pushed, in push order: the
    queue's own order), the per-entry body only on the faces flagged when
    the generation starts.  Exact: refinement only makes neighbours finer,
    so a face that forces nothing then forces nothing when reached."""
    dim = tree.dim
    generation = list(seeds if seeds is not None else tree.leaves())
    refined = 0
    while generation:
        flags = tree.forcing_faces(generation)
        pushed: List[int] = []
        for i in np.flatnonzero(flags.any(axis=1)).tolist():
            loc, faces = generation[i], flags[i].tolist()
            if not tree.exists(loc) or not tree.is_leaf(loc):
                continue  # stale: refined while queued
            level = morton.level_of(loc, dim)
            # A leaf at `level` forces every face-adjacent region to be
            # refined to at least `level - 1`.
            if level <= 1:
                continue
            for face, forcing in enumerate(faces):
                if not forcing:
                    continue
                code = morton.neighbor_of(loc, dim, face >> 1,
                                          2 * (face & 1) - 1)
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
                    # Each new child may in turn violate 2:1 with *its*
                    # neighbors: ripple, in the next generation.
                    pushed += tree.refine(anc)
                    refined += 1
                    anc = morton.ancestor_at(code, dim, anc_level + 1)
                    anc_level += 1
        generation = pushed
    return refined
