"""Space-filling-curve alternatives and partition-quality metrics.

The paper's partition (like Salmon's n-body work it cites) orders octants
along a space-filling curve and cuts the curve into P ranges.  The curve
choice controls the *locality* of the resulting subdomains: Hilbert keeps
every consecutive pair of cells face-adjacent, Morton (Z) takes long
diagonal jumps, so Hilbert partitions have smaller rank-boundary surfaces —
fewer ghost exchanges and less balance communication per step.

This module provides a 2-D/3-D Hilbert index for octree leaves plus the
edge-cut metric the SFC ablation benchmark compares the curves on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence

import numpy as np

from repro.octree import morton, soa
from repro.octree.store import AdaptiveTree


@lru_cache(maxsize=1 << 16)
def hilbert_index_2d(x: int, y: int, order: int) -> int:
    """Hilbert curve index of cell (x, y) on a 2^order x 2^order grid.

    The classic xy->d conversion with quadrant rotation/reflection.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"({x}, {y}) outside a {side}x{side} grid")
    rx = ry = 0
    d = 0
    s = side // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


#: Gray-code walk through the 8 octants that keeps consecutive octants
#: face-adjacent — the backbone of the 3-D Hilbert ordering used below.
_GRAY3 = (0, 1, 3, 2, 6, 7, 5, 4)
_GRAY3_RANK = {v: i for i, v in enumerate(_GRAY3)}


def hilbert_index_3d(x: int, y: int, z: int, order: int) -> int:
    """A Hilbert-style (face-continuous Gray-code) index on a 2^order cube.

    A full 3-D Hilbert curve needs per-octant rotation tables; for the
    partition-quality study the essential property is *face adjacency of
    consecutive indices at each recursion level*, which a fixed Gray-code
    ordering of octants provides.  (Locality is between Morton and true
    Hilbert; the benchmark labels it accordingly.)
    """
    side = 1 << order
    for c in (x, y, z):
        if not 0 <= c < side:
            raise ValueError(f"({x},{y},{z}) outside a {side}^3 grid")
    d = 0
    for i in range(order - 1, -1, -1):
        octant = (((x >> i) & 1)
                  | (((y >> i) & 1) << 1)
                  | (((z >> i) & 1) << 2))
        d = (d << 3) | _GRAY3_RANK[octant]
    return d


def hilbert_key(loc: int, dim: int, max_level: int) -> int:
    """Total order for leaves along the Hilbert curve (level tie-broken).

    Mirrors :func:`repro.octree.morton.zorder_key` so the two curves are
    drop-in alternatives for range partitioning.
    """
    level = morton.level_of(loc, dim)
    if level > max_level:
        raise ValueError(f"code level {level} exceeds max_level {max_level}")
    coords = morton.coords_of(loc, dim)
    scale = max_level - level
    fine = tuple(c << scale for c in coords)
    if dim == 2:
        d = hilbert_index_2d(fine[0], fine[1], max_level)
    else:
        d = hilbert_index_3d(fine[0], fine[1], fine[2], max_level)
    return (d << 6) | level


def partition_by_key(leaves: Sequence[int], dim: int, max_level: int,
                     nranks: int, key_fn) -> Dict[int, int]:
    """Assign each leaf a rank by cutting the key-sorted order into P
    near-equal ranges.  Returns {leaf: rank}."""
    ordered = sorted(leaves, key=lambda leaf: key_fn(leaf, dim, max_level))
    n = len(ordered)
    assignment: Dict[int, int] = {}
    for i, loc in enumerate(ordered):
        assignment[loc] = min(nranks - 1, i * nranks // max(1, n))
    return assignment


def weighted_cut_indices(weights: Sequence[float], parts: int) -> List[int]:
    """Salmon-style weighted prefix cuts of a curve-ordered weight array.

    ``weights[i]`` is the work of the i-th octant along the curve.  Returns
    ``parts + 1`` index bounds: part ``r`` owns ``[bounds[r], bounds[r+1])``.
    Octant ``i`` (whose weight occupies the prefix interval
    ``[start_i, start_i + w_i)``) lands in the part whose ideal range
    ``[r*W/P, (r+1)*W/P)`` contains ``start_i``, which guarantees the
    classic bound: every part's load is at most ``W/P + max(weights)``.

    All-zero (or empty) weight arrays degrade to equal-count cuts so the
    caller never divides by zero.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    w = np.asarray(list(weights), dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("octant weights must be non-negative")
    n = len(w)
    total = float(w.sum())
    if n == 0 or total <= 0.0:
        return [round(r * n / parts) for r in range(parts + 1)]
    starts = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    targets = np.array([r * total / parts for r in range(1, parts)])
    inner = np.searchsorted(starts, targets, side="left")
    return [0] + [int(i) for i in inner] + [n]


def weighted_partition_by_key(leaves: Sequence[int], dim: int,
                              max_level: int, nranks: int, key_fn,
                              weight_fn) -> Dict[int, int]:
    """Weighted variant of :func:`partition_by_key`: cut the key-sorted
    order so each rank's summed ``weight_fn(leaf)`` is near-equal.  Returns
    {leaf: rank}; ranks remain contiguous ranges of the curve."""
    ordered = sorted(leaves, key=lambda leaf: key_fn(leaf, dim, max_level))
    bounds = weighted_cut_indices([weight_fn(leaf) for leaf in ordered],
                                  nranks)
    assignment: Dict[int, int] = {}
    for r in range(nranks):
        for i in range(bounds[r], bounds[r + 1]):
            assignment[ordered[i]] = r
    return assignment


def edge_cut(tree: AdaptiveTree, assignment: Dict[int, int]) -> int:
    """Number of face adjacencies crossing rank boundaries.

    This is the ghost-exchange surface a partition induces: every cut face
    is a halo cell to communicate each step.
    """
    locs = list(assignment)
    ranks = np.array([assignment[loc] for loc in locs], dtype=np.int64)
    table = tree.face_neighbors(locs)
    other = soa.index_in(np.array(locs, dtype=np.int64), table.codes)
    crossing = (other >= 0) & (ranks[other] != ranks[table.rows()])
    return int(crossing.sum()) // 2  # each crossing counted from both sides


def compare_curves(tree: AdaptiveTree, nranks: int) -> Dict[str, int]:
    """Edge cut of Morton vs Hilbert partitions of the same tree."""
    leaves = list(tree.leaves())
    max_level = max(morton.level_of(leaf, tree.dim) for leaf in leaves)
    out = {}
    for name, key_fn in (("morton", morton.zorder_key),
                         ("hilbert", hilbert_key)):
        assignment = partition_by_key(leaves, tree.dim, max_level, nranks,
                                      key_fn)
        out[name] = edge_cut(tree, assignment)
    return out
