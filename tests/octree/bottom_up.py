"""Bottom-up construction of complete linear octrees (Sundar, Sampath &
Biros), the input generator of the linear-octree and partition property
tests, and the ancestry predicate its overlap check needs.  The system
builds its linear octrees from adaptive trees
(:meth:`~repro.octree.linear.LinearOctree.from_tree`), never from seeds."""

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConsistencyError
from repro.octree import morton
from repro.octree.linear import LinearOctree


def is_ancestor(a: int, b: int, dim: int) -> bool:
    """True when ``a`` is a strict ancestor of ``b``."""
    la, lb = morton.level_of(a, dim), morton.level_of(b, dim)
    return la < lb and (b >> (dim * (lb - la))) == a


def fill_interval(start: int, end: int, dim: int,
                  max_level: int) -> List[int]:
    """Cover ``[start, end)`` of the Z index space with the coarsest aligned
    octants: greedy largest block that both starts aligned and fits."""
    fanout_bits = dim
    out: List[int] = []
    p = start
    while p < end:
        # largest k with p aligned to F^k and p + F^k <= end
        k = 0
        while True:
            nk = k + 1
            width = 1 << (fanout_bits * nk)
            if nk > max_level or p % width != 0 or p + width > end:
                break
            k = nk
        width = 1 << (fanout_bits * k)
        level = max_level - k
        out.append((1 << (dim * level)) | (p >> (fanout_bits * k)))
        p += width
    return out


def complete(dim: int, seeds: Sequence[int],
             max_level: Optional[int] = None) -> LinearOctree:
    """Minimal complete linear octree containing the given seed leaves.

    The bottom-up construction of Sundar, Sampath & Biros: sort the
    seeds along the Z curve, then fill each gap (and the two domain
    ends) with the coarsest aligned octants that fit.  The result tiles
    the unit domain, contains every seed, and is minimal — no filler
    sibling group could be replaced by its parent.

    Raises when the seeds overlap (one is an ancestor of another).
    """
    seeds = list(set(int(s) for s in seeds))
    if max_level is None:
        max_level = max(
            (morton.level_of(s, dim) for s in seeds), default=0
        )
    # sort along the curve (integer order is NOT Z order across levels)
    seeds.sort(key=lambda s: morton.zorder_key(s, dim, max_level))
    for a, b in zip(seeds, seeds[1:]):
        if is_ancestor(a, b, dim) or is_ancestor(b, a, dim):
            raise ConsistencyError(
                f"seed {a:#x} overlaps seed {b:#x}"
            )
    span = 1 << (dim * max_level)

    def interval_of(loc: int) -> Tuple[int, int]:
        level = morton.level_of(loc, dim)
        width = 1 << (dim * (max_level - level))
        start = (loc - (1 << (dim * level))) << (dim * (max_level - level))
        return start, start + width

    out: List[int] = []
    cursor = 0
    for seed in seeds:
        start, end = interval_of(seed)
        if start < cursor:
            raise ConsistencyError(
                f"seed {seed:#x} overlaps earlier seeds"
            )
        out.extend(fill_interval(cursor, start, dim, max_level))
        out.append(seed)
        cursor = end
    out.extend(fill_interval(cursor, span, dim, max_level))
    return LinearOctree(dim, out, max_level=max_level)
