"""C0: the DRAM-resident sub-forest of the working version (§3.2, §3.3).

``C0Roots`` registers the subtree roots, ``C0Stats`` keeps each one's size,
access count (the LFU eviction key) and loc set, and :class:`C0Placement`
— mixed into ``PMOctree`` — answers which root covers an octant, how much
of the configured DRAM budget is free, and evicts LFU subtrees when a
DRAM allocation needs room.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.nvbm.pointers import is_dram
from repro.octree import morton
from repro.octree.soa import levels_of_codes


@dataclass
class C0Stats:
    """Per-C0-subtree bookkeeping for the eviction/transformation policies."""

    size: int = 0          #: octants currently in this DRAM subtree
    accesses: int = 0      #: operations routed into it (LFU eviction key)
    #: every loc in this subtree, kept in step with refine/coarsen/merge so
    #: ``subtree_locs`` answers in O(size) instead of scanning the index
    locs: Set[int] = field(default_factory=set)


class C0Roots(dict):
    """The registered C0 subtree roots, ``loc -> C0Stats``, which also knows
    the *levels* its roots sit at (deepest first).  The C0 root covering an
    octant is its nearest registered ancestor-or-self, so only the ancestors
    at those levels need testing — one, level 0, while the whole tree is
    resident — instead of a climb parent by parent."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.levels: Tuple[int, ...] = ()

    def _relevel(self) -> None:
        self.levels = tuple(sorted(
            {morton.level_of(loc, self.dim) for loc in self}, reverse=True))

    def __setitem__(self, loc: int, stats: C0Stats) -> None:
        super().__setitem__(loc, stats)
        self._relevel()

    def __delitem__(self, loc: int) -> None:
        super().__delitem__(loc)
        self._relevel()

    def pop(self, loc: int, default=None):
        stats = super().pop(loc, default)
        self._relevel()
        return stats

    def clear(self) -> None:
        super().clear()
        self.levels = ()


class C0Placement:
    """C0 lookups, budget and eviction of a ``PMOctree``."""

    def _c0_root_of(self, loc: int) -> Optional[int]:
        """The registered C0 subtree root covering ``loc``, if any: its
        nearest registered ancestor-or-self."""
        roots = self._c0_roots
        dim = self.dim
        level = (loc.bit_length() - 1) // dim
        for root_level in roots.levels:
            if root_level <= level:
                ancestor = loc >> (dim * (level - root_level))
                if ancestor in roots:
                    return ancestor
        return None

    def _c0_roots_of(self, locs: np.ndarray) -> np.ndarray:
        """:meth:`_c0_root_of` of an int64 array of locs (0 where none)."""
        roots = np.fromiter(self._c0_roots, np.int64, len(self._c0_roots))
        out = np.zeros(locs.size, dtype=np.int64)
        levels = levels_of_codes(locs, self.dim)
        for root_level in self._c0_roots.levels:
            todo = np.flatnonzero((out == 0) & (levels >= root_level))
            ancestors = locs[todo] >> (self.dim * (levels[todo] - root_level))
            hit = np.isin(ancestors, roots)  # a code carries its level
            out[todo[hit]] = ancestors[hit]
        return out

    def _touch_c0(self, loc: int, handle: int) -> None:
        if is_dram(handle):
            croot = self._c0_root_of(loc)
            if croot is not None:
                self._c0_roots[croot].accesses += 1

    def _grow_c0(self, loc: int, locs, sign: int) -> None:
        """``locs`` entered (``sign`` 1) or left (-1) the C0 subtree of
        ``loc``."""
        croot = self._c0_root_of(loc)
        if croot is not None:
            stats = self._c0_roots[croot]
            stats.size += sign * len(locs)
            if sign > 0:
                stats.locs.update(locs)
            else:
                stats.locs.difference_update(locs)

    @property
    def c0_capacity(self) -> int:
        """Octants C0 may hold: the configured budget, capped by the arena.

        This is the paper's "DRAM size configured for the C0 tree" knob
        (Fig 10) — the arena may be physically larger, but PM-octree only
        uses its budgeted share.
        """
        return min(self.dram.capacity, self.config.dram_capacity_octants)

    @property
    def c0_free(self) -> int:
        self._landing.land_frees(self.dram)  # they count as free slots
        return max(0, self.c0_capacity - self.dram.used)

    def c0_size(self) -> int:
        return sum(s.size for s in self._c0_roots.values())

    def _ensure_dram_capacity(self, needed: int, protect: Optional[int] = None) -> bool:
        """Evict LFU C0 subtrees until ``needed`` slots are free.

        ``protect`` names a loc whose covering subtree should be evicted
        last.  Returns False when the protected subtree itself had to go
        (the caller must fall back to the NVBM path).  An eviction reads
        and frees C0 records, so a ``batch()`` scope lands first.
        """
        from repro.core.merge import evict_subtree

        # evict below ``needed`` free slots, or the threshold_dram share
        threshold_free = max(
            needed, int(self.config.threshold_dram * self.c0_capacity))
        heap: Optional[List] = None
        while self.c0_free < threshold_free:
            if heap is None:
                protected_root = None if protect is None \
                    else self._c0_root_of(protect)
                # LFU priority queue, built once for the whole eviction
                # round: k evictions cost O(n + k log n) comparisons, not a
                # full re-sort per victim.  Roots that disappear under us
                # (nested evictions) are skipped as stale on pop.
                heap = [
                    (stats.accesses, root)
                    for root, stats in self._c0_roots.items()
                    if root != protected_root
                ]
                heapq.heapify(heap)
            while heap and heap[0][1] not in self._c0_roots:
                heapq.heappop(heap)
            self._landing.settle()
            if not heap:
                if protected_root is not None:
                    evict_subtree(self, protected_root)
                    self.stats.evictions += 1
                    return False
                return self.c0_free >= needed
            _, victim = heapq.heappop(heap)
            evict_subtree(self, victim)
            self.stats.evictions += 1
        return True

    def _load_static_chunk(self) -> None:
        """Load the first budget-sized subtree (by locational code) into C0."""
        from repro.core.merge import load_subtree

        # one deepest-first pass computes every subtree's size; the descent
        # below then looks sizes up instead of rescanning the index per level
        sizes: Dict[int, int] = {}
        for loc in sorted(self._index,
                          key=lambda l: -morton.level_of(l, self.dim)):
            sizes[loc] = 1 + sum(
                sizes.get(c, 0) for c in morton.children_of(loc, self.dim)
            )
        loc = morton.ROOT_LOC
        while True:
            if sizes.get(loc, 0) <= self.c0_free:
                load_subtree(self, loc)
                return
            if loc in self._leaf_set:
                return
            children = [
                c for c in morton.children_of(loc, self.dim)
                if c in self._index
            ]
            if not children:
                return
            loc = children[0]
