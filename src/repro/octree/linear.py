"""Linear (pointer-free) octrees.

A linear octree stores only its leaves, as a Z-order-sorted array of
locational codes — the representation of Sundar et al.'s bottom-up
construction and of the Etree library's key space (§2).  It is the exchange
format of this library: partitioning ships contiguous Z-order ranges between
ranks, and the Etree baseline persists exactly this array as pages.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConsistencyError
from repro.octree import morton, soa
from repro.octree.store import AdaptiveTree


class LinearOctree:
    """Immutable-ish sorted array of leaf codes plus payload rows."""

    def __init__(self, dim: int, locs: Sequence[int],
                 payloads: Optional[np.ndarray] = None,
                 max_level: Optional[int] = None):
        self.dim = dim
        locs = list(locs)
        loc_arr = np.asarray(locs, dtype=np.int64)
        levels = soa.levels_of_codes(loc_arr, dim)
        if max_level is None:
            max_level = int(levels.max()) if len(levels) else 0
        self.max_level = max_level
        keys = soa.zorder_keys(loc_arr, levels, dim, max_level)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.locs = np.array(locs, dtype=np.uint64)[order]
        if payloads is None:
            payloads = np.zeros((len(locs), 4), dtype=np.float64)
        else:
            payloads = np.asarray(payloads, dtype=np.float64).reshape(len(locs), 4)
        self.payloads = payloads[order]

    def __len__(self) -> int:
        return len(self.locs)

    def __iter__(self) -> Iterator[int]:
        return iter(int(leaf) for leaf in self.locs)

    @classmethod
    def from_tree(cls, tree: AdaptiveTree) -> "LinearOctree":
        """Linearize an adaptive tree's leaves (payloads included)."""
        locs = list(tree.leaves())
        return cls(tree.dim, locs, tree.batch_read_payloads(locs))

    def index_of(self, loc: int) -> int:
        """Index of an exact leaf code, or -1."""
        if morton.level_of(loc, self.dim) > self.max_level:
            return -1  # deeper than anything stored
        key = morton.zorder_key(loc, self.dim, self.max_level)
        i = int(np.searchsorted(self.keys, np.uint64(key)))
        if i < len(self.keys) and self.keys[i] == key:
            return i
        return -1

    def contains(self, loc: int) -> bool:
        return self.index_of(loc) >= 0

    def validate_complete(self) -> None:
        """Check the leaves exactly tile the root domain, no overlap/gap."""
        total = 0.0
        prev_end = 0
        span = 1 << (self.dim * self.max_level)
        for loc in self.locs:
            loc = int(loc)
            level = morton.level_of(loc, self.dim)
            start = (loc - (1 << (self.dim * level))) << (self.dim * (self.max_level - level))
            width = 1 << (self.dim * (self.max_level - level))
            if start != prev_end:
                raise ConsistencyError(
                    f"gap or overlap before {loc:#x}: starts at {start}, "
                    f"expected {prev_end}"
                )
            prev_end = start + width
            total += (0.5 ** level) ** self.dim
        if prev_end != span or abs(total - 1.0) > 1e-9:
            raise ConsistencyError("leaves do not tile the unit domain")

    # -- partitioning support ------------------------------------------------

    def slice(self, start: int, end: int) -> "LinearOctree":
        """Sub-array view as a new LinearOctree (already sorted)."""
        sub = LinearOctree.__new__(LinearOctree)
        sub.dim = self.dim
        sub.max_level = self.max_level
        sub.keys = self.keys[start:end]
        sub.locs = self.locs[start:end]
        sub.payloads = self.payloads[start:end]
        return sub
