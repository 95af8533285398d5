"""Linear (pointer-free) octrees.

A linear octree stores only its leaves, as a Z-order-sorted array of
locational codes — the representation of Sundar et al.'s bottom-up
construction and of the Etree library's key space (§2).  It is the exchange
format of this library: partitioning ships contiguous Z-order ranges between
ranks, and the Etree baseline persists exactly this array as pages.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConsistencyError
from repro.octree import morton, soa
from repro.octree.store import AdaptiveTree, Payload


def _fill_interval(start: int, end: int, dim: int,
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

    def payload_of(self, loc: int) -> Payload:
        i = self.index_of(loc)
        if i < 0:
            raise KeyError(f"leaf {loc:#x} not in linear octree")
        return tuple(self.payloads[i])

    def find_enclosing(self, loc: int) -> int:
        """The stored leaf equal to ``loc`` or an ancestor of it, or -1.

        This is the lookup a linear octree must do instead of following a
        pointer: binary-search the Z key, then verify ancestry.
        """
        query = loc
        if morton.level_of(loc, self.dim) > self.max_level:
            # Truncate to the stored resolution: the ancestor shares the
            # aligned Z prefix, so the search lands in the right place.
            query = morton.ancestor_at(loc, self.dim, self.max_level)
        key = morton.zorder_key(query, self.dim, self.max_level)
        i = int(np.searchsorted(self.keys, np.uint64(key), side="right")) - 1
        if i < 0:
            return -1
        cand = int(self.locs[i])
        if cand == loc or morton.is_ancestor(cand, loc, self.dim):
            return i
        return -1

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

    def split_ranges(self, parts: int) -> List[Tuple[int, int]]:
        """Split into ``parts`` contiguous Z-order ranges of near-equal size.

        Returns ``[(start, end), ...)`` index ranges; some may be empty when
        there are fewer leaves than parts.
        """
        if parts <= 0:
            raise ValueError("parts must be positive")
        n = len(self)
        bounds = [round(i * n / parts) for i in range(parts + 1)]
        return [(bounds[i], bounds[i + 1]) for i in range(parts)]

    def slice(self, start: int, end: int) -> "LinearOctree":
        """Sub-array view as a new LinearOctree (already sorted)."""
        sub = LinearOctree.__new__(LinearOctree)
        sub.dim = self.dim
        sub.max_level = self.max_level
        sub.keys = self.keys[start:end]
        sub.locs = self.locs[start:end]
        sub.payloads = self.payloads[start:end]
        return sub

    def merged_with(self, other: "LinearOctree") -> "LinearOctree":
        """Union of two disjoint linear octrees (re-sorts)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        max_level = max(self.max_level, other.max_level)
        locs = [int(leaf) for leaf in self.locs] + [int(leaf) for leaf in other.locs]
        payloads = np.vstack([self.payloads, other.payloads]) if locs else None
        return LinearOctree(self.dim, locs, payloads, max_level=max_level)

    # -- bottom-up construction (Sundar et al., §2's related work) ------------

    @classmethod
    def complete(cls, dim: int, seeds: Sequence[int],
                 max_level: Optional[int] = None) -> "LinearOctree":
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
            if morton.is_ancestor(a, b, dim) or morton.is_ancestor(b, a, dim):
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
            out.extend(_fill_interval(cursor, start, dim, max_level))
            out.append(seed)
            cursor = end
        out.extend(_fill_interval(cursor, span, dim, max_level))
        lin = cls(dim, out, max_level=max_level)
        return lin
