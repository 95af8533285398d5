"""Pointer-based ("multi-threaded") octree over a memory arena.

This is the ephemeral in-core data structure Gerris uses (§2): every octant
holds parent and child pointers, updates mutate in place, and nothing
survives a crash.  It doubles as the building block of PM-octree's C0 tree.

Ground truth lives in the arena's packed records — every structural change
is a record read-modify-write that gets charged to the simulated clock.  A
*volatile* code→handle index accelerates lookup; it can always be rebuilt
from the records (:meth:`PointerOctree.rebuild_index`), which is exactly
what recovery does.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.errors import ConsistencyError, ReproError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.pointers import NULL_HANDLE
from repro.nvbm.records import OctantRecord
from repro.octree import morton
from repro.octree.soa import LeafSetStructure
from repro.octree.store import LoopBackedAccess, Payload, ZERO_PAYLOAD


class PointerOctree(LeafSetStructure, LoopBackedAccess):
    """A mutable octree whose octants are records in one arena."""

    def __init__(self, arena: MemoryArena, dim: int = 2,
                 root_payload: Payload = ZERO_PAYLOAD):
        if dim not in (2, 3):
            raise ValueError(f"only dim 2 and 3 supported, got {dim}")
        self.arena = arena
        self.dim = dim
        root = OctantRecord(loc=morton.ROOT_LOC, level=0, payload=root_payload)
        self._root_handle = arena.new_octant(root)
        self._index: Dict[int, int] = {morton.ROOT_LOC: self._root_handle}
        self._leaf_set: Set[int] = {morton.ROOT_LOC}

    # -- protocol ------------------------------------------------------------

    def root_loc(self) -> int:
        return morton.ROOT_LOC

    def exists(self, loc: int) -> bool:
        return loc in self._index

    def is_leaf(self, loc: int) -> bool:
        return loc in self._leaf_set

    def leaves(self) -> Iterator[int]:
        return iter(list(self._leaf_set))

    def num_octants(self) -> int:
        return len(self._index)

    def num_leaves(self) -> int:
        return len(self._leaf_set)

    def handle_of(self, loc: int) -> int:
        try:
            return self._index[loc]
        except KeyError:
            raise ReproError(f"octant {loc:#x} not in tree") from None

    def get_payload(self, loc: int) -> Payload:
        return self.arena.read_payload(self.handle_of(loc))

    def set_payload(self, loc: int, payload: Payload) -> None:
        self.arena.write_payload(self.handle_of(loc), tuple(payload))

    def get_record(self, loc: int) -> OctantRecord:
        """Full record view (tests and GC use this; solvers use payloads)."""
        return self.arena.read_octant(self.handle_of(loc))

    def refine(self, loc: int) -> List[int]:
        """Split a leaf into its ``2**dim`` children (in-place pointer update)."""
        if loc not in self._leaf_set:
            raise ReproError(f"cannot refine non-leaf {loc:#x}")
        handle = self._index[loc]
        rec = self.arena.read_octant(handle)
        child_locs = morton.children_of(loc, self.dim)
        for i, cloc in enumerate(child_locs):
            child = OctantRecord(
                loc=cloc,
                level=rec.level + 1,
                payload=tuple(rec.payload),
                parent=handle,
            )
            ch = self.arena.new_octant(child)
            rec.children[i] = ch
            self._index[cloc] = ch
            self._leaf_set.add(cloc)
        rec.set_leaf(False)
        self.arena.write_octant(handle, rec)
        self._leaf_set.discard(loc)
        return child_locs

    def coarsen(self, loc: int) -> None:
        """Remove the leaf children of ``loc``; it becomes a leaf again."""
        if loc in self._leaf_set:
            raise ReproError(f"cannot coarsen a leaf {loc:#x}")
        handle = self._index[loc]
        rec = self.arena.read_octant(handle)
        child_locs = morton.children_of(loc, self.dim)
        for cloc in child_locs:
            if cloc not in self._leaf_set:
                raise ReproError(
                    f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
                )
        for i, cloc in enumerate(child_locs):
            self.arena.free(self._index.pop(cloc))
            self._leaf_set.discard(cloc)
            rec.children[i] = NULL_HANDLE
        rec.set_leaf(True)
        self.arena.write_octant(handle, rec)
        self._leaf_set.add(loc)

    # -- construction helpers --------------------------------------------------

    def refine_uniform(self, level: int) -> None:
        """Refine every leaf until all leaves sit at ``level`` (Construct)."""
        frontier = [loc for loc in self.leaves()
                    if morton.level_of(loc, self.dim) < level]
        while frontier:
            nxt: List[int] = []
            for loc in frontier:
                for cloc in self.refine(loc):
                    if morton.level_of(cloc, self.dim) < level:
                        nxt.append(cloc)
            frontier = nxt

    def find_leaf_at(self, point) -> int:
        """Leaf containing a point of the unit cube (point location)."""
        if len(point) != self.dim:
            raise ValueError(f"point must have {self.dim} coordinates")
        loc = morton.ROOT_LOC
        while loc not in self._leaf_set:
            level = morton.level_of(loc, self.dim)
            idx = 0
            for axis in range(self.dim):
                mid = (2 * morton.coords_of(loc, self.dim)[axis] + 1) / (1 << (level + 1))
                if point[axis] >= mid:
                    idx |= 1 << axis
            loc = morton.child_of(loc, self.dim, idx)
        return loc

    # -- recovery / validation ---------------------------------------------------

    def rebuild_index(self, root_handle: Optional[int] = None) -> None:
        """Rebuild the volatile index from records, starting at the root.

        ``root_handle`` lets recovery point the tree at a different record
        (e.g. the persistent V_{i-1} root after a crash).
        """
        if root_handle is not None:
            self._root_handle = root_handle
        self._index.clear()
        self._leaf_set.clear()
        stack = [self._root_handle]
        while stack:
            handle = stack.pop()
            rec = self.arena.read_octant(handle)
            if rec.is_deleted:
                continue
            self._index[rec.loc] = handle
            if rec.is_leaf:
                self._leaf_set.add(rec.loc)
            else:
                stack.extend(rec.live_children())

    def check_record_consistency(self) -> None:
        """Verify the volatile index matches the packed records."""
        for loc, handle in self._index.items():
            rec = self.arena.read_octant(handle)
            if rec.loc != loc:
                raise ConsistencyError(
                    f"index maps {loc:#x} to a record with loc {rec.loc:#x}"
                )
            if rec.is_leaf != (loc in self._leaf_set):
                raise ConsistencyError(f"leaf flag mismatch at {loc:#x}")
            if rec.level != morton.level_of(loc, self.dim):
                raise ConsistencyError(f"level mismatch at {loc:#x}")
