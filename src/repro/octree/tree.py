"""Pointer-based ("multi-threaded") octree over a memory arena.

This is the ephemeral in-core data structure Gerris uses (§2): every octant
holds parent and child pointers, updates mutate in place, and nothing
survives a crash.  It doubles as the building block of PM-octree's C0 tree.

Ground truth lives in the arena's packed records — every structural change
is a record read-modify-write that gets charged to the simulated clock.  A
*volatile* code→handle index accelerates lookup; it can always be rebuilt
from the records (:meth:`PointerOctree.rebuild_index`), which is exactly
what recovery does.

A batch call is the per-octant calls in order, landed as one gather or
scatter per record kind: the arena is DRAM (no cache, no seal, no media
faults), so :meth:`MemoryArena.read_rows`/``write_rows`` charge exactly
what the per-record loop charges.  :func:`land_refines` and
:func:`land_coarsens` are the record images of a refine and a coarsen,
shared with PM-octree's batches.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConsistencyError, ReproError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.pointers import NULL_HANDLE
from repro.nvbm.records import (FLAG_LEAF, PAYLOAD_SPAN, OctantRecord,
                                as_records)
from repro.octree import morton
from repro.octree.soa import LeafSetStructure
from repro.octree.store import LoopBackedAccess, Payload, ZERO_PAYLOAD


def land_refines(arena: MemoryArena, parents, kids, kid_locs,
                 epoch: int) -> None:
    """The record stores of refining the (in-place writable) leaf records
    ``parents`` into ``kids`` (``fanout`` per parent, in order): each child
    a leaf of the given ``epoch`` carrying its parent's payload, each parent
    an internal octant pointing at its children — the images ``refine``
    packs, landed as one gather of the parents, one scatter of the children
    and one of the parents."""
    fanout = len(kids) // len(parents)
    rows = arena.read_rows(parents)
    recs = as_records(rows)
    kid_rows = np.zeros((len(kids), rows.shape[1]), dtype=np.uint8)
    images = as_records(kid_rows)
    images["loc"] = kid_locs
    images["level"] = np.repeat(recs["level"] + 1, fanout)
    images["flags"] = FLAG_LEAF
    images["epoch"] = epoch
    images["payload"] = np.repeat(recs["payload"], fanout, axis=0)
    images["parent"] = np.repeat(np.asarray(parents, np.uint64), fanout)
    recs["children"][:, :fanout] = np.asarray(kids, np.uint64) \
        .reshape(len(parents), fanout)
    recs["flags"] &= np.uint8(~FLAG_LEAF & 0xFF)
    recs["pad"] = 0
    recs["tail"] = 0
    arena.write_rows(kids, 0, kid_rows)
    arena.write_rows(parents, 0, rows)


def land_coarsens(arena: MemoryArena, parents, fanout: int) -> None:
    """The record stores of coarsening the (in-place writable) records
    ``parents`` whose children are gone: null child slots and the leaf bit,
    the images ``coarsen`` packs, as one gather and one scatter."""
    rows = arena.read_rows(parents)
    recs = as_records(rows)
    recs["children"][:, :fanout] = NULL_HANDLE
    recs["flags"] |= np.uint8(FLAG_LEAF)
    recs["pad"] = 0
    recs["tail"] = 0
    arena.write_rows(parents, 0, rows)


class PointerOctree(LeafSetStructure):
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

    # The smallest access is a whole payload: a slot read is a payload
    # read, a slot write a payload read-modify-write.
    get_field = LoopBackedAccess.get_field
    set_field = LoopBackedAccess.set_field

    # -- batches: one gather / scatter per call --------------------------------

    def _handles(self, locs: Sequence[int]) -> List[int]:
        index = self._index
        try:
            return [index[loc] for loc in locs]
        except KeyError as exc:
            raise ReproError(f"octant {exc.args[0]:#x} not in tree") from None

    def batch_read_payloads(self, locs: Sequence[int]) -> np.ndarray:
        return self.arena.read_rows(self._handles(locs),
                                    *PAYLOAD_SPAN).view("<f8")

    def batch_read_fields(self, locs: Sequence[int], slot: int) -> np.ndarray:
        return self.batch_read_payloads(locs)[:, slot]

    def batch_set_payloads(self, items) -> None:
        items = list(items)
        rows = np.array([payload for _, payload in items], dtype="<f8")
        self.arena.write_rows(self._handles([loc for loc, _ in items]),
                              PAYLOAD_SPAN[0],
                              rows.reshape(len(items), 4).view(np.uint8))

    def batch_set_fields(self, items, slot: int) -> None:
        items = list(items)
        handles = self._handles([loc for loc, _ in items])
        rows = self.arena.read_rows(handles, *PAYLOAD_SPAN)
        rows.view("<f8")[:, slot] = [value for _, value in items]
        self.arena.write_rows(handles, PAYLOAD_SPAN[0], rows)

    def _split(self, locs: Sequence[int]) -> Tuple[List[int], List[int],
                                                   List[int]]:
        """Allocate the children of the leaves ``locs``, loc by loc, and
        enter them in the index and leaf set in ``refine``'s order; returns
        the parent handles, the children and their codes for
        :func:`land_refines`."""
        index, leaf_set, alloc = self._index, self._leaf_set, self.arena.alloc
        parents: List[int] = []
        kids: List[int] = []
        kid_locs: List[int] = []
        for loc in locs:
            parents.append(index[loc])
            child_locs = morton.children_of(loc, self.dim)
            for cloc in child_locs:
                index[cloc] = kid = alloc()
                leaf_set.add(cloc)
                kids.append(kid)
            leaf_set.discard(loc)
            kid_locs.extend(child_locs)
        return parents, kids, kid_locs

    def refine_leaves(self, locs: Sequence[int]) -> int:
        """The per-loc :meth:`refine` calls as one batch: one gather of the
        parents, one scatter each of the children and the parents.  The
        loop runs instead when a loc is not a leaf yet (a refine of this
        very batch may create it)."""
        locs = list(locs)
        todo = list(dict.fromkeys(locs))  # a repeat is no leaf at its turn
        if not all(loc in self._leaf_set for loc in todo):
            return LoopBackedAccess.refine_leaves(self, locs)
        if todo:
            land_refines(self.arena, *self._split(todo), epoch=0)
        return len(todo)

    def coarsen_parents(self, parents: Sequence[int]) -> int:
        """The per-parent :meth:`coarsen` calls as one batch: the children
        are freed parent by parent (the free list's order is state), the
        parents rewritten with one gather and one scatter.  The loop runs
        instead when a parent's own parent is in the batch (coarsening one
        can make the other eligible)."""
        parents = list(parents)
        index, leaf_set, dim = self._index, self._leaf_set, self.dim
        queued = set(parents)
        if any(p >> dim in queued for p in parents):
            return LoopBackedAccess.coarsen_parents(self, parents)
        todo = [p for p in dict.fromkeys(parents)
                if p in index and p not in leaf_set
                and all(c in leaf_set for c in morton.children_of(p, dim))]
        for p in todo:
            for cloc in morton.children_of(p, dim):
                self.arena.free(index.pop(cloc))
                leaf_set.discard(cloc)
            leaf_set.add(p)
        if todo:
            land_coarsens(self.arena, [index[p] for p in todo],
                          morton.fanout(dim))
        return len(todo)

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
