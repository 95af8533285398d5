"""Pointer-based ("multi-threaded") octree over a memory arena.

This is the ephemeral in-core data structure Gerris uses (§2): every octant
holds parent and child pointers, updates mutate in place, and nothing
survives a crash.  It doubles as the building block of PM-octree's C0 tree.

Ground truth lives in the arena's packed records — every structural change
is a record read-modify-write that gets charged to the simulated clock.  A
*volatile* code→handle index accelerates lookup; it is a cache of the
records (:meth:`PointerOctree.check_record_consistency` checks the two
agree).

Data batches are the per-octant calls in order, landed as one gather or
scatter per call: the arena is DRAM (no cache, no seal, no media faults),
so :meth:`MemoryArena.read_rows`/``write_rows`` charge exactly what the
per-record loop charges.  ``refine`` allocates at call time; inside a
:meth:`PointerOctree.batch` scope ``coarsen``'s frees and their record
stores land together when it closes (:class:`repro.core.cow.Landing`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np

from repro.errors import ConsistencyError, ReproError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.records import PAYLOAD_SPAN, OctantRecord
from repro.octree import morton
from repro.octree.soa import LeafSetStructure
from repro.octree.store import LoopBackedAccess, Payload, ZERO_PAYLOAD


class PointerOctree(LeafSetStructure):
    """A mutable octree whose octants are records in one arena."""

    #: every record carries epoch 0: the in-core tree keeps no versions
    epoch = 0

    def __init__(self, arena: MemoryArena, dim: int = 2,
                 root_payload: Payload = ZERO_PAYLOAD):
        from repro.core.cow import Landing

        if dim not in (2, 3):
            raise ValueError(f"only dim 2 and 3 supported, got {dim}")
        self.arena = arena
        self.dim = dim
        root = OctantRecord(loc=morton.ROOT_LOC, level=0, payload=root_payload)
        self._root_handle = arena.new_octant(root)
        self._index: Dict[int, int] = {morton.ROOT_LOC: self._root_handle}
        self._leaf_set: Set[int] = {morton.ROOT_LOC}
        self._landing = Landing(self)

    # -- protocol ------------------------------------------------------------

    def get_payload(self, loc: int) -> Payload:
        self._landing.settle()
        return self.arena.read_payload(self.handle_of(loc))

    def set_payload(self, loc: int, payload: Payload) -> None:
        self._landing.settle()
        self.arena.write_payload(self.handle_of(loc), tuple(payload))

    def get_record(self, loc: int) -> OctantRecord:
        """Full record view (tests and GC use this; solvers use payloads)."""
        self._landing.settle()
        return self.arena.read_octant(self.handle_of(loc))

    # The smallest access is a whole payload: a slot read is a payload
    # read, a slot write a payload read-modify-write.
    get_field = LoopBackedAccess.get_field
    set_field = LoopBackedAccess.set_field

    # -- batches: one gather / scatter per call --------------------------------

    def _handles(self, locs: Sequence[int]) -> List[int]:
        self._landing.settle()
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

    def batch_set_payloads(self, locs: Sequence[int], payloads) -> None:
        self.arena.write_rows(
            self._handles(locs), PAYLOAD_SPAN[0],
            np.ascontiguousarray(payloads, dtype="<f8").reshape(-1, 4)
            .view(np.uint8))

    def batch_set_fields(self, locs: Sequence[int], values,
                         slot: int) -> None:
        handles = self._handles(locs)
        rows = self.arena.read_rows(handles, *PAYLOAD_SPAN)
        rows.view("<f8")[:, slot] = values
        self.arena.write_rows(handles, PAYLOAD_SPAN[0], rows)

    def refine(self, loc: int) -> List[int]:
        """Split a leaf into its ``2**dim`` children (in-place pointer update)."""
        index, leaf_set = self._index, self._leaf_set
        if loc not in leaf_set:
            raise ReproError(f"cannot refine non-leaf {loc:#x}")
        child_locs = morton.children_of(loc, self.dim)
        index.update(zip(child_locs, self._landing.refine(
            self.arena, index[loc], child_locs)))
        leaf_set.update(child_locs)
        leaf_set.discard(loc)
        return child_locs

    def coarsen(self, loc: int) -> None:
        """Remove the leaf children of ``loc``; it becomes a leaf again."""
        if loc in self._leaf_set:
            raise ReproError(f"cannot coarsen a leaf {loc:#x}")
        handle = self._index[loc]
        child_locs = morton.children_of(loc, self.dim)
        for cloc in child_locs:
            if cloc not in self._leaf_set:
                raise ReproError(
                    f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
                )
        for cloc in child_locs:
            self._landing.free(self.arena, self._index.pop(cloc))
            self._leaf_set.discard(cloc)
        self._landing.coarsened(self.arena, handle, len(child_locs))
        self._leaf_set.add(loc)

    # -- recovery / validation ---------------------------------------------------

    def check_record_consistency(self) -> None:
        """Verify the volatile index matches the packed records."""
        self._landing.settle()
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
