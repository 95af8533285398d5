"""The PM-octree data structure.

Placement invariants (all checkable, see ``tests/core/test_invariants.py``):

I1. Octants of the working version ``V_i`` live either in a DRAM arena (the
    C0 sub-forest) or in an NVBM arena (C1); an octant is in DRAM iff one of
    its ancestors-or-self is a registered C0 subtree root, and C0 subtrees
    are *entirely* DRAM-resident.
I2. Every record reachable from the persistent root ``V_{i-1}`` is an NVBM
    record with ``epoch < current_epoch`` that has been flushed, and is
    never written in place.  (This is what makes recovery safe without
    per-store fences.)
I3. An NVBM record with ``epoch == current_epoch`` is reachable only from
    ``V_i`` and may be updated in place.
I4. Mutating a shared (I2) octant copies it — and its ancestor path up to
    the nearest in-place-writable octant — into fresh current-epoch records
    (Fig 4's propagation).

Versions share all octants that did not change since the last persist point,
which is where Fig 3's memory saving comes from.

Volatile acceleration structures (``_index``, ``_leaf_set``, C0 bookkeeping)
are rebuilt from records on recovery; correctness never depends on them
surviving a crash.
"""

from __future__ import annotations

import heapq
import struct
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.config import PMOctreeConfig
from repro.core import walks
from repro.errors import ConsistencyError, GCDisabledError, ReproError
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import (_INDEX_BITS, ARENA_DRAM, NULL_HANDLE,
                                 is_dram, is_nvbm)
from repro.nvbm.records import (EPOCH_SPAN, FLAG_DELETED, FLAG_LEAF,
                                FLAGS_SPAN, PAYLOAD_SPAN, OctantRecord,
                                as_records, pack_payload)
from repro.octree import morton
from repro.octree.soa import LeafSetStructure, Predicate, levels_of_codes
from repro.octree.store import Payload, ZERO_PAYLOAD

#: Root-slot names in the NVBM arena.
SLOT_PREV = "V_prev"
SLOT_CURR = "V_curr"

_F64 = struct.Struct("<d")


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


@dataclass
class PMStats:
    """Counters the evaluation section reports on."""

    cow_copies: int = 0
    inplace_updates: int = 0
    evictions: int = 0
    merges: int = 0
    persists: int = 0
    transformations: int = 0
    gc_runs: int = 0
    octants_reclaimed: int = 0
    marked_deleted: int = 0
    partial_reads: int = 0   #: field-granular record loads
    partial_writes: int = 0  #: field-granular record stores
    hot_spills: int = 0      #: transformation could not fit a hot subtree
    merge_octants_shared: int = 0   #: merged octants re-linked to V_{i-1}
    merge_octants_written: int = 0  #: merged octants written as new records
    c0_to_c1_octants: int = 0  #: octants that left DRAM in eviction merges
    c1_to_c0_octants: int = 0  #: octants loaded into DRAM subtrees
    transform_evicted_subtrees: int = 0
    transform_loaded_subtrees: int = 0


class PMOctree(LeafSetStructure):
    """Persistent merged octree over one DRAM and one NVBM arena.

    Implements the :class:`repro.octree.store.AdaptiveTree` protocol, so all
    meshing routines (balance, refinement engine, mesh extraction, solver)
    run on it unchanged.
    """

    def __init__(self, dram: MemoryArena, nvbm: MemoryArena, dim: int = 2,
                 config: Optional[PMOctreeConfig] = None,
                 injector: Optional[FailureInjector] = None,
                 root_payload: Payload = ZERO_PAYLOAD):
        self._init_state(dram, nvbm, dim, config, injector)
        # The initial tree is a single root leaf in DRAM (the whole tree is
        # C0 until pressure or a persist pushes octants to NVBM).
        root = OctantRecord(loc=morton.ROOT_LOC, level=0, epoch=self.epoch,
                            payload=root_payload)
        h = self.dram.new_octant(root)
        self._index[morton.ROOT_LOC] = h
        self._leaf_set.add(morton.ROOT_LOC)
        self._c0_roots[morton.ROOT_LOC] = C0Stats(size=1,
                                                  locs={morton.ROOT_LOC})
        self.nvbm.roots.set(SLOT_PREV, NULL_HANDLE)
        self.nvbm.roots.set(SLOT_CURR, h)

    def _init_state(self, dram: MemoryArena, nvbm: MemoryArena, dim: int,
                    config: Optional[PMOctreeConfig],
                    injector: Optional[FailureInjector]) -> None:
        """Everything but the tree itself: ``__init__`` then allocates the
        root leaf, ``recovery.attach_and_restore`` then restores."""
        if dim not in (2, 3):
            raise ValueError(f"only dim 2 and 3 supported, got {dim}")
        self.dram = dram
        self.nvbm = nvbm
        self.dim = dim
        self.config = config or PMOctreeConfig()
        self.injector = injector or FailureInjector()
        if nvbm.roots.injector is None:
            nvbm.roots.injector = self.injector
        #: attached repro.obs.Observability (attach_obs), or None
        self.obs = None
        self.stats = PMStats()
        self.epoch = 1
        self.merging = False
        self.features: List[Predicate] = []
        #: attached remote replica (§3.4's V^P), shipped to at every persist
        self.replica = None
        self.on_replica_ship: Optional[Callable[[int], None]] = None
        #: attached ReplicaSession; when set, persist ships through the
        #: acknowledged retry/backoff protocol instead of a direct apply
        self.replicator = None

        # volatile acceleration state (rebuilt by recovery)
        self._index: Dict[int, int] = {}
        self._leaf_set: Set[int] = set()
        self._c0_roots = C0Roots(dim)
        self._origin: Dict[int, int] = {}
        self._dirty: Set[int] = set()
        self._superseded: List[int] = []
        #: NVBM records that left the working version *without* being COW
        #: originals (coarsened old-epoch children, merge-replaced origins).
        #: They are still reachable from published predecessor versions, so
        #: the pipelined GC pins them instead of re-traversing the old tree;
        #: only maintained when an epoch pipeline is attached (the
        #: synchronous mark walks V_{i-1} itself and needs no delta).
        self._detached: List[int] = []
        #: attached EpochPipeline (asynchronous persistence); None means
        #: the synchronous persist path
        self._pipeline = None
        if self.config.max_inflight_epochs > 0:
            from repro.core.pipeline import EpochPipeline

            self._pipeline = EpochPipeline(
                self, max_inflight=self.config.max_inflight_epochs)

    # -------------------------------------------------------------- observability

    def attach_obs(self, obs) -> None:
        """Report :class:`PMStats` as ``pm.*`` counters (the pipeline's
        stats as ``pipeline.*``) and persist spans to an
        :class:`repro.obs.Observability` (see docs/observability.md)."""
        self.obs = obs
        obs.metrics.fold("pm", self.stats)
        if self._pipeline is not None:
            obs.metrics.fold("pipeline", self._pipeline.stats)

    def _obs_span(self, name: str, **labels):
        if self.obs is not None:
            return self.obs.tracer.span(name, **labels)
        return nullcontext()

    # ------------------------------------------------------------------ protocol

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
            raise ReproError(f"octant {loc:#x} not in PM-octree") from None

    def _arena_of(self, handle: int) -> MemoryArena:
        return self.dram if is_dram(handle) else self.nvbm

    def get_payload(self, loc: int) -> Payload:
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        self.stats.partial_reads += 1
        return self._arena_of(handle).read_payload(handle)

    def _store_span(self, loc: int, offset: int, data: bytes) -> None:
        """One field-granular store: DRAM octants update in place, shared
        NVBM octants copy-on-write first; only the spanned lines dirty."""
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        self.stats.partial_writes += 1
        if is_dram(handle):
            self.dram.write_field(handle, offset, data)
            self._dirty.add(loc)
            self.stats.inplace_updates += 1
            return
        self.nvbm.write_field(self._ensure_writable(loc), offset, data)
        self.injector.site(sites.PAYLOAD_PARTIAL)

    def set_payload(self, loc: int, payload: Payload) -> None:
        self._store_span(loc, PAYLOAD_SPAN[0], pack_payload(payload))

    # ------------------------------------------------- field-granular access

    def get_field(self, loc: int, slot: int) -> float:
        """One payload slot — an 8-byte, single-line field read.

        The §5.4 economy applied *inside* the record: a solver probe of one
        quantity (e.g. a neighbor's VOF) loads and meters 8 bytes, not the
        whole 32-byte payload."""
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        self.stats.partial_reads += 1
        offset = PAYLOAD_SPAN[0] + 8 * slot
        data = self._arena_of(handle).read_field(handle, offset, 8)
        return _F64.unpack(data)[0]

    def set_field(self, loc: int, slot: int, value: float) -> None:
        """Store one payload slot in place (8-byte field-granular write):
        :meth:`set_payload` that dirties only the line the slot lives in."""
        self._store_span(loc, PAYLOAD_SPAN[0] + 8 * slot, _F64.pack(value))

    # ---------------------------------------------------- batched SoA access

    def _batch_handles(self, locs) -> Tuple[np.ndarray, np.ndarray]:
        """``handle_of`` + ``_touch_c0`` of a whole batch: the handles
        (uint64) and which of them are DRAM handles."""
        index = self._index
        try:
            handles = np.array([index[loc] for loc in locs], dtype=np.uint64)
        except KeyError as exc:
            raise ReproError(
                f"octant {exc.args[0]:#x} not in PM-octree") from None
        dram = (handles >> np.uint64(_INDEX_BITS)) == ARENA_DRAM
        if dram.any():
            dram_locs = np.asarray(locs, dtype=np.int64)[dram]
            roots, counts = np.unique(self._c0_roots_of(dram_locs),
                                      return_counts=True)
            for root, count in zip(roots.tolist(), counts.tolist()):
                if root:
                    self._c0_roots[root].accesses += count
        return handles, dram

    def _batch_read(self, locs, offset: int, size: int) -> np.ndarray:
        """Bytes ``[offset, offset + size)`` of the records of ``locs``,
        as ``(n, size) uint8``: ``n`` field-granular reads, one gather and
        one summed device charge per arena."""
        handles, dram = self._batch_handles(locs)
        self.stats.partial_reads += len(handles)
        if dram.all():
            return self.dram.read_rows(handles, offset, size)
        out = np.empty((len(handles), size), dtype=np.uint8)
        if dram.any():
            out[dram] = self.dram.read_rows(handles[dram], offset, size)
        out[~dram] = self.nvbm.read_rows(handles[~dram], offset, size)
        return out

    def batch_read_payloads(self, locs) -> np.ndarray:
        """Payload rows for ``locs`` as an ``(n, 4)`` float64 array.

        Metered exactly like ``n`` :meth:`get_payload` calls: same C0
        touch and ``pm.partial_reads`` totals, per-record media/CRC
        verification (see :meth:`repro.nvbm.arena.MemoryArena.read_rows`)."""
        return self._batch_read(locs, *PAYLOAD_SPAN).view("<f8")

    def batch_read_fields(self, locs, slot: int) -> np.ndarray:
        """One payload slot per loc, metered exactly like ``n``
        :meth:`get_field` calls (8 bytes / 1 line each)."""
        return self._batch_read(
            locs, PAYLOAD_SPAN[0] + 8 * slot, 8).view("<f8")[:, 0]

    def _batch_store(self, items, offset: int, width: int,
                     scalar_store: Callable) -> None:
        """Store ``items[i][1]`` (``width`` float64s) at ``offset`` of the
        record of ``items[i][0]``: ``scalar_store(*item)`` per item.

        The DRAM-resident octants take one scatter and one summed charge.
        An NVBM store may copy-on-write its root path and is a crash site,
        so those go through ``scalar_store`` one by one, in order, after the
        scatter (a crash in between loses DRAM either way)."""
        items = list(items)
        locs = [loc for loc, _ in items]
        handles, dram = self._batch_handles(locs)
        hits = np.flatnonzero(dram).tolist()
        if hits:
            data = np.array([items[i][1] for i in hits],
                            dtype="<f8").reshape(len(hits), width)
            self.dram.write_rows(handles[hits], offset, data.view(np.uint8))
            self.stats.partial_writes += len(hits)
            self.stats.inplace_updates += len(hits)
            self._dirty.update(locs[i] for i in hits)
        for i in np.flatnonzero(~dram).tolist():
            scalar_store(*items[i])

    def batch_set_payloads(self, items) -> None:
        """Apply ``(loc, payload)`` stores: ``n`` :meth:`set_payload`
        calls (see :meth:`_batch_store`)."""
        self._batch_store(items, PAYLOAD_SPAN[0], 4, self.set_payload)

    def batch_set_fields(self, items, slot: int) -> None:
        """Apply ``(loc, value)`` single-slot stores: ``n``
        :meth:`set_field` calls (see :meth:`_batch_store`)."""
        self._batch_store(
            items, PAYLOAD_SPAN[0] + 8 * slot, 1,
            lambda loc, value: self.set_field(loc, slot, value))

    def get_record(self, loc: int) -> OctantRecord:
        handle = self.handle_of(loc)
        return self._arena_of(handle).read_octant(handle)

    def find_leaf_at(self, point) -> int:
        """Leaf containing a point of the unit cube (point location)."""
        if len(point) != self.dim:
            raise ValueError(f"point must have {self.dim} coordinates")
        loc = morton.ROOT_LOC
        while loc not in self._leaf_set:
            level = morton.level_of(loc, self.dim)
            coords = morton.coords_of(loc, self.dim)
            idx = 0
            for axis in range(self.dim):
                mid = (2 * coords[axis] + 1) / (1 << (level + 1))
                if point[axis] >= mid:
                    idx |= 1 << axis
            loc = morton.child_of(loc, self.dim, idx)
        return loc

    # ------------------------------------------------------------- refine/coarsen

    def refine(self, loc: int) -> List[int]:
        """Split a leaf; children are placed with their parent (§3.2 routing:
        an octant goes to C0 or C1 "determined by its locational code")."""
        if loc not in self._leaf_set:
            raise ReproError(f"cannot refine non-leaf {loc:#x}")
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        if is_dram(handle):
            return self._refine_dram(loc, handle)
        return self._refine_nvbm(loc)

    def _refine_dram(self, loc: int, handle: int) -> List[int]:
        fanout = morton.fanout(self.dim)
        if not self._ensure_dram_capacity(fanout, protect=loc):
            # C0 cannot grow: this very subtree was evicted to NVBM.
            return self._refine_nvbm(loc)
        rec = self.dram.read_octant(handle)
        child_locs = morton.children_of(loc, self.dim)
        for i, cloc in enumerate(child_locs):
            ch = self.dram.new_octant(OctantRecord(
                loc=cloc, level=rec.level + 1, epoch=self.epoch,
                payload=tuple(rec.payload), parent=handle,
            ))
            rec.children[i] = ch
            self._index[cloc] = ch
            self._leaf_set.add(cloc)
        rec.set_leaf(False)
        self.dram.write_octant(handle, rec)
        self._leaf_set.discard(loc)
        self._dirty.add(loc)
        croot = self._c0_root_of(loc)
        if croot is not None:
            stats = self._c0_roots[croot]
            stats.size += fanout
            stats.locs.update(child_locs)
        self.stats.inplace_updates += 1
        return child_locs

    def _refine_nvbm(self, loc: int) -> List[int]:
        handle = self._ensure_writable(loc)
        rec = self.nvbm.read_octant(handle)
        child_locs = morton.children_of(loc, self.dim)
        for i, cloc in enumerate(child_locs):
            ch = self.nvbm.new_octant(OctantRecord(
                loc=cloc, level=rec.level + 1, epoch=self.epoch,
                payload=tuple(rec.payload), parent=handle,
            ))
            rec.children[i] = ch
            self._index[cloc] = ch
            self._leaf_set.add(cloc)
        rec.set_leaf(False)
        # pmlint: allow[raw-write]: handle is the fresh COW copy from
        # _ensure_writable and every mutable field (all child slots plus
        # the leaf flag) changes — the whole-record store IS the minimal
        # update here, and field-granular stores would alter the charged
        # line counts the locked bench envelope records.
        self.nvbm.write_octant(handle, rec)
        self._leaf_set.discard(loc)
        return child_locs

    def coarsen(self, loc: int) -> None:
        """Remove the leaf children of ``loc`` from the working version.

        Shared children stay in NVBM untouched (V_{i-1} still references
        them); unshared NVBM children are only *marked* deleted — GC reclaims
        the slots later (§3.2's deferred deletion); DRAM children are freed
        immediately ("we can directly delete an octant in C0").
        """
        if loc in self._leaf_set:
            raise ReproError(f"cannot coarsen a leaf {loc:#x}")
        if loc not in self._index:
            raise ReproError(f"octant {loc:#x} not in PM-octree")
        child_locs = morton.children_of(loc, self.dim)
        for cloc in child_locs:
            if cloc not in self._leaf_set:
                raise ReproError(
                    f"cannot coarsen {loc:#x}: child {cloc:#x} is not a leaf"
                )
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        if is_dram(handle):
            rec = self.dram.read_octant(handle)
            for i, cloc in enumerate(child_locs):
                self.dram.free(self._index.pop(cloc))
                self._leaf_set.discard(cloc)
                origin = self._origin.pop(cloc, None)
                if origin is not None:
                    self._detach(origin)
                self._dirty.discard(cloc)
                rec.children[i] = NULL_HANDLE
            rec.set_leaf(True)
            self.dram.write_octant(handle, rec)
            self._dirty.add(loc)
            croot = self._c0_root_of(loc)
            if croot is not None:
                stats = self._c0_roots[croot]
                stats.size -= len(child_locs)
                stats.locs.difference_update(child_locs)
            self._leaf_set.add(loc)
            return
        handle = self._ensure_writable(loc)
        for cloc in child_locs:
            ch = self._index.pop(cloc)
            self._leaf_set.discard(cloc)
            if is_dram(ch):
                # Legal under I1: the child is itself a C0 subtree root
                # (e.g. a size-1 subtree brought in by load_subtree).  Its
                # DRAM record can be deleted directly; tear down the C0
                # bookkeeping with it and retire the NVBM origin the load
                # left behind, if it is ours to retire.
                self.dram.free(ch)
                self._c0_roots.pop(cloc, None)
                origin = self._origin.pop(cloc, None)
                self._dirty.discard(cloc)
                if (
                    origin is not None
                    and self.nvbm.contains(origin)
                    and self.nvbm.read_epoch(origin) == self.epoch
                ):
                    # current-epoch origin: V_{i-1} cannot reach it, so it
                    # is dead the moment its DRAM copy goes
                    flags = self.nvbm.read_flags(origin)
                    self.nvbm.set_flags(origin, flags | FLAG_DELETED)
                    self.stats.partial_writes += 1
                    self.stats.marked_deleted += 1
                elif origin is not None and self.nvbm.contains(origin):
                    # old-epoch origin: a published predecessor still
                    # references it — it merely left the working version
                    self._detach(origin)
                continue
            if self.nvbm.read_epoch(ch) == self.epoch:
                # the child is a leaf, so its flags are exactly FLAG_LEAF;
                # the deletion mark is a single-line absolute store
                self.nvbm.set_flags(ch, FLAG_LEAF | FLAG_DELETED)
                self.stats.partial_writes += 1
                self.stats.marked_deleted += 1
            else:
                # old-epoch child: shared with V_{i-1}, which still needs
                # it — record the detach instead of marking
                self._detach(ch)
        self.injector.site(sites.COARSEN_MID)
        # the parent was a live internal octant (flags == 0): clear its
        # child slots and set the leaf bit without rewriting the record
        fanout = morton.fanout(self.dim)
        self.nvbm.write_child_slots(handle, 0, [NULL_HANDLE] * fanout)
        self.nvbm.set_flags(handle, FLAG_LEAF)
        self.stats.partial_writes += 2
        self._leaf_set.add(loc)

    # --------------------------------------------------------------- COW machinery

    def _detach(self, handle: int) -> None:
        """Record that an NVBM handle left the working version while still
        (possibly) shared with a published predecessor.

        Only tracked under the epoch pipeline, where GC marks the old trees
        by delta-pinning rather than traversal.  Pinning is conservative —
        a handle that turns out to be current-epoch garbage just survives
        one extra collection — so callers need not spend metered reads on
        an exact epoch check.
        """
        if self._pipeline is not None:
            self._detached.append(handle)

    def _mark_deleted(self, handles) -> List[int]:
        """Set ``FLAG_DELETED`` on the still-allocated records among
        ``handles`` — a flag read and a single-line store each, no crash
        site in between; returns the handles marked."""
        handles = np.array(handles, dtype=np.uint64)
        live = handles[self.nvbm.contains_mask(handles)]
        flags = self.nvbm.read_rows(live, *FLAGS_SPAN)
        # pmlint: allow-direct-write — superseded records belong to retired
        # versions only; the freshly published root cannot reach them.
        self.nvbm.write_rows(live, FLAGS_SPAN[0], flags | FLAG_DELETED)
        self.stats.marked_deleted += live.size
        return live.tolist()

    def _path_to(self, loc: int) -> List[int]:
        """Locational codes root -> loc."""
        path = [loc]
        while loc != morton.ROOT_LOC:
            loc = morton.parent_of(loc, self.dim)
            path.append(loc)
        path.reverse()
        return path

    def _is_writable(self, handle: int) -> bool:
        """In-place writable: DRAM, or an NVBM record of the current epoch."""
        if is_dram(handle):
            return True
        self.stats.partial_reads += 1
        return self.nvbm.read_epoch(handle) == self.epoch

    def _ensure_writable(self, loc: int) -> int:
        """Make the NVBM octant at ``loc`` in-place writable, copying the
        shared suffix of its root path (Fig 4).  Returns its handle."""
        handle = self._index[loc]
        if is_dram(handle):
            raise ConsistencyError(f"{loc:#x} is in DRAM; COW is for NVBM octants")
        self.stats.partial_reads += 1
        if self.nvbm.read_epoch(handle) == self.epoch:
            return handle
        path = self._path_to(loc)
        # deepest ancestor that is already writable
        first_shared = 0
        for i in range(len(path) - 1, -1, -1):
            h = self._index[path[i]]
            if i < len(path) - 1 and self._is_writable(h):
                first_shared = i + 1
                break
        else:
            first_shared = 0
        new_handle = NULL_HANDLE
        for i in range(first_shared, len(path)):
            ploc = path[i]
            old = self._index[ploc]
            rec = self.nvbm.read_octant(old)
            rec.epoch = self.epoch
            if i > first_shared:
                rec.parent = self._index[path[i - 1]]
            new = self.nvbm.new_octant(rec)
            self.stats.cow_copies += 1
            self._superseded.append(old)
            self._index[ploc] = new
            self.injector.site(sites.COW_AFTER_COPY)
            # hook the copy into its parent
            if i == first_shared:
                if ploc == morton.ROOT_LOC:
                    self.nvbm.roots.set(SLOT_CURR, new)
                else:
                    parent_loc = path[i - 1]
                    ph = self._index[parent_loc]
                    parena = self._arena_of(ph)
                    parena.write_child_slot(
                        ph, morton.child_index_of(ploc, self.dim), new
                    )
                    self.stats.partial_writes += 1
                    if is_dram(ph):
                        self._dirty.add(parent_loc)
            else:
                # parent is the copy we just made in the previous iteration:
                # fix its child slot in place (it is current-epoch).
                ph = self._index[path[i - 1]]
                self.nvbm.write_child_slot(
                    ph, morton.child_index_of(ploc, self.dim), new
                )
                self.stats.partial_writes += 1
            new_handle = new
        return new_handle

    # --------------------------------------------------------------- C0 management

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

    def dram_free_fraction(self) -> float:
        return self.dram.free_fraction

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
        return max(0, self.c0_capacity - self.dram.used)

    def _ensure_dram_capacity(self, needed: int, protect: Optional[int] = None) -> bool:
        """Evict LFU C0 subtrees until ``needed`` slots are free.

        ``protect`` names a loc whose covering subtree should be evicted
        last.  Returns False when the protected subtree itself had to go
        (the caller must fall back to the NVBM path).
        """
        from repro.core.merge import evict_subtree

        threshold_free = max(
            needed,
            int(self.config.threshold_dram * self.c0_capacity),
        )
        protected_root = self._c0_root_of(protect) if protect is not None else None
        heap: Optional[List] = None
        while self.c0_free < threshold_free:
            if heap is None:
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

    # ------------------------------------------------------------------- features

    def register_feature(self, fn: Predicate) -> None:
        """Register an application feature function (§3.3): an array
        predicate over a gathered :class:`~repro.octree.soa.LeafBatch`
        marking the octants the next routines will touch."""
        self.features.append(fn)

    # ------------------------------------------------------------------ lifecycle

    def persist(self, transform: bool = True,
                keep_resident: Optional[bool] = None) -> int:
        """§3.2 persist point: merge C0 into C1, flush, atomically publish.

        Returns the new persistent root handle.  With ``transform`` on, the
        dynamic layout transformation runs afterwards (§3.3: "only triggered
        after the completion of the merging operations") and hot C0 subtrees
        stay DRAM-resident across the persist (incremental copying) —
        ``keep_resident`` overrides that default.

        With ``config.max_inflight_epochs > 0`` this is the *enqueue* phase
        of the asynchronous epoch pipeline: the merge runs now (its state
        mutations must be visible), but the flush train drains in the
        background and the returned root is published at the drain's commit
        point — see :mod:`repro.core.pipeline`.
        """
        if self._pipeline is not None:
            with self._obs_span("pm.persist.enqueue", epoch=self.epoch):
                return self._pipeline.enqueue(transform, keep_resident)
        with self._obs_span("pm.persist", epoch=self.epoch):
            return self._persist_impl(transform, keep_resident)

    def drain_persists(self) -> None:
        """Barrier: wait out and settle every in-flight persist epoch.

        A no-op on the synchronous path.  Call before a final measurement,
        a planned shutdown, or anything that must observe the last persist
        as published.
        """
        if self._pipeline is not None:
            self._pipeline.drain_all()

    def _persist_impl(self, transform: bool,
                      keep_resident: Optional[bool]) -> int:
        from repro.core.merge import merge_all_c0
        from repro.core.transform import detect_and_transform

        if keep_resident is None:
            keep_resident = transform
        # Epoch happens-before bracket: the tracker (when installed)
        # snapshots this epoch's flush obligations at open and retires the
        # window after the epoch's last flush.  Synchronous today — the
        # pipelined-persistence work overlaps these windows, and the
        # tracker's cross-epoch-waf rule is armed from day one.
        tracer = getattr(self.nvbm, "tracer", None)
        epoch_open = getattr(tracer, "on_epoch_open", None)
        epoch_close = getattr(tracer, "on_epoch_close", None)
        epoch_window = epoch_open() if epoch_open is not None else 0
        try:
            self.injector.site(sites.PERSIST_BEGIN)
            self.merging = True
            try:
                root = merge_all_c0(self, keep_resident=keep_resident)
                if not is_nvbm(root):
                    raise ConsistencyError("root still volatile after merge")
                self.injector.site(sites.PERSIST_BEFORE_FLUSH)
                self.nvbm.flush()
                self.injector.site(sites.PERSIST_BEFORE_ROOT_SWAP)
                # THE commit point: one atomic 8-byte root-slot store.
                self.nvbm.roots.set(SLOT_PREV, root)
                self.injector.site(sites.PERSIST_AFTER_ROOT_SWAP)
            finally:
                self.merging = False
            self.epoch += 1
            self.stats.persists += 1
            if keep_resident and not transform and not self._c0_roots:
                # Static (brute-force) layout: when pressure evictions have
                # emptied C0, re-fill it with the first subtree that fits, by
                # locational-code order — no access-pattern knowledge (Fig 5a).
                self._load_static_chunk()
            # Mark records superseded by COW during the finished step: they
            # are V_{i-2}-only now and become GC food.
            self.stats.partial_writes += len(
                self._mark_deleted(self._superseded))
            self._superseded.clear()
            self.nvbm.flush()
        finally:
            # a crash already tore the window down via on_crash; closing a
            # dead window id is a no-op
            if epoch_close is not None:
                epoch_close(epoch_window)
        if self.nvbm.free_fraction < self.config.threshold_nvbm:
            self.gc()
        if self.replicator is not None:
            # Acknowledged protocol path: may retry/backoff on the sim
            # clock and raises ReplicationTimeoutError if the peer stays
            # unreachable — the local persist above already committed.
            report = self.replicator.ship()
            if self.on_replica_ship is not None:
                self.on_replica_ship(report.bytes_shipped)
        elif self.replica is not None:
            # §3.4: "when the crashed node will not be available, delta
            # octants need to be copied to other compute nodes"
            from repro.core.replication import ship_delta

            shipped = ship_delta(self, self.replica)
            if self.on_replica_ship is not None:
                self.on_replica_ship(shipped)
        if transform:
            detect_and_transform(self)
        return root

    def enable_replication(self, replica=None,
                           on_ship: Optional[Callable[[int], None]] = None):
        """Turn on remote replication (the §3.4 user-enabled feature).

        ``replica`` defaults to a fresh :class:`~repro.core.replication.
        ReplicaStore`; ``on_ship`` receives the shipped byte count at each
        persist so the caller can charge its network model.  Returns the
        replica for placement on a peer (see ``choose_replica_peer``).
        """
        from repro.core.replication import ReplicaStore

        self.replica = replica if replica is not None else ReplicaStore()
        self.on_replica_ship = on_ship
        return self.replica

    def attach_replication_session(self, session,
                                   on_ship: Optional[Callable[[int], None]]
                                   = None):
        """Replicate through an acknowledged :class:`ReplicaSession`.

        Unlike :meth:`enable_replication` (direct apply, perfect network),
        every persist now runs the sequenced retry/backoff protocol; a
        persistently unreachable peer surfaces as
        :class:`~repro.errors.ReplicationTimeoutError` from ``persist()``.
        """
        self.replicator = session
        self.replica = session.replica
        if on_ship is not None:
            self.on_replica_ship = on_ship
        return session

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

    def gc(self):
        """Run mark-and-sweep (refused mid-merge, §3.2)."""
        from repro.core.gc import mark_and_sweep

        if self.merging:
            raise GCDisabledError("GC is disabled while a merge is in flight")
        with self._obs_span("pm.gc"):
            return mark_and_sweep(self)

    def restore(self):
        """Recover from the last persist point (see repro.core.recovery)."""
        from repro.core.recovery import restore_inplace

        return restore_inplace(self)

    def delete_all(self) -> None:
        """pm_delete: drop every octant on both arenas and reset roots."""
        if self._pipeline is not None:
            self._pipeline.reset()
        for h in list(self.dram.live_handles()):
            self.dram.free(h)
        for h in list(self.nvbm.live_handles()):
            self.nvbm.free(h)
        self.nvbm.roots.set(SLOT_PREV, NULL_HANDLE)
        self.nvbm.roots.set(SLOT_CURR, NULL_HANDLE)
        self._index.clear()
        self._leaf_set.clear()
        self._c0_roots.clear()
        self._origin.clear()
        self._dirty.clear()
        self._superseded.clear()
        self._detached.clear()

    # ------------------------------------------------------------------ inspection

    @contextmanager
    def unmetered_inspection(self):
        """Suspend device metering on both arenas for the enclosed block.

        Structural queries (:meth:`overlap_ratio`, :meth:`check_invariants`,
        :meth:`reachable_from`) are measurement probes, not simulated work:
        charging their traversals to the :class:`SimClock` and the device
        counters made every metrics sample an observer-effect bug that
        inflated the bench numbers.  Data access is unaffected — only the
        meter pauses.
        """
        with self.dram.device.unmetered(), self.nvbm.device.unmetered():
            yield

    def reachable_from(self, root_handle: int) -> Set[int]:
        """NVBM handles reachable from an NVBM root (DRAM pointers skipped).

        One gather per tree level (:mod:`repro.core.walks`); the set is
        filled in depth-first visit order, which its iteration order —
        and through it the order replica deltas are built in — depends on.
        """
        if not is_nvbm(root_handle):
            return set()
        nvbm = self.nvbm
        with self.unmetered_inspection():
            level_slots, level_keys = walks.reach(
                nvbm, np.array([root_handle], dtype=np.uint64), self.dim)
        if not level_slots:
            return set()
        order = walks.dfs_order(level_keys, self.dim)
        return set(
            nvbm.handles_of(np.concatenate(level_slots)[order]).tolist())

    def overlap_ratio(self) -> float:
        """|octants shared by V_{i-1} and V_i| / |octants of V_i| (§3.1).

        A C0 octant whose DRAM copy is still clean counts as shared: its
        NVBM origin serves V_{i-1} and will be re-linked (not rewritten) at
        the next merge, so only one persistent record exists for it.
        """
        with self.unmetered_inspection():
            prev_root = self.nvbm.roots.get(SLOT_PREV)
            if self._pipeline is not None:
                # the newest snapshot may still be draining: V_{i-1} is the
                # last *enqueued* version, not necessarily the published one
                inflight = self._pipeline.live_roots()
                if inflight:
                    prev_root = inflight[-1]
            if prev_root == NULL_HANDLE:
                return 0.0
            prev = self.reachable_from(prev_root)
            shared = sum(
                1 for h in self._index.values() if is_nvbm(h) and h in prev
            )
            for loc, origin in self._origin.items():
                if loc not in self._dirty and origin in prev:
                    shared += 1
            return shared / max(1, len(self._index))

    def memory_usage_octants(self) -> int:
        """Total live records across both arenas (Fig 3's memory usage)."""
        return self.dram.used + self.nvbm.used

    def c0_size(self) -> int:
        return sum(s.size for s in self._c0_roots.values())

    def tree_depth(self) -> int:
        return max(
            (morton.level_of(leaf, self.dim) for leaf in self._leaf_set), default=0
        )

    def check_invariants(self) -> None:
        """Verify I1-I3 plus index/record agreement (test helper)."""
        with self.unmetered_inspection():
            self._check_invariants_impl()

    def _check_invariants_impl(self) -> None:
        n = len(self._index)
        locs = np.fromiter(self._index, np.int64, n)
        handles = np.fromiter(self._index.values(), np.uint64, n)
        dram = (handles >> np.uint64(_INDEX_BITS)) == ARENA_DRAM
        in_c0 = self._c0_roots_of(locs) != 0
        leaf = np.fromiter((loc in self._leaf_set for loc in self._index),
                           bool, n)

        def require(ok: np.ndarray, at: np.ndarray, message: str) -> None:
            if not ok.all():
                raise ConsistencyError(
                    message.format(int(at[int(ok.argmin())])))

        for arena, sel in ((self.dram, dram), (self.nvbm, ~dram)):
            recs = as_records(arena.read_rows(handles[sel]))
            flags = recs["flags"]
            require(recs["loc"] == locs[sel].astype(np.uint64), locs[sel],
                    "index {:#x} does not match its record's loc")
            require((flags & FLAG_DELETED) == 0, locs[sel],
                    "live index entry {:#x} marked deleted")
            require(((flags & FLAG_LEAF) != 0) == leaf[sel], locs[sel],
                    "leaf flag mismatch at {:#x}")
        require(in_c0 == dram, locs,
                "I1 violated at {:#x}: in a C0 subtree iff in DRAM")
        for root, stats in self._c0_roots.items():
            actual: Set[int] = set()
            stack = [root]
            while stack:
                walk = stack.pop()
                if walk not in self._index:
                    continue
                actual.add(walk)
                if walk not in self._leaf_set:
                    stack.extend(morton.children_of(walk, self.dim))
            if stats.locs != actual:
                raise ConsistencyError(
                    f"C0 loc set stale at root {root:#x}: tracked "
                    f"{len(stats.locs)} locs, tree has {len(actual)}"
                )
            if stats.size != len(actual):
                raise ConsistencyError(
                    f"C0 size stale at root {root:#x}: tracked {stats.size}, "
                    f"tree has {len(actual)}"
                )
        prev_root = self.nvbm.roots.get(SLOT_PREV)
        if prev_root != NULL_HANDLE:
            published = np.fromiter(self.reachable_from(prev_root), np.uint64)
            epochs = self.nvbm.read_rows(
                published, *EPOCH_SPAN).view("<u4")[:, 0]
            require(epochs < self.epoch, published,
                    "I2 violated: persistent record {:#x} is not older "
                    f"than the current epoch {self.epoch}")
