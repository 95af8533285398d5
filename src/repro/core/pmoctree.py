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

import struct
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.config import PMOctreeConfig
from repro.core import walks
from repro.core.c0 import C0Placement, C0Roots, C0Stats
from repro.core.cow import SLOT_CURR, SLOT_PREV, Landing
from repro.core.pipeline import EpochPipeline
from repro.errors import ConsistencyError, GCDisabledError, ReproError
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import (_INDEX_BITS, ARENA_DRAM, NULL_HANDLE,
                                 is_dram, is_nvbm)
from repro.nvbm.records import (CHILDREN_OFFSET, EPOCH_SPAN, FLAG_DELETED,
                                FLAG_LEAF, FLAGS_SPAN, PAYLOAD_SPAN,
                                OctantRecord, as_records, pack_payload,
                                unpack_payload)
from repro.octree import morton
from repro.octree.soa import LeafSetStructure, Predicate, levels_of_codes
from repro.octree.store import Payload, ZERO_PAYLOAD

_F64 = struct.Struct("<d")


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


class PMOctree(C0Placement, LeafSetStructure):
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
        #: attached ReplicaSession (§3.4's remote replica V^P); when set,
        #: every persist ships through its acknowledged retry/backoff protocol
        self.replicator = None
        #: the ReplicaSessions built on this tree (:meth:`_published`)
        self._sessions = weakref.WeakSet()
        #: this epoch's NVBM allocations, False once one left again
        nvbm.alloc_log = {}

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
        #: GC pins them instead of re-traversing the old tree.
        self._detached: List[int] = []
        #: the landing buffer behind batch() scopes (repro.core.cow)
        self._landing = Landing(self)
        #: the persist point (repro.core.pipeline); its window is
        #: ``config.max_inflight_epochs``
        self._pipeline = EpochPipeline(
            self, max_inflight=self.config.max_inflight_epochs)

    # -------------------------------------------------------------- observability

    def attach_obs(self, obs) -> None:
        """Report :class:`PMStats` as ``pm.*`` counters (the pipeline's
        stats as ``pipeline.*``) and persist spans to an
        :class:`repro.obs.Observability` (see docs/observability.md)."""
        self.obs = obs
        obs.metrics.fold("pm", self.stats)
        obs.metrics.fold("pipeline", self._pipeline.stats)

    def _obs_span(self, name: str, **labels):
        if self.obs is not None:
            return self.obs.tracer.span(name, **labels)
        return nullcontext()

    # ------------------------------------------------------------------ protocol

    def leaves(self) -> Iterator[int]:  # named here: bench/trace.py wraps it
        return iter(list(self._leaf_set))

    def _arena_of(self, handle: int) -> MemoryArena:
        return self.dram if is_dram(handle) else self.nvbm

    def _load_span(self, loc: int, offset: int, size: int) -> bytes:
        """One field-granular load of ``[offset, offset + size)``."""
        self._landing.settle()
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        self.stats.partial_reads += 1
        return self._arena_of(handle).read_field(handle, offset, size)

    def get_payload(self, loc: int) -> Payload:
        return unpack_payload(self._load_span(loc, *PAYLOAD_SPAN))

    def _store_span(self, loc: int, offset: int, data: bytes) -> None:
        """One field-granular store: DRAM octants update in place, shared
        NVBM octants copy-on-write first; only the spanned lines dirty."""
        handle = self.handle_of(loc)
        self.stats.partial_writes += 1
        buf = self._landing
        if is_dram(handle):
            self._touch_c0(loc, handle)
            buf.store(self.dram, handle, offset, data)
            self._dirty.add(loc)
            self.stats.inplace_updates += 1
            return
        buf.store(self.nvbm, buf.writable(loc), offset, data)
        buf.site(sites.PAYLOAD_PARTIAL)

    def set_payload(self, loc: int, payload: Payload) -> None:
        self._store_span(loc, PAYLOAD_SPAN[0], pack_payload(payload))

    # ------------------------------------------------- field-granular access

    def get_field(self, loc: int, slot: int) -> float:
        """One payload slot — an 8-byte, single-line field read.

        The §5.4 economy applied *inside* the record: a solver probe of one
        quantity (e.g. a neighbor's VOF) loads and meters 8 bytes, not the
        whole 32-byte payload."""
        return _F64.unpack(self._load_span(loc, PAYLOAD_SPAN[0] + 8 * slot,
                                           8))[0]

    def set_field(self, loc: int, slot: int, value: float) -> None:
        """Store one payload slot in place (8-byte field-granular write):
        :meth:`set_payload` that dirties only the line the slot lives in."""
        self._store_span(loc, PAYLOAD_SPAN[0] + 8 * slot, _F64.pack(value))

    # ---------------------------------------------------- batched SoA access

    def _batch_handles(self, locs) -> Tuple[np.ndarray, np.ndarray]:
        """``handle_of`` + ``_touch_c0`` of a whole batch: the handles
        (uint64) and which of them are DRAM handles.  While the root is the
        only C0 root it covers every DRAM octant: one credit, no codes."""
        try:
            handles = np.fromiter(map(self._index.__getitem__, locs),
                                  np.uint64, len(locs))
        except KeyError as exc:
            raise ReproError(f"octant {exc.args[0]:#x} not in tree") from None
        dram = (handles >> np.uint64(_INDEX_BITS)) == ARENA_DRAM
        c0 = self._c0_roots
        if c0.levels == (0,):
            c0[morton.ROOT_LOC].accesses += int(np.count_nonzero(dram))
        elif dram.any():
            roots, counts = np.unique(self._c0_roots_of(
                np.asarray(locs, dtype=np.int64)[dram]), return_counts=True)
            for root, count in zip(roots.tolist(), counts.tolist()):
                if root:
                    c0[root].accesses += count
        return handles, dram

    def _batch_read(self, locs, offset: int, size: int) -> np.ndarray:
        """Bytes ``[offset, offset + size)`` of the records of ``locs``,
        as ``(n, size) uint8``: ``n`` field-granular reads, one gather and
        one summed device charge per arena."""
        self._landing.settle()
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

    def _batch_store(self, locs, values, offset: int) -> None:
        """Store row ``i`` of ``values`` (``(n, width)`` float64s) at
        ``offset`` of the record of ``locs[i]``, in one :meth:`batch` scope.

        The DRAM-resident octants take one scatter and one summed charge;
        the NVBM ones follow in order through :meth:`_store_span`, so their
        copy-on-write and stores land together.  (A crash between the two
        halves loses DRAM either way.)"""
        handles, dram = self._batch_handles(locs)
        rows = np.ascontiguousarray(values, dtype="<f8").view(np.uint8)
        if len(rows) != len(locs):
            raise ValueError(f"{len(locs)} locs but {len(rows)} rows")
        hits = np.flatnonzero(dram)
        with self.batch() as buf:
            if hits.size:
                buf.settle(handles[hits].tolist())
                self.dram.write_rows(handles[hits], offset, rows[hits])
                self.stats.partial_writes += hits.size
                self.stats.inplace_updates += hits.size
                self._dirty.update(map(locs.__getitem__, hits.tolist()))
            nvbm = np.flatnonzero(~dram).tolist()
            buf.prefetch([locs[i] for i in nvbm])
            raw, size = rows.tobytes(), rows.shape[1]
            for i in nvbm:
                self._store_span(locs[i], offset,
                                 raw[i * size:(i + 1) * size])

    def batch_set_payloads(self, locs, payloads) -> None:
        """Store payload row ``i`` at ``locs[i]``: ``n`` :meth:`set_payload`
        calls (see :meth:`_batch_store`)."""
        self._batch_store(locs, np.reshape(payloads, (-1, 4)), PAYLOAD_SPAN[0])

    def batch_set_fields(self, locs, values, slot: int) -> None:
        """Store ``values[i]`` in one slot of ``locs[i]``: ``n``
        :meth:`set_field` calls (see :meth:`_batch_store`)."""
        self._batch_store(locs, np.reshape(values, (-1, 1)), PAYLOAD_SPAN[0] + 8 * slot)

    def get_record(self, loc: int) -> OctantRecord:
        self._landing.settle()
        handle = self.handle_of(loc)
        return self._arena_of(handle).read_octant(handle)

    # ------------------------------------------------------------- refine/coarsen

    def refine(self, loc: int) -> List[int]:
        """Split a leaf; children are placed with their parent (§3.2 routing:
        an octant goes to C0 or C1 "determined by its locational code").  A
        DRAM leaf whose C0 subtree had to be evicted for room refines in
        NVBM, copy-on-write first."""
        if loc not in self._leaf_set:
            raise ReproError(f"cannot refine non-leaf {loc:#x}")
        handle = self.handle_of(loc)
        self._touch_c0(loc, handle)
        buf, index, leaf_set = self._landing, self._index, self._leaf_set
        child_locs = morton.children_of(loc, self.dim)
        in_dram = is_dram(handle) and self._ensure_dram_capacity(
            len(child_locs), protect=loc)
        if in_dram:
            kids = buf.refine(self.dram, handle, child_locs)
        else:
            kids = buf.refine(self.nvbm, buf.writable(loc), child_locs)
        index.update(zip(child_locs, kids))
        leaf_set.update(child_locs)
        leaf_set.discard(loc)
        if in_dram:
            self._dirty.add(loc)
            self._grow_c0(loc, child_locs, 1)
            self.stats.inplace_updates += 1
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
        buf, index, fanout = self._landing, self._index, len(child_locs)
        buf.settle([index[cloc] for cloc in child_locs])
        if is_dram(handle):
            for cloc in child_locs:
                buf.free(self.dram, index.pop(cloc))
                self._leaf_set.discard(cloc)
                origin = self._origin.pop(cloc, None)
                if origin is not None:
                    self._detach(origin)
                self._dirty.discard(cloc)
            buf.coarsened(self.dram, handle, fanout)
            self._dirty.add(loc)
            self._grow_c0(loc, child_locs, -1)
            self._leaf_set.add(loc)
            return
        handle = buf.writable(loc)
        for cloc in child_locs:
            ch = index.pop(cloc)
            self._leaf_set.discard(cloc)
            if is_dram(ch):
                # Legal under I1: the child is itself a C0 subtree root
                # (e.g. a size-1 subtree brought in by load_subtree).  Its
                # DRAM record can be deleted directly; tear down the C0
                # bookkeeping with it and retire the NVBM origin the load
                # left behind, if it is ours to retire.
                buf.settle()
                buf.free(self.dram, ch)
                self._c0_roots.pop(cloc, None)
                origin = self._origin.pop(cloc, None)
                self._dirty.discard(cloc)
                if origin is None or not self.nvbm.contains(origin):
                    continue
                if self.nvbm.read_epoch(origin) == self.epoch:
                    # current-epoch origin: V_{i-1} cannot reach it, so it
                    # is dead the moment its DRAM copy goes
                    self._discard(origin)
                    flags = self.nvbm.read_flags(origin)
                    buf.store(self.nvbm, origin, FLAGS_SPAN[0],
                              bytes((flags | FLAG_DELETED,)))
                    self.stats.partial_writes += 1
                    self.stats.marked_deleted += 1
                else:
                    # old-epoch origin: a published predecessor still
                    # references it — it merely left the working version
                    self._detach(origin)
                continue
            if buf.epoch_of(ch) == self.epoch:
                # the child is a leaf, so its flags are exactly FLAG_LEAF;
                # the deletion mark is a single-line absolute store
                self._discard(ch)
                buf.store(self.nvbm, ch, FLAGS_SPAN[0],
                          bytes((FLAG_LEAF | FLAG_DELETED,)))
                self.stats.partial_writes += 1
                self.stats.marked_deleted += 1
            else:
                # old-epoch child: shared with V_{i-1}, which still needs
                # it — record the detach instead of marking
                self._detach(ch)
        buf.site(sites.COARSEN_MID)
        # the parent was a live internal octant (flags == 0): clear its
        # child slots and set the leaf bit without rewriting the record
        buf.store(self.nvbm, handle, CHILDREN_OFFSET, bytes(8 * fanout))
        buf.store(self.nvbm, handle, FLAGS_SPAN[0], bytes((FLAG_LEAF,)))
        self.stats.partial_writes += 2
        self._leaf_set.add(loc)

    # --------------------------------------------------------------- COW machinery

    def _detach(self, handle: int) -> None:
        """Record that an NVBM handle left the working version while still
        (possibly) shared with a published predecessor, which GC pins
        instead of traversing.  Pinning is conservative — a handle that
        turns out to be current-epoch garbage just survives one extra
        collection — so callers need not spend metered reads on an exact
        epoch check.
        """
        self._discard(handle)
        self._detached.append(handle)

    def _discard(self, handle: int) -> None:
        """A record this epoch allocated left the working version again:
        it is no part of the epoch's write set."""
        if handle in self.nvbm.alloc_log:
            self.nvbm.alloc_log[handle] = False

    def _published(self, base: int, root: int, written: List[int],
                   dropped: List[int]) -> None:
        """The published version moved from ``base`` to ``root``, writing
        ``written`` and dropping ``dropped``: tell every session built on
        this tree, whose next DELTA carries the change."""
        for session in self._sessions:
            session.note_published(base, root, written, dropped)

    def _mark_deleted(self, handles) -> List[int]:
        """Set ``FLAG_DELETED`` on the still-allocated records among
        ``handles`` — a flag read and a single-line store each, no crash
        site in between; returns the handles marked."""
        handles = np.array(handles, dtype=np.uint64)
        live = handles[self.nvbm.contains_mask(handles)]
        flags = self.nvbm.read_rows(live, *FLAGS_SPAN)
        # pmlint: allow[bypass-cow]: superseded records belong to retired
        # versions only; the freshly published root cannot reach them.
        self.nvbm.write_rows(live, FLAGS_SPAN[0], flags | FLAG_DELETED)
        self.stats.marked_deleted += live.size
        return live.tolist()

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

        The merge runs now (its state mutations must be visible); with
        ``config.max_inflight_epochs`` of 0 the root is published before
        this returns, otherwise the flush train drains in the background
        and the root is published at the drain's commit point — see
        :mod:`repro.core.pipeline`.
        """
        self._landing.settle()
        with self._obs_span("pm.persist", epoch=self.epoch):
            return self._pipeline.enqueue(transform, keep_resident)

    def drain_persists(self) -> None:
        """Barrier: wait out and settle every in-flight persist epoch.

        Call before a final measurement, a planned shutdown, or anything
        that must observe the last persist as published.
        """
        self._pipeline.drain_all()

    def _after_persist(self, transform: bool) -> None:
        """What follows every enqueued persist (committed at a window of 0):
        NVBM GC when free space runs low, the replica ship, then §3.3's
        dynamic transformation."""
        from repro.core.transform import detect_and_transform

        if self.nvbm.free_fraction < self.config.threshold_nvbm:
            self.gc()
        if self.replicator is not None and self._pipeline.stats.drained:
            # §3.4: "when the crashed node will not be available, delta
            # octants need to be copied to other compute nodes": the last
            # *published* version (none for a window k's first k persists).
            # May retry/backoff on the sim clock and raises
            # ReplicationTimeoutError if the peer stays unreachable — the
            # local persist already committed.
            self.replicator.ship()
        if transform:
            detect_and_transform(self)

    def attach_replication_session(self, session):
        """Turn on remote replication (the §3.4 user-enabled feature)
        through an acknowledged :class:`ReplicaSession`: every persist runs
        the sequenced retry/backoff protocol; a persistently unreachable
        peer surfaces as :class:`~repro.errors.ReplicationTimeoutError`
        from ``persist()``.  The replica is ``session.replica``.
        """
        self.replicator = session
        return session

    def gc(self):
        """Run mark-and-sweep (refused mid-merge, §3.2)."""
        from repro.core.gc import mark_and_sweep

        if self.merging:
            raise GCDisabledError("GC is disabled while a merge is in flight")
        self._landing.settle()
        with self._obs_span("pm.gc"):
            return mark_and_sweep(self)

    def delete_all(self) -> None:
        """pm_delete: drop every octant on both arenas and reset roots."""
        self._pipeline.reset()
        for h in list(self.dram.live_handles()):
            self.dram.free(h)
        for h in list(self.nvbm.live_handles()):
            self.nvbm.free(h)
        self.nvbm.roots.set(SLOT_PREV, NULL_HANDLE)
        self.nvbm.roots.set(SLOT_CURR, NULL_HANDLE)
        self.nvbm.alloc_log = {}
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
        meter pauses; a :meth:`batch` scope lands first, metered.
        """
        self._landing.settle()
        with self.dram.device.unmetered(), self.nvbm.device.unmetered():
            yield

    def reachable_from(self, root_handle: int) -> Set[int]:
        """NVBM handles reachable from an NVBM root (DRAM pointers skipped).

        One gather per tree level (:mod:`repro.core.walks`); the set is
        filled in depth-first visit order, which its iteration order
        depends on.  Replica DELTAs do not walk: they carry the published
        epochs' write sets (:mod:`repro.core.replication`); only a
        whole-version ship follows this order.
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
            # the newest snapshot may still be draining: V_{i-1} is the
            # last *enqueued* version, not necessarily the published one
            inflight = self._pipeline.live_roots()
            prev_root = (inflight[-1] if inflight
                         else self.nvbm.roots.get(SLOT_PREV))
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

    def tree_depth(self) -> int:
        if not self._leaf_set:
            return 0
        leaves = np.fromiter(self._leaf_set, np.int64, len(self._leaf_set))
        return int(levels_of_codes(leaves, self.dim).max())

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

