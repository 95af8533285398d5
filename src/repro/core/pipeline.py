"""The asynchronous epoch pipeline: delay-free persistence for PM-octree.

Synchronous persist (:meth:`repro.core.pmoctree.PMOctree._persist_impl`)
stops the world: the epoch's merge *and* its flush train run on the compute
path, so NVBM write latency lands directly on the step makespan.  The C0
working set exists precisely so it does not have to — step *i+1* computes on
DRAM while step *i*'s flush train drains in the background (Ben-David et
al.'s delay-free epochs; Blelloch et al.'s parallel persistent memory
model).  This module is that overlap, split into two phases:

**enqueue** (compute path, cheap)
    The C0 merge runs immediately — its *state* mutations must be visible
    to step i+1 — but the NVBM write time it would have charged is
    redirected into a per-epoch :class:`DrainCost` accumulator
    (:meth:`repro.nvbm.device.MemoryDevice.deferred_writes`).  The epoch's
    durability obligations (the dirty-record snapshot, the root to publish,
    the superseded records to mark) are captured in an
    :class:`InFlightEpoch` and queued.  The tree's epoch counter advances
    at enqueue, so step i+1's mutations COW the queued records instead of
    rewriting them in place — the snapshot is immutable from the moment it
    is taken.

**drain** (background device time)
    A single FIFO flush engine: epoch i's drain completes at
    ``ready_i = max(enqueue_now, ready_{i-1}) + cost_i`` on the simulated
    clock.  The durability *actions* — selective flush of the snapshot,
    the atomic root-slot publish (THE commit point), the superseded
    marking, the closing flush — execute when the pipeline settles the
    epoch, under :meth:`unmetered` (their time was already accounted by
    the cost model).  Settling happens lazily: at the next enqueue for
    every epoch whose ``ready_ns`` has passed (it genuinely overlapped),
    via **backpressure** when the bounded in-flight window is full (the
    clock advances to the oldest epoch's ``ready_ns``; the wait is a
    *stall*, charged under the ``persist.drain`` phase), or via
    :meth:`drain_all` at a barrier.

Because a queued epoch's stores still sit in the volatile write-back cache
until its settle, a crash mid-flight tears them and the root slot still
names the previous published epoch — recovery deterministically lands on
epoch *i* or *i−1*, never a blend.  The registered crash sites
(``epoch.enqueue.mid``, ``epoch.drain.mid``, ``epoch.commit.pre_publish``,
``epoch.overlap.next_step``) pin exactly those windows for the sweep.

``overlap_fraction = 1 - stall_ns / drain_ns`` is the headline number: the
fraction of total drain time that disappeared behind compute.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.errors import ConsistencyError
from repro.nvbm import sites
from repro.nvbm.arena import FENCE_NS
from repro.nvbm.clock import Category
from repro.nvbm.pointers import is_nvbm

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree


@dataclass
class DrainCost:
    """Mutable accumulator for deferred NVBM write time (one epoch)."""

    ns: float = 0.0


@dataclass
class InFlightEpoch:
    """One queued epoch: its durability obligations and schedule."""

    epoch: int            #: the PM-octree epoch this drain will publish
    root: int             #: NVBM root handle to publish at the commit point
    pending: List[int]    #: dirty-record snapshot the drain must flush
    superseded: List[int]  #: COW originals to mark deleted *after* publish
    #: non-COW departures from the working version (coarsened old-epoch
    #: children, merge-replaced origins) — GC pins, never marked deleted
    detached: List[int] = field(default_factory=list)
    enqueue_ns: float = 0.0  #: sim time the epoch was enqueued
    ready_ns: float = 0.0    #: sim time its background drain completes
    cost_ns: float = 0.0     #: total device time of the drain train
    window: int = 0       #: tracker epoch-window id (0 when no tracker)


@dataclass
class PipelineStats:
    """Counters the bench and property tests read."""

    enqueued: int = 0
    drained: int = 0
    stall_ns: float = 0.0   #: clock time spent waiting on the drain engine
    drain_ns: float = 0.0   #: total background drain time scheduled
    max_inflight_seen: int = 0
    backpressure_waits: int = 0


class EpochPipeline:
    """Bounded in-flight epoch queue for one :class:`PMOctree`.

    ``max_inflight`` bounds the number of epochs whose drains may be
    outstanding at once; an enqueue finding the window full stalls the
    compute clock until the oldest epoch's drain completes.
    """

    def __init__(self, pmo: "PMOctree", max_inflight: int = 1):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._pmo = weakref.ref(pmo)
        self.max_inflight = max_inflight
        self.stats = PipelineStats()
        self._queue: Deque[InFlightEpoch] = deque()
        #: when the single FIFO flush engine frees up (sim ns)
        self._engine_free_ns = 0.0

    @property
    def pmo(self) -> "PMOctree":
        """The tree this pipeline belongs to.  The tree owns its pipeline;
        the way back is weak, so a tree a restore replaced dies by
        reference count instead of waiting for the cyclic collector."""
        return self._pmo()

    # -- introspection -----------------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self._queue)

    def live_roots(self) -> List[int]:
        """Roots of in-flight epochs — GC must treat these as live.

        An unpublished epoch's root is reachable from no root slot and
        (after coarsening in the next step) possibly not from the index
        either; sweeping it would dangle the publish still scheduled for
        it.
        """
        return [e.root for e in self._queue]

    def pinned_handles(self) -> List[int]:
        """Records unique to still-committed predecessor trees.

        Version *k*'s reachable set is the working version's plus the
        per-epoch deltas (COW ``superseded`` plus non-COW ``detached``) of
        every epoch from *k+1* on — COW never mutates an old record in
        place, so anything that left the working set is in exactly one
        delta.  GC pins this union instead of traversing from the old
        published root, which is what keeps the pipelined mark as cheap as
        the synchronous one (no second walk of a 99%-shared tree).
        """
        pins: List[int] = []
        for e in self._queue:
            pins.extend(e.superseded)
            pins.extend(e.detached)
        return pins

    def overlap_fraction(self) -> float:
        """Fraction of scheduled drain time hidden behind compute."""
        if self.stats.drain_ns <= 0:
            return 0.0
        return max(0.0, 1.0 - self.stats.stall_ns / self.stats.drain_ns)

    # -- the compute-path phase --------------------------------------------

    def enqueue(self, transform: bool = True,
                keep_resident: Optional[bool] = None) -> int:
        """Snapshot/enqueue phase of one persist point; returns the new
        persistent root handle (publication happens at the drain)."""
        from repro.core.merge import merge_all_c0
        from repro.core.pmoctree import SLOT_PREV  # noqa: F401 (docs)
        from repro.core.transform import detect_and_transform

        pmo = self.pmo
        if keep_resident is None:
            keep_resident = transform
        # Settle every epoch whose background drain already completed, so
        # the queue holds only genuinely in-flight work; a crash at the
        # overlap site then tears exactly the epochs that were still
        # draining.
        self._settle_due()
        if self._queue:
            pmo.injector.site(sites.EPOCH_OVERLAP_NEXT_STEP)
        self._backpressure()

        cost = DrainCost()
        pmo.injector.site(sites.PERSIST_BEGIN)
        pmo.merging = True
        try:
            with pmo.nvbm.device.deferred_writes(cost):
                root = merge_all_c0(pmo, keep_resident=keep_resident)
            if not is_nvbm(root):
                raise ConsistencyError("root still volatile after merge")
        finally:
            pmo.merging = False
        pmo.injector.site(sites.EPOCH_ENQUEUE_MID)

        pending = pmo.nvbm.dirty_handles()
        superseded = list(pmo._superseded)
        detached = list(pmo._detached)
        pmo._superseded.clear()
        pmo._detached.clear()
        tracer = getattr(pmo.nvbm, "tracer", None)
        epoch_open = getattr(tracer, "on_epoch_open", None)
        window = (
            epoch_open(sealed=True, pending=pending)
            if epoch_open is not None else 0
        )
        epoch = pmo.epoch
        pmo.epoch += 1
        pmo.stats.persists += 1

        # The drain train's device time: the deferred merge writes, a fence
        # for the snapshot flush, the 8-byte publish, one single-line store
        # per superseded mark, and the closing fence.
        write_ns = pmo.nvbm.device.spec.write_latency_ns
        cost_ns = (
            cost.ns + FENCE_NS + write_ns
            + len(superseded) * write_ns + FENCE_NS
        )
        clock = pmo.nvbm.device.clock
        ready = max(clock.now_ns, self._engine_free_ns) + cost_ns
        self._engine_free_ns = ready
        self._queue.append(InFlightEpoch(
            epoch=epoch, root=root, pending=pending, superseded=superseded,
            detached=detached, enqueue_ns=clock.now_ns, ready_ns=ready,
            cost_ns=cost_ns, window=window,
        ))
        self.stats.enqueued += 1
        self.stats.drain_ns += cost_ns
        self.stats.max_inflight_seen = max(self.stats.max_inflight_seen,
                                           len(self._queue))

        if keep_resident and not transform and not pmo._c0_roots:
            pmo._load_static_chunk()
        if pmo.nvbm.free_fraction < pmo.config.threshold_nvbm:
            pmo.gc()
        if pmo.replicator is not None:
            report = pmo.replicator.ship()
            if pmo.on_replica_ship is not None:
                pmo.on_replica_ship(report.bytes_shipped)
        elif pmo.replica is not None:
            from repro.core.replication import ship_delta

            shipped = ship_delta(pmo, pmo.replica)
            if pmo.on_replica_ship is not None:
                pmo.on_replica_ship(shipped)
        if transform:
            detect_and_transform(pmo)
        return root

    # -- the background phase ----------------------------------------------

    def _settle_due(self) -> None:
        """Settle every queued epoch whose drain already completed."""
        clock = self.pmo.nvbm.device.clock
        while self._queue and self._queue[0].ready_ns <= clock.now_ns:
            self._settle(self._queue.popleft())

    def _backpressure(self) -> None:
        """Stall until the in-flight window has room for one more epoch."""
        clock = self.pmo.nvbm.device.clock
        while len(self._queue) >= self.max_inflight:
            entry = self._queue.popleft()
            wait = entry.ready_ns - clock.now_ns
            if wait > 0:
                with clock.phase("persist.drain"):
                    clock.advance(wait, Category.MEM_NVBM)
                self.stats.stall_ns += wait
                self.stats.backpressure_waits += 1
            self._settle(entry)

    def drain_all(self) -> None:
        """Barrier: wait out and settle every in-flight epoch.

        Residual waits count as stalls — at a barrier there is no compute
        left to hide them behind.
        """
        clock = self.pmo.nvbm.device.clock
        while self._queue:
            entry = self._queue.popleft()
            wait = entry.ready_ns - clock.now_ns
            if wait > 0:
                with clock.phase("persist.drain"):
                    clock.advance(wait, Category.MEM_NVBM)
                self.stats.stall_ns += wait
            self._settle(entry)

    def _settle(self, entry: InFlightEpoch) -> None:
        """Execute one epoch's durability actions (its time is already on
        the clock via the cost model, so the actions run unmetered)."""
        from repro.core.pmoctree import SLOT_PREV

        pmo = self.pmo
        nvbm = pmo.nvbm
        with self.pmo._obs_span("pm.persist.drain", epoch=entry.epoch):
            with nvbm.device.unmetered():
                half = len(entry.pending) // 2
                if half:
                    nvbm.flush_records(entry.pending[:half])
                pmo.injector.site(sites.EPOCH_DRAIN_MID)
                nvbm.flush_records(entry.pending[half:])
                pmo.injector.site(sites.EPOCH_COMMIT_PRE_PUBLISH)
                # THE commit point: one atomic 8-byte root-slot store.
                nvbm.roots.set(SLOT_PREV, entry.root)
                # Superseded records were reachable from the root published
                # a moment ago's *predecessor*; only now that V_{i-1} moved
                # past them may they be marked as GC food.
                nvbm.flush_records(pmo._mark_deleted(entry.superseded))
        tracer = getattr(nvbm, "tracer", None)
        epoch_close = getattr(tracer, "on_epoch_close", None)
        if epoch_close is not None and entry.window:
            epoch_close(entry.window)
        self.stats.drained += 1

    # -- crash / teardown ---------------------------------------------------

    def reset(self) -> None:
        """Drop all in-flight state (a crash voided it with the caches)."""
        self._queue.clear()
        self._engine_free_ns = self.pmo.nvbm.device.clock.now_ns
