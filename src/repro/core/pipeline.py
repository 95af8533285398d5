"""The persist point (§3.2) as an epoch pipeline: merge C0 into C1, flush,
then publish the root with one atomic 8-byte store.

There is one protocol and one body for it, in two phases;
``max_inflight`` only sizes the window of epochs whose flush train may
still be draining when :meth:`EpochPipeline.enqueue` returns:

**enqueue** (compute path)
    The C0 merge runs at once — its *state* mutations must be visible to
    step i+1.  The epoch's durability obligations (the dirty-record
    snapshot, the root to publish, the superseded records to mark, the
    detached records GC must pin) are captured in an
    :class:`InFlightEpoch`.  The tree's epoch counter advances at enqueue,
    so step i+1's mutations COW the snapshot's records instead of
    rewriting them in place — the snapshot is immutable from the moment it
    is taken.

**settle** (the drain)
    Flush the snapshot, the atomic root-slot publish (THE commit point),
    hand the tree's replica sessions the epoch's *write set* — the NVBM
    slots it allocated (the arena's ``alloc_log``) less those it discarded
    in place or detached again, and its departures less those same slots —
    mark the superseded records, flush the marks.  (The dirty snapshot is
    no write set: epoch i-1's settle may flush a slot epoch i reused.)

A window of 0 settles the epoch inline, metered, before ``persist()``
returns: the synchronous persist point, a capsule (Blelloch et al.) that
drains before it returns.  It schedules no background drain, so
``drain_ns`` and ``stall_ns`` stay 0.

A window of k >= 1 is Ben-David et al.'s delay-free overlap: the merge's
NVBM write time is redirected into a per-epoch :class:`DrainCost`
(:meth:`repro.nvbm.device.MemoryDevice.deferred_writes`) and the epoch
queues behind a single FIFO flush engine — epoch i's drain completes at
``ready_i = max(enqueue_now, ready_{i-1}) + cost_i`` on the simulated
clock.  Its actions run unmetered (the cost model already accounted their
time) when it settles: at the next enqueue once ``ready_ns`` has passed
(it genuinely overlapped), via **backpressure** when the window is full
(the clock advances to the oldest epoch's ``ready_ns``; the wait is a
*stall*, charged under the ``persist.drain`` phase), or at
:meth:`EpochPipeline.drain_all`'s barrier.

A queued epoch's stores still sit in the volatile write-back cache until
its settle, so a crash mid-flight tears them while the root slot still
names the previous published epoch — recovery lands on epoch *i* or
*i−1*, never a blend.  The registered sites, in protocol order:
``epoch.overlap.next_step`` (an enqueue reached while an epoch drains),
``persist.begin``, ``persist.before_flush`` (merged, nothing flushed), and
in the settle ``epoch.drain.mid`` (part of a queued snapshot flushed),
``persist.before_root_swap`` and ``persist.after_root_swap``.

``overlap_fraction = 1 - stall_ns / drain_ns`` is the headline number: the
fraction of total drain time that disappeared behind compute.
"""

from __future__ import annotations

import weakref
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
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
    """One epoch's durability obligations and schedule."""

    epoch: int            #: the PM-octree epoch this drain will publish
    root: int             #: NVBM root handle to publish at the commit point
    pending: List[int]    #: dirty-record snapshot the drain must flush
    superseded: List[int]  #: COW originals to mark deleted *after* publish
    #: non-COW departures from the working version (coarsened old-epoch
    #: children, merge-replaced origins) — GC pins, never marked deleted
    detached: List[int]
    written: List[int]    #: records the publish adds (the write set)
    dropped: List[int]    #: records the publish removes
    window: int           #: tracker epoch-window id (0 when no tracker)
    ready_ns: float = 0.0  #: sim time its background drain completes


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
    compute clock until the oldest epoch's drain completes.  0 settles
    every epoch before its enqueue returns.
    """

    def __init__(self, pmo: "PMOctree", max_inflight: int = 1):
        if max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {max_inflight}"
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
        published root (no second walk of a 99%-shared tree).
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
        """One persist point; returns the new persistent root handle
        (published before this returns at a window of 0, at the epoch's
        settle otherwise)."""
        from repro.core.merge import merge_all_c0

        pmo = self.pmo
        if keep_resident is None:
            keep_resident = transform
        # Settle every epoch whose background drain already completed, so
        # the queue holds only genuinely in-flight work; a crash at the
        # overlap site then tears exactly the epochs that were still
        # draining.
        clock = pmo.nvbm.device.clock
        while self._queue and self._queue[0].ready_ns <= clock.now_ns:
            self._settle(self._queue.popleft())
        if self._queue:
            pmo.injector.site(sites.EPOCH_OVERLAP_NEXT_STEP)
        self._wait_out(max(self.max_inflight - 1, 0), backpressure=True)

        cost = DrainCost() if self.max_inflight else None
        pmo.injector.site(sites.PERSIST_BEGIN)
        pmo.merging = True
        try:
            with pmo.nvbm.device.deferred_writes(cost):
                root = merge_all_c0(pmo, keep_resident=keep_resident)
            if not is_nvbm(root):
                raise ConsistencyError("root still volatile after merge")
        finally:
            pmo.merging = False
        pmo.injector.site(sites.PERSIST_BEFORE_FLUSH)

        pending = pmo.nvbm.dirty_handles()
        allocs, pmo.nvbm.alloc_log = pmo.nvbm.alloc_log, {}
        tracer = getattr(pmo.nvbm, "tracer", None)
        epoch_open = getattr(tracer, "on_epoch_open", None)
        entry = InFlightEpoch(
            epoch=pmo.epoch, root=root, pending=pending,
            superseded=list(pmo._superseded), detached=list(pmo._detached),
            written=[h for h, kept in allocs.items() if kept],
            dropped=[h for h in (*pmo._superseded, *pmo._detached)
                     if h not in allocs],
            window=epoch_open(pending) if epoch_open is not None else 0,
        )
        pmo._superseded.clear()
        pmo._detached.clear()
        pmo.epoch += 1
        pmo.stats.persists += 1
        self.stats.enqueued += 1
        if cost is None:
            self._settle(entry)
        else:
            # The drain train's device time: the deferred merge writes, a
            # fence for the snapshot flush, the 8-byte publish, one
            # single-line store per superseded mark, and the closing fence.
            write_ns = pmo.nvbm.device.spec.write_latency_ns
            cost_ns = (cost.ns + FENCE_NS + write_ns
                       + len(entry.superseded) * write_ns + FENCE_NS)
            entry.ready_ns = max(clock.now_ns, self._engine_free_ns) + cost_ns
            self._engine_free_ns = entry.ready_ns
            self._queue.append(entry)
            self.stats.drain_ns += cost_ns
            self.stats.max_inflight_seen = max(self.stats.max_inflight_seen,
                                               len(self._queue))

        if keep_resident and not transform and not pmo._c0_roots:
            # Static (brute-force) layout: when pressure evictions have
            # emptied C0, re-fill it with the first subtree that fits, by
            # locational-code order — no access-pattern knowledge (Fig 5a).
            pmo._load_static_chunk()
        pmo._after_persist(transform)
        return root

    # -- the drain ---------------------------------------------------------

    def _wait_out(self, keep: int, backpressure: bool = False) -> None:
        """Stall until at most ``keep`` epochs are in flight, settling the
        oldest ones.  The waits count as stalls: no compute is left to
        hide them behind."""
        clock = self.pmo.nvbm.device.clock
        while len(self._queue) > keep:
            entry = self._queue.popleft()
            wait = entry.ready_ns - clock.now_ns
            if wait > 0:
                with clock.phase("persist.drain"):
                    clock.advance(wait, Category.MEM_NVBM)
                self.stats.stall_ns += wait
                if backpressure:
                    self.stats.backpressure_waits += 1
            self._settle(entry)

    def drain_all(self) -> None:
        """Barrier: wait out and settle every in-flight epoch."""
        self._wait_out(0)

    def _settle(self, entry: InFlightEpoch) -> None:
        """Execute one epoch's durability actions: metered when the window
        is 0, unmetered otherwise (the cost model put their time on the
        clock at enqueue)."""
        from repro.core.pmoctree import SLOT_PREV

        pmo = self.pmo
        nvbm = pmo.nvbm
        inline = not self.max_inflight
        with pmo._obs_span("pm.persist.drain", epoch=entry.epoch), \
                (nullcontext() if inline else nvbm.device.unmetered()):
            # an inline flush stays whole: a split would cost a fence
            half = 0 if inline else len(entry.pending) // 2
            if half:
                nvbm.flush_records(entry.pending[:half])
            pmo.injector.site(sites.EPOCH_DRAIN_MID)
            nvbm.flush_records(entry.pending[half:])
            pmo.injector.site(sites.PERSIST_BEFORE_ROOT_SWAP)
            with nvbm.device.unmetered():  # bookkeeping, not a device read
                base = nvbm.roots.get(SLOT_PREV)
            # THE commit point: one atomic 8-byte root-slot store.
            nvbm.roots.set(SLOT_PREV, entry.root)
            pmo._published(base, entry.root, entry.written, entry.dropped)
            pmo.injector.site(sites.PERSIST_AFTER_ROOT_SWAP)
            # Superseded records were reachable from the root published a
            # moment ago's *predecessor*; only now that V_{i-1} moved past
            # them may they be marked as GC food.
            marked = pmo._mark_deleted(entry.superseded)
            pmo.stats.partial_writes += len(marked)
            nvbm.flush_records(marked)
        epoch_close = getattr(getattr(nvbm, "tracer", None),
                              "on_epoch_close", None)
        if epoch_close is not None:
            epoch_close(entry.window)
        self.stats.drained += 1

    # -- crash / teardown ---------------------------------------------------

    def reset(self) -> None:
        """Drop all in-flight state (a crash voided it with the caches)."""
        self._queue.clear()
        self._engine_free_ns = self.pmo.nvbm.device.clock.now_ns
