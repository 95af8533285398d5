"""The *Partition* meshing routine: weighted incremental SFC re-balancing.

Octants live on the Z-order space-filling curve; partitioning cuts the curve
into P contiguous ranges.  Three things distinguish this from the classic
equal-count eager scheme (and track what Fig 7's 56 %-at-1000-ranks cost
actually pays for):

* **Work-weighted cuts** — each octant carries a cost weight (solver feature
  intensity + refine/coarsen churn, see
  :func:`repro.solver.features.partition_work_weights`); the cut targets
  equal *work* per rank, Salmon-style, so interface-heavy droplet ranges
  stop dominating wall-clock even when leaf counts look balanced.
* **Threshold-triggered** — a cheap allgather estimates the weighted
  imbalance (max/mean rank load); when it is under the caller's threshold
  the repartition is skipped outright and no octant moves.
* **Incremental migration** — a *triggered* repartition does not jump to
  the ideal cut (which chases the moving interface and re-ships octants
  every step): each standing cut is clamped into the widest window that
  still fits every rank's load under a cap, so only the octants needed to
  repair the violation cross a boundary.  They ship in coalesced
  per-destination batches; the wire and the receiving device are charged
  for the actual record bytes packed.  Without a threshold (eager mode)
  the ideal Salmon cuts are used.

Migration is crash-consistent: every batch is journalled
(:class:`MigrationLog`) and follows **publish-before-retire** ordering —
octants are durably published at the receiver before the sender retires its
copies.  The registered crash sites (``migrate.pre_publish``,
``migrate.mid_batch``, ``migrate.pre_retire``) tear the protocol at each
stage, and :func:`recover_migration` re-drives a published batch forward or
rolls a partial publish back, never losing or duplicating an octant.
Recovery itself exposes ``migrate.recover.mid`` so the sweep can lose power
again mid-repair and prove both arms idempotent.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CACHE_LINE_SIZE, OCTANT_RECORD_SIZE
from repro.errors import PartitionError
from repro.nvbm import sites
from repro.nvbm.clock import Category
from repro.octree.linear import LinearOctree
from repro.parallel.sfc import weighted_cut_indices
from repro.parallel.simmpi import SimCommunicator

#: Cache lines one packed octant record spans — what packing at the sender
#: and publishing at the receiver charge the memory device for.
RECORD_LINES = -(-OCTANT_RECORD_SIZE // CACHE_LINE_SIZE)

#: Wire retransmits per batch before migration declares the link dead.
MAX_SEND_RETRIES = 16


@dataclass
class PartitionResult:
    """Outcome of one repartitioning step."""

    pieces: List[LinearOctree]
    octants_moved: int
    bytes_moved: int
    skipped: bool = False
    #: weighted max/mean rank load *before* the cut (what the threshold saw)
    imbalance: float = 1.0
    #: weighted max/mean rank load after the cut (== before when skipped)
    imbalance_after: float = 1.0
    #: per-rank weighted loads after the cut
    weighted_loads: List[float] = field(default_factory=list)
    #: heaviest single octant — the unsplittable unit bounding any cut
    max_weight: float = 0.0
    send_retries: int = 0

    @property
    def balanced(self) -> bool:
        """Weighted balance verdict.

        Raw leaf counts are meaningless once cuts are weight-based: a rank
        holding few heavy interface octants is *balanced*.  The achievable
        bound for contiguous cuts of unsplittable octants is
        ``max_load <= mean_load + max_weight`` (Salmon); that is what is
        checked.  Unit weights reduce it to the old count criterion.
        """
        loads = self.weighted_loads
        if not loads:
            return True
        mean = sum(loads) / len(loads)
        if mean <= 0:
            return True
        return max(loads) <= mean + self.max_weight + 1e-9


# --------------------------------------------------------------- migration

@dataclass
class MigrationEntry:
    """One journalled batch.  ``state`` walks pending -> published ->
    retired; recovery may leave it ``rolled-back`` instead."""

    src: int
    dst: int
    locs: Tuple[int, ...]
    state: str = "pending"

    def published(self) -> None:
        self.state = "published"

    def retired(self) -> None:
        self.state = "retired"


class MigrationLog:
    """Durable journal of migration batches.

    Models the small persistent record each endpoint flushes before acting
    (the same assumption the replication protocol makes about its sequence
    numbers): the journal survives a crash, so recovery can tell a batch
    that never published from one that published but did not retire.
    """

    def __init__(self) -> None:
        self.entries: List[MigrationEntry] = []

    def begin(self, src: int, dst: int,
              locs: Sequence[int]) -> MigrationEntry:
        entry = MigrationEntry(src=src, dst=dst,
                               locs=tuple(int(x) for x in locs))
        self.entries.append(entry)
        return entry

    @property
    def in_flight(self) -> List[MigrationEntry]:
        return [e for e in self.entries
                if e.state in ("pending", "published")]


class MigrationState:
    """Per-rank octant stores plus the journal, recoverable mid-flight.

    :func:`repartition` materialises the pieces into plain ``{loc:
    payload}`` stores so a torn migration can be repaired record-by-record;
    callers that arm crash sites keep the handle and run
    :func:`recover_migration` on it after the simulated power loss.
    """

    def __init__(self) -> None:
        self.dim = 2
        self.max_level = 0
        self.stores: List[Dict[int, np.ndarray]] = []
        self.weight_of: Dict[int, float] = {}
        self.log = MigrationLog()

    def load(self, pieces: Sequence[LinearOctree],
             wlists: Sequence[np.ndarray], max_level: int) -> None:
        self.dim = pieces[0].dim
        self.max_level = max_level
        self.stores = []
        self.weight_of = {}
        for piece, w in zip(pieces, wlists):
            store: Dict[int, np.ndarray] = {}
            for j in range(len(piece)):
                loc = int(piece.locs[j])
                store[loc] = np.array(piece.payloads[j], dtype=np.float64)
                self.weight_of[loc] = float(w[j])
            self.stores.append(store)

    def loads(self) -> List[float]:
        return [sum(self.weight_of.get(loc, 1.0) for loc in store)
                for store in self.stores]

    def total_octants(self) -> int:
        return sum(len(store) for store in self.stores)

    def all_locs(self) -> set:
        out: set = set()
        for store in self.stores:
            out.update(store)
        return out

    def rebuild_pieces(self) -> List[LinearOctree]:
        """New linear octrees from the stores.  Every piece — including one
        that owns zero leaves after the cut — carries the *forest's* agreed
        ``max_level``, not a stale peer value, so Z keys stay comparable
        across ranks and across steps."""
        out: List[LinearOctree] = []
        for store in self.stores:
            locs = list(store)
            payloads = (np.vstack([store[loc] for loc in locs])
                        if locs else None)
            out.append(LinearOctree(self.dim, locs, payloads,
                                    max_level=self.max_level))
        return out


@dataclass
class MigrationRecovery:
    """What :func:`recover_migration` did to the torn batches."""

    redriven: int = 0
    rolled_back: int = 0


def recover_migration(state: MigrationState,
                      injector=None) -> MigrationRecovery:
    """Repair a migration torn by a crash, from the journal alone.

    Publish-before-retire makes the decision local to each batch's state:

    * ``published`` — the receiver durably owns every record, only the
      sender's retire is missing: **re-drive** forward by finishing the
      retire (idempotent — pops that already happened are no-ops).
    * ``pending`` — the publish never committed (crash before or mid
      publish): **roll back** the receiver's partial records; the sender
      never retired anything, so it still owns the whole batch.

    Either way each octant ends in exactly one store and no payload is
    altered.  Recovery is itself crash-consistent: a power loss mid-repair
    (``migrate.recover.mid``, armed via ``injector``) leaves every batch
    either fully repaired or untouched in the journal, so recovery simply
    re-runs — both arms are idempotent.
    """
    rec = MigrationRecovery()
    for entry in state.log.entries:
        if entry.state == "published":
            if injector is not None:
                injector.site(sites.MIGRATE_RECOVER_MID)
            for loc in entry.locs:
                state.stores[entry.src].pop(loc, None)
            entry.state = "retired"
            rec.redriven += 1
        elif entry.state == "pending":
            if injector is not None:
                injector.site(sites.MIGRATE_RECOVER_MID)
            for loc in entry.locs:
                state.stores[entry.dst].pop(loc, None)
            entry.state = "rolled-back"
            rec.rolled_back += 1
    return rec


def audit_migration(state: MigrationState, truth: Dict[int, tuple],
                    comm: SimCommunicator) -> Optional[str]:
    """The migration invariant, checked after :func:`recover_migration`.

    ``truth`` is the forest's ``{loc: payload}`` before the torn migration.
    Returns the first breach as text, ``None`` when the invariant holds:
    no octant in two ranks' stores, none lost, every payload intact, the
    journal empty, and the repartition — simply re-driven over ``comm``
    from the recovered stores — completes with a balanced cut.  A re-drive
    the interconnect refuses raises its :class:`~repro.errors.ReproError`;
    whether that is a finding is the caller's call (a lossy chaos link is
    not a recovery bug).
    """
    seen: Dict[int, tuple] = {}
    for store in state.stores:
        for loc, row in store.items():
            if loc in seen:
                return f"octant {loc:#x} duplicated across ranks"
            seen[int(loc)] = tuple(float(v) for v in row)
    if set(seen) != set(truth):
        return f"octants lost: {len(truth) - len(seen)} missing"
    torn = sum(seen[loc] != tuple(truth[loc]) for loc in truth)
    if torn:
        return f"payload torn on {torn} octants"
    if state.log.in_flight:
        return f"{len(state.log.in_flight)} batches left in flight"
    pieces = state.rebuild_pieces()
    res = repartition(comm, pieces, weights=[
        [state.weight_of[int(loc)] for loc in piece.locs]
        for piece in pieces])
    if not res.balanced:
        return f"re-driven cut unbalanced: {res.imbalance_after:.3f}"
    return None


# ------------------------------------------------------------- repartition

def _incremental_cut_indices(weights: np.ndarray, old_bounds: np.ndarray,
                             parts: int, cap: float) -> List[int]:
    """Minimal-movement cuts: clamp the standing cuts into feasibility.

    Walking boundaries left to right, cut ``r`` may sit anywhere in
    ``[lo, hi]`` where ``hi`` keeps rank ``r-1``'s load under ``cap`` and
    ``lo`` leaves little enough weight that the remaining ranks can still
    each fit under ``cap``.  The standing cut is clamped into that window,
    so a cut that is already feasible does not move at all and a triggered
    repartition ships only the octants a violation actually requires —
    instead of re-deriving the ideal cut, which tracks the moving interface
    and re-ships octants every step.  Falls back to the ideal Salmon cuts
    (:func:`weighted_cut_indices`) when clamping cannot satisfy ``cap``
    (pathological weight spikes); callers guarantee feasibility in the
    common case by choosing ``cap >= mean_load + max_weight``.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    max_w = float(w.max()) if n else 0.0
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    total = float(prefix[-1])
    bounds = [0]
    for r in range(1, parts):
        lo_val = total - (parts - r) * cap
        hi_val = prefix[bounds[-1]] + cap
        lo = int(np.searchsorted(prefix, lo_val - 1e-9, side="left"))
        hi = int(np.searchsorted(prefix, hi_val + 1e-9, side="right")) - 1
        lo = max(lo, bounds[-1])
        hi = min(hi, n)
        if lo > hi:
            # index granularity emptied the window: no prefix point lands
            # between the suffix and capacity constraints.  Take ``lo`` —
            # the suffix constraint stays exact and the previous rank
            # overflows ``cap`` by less than one octant's weight.
            bounds.append(lo)
            continue
        bounds.append(min(max(int(old_bounds[r]), lo), hi))
    bounds.append(n)
    worst = max(float(prefix[b] - prefix[a])
                for a, b in zip(bounds, bounds[1:]))
    if worst <= cap + max_w + 1e-6:
        return bounds
    return weighted_cut_indices(w, parts)


def repartition(comm: SimCommunicator,
                pieces: List[LinearOctree],
                *,
                weights: Optional[Sequence[np.ndarray]] = None,
                threshold: Optional[float] = None,
                obs=None,
                injector=None,
                state: Optional[MigrationState] = None,
                max_send_retries: int = MAX_SEND_RETRIES) -> PartitionResult:
    """Rebalance per-rank linear octrees onto weighted SFC ranges.

    ``pieces[i]`` is rank i's current set of leaves (globally disjoint,
    together tiling the domain, in global curve order).  ``weights[i]``
    gives one non-negative cost weight per octant of ``pieces[i]``; omitted
    weights mean count balancing.  With ``threshold`` set, the repartition
    is skipped entirely when the current weighted imbalance (max/mean rank
    load) is at or under it — the estimator costs one allgather.

    Only boundary-crossing octants are migrated, in coalesced
    per-destination batches following publish-before-retire ordering (see
    module docstring).  ``injector`` arms the ``migrate.*`` crash sites;
    ``state`` (a caller-held :class:`MigrationState`) is what
    :func:`recover_migration` repairs if the crash fires.  Over a
    :class:`~repro.parallel.faults.FaultyNetwork`, dropped batches are
    retransmitted (bounded by ``max_send_retries``) and duplicated
    deliveries are ignored via the journal, so lossy links cannot lose or
    duplicate octants.
    """
    nranks = comm.size
    if len(pieces) != nranks:
        raise PartitionError(f"expected {nranks} pieces, got {len(pieces)}")
    dim = pieces[0].dim
    # the empty-piece fix: an empty piece's max_level is a stale peer value,
    # not evidence about the forest — agree on depth from non-empty pieces
    levels = [p.max_level for p in pieces if len(p)]
    max_level = max(levels) if levels else 0

    if weights is None:
        wlists = [np.ones(len(p), dtype=np.float64) for p in pieces]
    else:
        wlists = [np.asarray(w, dtype=np.float64) for w in weights]
        for p, w in zip(pieces, wlists):
            if len(w) != len(p):
                raise PartitionError(
                    f"one weight per octant required: piece has {len(p)}, "
                    f"weights {len(w)}")
            if len(w) and float(w.min()) < 0:
                raise PartitionError("octant weights must be non-negative")

    loads = [float(w.sum()) for w in wlists]

    # Step 1: agree on global counts, weighted loads and forest depth.
    gathered = comm.allgather(
        [(len(p), load) for p, load in zip(pieces, loads)], nbytes_each=16)
    counts = [c for c, _ in gathered]
    total = sum(counts)
    if total == 0:
        raise PartitionError("cannot partition an empty forest")
    total_w = sum(load for _, load in gathered)
    if total_w <= 0.0:
        # degenerate all-zero weights: count balancing
        wlists = [np.ones(len(p), dtype=np.float64) for p in pieces]
        loads = [float(len(p)) for p in pieces]
        total_w = float(total)
    mean_load = total_w / nranks
    imbalance = max(loads) / mean_load
    max_w = max((float(w.max()) for w in wlists if len(w)), default=0.0)
    if obs is not None:
        obs.metrics.gauge("partition.imbalance").set(imbalance)

    if threshold is not None and imbalance <= threshold:
        if obs is not None:
            obs.metrics.counter("partition.skipped").inc()
        return PartitionResult(
            pieces=list(pieces), octants_moved=0, bytes_moved=0,
            skipped=True, imbalance=imbalance, imbalance_after=imbalance,
            weighted_loads=loads, max_weight=max_w,
        )

    # Step 2: cut the global curve order.  Eager mode (no threshold) takes
    # the ideal Salmon weighted prefix cuts; a threshold-triggered call
    # instead moves the standing cuts minimally — just far enough to bring
    # every rank under the load cap.  Destination of global index g is the
    # cut range containing it.
    all_w = np.concatenate(wlists)
    prefix = np.concatenate(([0], np.cumsum(counts)))
    if threshold is not None:
        cap = max(threshold * mean_load, mean_load + max_w)
        bounds = np.asarray(
            _incremental_cut_indices(all_w, prefix, nranks, cap),
            dtype=np.int64)
    else:
        bounds = np.asarray(weighted_cut_indices(all_w, nranks),
                            dtype=np.int64)
    sends: List[Dict[int, List[int]]] = []
    for r, piece in enumerate(pieces):
        outbox: Dict[int, List[int]] = {}
        if len(piece):
            gidx = prefix[r] + np.arange(len(piece))
            dsts = np.minimum(
                np.searchsorted(bounds, gidx, side="right") - 1, nranks - 1)
            for j, dst in enumerate(dsts):
                if int(dst) != r:
                    outbox.setdefault(int(dst), []).append(
                        int(piece.locs[j]))
        sends.append(outbox)
    moved = sum(len(batch) for outbox in sends for batch in outbox.values())
    bytes_moved = moved * OCTANT_RECORD_SIZE

    # Step 3: migrate only the boundary crossers, publish-before-retire.
    if state is None:
        state = MigrationState()
    state.load(pieces, wlists, max_level)
    retries = _migrate(comm, state, sends, injector, obs, max_send_retries)

    new_pieces = state.rebuild_pieces()
    if state.total_octants() != total:
        raise PartitionError(
            f"octants lost in flight: had {total}, "
            f"now {state.total_octants()}")
    if len(state.all_locs()) != total:
        raise PartitionError("octants owned by more than one rank")
    new_loads = state.loads()
    imbalance_after = (max(new_loads) / mean_load) if mean_load > 0 else 1.0
    if obs is not None:
        obs.metrics.counter("partition.octants_moved").inc(moved)
        obs.metrics.counter("partition.bytes_moved").inc(bytes_moved)
    return PartitionResult(
        pieces=new_pieces, octants_moved=moved, bytes_moved=bytes_moved,
        skipped=False, imbalance=imbalance, imbalance_after=imbalance_after,
        weighted_loads=new_loads, max_weight=max_w, send_retries=retries,
    )


def _migrate(comm: SimCommunicator, state: MigrationState,
             sends: Sequence[Dict[int, List[int]]], injector, obs,
             max_send_retries: int) -> int:
    """Ship the batches; returns the total wire retransmits.

    Per batch, in order: journal ``begin`` -> [``migrate.pre_publish``] ->
    wire transfer (retried over a lossy link) -> publish every record at
    the receiver ([``migrate.mid_batch``] between records) -> journal
    ``published`` -> [``migrate.pre_retire``] -> retire at the sender ->
    journal ``retired``.
    """
    network = comm.network
    faulty = getattr(network, "plan", None) is not None \
        and hasattr(network, "send")
    comm.barrier()
    retries = 0
    outer = (obs.tracer.span("partition.migrate", ranks=comm.size)
             if obs is not None else nullcontext())
    with outer:
        for src, outbox in enumerate(sends):
            ctx_src = comm.ranks[src]
            src_store = state.stores[src]
            for dst in sorted(outbox):
                batch = outbox[dst]
                ctx_dst = comm.ranks[dst]
                dst_store = state.stores[dst]
                nbytes = len(batch) * OCTANT_RECORD_SIZE
                entry = state.log.begin(src, dst, batch)
                # sender packs the records: read the actual bytes
                dram_src = ctx_src.resources.get("dram")
                if dram_src is not None:
                    ctx_src.clock.advance(
                        len(batch) * RECORD_LINES
                        * dram_src.spec.read_latency_ns,
                        Category.MEM_DRAM)
                if injector is not None:
                    injector.site(sites.MIGRATE_PRE_PUBLISH)
                span = (obs.tracer.span("migrate.batch", src=src, dst=dst,
                                        octants=len(batch))
                        if obs is not None else nullcontext())
                with span:
                    attempts = 0
                    while True:
                        attempts += 1
                        if faulty:
                            delivery = network.send(
                                src, dst, nbytes,
                                now_ns=ctx_src.clock.now_ns)
                            ctx_src.clock.advance(delivery.cost_ns,
                                                  Category.COMM)
                            if delivery.delivered:
                                ctx_dst.clock.advance(delivery.cost_ns,
                                                      Category.COMM)
                                break
                            retries += 1
                            if attempts > max_send_retries:
                                raise PartitionError(
                                    f"migration batch {src}->{dst} "
                                    f"undeliverable after "
                                    f"{max_send_retries} retransmits "
                                    f"({delivery.reason})")
                        else:
                            cost = network.p2p_ns(nbytes)
                            ctx_src.clock.advance(cost, Category.COMM)
                            ctx_dst.clock.advance(cost, Category.COMM)
                            break
                    # receiver publishes each record durably; duplicated
                    # deliveries re-send a batch the journal already tracks
                    # and publishing is keyed by loc, so they are ignored
                    for k, loc in enumerate(batch):
                        if k and injector is not None:
                            injector.site(sites.MIGRATE_MID_BATCH)
                        dst_store[loc] = src_store[loc]
                    dram_dst = ctx_dst.resources.get("dram")
                    if dram_dst is not None:
                        ctx_dst.clock.advance(
                            len(batch) * RECORD_LINES
                            * dram_dst.spec.write_latency_ns,
                            Category.MEM_DRAM)
                    entry.published()
                if injector is not None:
                    injector.site(sites.MIGRATE_PRE_RETIRE)
                for loc in batch:
                    del src_store[loc]
                entry.retired()
    comm.barrier()
    return retries
