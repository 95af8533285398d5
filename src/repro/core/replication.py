"""Remote replicas of the persistent version (§3.4, second scenario).

When a crashed node never comes back, the local NVBM is gone with it, so
PM-octree can keep a replica ``V_{i-1}^P`` of the persistent version on a
peer node.  Only *deltas* are shipped per persist — the records the peer has
not seen yet — which is cheap because the overlap ratio between adjacent
persistent versions is high (Fig 3).

Shipping is a real protocol, not a function call: a
:class:`ReplicaSession` sequences every delta, requires an acknowledgement
from the peer, retries with exponential backoff (charged to the simulated
clock) when the network loses the delta or the ack, is idempotent under
duplicate delivery, and falls back to a full resync when the peer's state
chain diverges from what the host expects.  See
``docs/fault-tolerance.md`` for the protocol state machine.

Recovering onto a replacement node materialises the replica into a fresh
NVBM arena.  Handles embed the arena they belong to, so every parent/child
pointer must be rewritten for the new arena — the pointer-swizzling chore
§1 says the library must hide from application developers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

import numpy as np

from repro.config import OCTANT_RECORD_SIZE, PMOctreeConfig
from repro.errors import RecoveryError, ReplicationTimeoutError
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import NULL_HANDLE
from repro.nvbm.records import as_records
from repro.parallel.faults import ACK_BYTES, Delivery, FaultyNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_PREV

#: Wire overhead of one DELTA message (seq, base root, new root, counts).
DELTA_HEADER_BYTES = 64


def choose_replica_peer(cluster, host_rank: int) -> Optional[int]:
    """Pick where to place ``V_{i-1}^P`` (the paper's §6 deferred feature).

    "V^P is stored on other compute nodes or staging nodes selected by job
    schedulers according to their NVBM utilization" — so: among alive ranks
    on *different nodes* than the host, choose the one whose NVBM arena has
    the most free space.  Returns None when no such rank exists (single-node
    cluster or everyone else dead), in which case replication degrades to
    host-only persistence.
    """
    host_node = cluster.ranks[host_rank].node
    best = None
    best_free = -1.0
    for ctx in cluster.ranks:
        if not ctx.alive or ctx.node == host_node:
            continue
        nvbm = ctx.resources.get("nvbm")
        if nvbm is None:
            continue
        if nvbm.free_fraction > best_free:
            best_free = nvbm.free_fraction
            best = ctx.rank
    return best


class ReplicaStore:
    """Holds record images of a persistent version, keyed by origin handle.

    The store is the *peer side* of the replication protocol: it tracks the
    monotonic sequence number of the last applied delta and only accepts a
    delta whose base root matches its current root — out-of-order or
    replayed messages are classified instead of blindly applied.
    """

    def __init__(self) -> None:
        self.records: Dict[int, bytes] = {}
        self.root: int = NULL_HANDLE
        #: sequence number of the last applied delta (0 = nothing applied)
        self.applied_seq: int = 0

    @property
    def known_handles(self) -> Set[int]:
        return set(self.records)

    def bytes_stored(self) -> int:
        return len(self.records) * OCTANT_RECORD_SIZE

    # -- protocol peer side --------------------------------------------------

    def classify(self, seq: int, base_root: int, new_root: int) -> str:
        """Triage one incoming DELTA header without touching state.

        * ``"duplicate"`` — this exact delta was already applied (a
          retransmit after a lost ack, or a network duplicate): re-ack.
        * ``"apply"`` — next in sequence and chained on our root: apply.
        * ``"diverged"`` — anything else; the sender must full-resync.
        """
        if seq <= self.applied_seq:
            return "duplicate" if new_root == self.root else "diverged"
        if seq == self.applied_seq + 1 and base_root == self.root:
            return "apply"
        return "diverged"

    def apply_delta(self, seq: int, base_root: int,
                    records: Dict[int, bytes], new_root: int,
                    reachable: Set[int]) -> str:
        """Idempotently apply one DELTA message; returns the classification."""
        status = self.classify(seq, base_root, new_root)
        if status != "apply":
            return status
        self.records.update(records)
        self.root = new_root
        # Drop records no longer part of the persistent version (the peer
        # garbage-collects too, or the replica would grow without bound).
        for h in list(self.records):
            if h not in reachable:
                del self.records[h]
        self.applied_seq = seq
        return "applied"

    def force_sync(self, seq: int, records: Dict[int, bytes],
                   root: int) -> None:
        """Full resync: replace the entire store (divergence recovery)."""
        self.records = dict(records)
        self.root = root
        self.applied_seq = seq


def compute_delta(pmo: "PMOctree", replica: ReplicaStore
                  ) -> Tuple[Dict[int, bytes], int, Set[int]]:
    """Records of the current persistent version the replica lacks.

    Returns ``(records, root_handle, reachable)`` — the reachable set is
    computed exactly once here and reused by the caller for replica GC
    (recomputing it per ship was a measurable waste; the regression test
    counts the traversals).  Raises when nothing was persisted.
    """
    root = pmo.nvbm.roots.get(SLOT_PREV)
    if root == NULL_HANDLE:
        raise RecoveryError("nothing persisted yet; no delta to replicate")
    reachable = pmo.reachable_from(root)
    delta = _record_images(
        pmo.nvbm, [h for h in reachable if h not in replica.records])
    return delta, root, reachable


def _record_images(nvbm: MemoryArena, handles) -> Dict[int, bytes]:
    """``handle -> record bytes`` for ``handles``, in order: one metered
    :meth:`~repro.nvbm.arena.MemoryArena.read` each, as one gather."""
    blob = nvbm.read_rows(np.array(handles, dtype=np.uint64)).tobytes()
    return {h: blob[i * OCTANT_RECORD_SIZE:(i + 1) * OCTANT_RECORD_SIZE]
            for i, h in enumerate(handles)}


def ship_delta(pmo: "PMOctree", replica: ReplicaStore) -> int:
    """Apply the delta to the replica directly; returns bytes shipped.

    This is the *perfect-network* path (one process, no loss): the caller
    charges the returned byte count to its network model.  Over a lossy
    network use :class:`ReplicaSession`, which adds sequencing, acks and
    retry/backoff on top of the same delta computation.
    """
    delta, root, reachable = compute_delta(pmo, replica)
    replica.records.update(delta)
    replica.root = root
    for h in list(replica.records):
        if h not in reachable:
            del replica.records[h]
    replica.applied_seq += 1
    return len(delta) * OCTANT_RECORD_SIZE


# --------------------------------------------------------------------- protocol


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff tunables for one replication session.

    All times are simulated nanoseconds; every wait is charged to the
    session clock so retry behaviour is visible in the makespan, not
    hidden in wall time.
    """

    ack_timeout_ns: float = 20_000.0
    base_backoff_ns: float = 50_000.0
    backoff_factor: float = 2.0
    max_retries: int = 8

    def backoff_ns(self, attempt: int) -> float:
        """Backoff charged after the ``attempt``-th failed try (1-based)."""
        return self.base_backoff_ns * self.backoff_factor ** (attempt - 1)


@dataclass
class ShipReport:
    """What one acknowledged ship actually took."""

    seq: int
    bytes_shipped: int
    records: int
    attempts: int
    resynced: bool
    duplicates_ignored: int
    wait_ns: float  #: timeout + backoff time charged to the sim clock


@dataclass
class SessionStats:
    ships: int = 0
    retries: int = 0
    resyncs: int = 0
    acks_lost: int = 0
    deltas_lost: int = 0
    duplicates_ignored: int = 0
    bytes_shipped: int = 0
    wait_ns: float = 0.0


class PerfectTransport:
    """Loss-free transport (single-process tests, staging links)."""

    def __init__(self, cost_ns_per_byte: float = 0.0):
        self.cost_ns_per_byte = cost_ns_per_byte

    def send_data(self, nbytes: int) -> Delivery:
        return Delivery(delivered=True, copies=1,
                        cost_ns=nbytes * self.cost_ns_per_byte)

    def send_ack(self) -> Delivery:
        return Delivery(delivered=True, copies=1,
                        cost_ns=ACK_BYTES * self.cost_ns_per_byte)


class FaultyTransport:
    """Host<->peer link over a :class:`FaultyNetwork`.

    Data messages travel host->peer; acks travel peer->host on the
    *reverse* link, so asymmetric fault plans behave correctly.
    """

    def __init__(self, network: FaultyNetwork, host_rank: int,
                 peer_rank: int, clock: Optional[SimClock] = None):
        self.network = network
        self.host_rank = host_rank
        self.peer_rank = peer_rank
        self.clock = clock

    def _now(self) -> float:
        return self.clock.now_ns if self.clock is not None else 0.0

    def send_data(self, nbytes: int) -> Delivery:
        return self.network.send(self.host_rank, self.peer_rank, nbytes,
                                 self._now())

    def send_ack(self) -> Delivery:
        return self.network.send(self.peer_rank, self.host_rank, ACK_BYTES,
                                 self._now())


class ReplicaSession:
    """Sequenced, acknowledged, idempotent delta shipping to one peer.

    Host-side state is volatile (it dies with the host process): the
    monotonic ``next_seq`` and ``peer_root`` — the persistent root the host
    believes the peer holds.  A freshly constructed session therefore
    assumes nothing (``peer_root = NULL``); if the peer's store is actually
    non-empty the first DELTA is classified ``diverged`` and the session
    falls back to a full resync, which is always safe.

    One ``ship()`` = one state-machine run::

        IDLE -> SEND_DELTA -> WAIT_ACK -> DONE
                   ^  |            |
                   |  +- diverged -+--> RESYNC (full records) -> WAIT_ACK
                   +--- timeout: backoff, retry (bounded) ------+

    Every lost delta or lost ack charges ``ack_timeout + backoff`` to the
    simulated clock; exhausting ``max_retries`` raises
    :class:`~repro.errors.ReplicationTimeoutError` — the host's own
    persistent version is unaffected, only remote protection stalls.

    ``break_acks=True`` makes the host ignore every acknowledgement — a
    deliberately broken protocol used to validate that the chaos harness
    detects replication that cannot converge.  Never set it outside tests.
    """

    def __init__(self, pmo: "PMOctree", replica: Optional[ReplicaStore] = None,
                 transport=None, clock: Optional[SimClock] = None,
                 policy: Optional[RetryPolicy] = None,
                 injector: Optional[FailureInjector] = None,
                 break_acks: bool = False):
        self._pmo = weakref.ref(pmo)
        self.replica = replica if replica is not None else ReplicaStore()
        self.transport = transport or PerfectTransport()
        self.clock = clock if clock is not None else pmo.nvbm.device.clock
        self.policy = policy or RetryPolicy()
        self.injector = injector or pmo.injector
        self.break_acks = break_acks
        self.next_seq = 1
        self.peer_root = NULL_HANDLE
        self.stats = SessionStats()
        #: attempts-per-acknowledged-ship histogram (attach_obs), or None
        self._m_attempts = None

    @property
    def pmo(self) -> "PMOctree":
        """The tree this session ships.  Weak, like ``EpochPipeline.pmo``:
        ``pmo.replicator`` points back here, and a tree a restore replaced
        should die by reference count."""
        return self._pmo()

    def attach_obs(self, obs, peer: str = "peer") -> None:
        """Report :class:`SessionStats` as ``replication.*`` counters of an
        :class:`repro.obs.Observability`, labeled by ``peer`` so
        multi-session rigs stay distinguishable, plus a histogram of
        attempts-per-acknowledged-ship (the one quantity with no stats
        field)."""
        obs.metrics.fold("replication", self.stats, peer=peer)
        self._m_attempts = obs.metrics.histogram(
            "replication.ship_attempts",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0), peer=peer)

    # -- helpers -------------------------------------------------------------

    def _charge(self, ns: float) -> None:
        if ns > 0 and self.clock is not None:
            self.clock.advance(ns, Category.COMM)

    @property
    def protected(self) -> bool:
        """True when the peer holds the host's current persistent version."""
        current = self.pmo.nvbm.roots.get(SLOT_PREV)
        return current != NULL_HANDLE and self.peer_root == current

    # -- the protocol --------------------------------------------------------

    def ship(self) -> ShipReport:
        """Ship the current persistent version until the peer acks it.

        Raises :class:`~repro.errors.ReplicationTimeoutError` after
        ``max_retries`` unacknowledged attempts, and
        :class:`~repro.errors.RecoveryError` when nothing was persisted.
        """
        delta, root, reachable = compute_delta(self.pmo, self.replica)
        if root == self.peer_root and self.replica.root == root:
            # peer already holds this exact version: nothing to ship
            return ShipReport(seq=self.next_seq - 1, bytes_shipped=0,
                              records=0, attempts=0, resynced=False,
                              duplicates_ignored=0, wait_ns=0.0)
        seq = self.next_seq
        base = self.peer_root
        records = delta
        resync = False
        resynced = False
        attempts = 0
        dups = 0
        wait_ns = 0.0
        last_reason = "delta lost"
        while attempts <= self.policy.max_retries:
            attempts += 1
            nbytes = len(records) * OCTANT_RECORD_SIZE + DELTA_HEADER_BYTES
            self.injector.site(sites.REPLICA_SHIP_BEFORE_SEND)
            d = self.transport.send_data(nbytes)
            self._charge(d.cost_ns)
            if d.delivered:
                status = self._peer_receive(seq, base, records, root,
                                            reachable, resync)
                if d.copies > 1:
                    for _ in range(d.copies - 1):
                        second = self._peer_receive(seq, base, records, root,
                                                    reachable, resync)
                        if second == "duplicate":
                            dups += 1
                if status in ("applied", "duplicate"):
                    self.injector.site(sites.REPLICA_SHIP_AFTER_APPLY)
                    ack = self.transport.send_ack()
                    self._charge(ack.cost_ns)
                    if ack.delivered and not self.break_acks:
                        self.injector.site(sites.REPLICA_SHIP_BEFORE_ACK)
                        self.peer_root = root
                        self.next_seq = seq + 1
                        shipped = len(records) * OCTANT_RECORD_SIZE
                        self.stats.ships += 1
                        self.stats.bytes_shipped += shipped
                        self.stats.duplicates_ignored += dups
                        if self._m_attempts is not None:
                            self._m_attempts.observe(attempts)
                        return ShipReport(
                            seq=seq, bytes_shipped=shipped,
                            records=len(records), attempts=attempts,
                            resynced=resynced, duplicates_ignored=dups,
                            wait_ns=wait_ns,
                        )
                    self.stats.acks_lost += 1
                    last_reason = "ack lost"
                else:  # diverged: switch to a full resync and resend now
                    self.injector.site(sites.REPLICA_RESYNC_BEGIN)
                    resync = resynced = True
                    self.stats.resyncs += 1
                    records = _record_images(self.pmo.nvbm, list(reachable))
                    continue  # the NACK came back; no timeout to wait out
            else:
                self.stats.deltas_lost += 1
                last_reason = f"delta lost ({d.reason})" if d.reason \
                    else "delta lost"
            pause = self.policy.ack_timeout_ns + self.policy.backoff_ns(attempts)
            self._charge(pause)
            wait_ns += pause
            self.stats.retries += 1
            self.stats.wait_ns += pause
        raise ReplicationTimeoutError(seq, attempts, last_reason)

    def _peer_receive(self, seq: int, base: int, records: Dict[int, bytes],
                      root: int, reachable: Set[int], resync: bool) -> str:
        """Deliver one DELTA/RESYNC message to the peer store."""
        if resync:
            status = self.replica.classify(seq, base, root)
            if status == "duplicate":
                return "duplicate"
            self.replica.force_sync(seq, records, root)
            return "applied"
        return self.replica.apply_delta(seq, base, records, root, reachable)


def restore_from_replica(replica: ReplicaStore, dram: MemoryArena,
                         nvbm: MemoryArena, dim: int = 2,
                         config: Optional[PMOctreeConfig] = None,
                         injector: Optional[FailureInjector] = None
                         ) -> "PMOctree":
    """Materialise a replica into fresh arenas on a replacement node.

    Every record is re-allocated in the new NVBM arena and its parent/child
    handles are swizzled through the old->new translation table; then the
    normal restore path takes over.
    """
    from repro.core.recovery import attach_and_restore

    if replica.root == NULL_HANDLE or not replica.records:
        raise RecoveryError("replica is empty; cannot recover from it")
    old = np.fromiter(replica.records, np.uint64, len(replica.records))
    new = np.array([nvbm.alloc() for _ in replica.records], dtype=np.uint64)
    by_old = np.argsort(old)
    old_sorted, new_sorted = old[by_old], new[by_old]

    def swizzle(handles: np.ndarray) -> np.ndarray:
        # Pointers into lost DRAM or to records outside the replica cannot
        # be followed on the new node; recovery never needs them.
        at = np.minimum(np.searchsorted(old_sorted, handles), old.size - 1)
        return np.where(old_sorted[at] == handles, new_sorted[at],
                        np.uint64(NULL_HANDLE))

    rows = np.frombuffer(b"".join(replica.records.values()),
                         dtype=np.uint8).reshape(-1, OCTANT_RECORD_SIZE).copy()
    recs = as_records(rows)
    recs["parent"] = swizzle(recs["parent"])
    recs["children"] = swizzle(recs["children"])
    recs["pad"] = 0
    recs["tail"] = 0
    # pmlint: allow-direct-write — every target slot was freshly
    # allocated above; nothing persistent can reach it yet.
    # pmlint: allow[raw-write]: materialising a replica record fills
    # every byte of a just-allocated slot — there is no smaller field
    # set to store.
    nvbm.write_rows(new, 0, rows)
    nvbm.flush()
    if injector is not None:
        injector.site(sites.REPLICA_BEFORE_PUBLISH)
    new_root = int(swizzle(np.array([replica.root], dtype=np.uint64))[0])
    nvbm.roots.set(SLOT_PREV, new_root)
    return attach_and_restore(dram, nvbm, dim=dim, config=config,
                              injector=injector)
