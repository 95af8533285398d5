"""Remote replicas of the persistent version (§3.4, second scenario).

When a crashed node never comes back, the local NVBM is gone with it, so
PM-octree can keep a replica ``V_{i-1}^P`` of the persistent version on a
peer node.  Only *deltas* are shipped, which is cheap because the overlap
ratio between adjacent persistent versions is high (Fig 3).

A :class:`ReplicaSession` ships each DELTA ``(seq, base_root, written
records, dropped handles, new_root)`` through a sequenced, acknowledged,
idempotent protocol with backoff and a resync fallback.  Its base is the
last root the peer acknowledged; its content, the write sets that every
settle and media-repair republish hands the tree's sessions — so a slot
GC reused is replaced, not skipped as held.  No DELTA walks the tree or
reads the peer's store.  See ``docs/fault-tolerance.md``.

Recovering onto a replacement node materialises the replica into a fresh
NVBM arena.  Handles embed the arena they belong to, so every parent/child
pointer must be rewritten for the new arena — the pointer-swizzling chore
§1 says the library must hide from application developers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

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

#: Wire overhead of one DELTA message (seq, base root, new root, counts);
#: its dropped handles are not charged.
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
    replayed messages are classified instead of blindly applied.  The host
    reaches it only through messages: a DELTA or RESYNC, a new session's
    question whether it applied anything, and a repair's :meth:`fetch`.
    """

    def __init__(self) -> None:
        self.records: Dict[int, bytes] = {}
        self.root: int = NULL_HANDLE
        #: sequence number of the last applied delta (0 = nothing applied)
        self.applied_seq: int = 0

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
                    records: Dict[int, bytes], dropped: Iterable[int],
                    new_root: int, resync: bool = False) -> str:
        """Idempotently apply one DELTA — or, with ``resync``, replace the
        whole store unless it is a duplicate; returns the classification.
        The dropped handles go before the records are stored."""
        status = self.classify(seq, base_root, new_root)
        if status == "duplicate" or status == "diverged" and not resync:
            return status
        if resync:
            self.records = {}
        for h in dropped:
            self.records.pop(h, None)
        self.records.update(records)
        self.root = new_root
        self.applied_seq = seq
        return "applied"

    def fetch(self, handle: int) -> Optional[bytes]:
        """A repair's request for one record image (None: not held)."""
        return self.records.get(handle)


def _record_images(nvbm: MemoryArena, handles) -> Dict[int, bytes]:
    """``handle -> record bytes`` for ``handles``, in order: one metered
    whole-record :meth:`~repro.nvbm.arena.MemoryArena.read_field` each,
    as one gather."""
    blob = nvbm.read_rows(np.array(handles, dtype=np.uint64)).tobytes()
    return {h: blob[i * OCTANT_RECORD_SIZE:(i + 1) * OCTANT_RECORD_SIZE]
            for i, h in enumerate(handles)}


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
    monotonic ``next_seq``, ``peer_root`` (the last root the peer
    acknowledged) and the write sets composed since
    (:meth:`note_published`).  A fresh session sends an empty peer the
    whole published version; any other peer gets a DELTA built on the
    tree's published root at construction, which its fresh ``seq`` makes
    ``diverged``, and a full resync follows — always safe.

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
        #: the root the next DELTA is built on (NULL: the whole version);
        #: a session opens by asking the peer whether it applied anything
        self._base = NULL_HANDLE
        if self.replica.applied_seq:
            with pmo.nvbm.device.unmetered():
                self._base = pmo.nvbm.roots.get(SLOT_PREV)
        #: the root the composed write sets reach (None: a change did not
        #: chain on it, so only a resync brings the peer up to date)
        self._tip: Optional[int] = self._base
        #: the composition since ``_base``: records written and still
        #: published, ``_base``'s handles dropped, handles ``_base`` lacks
        self._written: Dict[int, None] = {}
        self._dropped: Set[int] = set()
        self._fresh: Set[int] = set()
        pmo._sessions.add(self)
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

    # -- the write sets ------------------------------------------------------

    def note_published(self, base: int, root: int, written: List[int],
                       dropped: List[int]) -> None:
        """Compose one change of the published version onto the DELTA.

        A handle the change drops that an earlier change wrote was never
        the peer's; one it writes that an earlier change dropped is a
        reused slot the peer still holds under its old record."""
        if self._base == NULL_HANDLE or self._tip is None:
            return  # the ship sends a whole version anyway
        if base != self._tip:
            self._tip = None
            return
        wrote, gone, was_dropped = set(written), set(dropped), self._dropped
        self._dropped = (was_dropped - wrote) | (gone - self._fresh)
        self._fresh = (self._fresh - gone) | (wrote - was_dropped)
        for h in dropped:
            self._written.pop(h, None)
        self._written.update(dict.fromkeys(written))
        self._tip = root

    def _whole_version(self, root: int) -> Dict[int, bytes]:
        """Every record of the version at ``root``: one walk."""
        pmo = self.pmo
        return _record_images(pmo.nvbm, list(pmo.reachable_from(root)))

    def _begin_resync(self, root: int) -> Dict[int, bytes]:
        """Count a resync and build its message: the whole version."""
        self.injector.site(sites.REPLICA_RESYNC_BEGIN)
        self.stats.resyncs += 1
        return self._whole_version(root)

    # -- the protocol --------------------------------------------------------

    def ship(self) -> ShipReport:
        """Ship the current persistent version until the peer acks it.

        Raises :class:`~repro.errors.ReplicationTimeoutError` after
        ``max_retries`` unacknowledged attempts, and
        :class:`~repro.errors.RecoveryError` when nothing was persisted.
        """
        root = self.pmo.nvbm.roots.get(SLOT_PREV)
        if root == NULL_HANDLE:
            raise RecoveryError("nothing persisted yet; no delta to replicate")
        seq, base, dropped = self.next_seq, self._base, list(self._dropped)
        if root == self.peer_root == self._tip and not self._written \
                and not dropped:
            # peer already holds this exact version: nothing to ship
            return ShipReport(seq - 1, 0, 0, 0, False, 0, 0.0)
        resync = resynced = base != NULL_HANDLE and self._tip != root
        if resync:
            records = self._begin_resync(root)
        elif base == NULL_HANDLE:
            records = self._whole_version(root)
        else:
            records = _record_images(self.pmo.nvbm, list(self._written))
        attempts = dups = 0
        wait_ns = 0.0
        last_reason = "delta lost"
        while attempts <= self.policy.max_retries:
            attempts += 1
            self.injector.site(sites.REPLICA_SHIP_BEFORE_SEND)
            d = self.transport.send_data(
                len(records) * OCTANT_RECORD_SIZE + DELTA_HEADER_BYTES)
            self._charge(d.cost_ns)
            if not d.delivered:
                self.stats.deltas_lost += 1
                last_reason = f"delta lost ({d.reason})" if d.reason \
                    else "delta lost"
            else:
                status, *copies = [
                    self.replica.apply_delta(seq, base, records, dropped,
                                             root, resync)
                    for _ in range(d.copies)]
                dups += copies.count("duplicate")
                if status == "diverged":  # a full resync, resent now:
                    resync = resynced = True  # the NACK came back, so
                    records = self._begin_resync(root)  # no timeout
                    continue
                self.injector.site(sites.REPLICA_SHIP_AFTER_APPLY)
                ack = self.transport.send_ack()
                self._charge(ack.cost_ns)
                if ack.delivered and not self.break_acks:
                    self.injector.site(sites.REPLICA_SHIP_BEFORE_ACK)
                    self.peer_root = self._base = self._tip = root
                    self._written, self._dropped, self._fresh = {}, set(), set()
                    self.next_seq = seq + 1
                    shipped = len(records) * OCTANT_RECORD_SIZE
                    self.stats.ships += 1
                    self.stats.bytes_shipped += shipped
                    self.stats.duplicates_ignored += dups
                    if self._m_attempts is not None:
                        self._m_attempts.observe(attempts)
                    return ShipReport(seq, shipped, len(records), attempts,
                                      resynced, dups, wait_ns)
                self.stats.acks_lost += 1
                last_reason = "ack lost"
            pause = self.policy.ack_timeout_ns + self.policy.backoff_ns(attempts)
            self._charge(pause)
            wait_ns += pause
            self.stats.retries += 1
            self.stats.wait_ns += pause
        raise ReplicationTimeoutError(seq, attempts, last_reason)


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
    new = nvbm.alloc_rows(len(replica.records))
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
    # pmlint: allow[bypass-cow]: every target slot was freshly
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
