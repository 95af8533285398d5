"""Failure recovery (§3.4).

``pm_restore`` makes the working version identical to the last persistent
version: discard all volatile state, point ``V_i`` back at ``ADDR(V_{i-1})``,
and rebuild the (volatile) lookup structures by one traversal.  Octants that
only the crashed working version referenced are left for GC — recovery does
not wait for them, which is why it is near-instantaneous.

The traversal doubles as a consistency audit: invariant I2 guarantees every
record reachable from the persistent root was flushed before the root was
published and never mutated since, so any torn/deleted/mislinked record here
is a real bug and raises :class:`~repro.errors.ConsistencyError`.  The crash
tests hammer exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.config import OCTANT_RECORD_SIZE, PMOctreeConfig
from repro.core import walks
from repro.errors import (
    ConsistencyError,
    MediaError,
    MediaUnrepairableError,
    RecoveryError,
    ReplicationTimeoutError,
    ReproError,
)
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import Category
from repro.nvbm.device import LINES_PER_RECORD
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import (_INDEX_BITS, ARENA_NVBM, NULL_HANDLE,
                                 is_dram, is_nvbm)
from repro.nvbm.records import (FLAG_DELETED, FLAG_LEAF, OctantRecord,
                                as_records, pack_record, unpack_record)
from repro.octree import morton

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmoctree import PMOctree

from repro.core.pmoctree import SLOT_CURR, SLOT_PREV

#: Bounded read-retry budget: how many times the first rung of the repair
#: ladder re-reads a faulting record before escalating to a rebuild.
MEDIA_READ_RETRIES = 3


def restore_inplace(pmo: "PMOctree", replica=None, transport=None) -> int:
    """Reset ``pmo`` to its last persistent version; returns octant count.

    Media-aware: when the restore traversal surfaces a
    :class:`~repro.errors.MediaError` (rotted/stuck/worn lines, failed CRC),
    a :func:`scrub` pass runs the repair ladder — optionally rebuilding from
    ``replica`` over ``transport`` — and the traversal retries.  If the
    ladder runs out of redundancy a typed
    :class:`~repro.errors.MediaUnrepairableError` carries the lost loc set.
    """
    for _ in range(MEDIA_READ_RETRIES):
        try:
            return _restore_traverse(pmo)
        except MediaError:
            report = scrub(pmo, replica=replica, transport=transport)
            if report.unrepaired:
                raise MediaUnrepairableError(pmo.nvbm.name,
                                             report.unrepaired) from None
    return _restore_traverse(pmo)


def _restore_traverse(pmo: "PMOctree") -> int:
    pmo.merging = False
    # in-flight epochs died with the volatile caches; their publishes never
    # happened and must not be replayed against the restored tree
    pmo._pipeline.reset()
    root = pmo.nvbm.roots.get(SLOT_PREV)
    if root == NULL_HANDLE:
        raise RecoveryError("no persistent version exists (never persisted)")
    if not is_nvbm(root):
        raise ConsistencyError("persistent root is not an NVBM handle")
    pmo.nvbm.roots.set(SLOT_CURR, root)

    # Drop every volatile structure; anything DRAM-resident is gone anyway
    # after a real crash (callers crash the arenas first), and a voluntary
    # rollback must discard it too.
    for h in list(pmo.dram.live_handles()):
        pmo.dram.free(h)
    pmo._index.clear()
    pmo._leaf_set.clear()
    pmo._c0_roots.clear()
    pmo._origin.clear()
    pmo._dirty.clear()
    pmo._superseded.clear()
    pmo._detached.clear()
    pmo.nvbm.alloc_log = {}

    # One gather per tree level; ``locs``/``keys`` are what the walk
    # *expects* at each handle, derived from the parent's.
    nvbm = pmo.nvbm
    dim = pmo.dim
    fanout = morton.fanout(dim)
    child_slots = np.arange(fanout, dtype=np.uint64)
    handles = np.array([root], dtype=np.uint64)
    locs = np.array([morton.ROOT_LOC], dtype=np.uint64)
    keys = np.zeros(1, dtype=np.uint64)
    level = 0
    max_epoch = 0
    visited = []  # per level: (locs, handles, leaf mask, keys)
    while handles.size:
        _audit(~nvbm.contains_mask(handles), handles,
               "persistent tree references unallocated record {:#x}")
        recs = as_records(nvbm.read_rows(handles))
        wrong = (recs["loc"] != locs) | (recs["level"] != level)
        if wrong.any():
            at = int(wrong.argmax())
            raise ConsistencyError(
                f"record {int(handles[at]):#x} claims "
                f"loc={int(recs['loc'][at]):#x}/L{int(recs['level'][at])}, "
                f"expected {int(locs[at]):#x}/L{level}"
            )
        _audit((recs["flags"] & FLAG_DELETED) != 0, handles,
               "persistent tree references deleted record {:#x}")
        max_epoch = max(max_epoch, int(recs["epoch"].max()))
        leaf = (recs["flags"] & FLAG_LEAF) != 0
        visited.append((locs, handles, leaf, keys))
        inner = np.flatnonzero(~leaf)
        children = recs["children"][inner, :fanout]
        _audit((children == NULL_HANDLE).any(axis=1), handles[inner],
               "internal record {:#x} has a null child slot")
        _audit(((children >> np.uint64(_INDEX_BITS)) != ARENA_NVBM).any(axis=1),
               handles[inner], "persistent record {:#x} points into DRAM")
        handles = children.ravel()
        locs = ((locs[inner] << np.uint64(dim))[:, None] | child_slots).ravel()
        keys = walks.child_keys(keys[inner][:, None], child_slots, dim).ravel()
        level += 1

    # the index and the leaf set are filled in the order the record-by-record
    # depth-first walk visits, which later allocation orders depend on
    order = walks.dfs_order([v[3] for v in visited], dim)
    locs, handles, leaf = (np.concatenate([v[i] for v in visited])[order]
                           for i in range(3))
    pmo._index.update(zip(locs.tolist(), handles.tolist()))
    pmo._leaf_set.update(locs[leaf].tolist())
    pmo.epoch = max_epoch + 1
    return locs.size


def _audit(bad: np.ndarray, handles: np.ndarray, message: str) -> None:
    """The restore audit: raise naming the first record ``bad`` flags."""
    if bad.any():
        raise ConsistencyError(message.format(int(handles[int(bad.argmax())])))


def attach_and_restore(dram: MemoryArena, nvbm: MemoryArena, dim: int = 2,
                       config: Optional[PMOctreeConfig] = None,
                       injector: Optional[FailureInjector] = None,
                       replica=None, transport=None) -> "PMOctree":
    """Build a PMOctree around surviving arenas after a process restart.

    This is the "crashed node rebooted and reruns the application" path: the
    NVBM arena still holds the persistent tree; the returned PM-octree is
    restored from it without constructing a fresh root.
    """
    from repro.core.pmoctree import PMOctree

    pmo = PMOctree.__new__(PMOctree)
    pmo._init_state(dram, nvbm, dim, config, injector)
    restore_inplace(pmo, replica=replica, transport=transport)
    return pmo


# ------------------------------------------------------- multi-failure recovery


@dataclass
class Recovered:
    """A host loss was survived; the tree is live again.

    ``protected`` reports whether re-replication onto a fresh peer
    succeeded — recovery *always* attempts it (a recovered-but-unprotected
    host is one failure away from data loss), but no live peer on another
    node, or an unreachable one, leaves the host temporarily unprotected.
    """

    kind: str                      #: "local" (NVBM survived) or "replica"
    host_rank: int                 #: rank serving the tree after recovery
    tree: "PMOctree"
    protected: bool
    replica_peer: Optional[int] = None  #: peer now holding V^P, if any
    session: Optional[object] = None    #: live ReplicaSession, if protected
    detail: str = ""

    @property
    def degraded(self) -> bool:
        return False


@dataclass
class Degraded:
    """Typed unrecoverable-by-replication outcome (never a stack trace).

    Both the host's NVBM and its replica are gone (concurrent host+peer
    loss, or host loss with no replica shipped yet): the caller must fall
    back to a snapshot-style restart — re-running the application from its
    last external checkpoint or from scratch — which is a *policy*
    decision, so it is reported, not raised.
    """

    reason: str
    lost_ranks: Tuple[int, ...] = field(default_factory=tuple)
    snapshot_restart: bool = True
    #: locational codes of subtrees the media repair ladder could not
    #: rebuild (empty unless the degradation was caused by unrepairable
    #: NVBM media faults — see :func:`scrub`).
    lost_locs: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def degraded(self) -> bool:
        return True


def reprotect(cluster, tree, host_rank: int, policy=None,
              break_acks: bool = False):
    """Mandatory post-recovery re-replication onto a freshly chosen peer.

    Returns ``(session, peer_rank, detail)``; session/peer are ``None``
    when no live peer exists on another node or the full ship could not be
    acknowledged (the host then runs unprotected until the next persist
    retries through the attached session or the caller re-calls this).
    """
    from repro.core.replication import (
        FaultyTransport,
        PerfectTransport,
        ReplicaSession,
        choose_replica_peer,
    )
    from repro.parallel.faults import FaultyNetwork

    peer = choose_replica_peer(cluster, host_rank)
    if peer is None:
        return None, None, "no live peer on another node"
    clock = cluster.ranks[host_rank].clock
    if isinstance(cluster.network, FaultyNetwork):
        transport = FaultyTransport(cluster.network, host_rank, peer,
                                    clock=clock)
    else:
        transport = PerfectTransport()
    session = ReplicaSession(tree, transport=transport, clock=clock,
                             policy=policy, break_acks=break_acks)
    tree.attach_replication_session(session)
    try:
        session.ship()
    except ReplicationTimeoutError as exc:
        return None, None, f"re-replication to rank {peer} timed out: {exc}"
    return session, peer, f"replica re-established on rank {peer}"


def recover_host(cluster, host_rank: int, *,
                 replica=None, replica_peer: Optional[int] = None,
                 host_node_returns: bool = False,
                 new_host: Optional[int] = None,
                 dim: int = 2, config: Optional[PMOctreeConfig] = None,
                 policy=None, break_acks: bool = False):
    """Drive recovery of one lost host through every §3.4 scenario.

    * ``host_node_returns=True`` — the node rebooted: its NVBM backing
      survived, restore in place (scenario 1) even if the replica is also
      gone (host-loss-then-replica-loss).
    * host gone for good, replica alive on ``replica_peer`` — materialise
      the replica on ``new_host`` (default: the peer itself), scenario 2.
    * host gone *and* replica unavailable (peer dead, or nothing shipped)
      — :class:`Degraded`, never an unhandled exception.

    Every successful path ends with mandatory re-replication
    (:func:`reprotect`): the system must re-enter a protected state or
    explicitly report that it could not.
    """
    from repro.core.replication import restore_from_replica

    lost = tuple(r.rank for r in cluster.ranks if not r.alive)
    peer_alive = (replica_peer is not None
                  and cluster.ranks[replica_peer].alive)
    if host_node_returns:
        ctx = cluster.revive_rank(host_rank)
        try:
            tree = attach_and_restore(
                ctx.resources["dram"], ctx.resources["nvbm"],
                dim=dim, config=config,
                replica=replica if peer_alive else None,
            )
        except MediaUnrepairableError as exc:
            return Degraded(
                reason=f"NVBM media unrepairable on rank {host_rank}: {exc}",
                lost_ranks=lost, lost_locs=exc.lost_locs,
            )
        except ReproError as exc:
            return Degraded(reason=f"local NVBM restore failed: {exc}",
                            lost_ranks=lost)
        kind, serving = "local", host_rank
    else:
        held = replica is not None and replica.bytes_stored() > 0
        if not held or not peer_alive:
            why = ("replica peer died with the host" if held
                   else "no replica was ever shipped")
            return Degraded(
                reason=f"host rank {host_rank} lost and {why}",
                lost_ranks=lost,
            )
        serving = new_host if new_host is not None else replica_peer
        ctx = cluster.ranks[serving]
        if not ctx.alive:
            return Degraded(
                reason=f"replacement host rank {serving} is dead",
                lost_ranks=lost,
            )
        try:
            tree = restore_from_replica(replica, ctx.resources["dram"],
                                        ctx.resources["nvbm"], dim=dim,
                                        config=config)
        except ReproError as exc:
            return Degraded(reason=f"replica materialisation failed: {exc}",
                            lost_ranks=lost)
        kind = "replica"

    session, peer, detail = reprotect(cluster, tree, serving,
                                      policy=policy, break_acks=break_acks)
    return Recovered(kind=kind, host_rank=serving, tree=tree,
                     protected=session is not None, replica_peer=peer,
                     session=session, detail=detail)


# ----------------------------------------------------------- media repair ladder


@dataclass
class ScrubReport:
    """Outcome of one :func:`scrub` pass over the published tree."""

    scanned: int = 0
    #: fault kind -> detections ("rot"/"stuck"/"crc"; a re-read that
    #: clears counts its first error's kind too)
    detected: Dict[str, int] = field(default_factory=dict)
    repaired_retry: int = 0     #: cleared by the bounded re-read rung
    repaired_local: int = 0     #: rebuilt from a clean C0 (DRAM) copy
    repaired_replica: int = 0   #: rebuilt from the remote replica
    relocated: int = 0          #: records moved to fresh slots
    retired_lines: int = 0      #: cache lines permanently taken out of rotation
    unrepaired: Tuple[int, ...] = ()  #: subtree-root locs with no redundancy left

    def note_detected(self, kind: str) -> None:
        self.detected[kind] = self.detected.get(kind, 0) + 1

    @property
    def detected_total(self) -> int:
        return sum(self.detected.values())

    @property
    def ok(self) -> bool:
        return not self.unrepaired


def _read_retrying(pmo: "PMOctree", handle: int):
    """First rung: bounded re-read.  Returns ``(record, first_error)``.

    A one-off read error clears on re-read (each re-read is a metered
    read); a planted fault keeps raising and the last error escapes to the
    caller after the budget is spent.
    """
    exc: Optional[MediaError] = None
    for _ in range(MEDIA_READ_RETRIES):
        try:
            return pmo.nvbm.read_octant(handle), exc
        except MediaError as e:  # noqa: PERF203 - retry loop is the point
            exc = e
    raise exc


def _rebuild_source(pmo: "PMOctree", path, replica, transport):
    """Find replacement bytes for the faulty record at ``path[-1]``.

    Preference order mirrors cost: a clean local C0 copy of the same
    version (free), then the remote replica (fetch charged to the clock as
    network traffic).  Returns ``(bytes, source)`` or ``(None, None)``.
    """
    loc, bad, _rec = path[-1]
    # A C0-resident copy that is *clean* since its load is byte-equivalent
    # to the published record for every field recovery checks (payload,
    # flags, epoch; leaf => no children).  Internal octants' child handles
    # differ between the DRAM and NVBM images, so only leaves qualify.
    h = pmo._index.get(loc)
    if (h is not None and is_dram(h) and pmo._origin.get(loc) == bad
            and loc not in pmo._dirty):
        rec = pmo.dram.read_octant(h)
        if rec.is_leaf:
            rec = rec.copy()
            if len(path) > 1:
                rec.parent = path[-2][1]
            # the copy must stay publishable under I2 (epoch < current)
            rec.epoch = min(rec.epoch, pmo.epoch - 1)
            return pack_record(rec), "local"
    if replica is not None:
        src = replica.fetch(bad)
        if src is not None and unpack_record(src).loc == loc:
            if transport is not None:
                delivered = False
                for _ in range(MEDIA_READ_RETRIES):
                    d = transport.send_data(OCTANT_RECORD_SIZE)
                    if d.cost_ns:
                        pmo.nvbm.device.clock.advance(d.cost_ns, Category.COMM)
                    if d.delivered:
                        delivered = True
                        break
                if not delivered:
                    return None, None
            return src, "replica"
    return None, None


def _relocate_and_republish(pmo: "PMOctree", path, src_bytes: bytes,
                            kind: str, report: ScrubReport) -> None:
    """Rungs 3-4: relocate the root->bad chain to fresh slots and republish.

    The faulty record's bytes are replaced by ``src_bytes``; every ancestor
    is copied (good media, re-linked to the fresh chain) so the repair
    commits through the same single atomic root-slot store the persist
    point uses — a crash anywhere in here leaves either the old root (bad
    record still faulty, repair re-runs) or the new root (repair complete).
    Epochs are preserved: the repaired tree is still version V_{i-1}.  Like
    a settle, the republish hands the replica sessions its write set.

    ``path`` frames (``[loc, handle, record]``) are remapped in place so the
    caller's traversal continues over the relocated chain.
    """
    nvbm = pmo.nvbm
    dim = pmo.dim
    old_handles = [h for _, h, _ in path]
    bad_old = old_handles[-1]
    recs: List[OctantRecord] = [rec.copy() for _, _, rec in path[:-1]]
    recs.append(unpack_record(src_bytes))
    new_handles = [nvbm.alloc() for _ in path]
    for i, rec in enumerate(recs):
        if i > 0:
            rec.parent = new_handles[i - 1]
        if i < len(recs) - 1:
            ci = morton.child_index_of(path[i + 1][0], dim)
            rec.children[ci] = new_handles[i + 1]
        # pmlint: allow[raw-write]: relocation materialises a whole fresh
        # record in a never-written slot; there is no old image to patch
        # field-granularly.
        # pmlint: allow[bypass-cow]: new_handles[i] was allocated three
        # lines up; a freshly allocated slot has no published image to COW.
        nvbm.write_octant(new_handles[i], rec)
    # Working-version splice: if the current epoch already COW'd the bad
    # record's parent, that in-place-writable copy still points at the slot
    # being condemned — redirect it before the flush so the next persist
    # cannot publish a dangling child.
    if len(path) > 1:
        ploc = path[-2][0]
        w = pmo._index.get(ploc)
        ci = morton.child_index_of(path[-1][0], dim)
        if (w is not None and is_nvbm(w)
                and w not in (old_handles[-2], new_handles[-2])
                and nvbm.read_epoch(w) == pmo.epoch
                and nvbm.read_octant(w).children[ci] == bad_old):
            # pmlint: allow[bypass-cow]: w's epoch equals the current
            # epoch (checked above): it is the working version's own COW
            # copy, legally in-place writable, never published.
            nvbm.write_child_slot(w, ci, new_handles[-1])
    nvbm.flush()
    pmo.injector.site(sites.MEDIA_REPAIR_PRE_PUBLISH)
    nvbm.roots.set(SLOT_PREV, new_handles[0])
    # the fresh chain is published now, not part of the epoch in progress
    for h in new_handles:
        del nvbm.alloc_log[h]
    pmo._published(old_handles[0], new_handles[0], new_handles, old_handles)
    if nvbm.roots.get(SLOT_CURR) == old_handles[0]:
        nvbm.roots.set(SLOT_CURR, new_handles[0])
    pmo.injector.site(sites.MEDIA_REPAIR_PRE_RETIRE)
    if kind == "stuck":
        # the medium itself is bad: take the slot's lines out of rotation
        nvbm.retire(bad_old)
        report.retired_lines += LINES_PER_RECORD
    else:
        # rot/CRC corruption: a rewrite refreshes the cells, slot reusable
        nvbm.free(bad_old)
    # remap the volatile acceleration structures onto the fresh chain
    remap = dict(zip(old_handles, new_handles))
    for i, frame in enumerate(path):
        if pmo._index.get(frame[0]) == frame[1]:
            pmo._index[frame[0]] = new_handles[i]
    for loc, origin in list(pmo._origin.items()):
        if origin in remap:
            pmo._origin[loc] = remap[origin]
    # the epoch's departures from the old chain now leave the fresh one
    pmo._superseded[:] = [remap.get(h, h) for h in pmo._superseded]
    pmo._detached[:] = [remap.get(h, h) for h in pmo._detached]
    for frame, nh, rec in zip(path, new_handles, recs):
        frame[1] = nh
        frame[2] = rec
    report.relocated += 1


def scrub(pmo: "PMOctree", replica=None, transport=None) -> ScrubReport:
    """Background scrub: read-verify every published record, repair faults.

    Walks the persistent tree (``V_prev``) top-down on the simulated clock,
    driving each detected fault through the repair ladder:

    1. bounded re-read (clears a one-off read error; each re-read is a
       metered read);
    2. rebuild from a clean local C0 copy or from ``replica`` (fetch
       charged to ``transport``/the clock);
    3. relocate the record to a fresh slot and atomically republish;
    4. retire stuck lines through the allocator's retired-set.

    Records with no redundancy left are reported (not raised) in
    ``ScrubReport.unrepaired`` — their subtrees are unreadable, and the
    caller decides whether that degrades the run.

    A scrub is a persist barrier: a repair republishes ``V_prev``, so no
    in-flight epoch may still share the chain it relocates.
    """
    report = ScrubReport()
    pmo.drain_persists()
    root = pmo.nvbm.roots.get(SLOT_PREV)
    if root == NULL_HANDLE or not is_nvbm(root):
        return report
    unrepaired: List[int] = []
    with pmo._obs_span("media.scrub"):
        _scrub_visit(pmo, [[morton.ROOT_LOC, root, None]], replica,
                     transport, report, unrepaired)
    report.unrepaired = tuple(sorted(unrepaired))
    if pmo.obs is not None:
        pmo.obs.metrics.fold("media", report)
    return report


def _scrub_visit(pmo: "PMOctree", path, replica, transport,
                 report: ScrubReport, unrepaired: List[int]) -> None:
    """Verify the record at ``path[-1]`` and recurse over its children."""
    loc, handle, _ = path[-1]
    report.scanned += 1
    try:
        rec, first_exc = _read_retrying(pmo, handle)
        if first_exc is not None:
            report.note_detected(first_exc.kind)
            report.repaired_retry += 1
        path[-1][2] = rec
    except MediaError as exc:
        report.note_detected(exc.kind)
        src, source = _rebuild_source(pmo, path, replica, transport)
        if src is None:
            # no redundancy: the whole subtree under loc is unreadable
            unrepaired.append(loc)
            return
        with pmo._obs_span("media.repair", kind=exc.kind):
            _relocate_and_republish(pmo, path, src, exc.kind, report)
        if source == "replica":
            report.repaired_replica += 1
        else:
            report.repaired_local += 1
        pmo.injector.site(sites.MEDIA_SCRUB_MID)
        rec = path[-1][2]
    if rec.is_leaf:
        return
    for idx, ch in enumerate(rec.children[: morton.fanout(pmo.dim)]):
        if ch == NULL_HANDLE or not is_nvbm(ch):
            continue
        path.append([morton.child_of(loc, pmo.dim, idx), ch, None])
        _scrub_visit(pmo, path, replica, transport, report, unrepaired)
        path.pop()
