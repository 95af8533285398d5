"""Exhaustive crash-site sweep: arm every registered site, crash, recover.

For each name in the central registry (:mod:`repro.nvbm.sites`) the harness
builds a fresh PM-octree rig, runs a workload designed to visit every
declared site (COW updates, refinement, layout transformation with a moving
hot region, DRAM-pressure eviction, per-step persists), arms the site, and
— when the injected crash fires — applies power-loss semantics to both
arenas and asserts that ``pm_restore`` lands on a persisted state:

* the state of the **last completed persist**, when the crash fired before
  the commit point, or
* the state the working version had **at the instant of the crash**, when
  it fired after the atomic root publish (the new version committed).

Anything else — a ``ConsistencyError`` during recovery, a signature that
matches neither persist point, a tracker-recorded ordering violation — is a
finding.  Sites the default workload cannot reach (``roots.swap.mid``,
``replica.before_publish``) get dedicated drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DRAM_SPEC, NVBM_SPEC, PMOctreeConfig
from repro.core.api import pm_create, pm_restore
from repro.core.pmoctree import SLOT_CURR, SLOT_PREV
from repro.errors import ReproError, SimulatedCrash
from repro.nvbm import sites as site_registry
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton, soa

from repro.analysis.tracker import OrderingTracker, install_tracker


@dataclass
class SweepOutcome:
    """Result of arming one crash site."""

    site: str
    fired: bool
    recovered: Optional[bool]  #: None when the site never fired
    matched: str = ""          #: which persist point recovery landed on
    detail: str = ""
    violations: int = 0        #: ordering-tracker findings during the run

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.recovered in (True, None)

    def to_row(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "fired": self.fired,
            "recovered": "-" if self.recovered is None else self.recovered,
            "matched": self.matched or "-",
            "violations": self.violations,
            "detail": self.detail or site_registry.describe(self.site),
        }


class _Rig:
    """A self-contained single-rank PM-octree test bench."""

    def __init__(self, dram_octants: int = 2048, nvbm_octants: int = 1 << 15,
                 dram_budget: int = 40, strict_epochs: bool = False,
                 max_inflight: int = 0):
        self.clock = SimClock()
        self.injector = FailureInjector()
        self.dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, self.clock,
                                dram_octants)
        self.nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, self.clock,
                                nvbm_octants, injector=self.injector)
        self.config = PMOctreeConfig(dram_capacity_octants=dram_budget,
                                     max_inflight_epochs=max_inflight)
        self.tree = pm_create(self.dram, self.nvbm, dim=2,
                              config=self.config, injector=self.injector)
        self.tracker = install_tracker(self.nvbm, strict=False,
                                       strict_epochs=strict_epochs)

    def crash(self, seed: int) -> None:
        self.dram.crash()
        self.nvbm.crash(np.random.default_rng(seed))

    def restore(self):
        self.injector.disarm()
        self.tree = pm_restore(self.dram, self.nvbm, dim=2,
                               config=self.config, injector=self.injector)
        return self.tree


def _signature(tree) -> Dict[int, tuple]:
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _try_signature(tree) -> Optional[Dict[int, tuple]]:
    try:
        return _signature(tree)
    except ReproError:
        return None  # crash mid-operation can leave volatile index mid-edit


# ----------------------------------------------------------------- workload

def _setup_workload(rig: _Rig) -> List[int]:
    """Refine to 16 leaves and register a movable hot-region feature.

    Returns the one-element ``hot`` cell the step function rotates, so every
    layout transformation evicts the stale subtree and loads the fresh one.
    """
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    hot = [morton.loc_from_coords(1, (0, 0), 2)]
    tree.register_feature(soa.per_octant(
        lambda loc, p: loc != morton.ROOT_LOC
        and morton.ancestor_at(loc, 2, 1) == hot[0]
    ))
    return hot


def _busy_step(rig: _Rig, hot: List[int], step: int, seed: int) -> None:
    """One time step touching COW, refinement, coarsening, eviction and the
    persist (so every partial-store crash site is reachable)."""
    tree = rig.tree
    leaves = sorted(tree.leaves())
    for i, leaf in enumerate(leaves[: 6 + step % 3]):
        tree.set_payload(leaf, (float(step), float(i), 0.0, 0.0))
    tree.refine(leaves[(seed + step) % len(leaves)])
    if step >= 4 and step % 2:
        # once the tree outgrew the DRAM budget, collapse one internal
        # octant whose children are all leaves, preferring an NVBM-resident
        # one so the partial-store coarsen path (and its coarsen.mid site)
        # is visited — earlier steps are left to pure growth so the COW
        # sites stay reachable too
        from repro.nvbm.pointers import is_nvbm

        candidates = sorted(
            (
                loc for loc in tree._index
                if loc not in tree._leaf_set
                and all(c in tree._leaf_set
                        for c in morton.children_of(loc, tree.dim))
            ),
            key=lambda loc: (not is_nvbm(tree._index[loc]), loc),
        )
        if candidates:
            tree.coarsen(candidates[0])
    hot[0] = morton.loc_from_coords(1, ((step + 1) % 2, 0), 2)
    tree.persist(transform=True)


def trace_run(steps: int = 10, seed: int = 7,
              strict_epochs: bool = False) -> "OrderingTracker":
    """Run the workload un-armed with the ordering tracker watching.

    Returns the tracker; a clean library leaves ``tracker.violations``
    empty.  This is the ``repro analyze --trace`` entry point.  The rig
    runs the *asynchronous* epoch pipeline (``max_inflight=1``) so persists
    genuinely overlap the next step's mutations; ``strict_epochs`` arms the
    cross-epoch write-after-flush rule over the sealed in-flight windows —
    the gate that proves overlapped epochs never intermix stores.
    """
    rig = _Rig(strict_epochs=strict_epochs, max_inflight=1)
    hot = _setup_workload(rig)
    rig.tree.persist(transform=True)
    for step in range(steps):
        _busy_step(rig, hot, step, seed)
    rig.tree.drain_persists()
    rig.tree.gc()
    return rig.tracker


# ------------------------------------------------------------ default driver

def _workload_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    rig = _Rig()
    tree = rig.tree
    hot = _setup_workload(rig)
    tree.persist(transform=True)
    persisted_sig = _signature(tree)

    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=1)
    fired = False
    sig_at_crash: Optional[Dict[int, tuple]] = None
    try:
        for step in range(max_steps):
            _busy_step(rig, hot, step, seed)
            persisted_sig = _signature(tree)
    except SimulatedCrash:
        fired = True
        sig_at_crash = _try_signature(tree)

    violations = len(rig.tracker.violations)
    if not fired:
        return SweepOutcome(
            site=site, fired=False, recovered=None, violations=violations,
            detail=f"never reached in {max_steps} steps",
        )

    rig.crash(seed)
    try:
        restored = rig.restore()
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            violations=violations,
                            detail=f"recovery failed: {exc}")
    restored_sig = _signature(restored)
    if restored_sig == persisted_sig:
        matched = "last-persist"
    elif sig_at_crash is not None and restored_sig == sig_at_crash:
        matched = "committed-at-crash"
    else:
        return SweepOutcome(
            site=site, fired=True, recovered=False, violations=violations,
            detail="restored state matches neither persist point",
        )
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched=matched, violations=violations)


# ----------------------------------------------------------- special drivers

def _swap_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """roots.swap.mid: the exchange must be all-or-nothing."""
    rig = _Rig()
    tree = rig.tree
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    tree.persist(transform=False)
    # a raw root-slot exchange is itself a publish: discharge any write
    # obligations first (under the epoch pipeline, persist() alone only
    # *enqueues* the flush train)
    rig.nvbm.flush()
    persisted_sig = _signature(tree)
    before = (rig.nvbm.roots.get(SLOT_PREV), rig.nvbm.roots.get(SLOT_CURR))

    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=1)
    try:
        rig.nvbm.roots.swap(SLOT_PREV, SLOT_CURR)
    except SimulatedCrash:
        pass
    else:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="swap completed without visiting the site")
    after = (rig.nvbm.roots.get(SLOT_PREV), rig.nvbm.roots.get(SLOT_CURR))
    if after != before:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"mid-swap crash tore the slots: {before} -> {after}",
        )
    rig.crash(seed)
    try:
        restored = rig.restore()
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"recovery failed: {exc}")
    if _signature(restored) != persisted_sig:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail="restored state lost the persisted step")
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched="last-persist",
                        violations=len(rig.tracker.violations))


def _replica_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """replica.before_publish: node-loss restore interrupted, then retried."""
    from repro.core.replication import ReplicaStore, restore_from_replica, \
        ship_delta

    rig = _Rig()
    tree = rig.tree
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    tree.persist(transform=False)
    persisted_sig = _signature(tree)
    replica = ReplicaStore()
    ship_delta(tree, replica)

    clock2 = SimClock()
    injector2 = FailureInjector()
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 2048)
    nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 15)
    injector2.arm(site, at_hit=1)
    try:
        restore_from_replica(replica, dram2, nvbm2, dim=2,
                             injector=injector2)
    except SimulatedCrash:
        pass
    else:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="replica restore never visited the site")
    # the half-materialised arena dies with the replacement node; the
    # replica survives on its peer, so the restore is simply retried
    nvbm2.crash(np.random.default_rng(seed))
    injector2.disarm()
    clock3 = SimClock()
    dram3 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock3, 2048)
    nvbm3 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock3, 1 << 15)
    try:
        restored = restore_from_replica(replica, dram3, nvbm3, dim=2)
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"replica retry failed: {exc}")
    if _signature(restored) != persisted_sig:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail="replica restore lost the persisted step")
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched="last-persist")


def _protocol_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """replica.ship.* / replica.resync.begin: crash inside the replication
    protocol, then verify both recovery paths still work.

    The host crashes mid-ship (before send / after the peer applied / after
    the ack / at the start of a resync).  The invariants: the host's local
    restore lands exactly on its last persisted version (shipping never
    gates the local commit), and a fresh session converges the replica so a
    replacement-node restore reproduces the same version.
    """
    from repro.core.replication import ReplicaSession, restore_from_replica

    rig = _Rig()
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    tree.persist(transform=False)
    session = ReplicaSession(tree)
    session.ship()  # replica holds version 1

    # a second persisted version, shipped with the site armed
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (float(i), 1.0, 0.0, 0.0))
    tree.persist(transform=False)
    persisted_sig = _signature(tree)
    replica = session.replica

    if site == site_registry.REPLICA_RESYNC_BEGIN:
        # Divergence needs a host whose session state died with it: crash
        # and restore first, then re-ship through a fresh session — the
        # peer's non-empty store classifies the delta as diverged.
        rig.crash(seed)
        tree = rig.restore()
        session = ReplicaSession(tree, replica=replica)

    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=1)
    fired = False
    try:
        session.ship()
    except SimulatedCrash:
        fired = True
    if not fired:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="ship never visited the site")

    # host power-loss mid-protocol: local restore must land on the persist
    rig.crash(seed)
    try:
        restored = rig.restore()
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"recovery failed: {exc}")
    if _signature(restored) != persisted_sig:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail="local restore does not match the persisted version",
        )

    # the protocol must still converge the replica after the crash ...
    fresh = ReplicaSession(restored, replica=replica)
    try:
        fresh.ship()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"post-crash ship failed: {exc}")
    if not fresh.protected:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail="session not protected after re-ship")
    # ... so a replacement node can materialise the same version from it
    clock2 = SimClock()
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 2048)
    nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 15)
    try:
        from_replica = restore_from_replica(replica, dram2, nvbm2, dim=2)
        from_replica.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"replica restore failed: {exc}")
    if _signature(from_replica) != persisted_sig:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail="replica restore does not match the persisted version",
        )
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched="last-persist",
                        violations=len(rig.tracker.violations))


def _migration_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """migrate.*: tear the publish-before-retire octant migration.

    A skewed 4-rank forest is repartitioned by work weight with the site
    armed; after the simulated power loss, :func:`recover_migration` must
    leave every octant in exactly one rank's store with its payload intact
    (rolling partial publishes back, re-driving missing retires), and a
    re-run of the repartition from the recovered pieces must complete and
    balance.
    """
    from repro.config import TITAN
    from repro.octree.linear import LinearOctree
    from repro.parallel.network import Network
    from repro.parallel.partition import (
        MigrationState,
        recover_migration,
        repartition,
    )
    from repro.parallel.simmpi import RankContext, SimCommunicator

    dim, max_level, nranks = 2, 2, 4
    rng = np.random.default_rng(seed)
    locs = sorted(
        (morton.loc_from_coords(max_level, (x, y), dim)
         for x in range(4) for y in range(4)),
        key=lambda loc: morton.zorder_key(loc, dim, max_level),
    )
    payloads = rng.random((len(locs), 4))
    truth = {loc: tuple(payloads[i]) for i, loc in enumerate(locs)}
    weight_of = {loc: float(1.0 + rng.integers(0, 5)) for loc in locs}
    # skewed ownership: rank 0 holds most of the curve, so the weighted cut
    # must ship multi-octant batches across every boundary
    bounds = [0, 10, 12, 14, 16]
    pieces = [
        LinearOctree(dim, locs[bounds[r]:bounds[r + 1]],
                     payloads[bounds[r]:bounds[r + 1]], max_level=max_level)
        for r in range(nranks)
    ]
    wlists = [
        np.array([weight_of[int(loc)] for loc in piece.locs])
        for piece in pieces
    ]
    ranks = [RankContext(rank=r, node=r) for r in range(nranks)]
    comm = SimCommunicator(ranks, Network(TITAN.network))
    injector = FailureInjector()
    injector.arm(site, at_hit=1)
    state = MigrationState()
    fired = False
    try:
        repartition(comm, pieces, weights=wlists, injector=injector,
                    state=state)
    except SimulatedCrash:
        fired = True
    if not fired:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="migration completed without visiting "
                                   "the site")

    # power loss mid-migration: the journal survives; recover from it
    injector.disarm()
    rec = recover_migration(state)
    seen: Dict[int, tuple] = {}
    for store in state.stores:
        for loc, row in store.items():
            if loc in seen:
                return SweepOutcome(
                    site=site, fired=True, recovered=False,
                    detail=f"octant {loc:#x} duplicated across ranks")
            seen[loc] = tuple(float(v) for v in row)
    if set(seen) != set(truth):
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"octants lost: {len(truth) - len(seen)} missing")
    torn = [loc for loc in truth if seen[loc] != truth[loc]]
    if torn:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"payload torn on {len(torn)} octants")
    if state.log.in_flight:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"{len(state.log.in_flight)} batches left in flight")

    # the repartition is simply re-driven from the recovered pieces
    pieces2 = state.rebuild_pieces()
    wlists2 = [
        np.array([weight_of[int(loc)] for loc in piece.locs])
        for piece in pieces2
    ]
    try:
        res = repartition(comm, pieces2, weights=wlists2)
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"re-driven repartition failed: {exc}")
    if not res.balanced:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"re-driven cut unbalanced: {res.imbalance_after:.3f}")
    if rec.redriven and rec.rolled_back:
        matched = "re-driven+rolled-back"
    elif rec.redriven:
        matched = "re-driven"
    else:
        matched = "rolled-back"
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched=matched)


def _media_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """media.*: crash inside the scrub/repair ladder, then restore.

    One published record gets a planted *stuck* line, so the scrub must
    walk the full repair ladder — rebuild from the replica (or a clean C0
    copy), relocate to fresh slots, atomically republish, retire the bad
    slot — with the site armed.  The media fault survives the power loss
    (the device object is the surviving hardware), so the media-aware
    restore must finish or redo the repair and land exactly on the
    persisted payloads:

    * ``media.repair.pre_publish`` — the old root is still published and
      still points at the faulty record; recovery re-detects and re-repairs.
    * ``media.repair.pre_retire`` — the repaired root is published; the
      condemned slot leaks until GC but the tree is already clean.
    * ``media.scrub.mid`` — the repair committed in full; recovery is a
      plain restore.
    """
    from repro.core.recovery import scrub
    from repro.core.replication import ReplicaStore, ship_delta
    from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
    from repro.nvbm.pointers import index_of

    rig = _Rig()
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    tree.persist(transform=False)
    persisted_sig = _signature(tree)
    replica = ReplicaStore()
    ship_delta(tree, replica)

    root = rig.nvbm.roots.get(SLOT_PREV)
    published = sorted(tree.reachable_from(root))
    bad = published[seed % len(published)]
    model = MediaFaultModel(seed=seed)
    rig.nvbm.attach_fault_model(model)
    model.plant_stuck(index_of(bad) * LINES_PER_RECORD)

    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=1)
    fired = False
    try:
        scrub(tree, replica=replica)
    except SimulatedCrash:
        fired = True
    if not fired:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            violations=len(rig.tracker.violations),
                            detail="scrub never visited the site")

    rig.crash(seed)
    rig.injector.disarm()
    violations = len(rig.tracker.violations)
    try:
        restored = pm_restore(rig.dram, rig.nvbm, dim=2, config=rig.config,
                              injector=rig.injector, replica=replica)
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            violations=violations,
                            detail=f"recovery failed: {exc}")
    if _signature(restored) != persisted_sig:
        return SweepOutcome(
            site=site, fired=True, recovered=False, violations=violations,
            detail="restored state does not match the persisted version",
        )
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched="last-persist", violations=violations)


def _recover_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """migrate.recover.mid: lose power *again* during migration recovery.

    First crash a migration mid-batch (so the journal holds both a
    published batch to re-drive and pending batches to roll back), then
    arm the recovery site and crash inside :func:`recover_migration`
    itself.  The second recovery run — un-armed — must finish the repair:
    both arms are idempotent, so a half-repaired journal is just re-walked
    and every octant still ends in exactly one rank's store.
    """
    from repro.config import TITAN
    from repro.octree.linear import LinearOctree
    from repro.parallel.network import Network
    from repro.parallel.partition import (
        MigrationState,
        recover_migration,
        repartition,
    )
    from repro.parallel.simmpi import RankContext, SimCommunicator

    dim, max_level, nranks = 2, 2, 4
    rng = np.random.default_rng(seed)
    locs = sorted(
        (morton.loc_from_coords(max_level, (x, y), dim)
         for x in range(4) for y in range(4)),
        key=lambda loc: morton.zorder_key(loc, dim, max_level),
    )
    payloads = rng.random((len(locs), 4))
    truth = {loc: tuple(payloads[i]) for i, loc in enumerate(locs)}
    weight_of = {loc: float(1.0 + rng.integers(0, 5)) for loc in locs}
    bounds = [0, 10, 12, 14, 16]
    pieces = [
        LinearOctree(dim, locs[bounds[r]:bounds[r + 1]],
                     payloads[bounds[r]:bounds[r + 1]], max_level=max_level)
        for r in range(nranks)
    ]
    wlists = [
        np.array([weight_of[int(loc)] for loc in piece.locs])
        for piece in pieces
    ]
    ranks = [RankContext(rank=r, node=r) for r in range(nranks)]
    comm = SimCommunicator(ranks, Network(TITAN.network))
    injector = FailureInjector()
    # tear the migration where the journal is at its most mixed: some
    # batches published, none retired
    injector.arm(site_registry.MIGRATE_PRE_RETIRE, at_hit=1)
    state = MigrationState()
    try:
        repartition(comm, pieces, weights=wlists, injector=injector,
                    state=state)
    except SimulatedCrash:
        pass
    else:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="setup migration completed without "
                                   "tearing")

    injector.disarm()
    injector.reset_hits()
    injector.arm(site, at_hit=1)
    fired = False
    try:
        recover_migration(state, injector=injector)
    except SimulatedCrash:
        fired = True
    if not fired:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            detail="recovery completed without visiting "
                                   "the site")

    # second power loss survived: re-run recovery un-armed
    injector.disarm()
    recover_migration(state)
    seen: Dict[int, tuple] = {}
    for store in state.stores:
        for loc, row in store.items():
            if loc in seen:
                return SweepOutcome(
                    site=site, fired=True, recovered=False,
                    detail=f"octant {loc:#x} duplicated across ranks")
            seen[loc] = tuple(float(v) for v in row)
    if set(seen) != set(truth):
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"octants lost: {len(truth) - len(seen)} missing")
    torn = [loc for loc in truth if seen[loc] != truth[loc]]
    if torn:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"payload torn on {len(torn)} octants")
    if state.log.in_flight:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"{len(state.log.in_flight)} batches left in flight")
    pieces2 = state.rebuild_pieces()
    wlists2 = [
        np.array([weight_of[int(loc)] for loc in piece.locs])
        for piece in pieces2
    ]
    try:
        res = repartition(comm, pieces2, weights=wlists2)
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            detail=f"re-driven repartition failed: {exc}")
    if not res.balanced:
        return SweepOutcome(
            site=site, fired=True, recovered=False,
            detail=f"re-driven cut unbalanced: {res.imbalance_after:.3f}")
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched="recovery-re-driven")


def _epoch_driver(site: str, max_steps: int, seed: int) -> SweepOutcome:
    """epoch.*: tear the asynchronous persistence pipeline mid-flight.

    The rig runs pipelined (``max_inflight=1``).  Epoch A is persisted and
    fully drained (so a committed predecessor is always published), epoch B
    is enqueued and left *in flight*, then a third persist is issued with
    the site armed — its enqueue path walks every pipeline window in order
    (the overlap site while B still drains, the backpressure settle of B
    with its mid-drain and pre-publish sites, then epoch C's own merge and
    mid-enqueue site).  After the simulated power loss, recovery must land
    bit-for-bit on epoch B's state (B's drain committed before the tear) or
    epoch A's (it did not) — never a blend, never anything older.
    """
    rig = _Rig(max_inflight=1)
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)

    # epoch A: enqueued, then drained to completion -> published
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (1.0, float(i), 0.0, 0.0))
    tree.persist(transform=False)
    tree.drain_persists()
    sig_a = _signature(tree)

    # epoch B: enqueued, deliberately left in flight (the signature probe
    # runs unmetered so it does not burn down B's drain window)
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (2.0, float(i), 0.0, 0.0))
    tree.persist(transform=False)
    with tree.unmetered_inspection():
        sig_b = _signature(tree)

    # epoch C: persisted back-to-back so B is still in flight — its persist
    # call visits every armed pipeline site (overlap while B drains, B's
    # backpressure settle with the mid-drain and pre-publish sites, then
    # C's own mid-enqueue site)
    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=1)
    fired = False
    try:
        tree.persist(transform=False)
        tree.drain_persists()
    except SimulatedCrash:
        fired = True
    violations = len(rig.tracker.violations)
    if not fired:
        return SweepOutcome(site=site, fired=False, recovered=None,
                            violations=violations,
                            detail="pipelined persist never visited the site")

    rig.crash(seed)
    try:
        restored = rig.restore()
        restored.check_invariants()
    except ReproError as exc:
        return SweepOutcome(site=site, fired=True, recovered=False,
                            violations=violations,
                            detail=f"recovery failed: {exc}")
    restored_sig = _signature(restored)
    if restored_sig == sig_b:
        matched = "epoch-i"
    elif restored_sig == sig_a:
        matched = "epoch-i-1"
    else:
        return SweepOutcome(
            site=site, fired=True, recovered=False, violations=violations,
            detail="restored state is neither epoch i nor epoch i-1 — "
                   "a blend or an older version",
        )
    return SweepOutcome(site=site, fired=True, recovered=True,
                        matched=matched, violations=violations)


_DRIVERS: Dict[str, Callable[[str, int, int], SweepOutcome]] = {
    site_registry.EPOCH_OVERLAP_NEXT_STEP: _epoch_driver,
    site_registry.EPOCH_ENQUEUE_MID: _epoch_driver,
    site_registry.EPOCH_DRAIN_MID: _epoch_driver,
    site_registry.EPOCH_COMMIT_PRE_PUBLISH: _epoch_driver,
    site_registry.ROOTS_SWAP_MID: _swap_driver,
    site_registry.MIGRATE_PRE_PUBLISH: _migration_driver,
    site_registry.MIGRATE_MID_BATCH: _migration_driver,
    site_registry.MIGRATE_PRE_RETIRE: _migration_driver,
    site_registry.MIGRATE_RECOVER_MID: _recover_driver,
    site_registry.MEDIA_REPAIR_PRE_PUBLISH: _media_driver,
    site_registry.MEDIA_REPAIR_PRE_RETIRE: _media_driver,
    site_registry.MEDIA_SCRUB_MID: _media_driver,
    site_registry.REPLICA_BEFORE_PUBLISH: _replica_driver,
    site_registry.REPLICA_SHIP_BEFORE_SEND: _protocol_driver,
    site_registry.REPLICA_SHIP_AFTER_APPLY: _protocol_driver,
    site_registry.REPLICA_SHIP_BEFORE_ACK: _protocol_driver,
    site_registry.REPLICA_RESYNC_BEGIN: _protocol_driver,
}


# ----------------------------------------------------------------- public API

def sweep_site(site: str, max_steps: int = 8,
               seed: Optional[int] = None) -> SweepOutcome:
    """Arm one site, run its driver, verify recovery."""
    if seed is None:
        seed = sum(ord(c) for c in site) % 997
    driver = _DRIVERS.get(site, _workload_driver)
    return driver(site, max_steps, seed)


def sweep_all(names: Optional[Sequence[str]] = None,
              max_steps: int = 8) -> List[SweepOutcome]:
    """Sweep every registered site (or a given subset), in sorted order."""
    if names is None:
        names = sorted(site_registry.all_sites())
    return [sweep_site(name, max_steps=max_steps) for name in names]
