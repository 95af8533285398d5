"""Exhaustive crash-site sweep: arm every registered site, crash, recover.

Every crash is judged by one rule — re-run the interrupted operation's
recovery and land on a committed state — so there is one runner
(:func:`sweep_site`) and, per site, one :class:`Scenario` supplying only
what is specific to it: a rig, the *accepted* states, an action that visits
the site, and the power loss + recovery.  The default scenario runs a
workload designed to visit every declared site (COW updates, refinement,
layout transformation with a moving hot region, DRAM-pressure eviction,
per-step persists) and accepts

* the state of the **last completed persist**, when the crash fired before
  the commit point, or
* the state the working version had **at the instant of the crash**, when
  it fired after the atomic root publish (the new version committed).

Anything else — a ``ReproError`` during recovery, a state that matches no
accepted one, a tracker-recorded ordering violation — is a finding.  Sites
the default workload cannot reach (``roots.swap.mid``, the replication,
migration, media-repair and epoch-pipeline protocols) get a row in
:data:`_DRIVERS`; a new site whose window the workload does not cross is
added there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DRAM_SPEC, NVBM_SPEC, TITAN, PMOctreeConfig
from repro.core.api import pm_create, pm_restore
from repro.core.pmoctree import SLOT_CURR, SLOT_PREV
from repro.core.recovery import scrub
from repro.core.replication import (
    ReplicaSession,
    restore_from_replica,
)
from repro.errors import (
    ConsistencyError,
    PartitionError,
    RecoveryError,
    ReproError,
    SimulatedCrash,
)
from repro.nvbm import sites as site_registry
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, index_of, is_nvbm
from repro.octree import morton
from repro.octree.linear import LinearOctree
from repro.parallel.network import Network
from repro.parallel.partition import (
    MigrationState,
    audit_migration,
    recover_migration,
    repartition,
)
from repro.parallel.simmpi import RankContext, SimCommunicator

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


def _signature(tree) -> Dict[int, tuple]:
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _verified(tree) -> Dict[int, tuple]:
    """Signature of a recovered tree that first passes its own invariants."""
    tree.check_invariants()
    return _signature(tree)


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

    def grow(self, rounds: int) -> "_Rig":
        """Refine every leaf ``rounds`` times (``4 ** rounds`` leaves)."""
        for _ in range(rounds):
            for leaf in list(self.tree.leaves()):
                self.tree.refine(leaf)
        return self

    def crash(self, seed: int) -> None:
        self.dram.crash()
        self.nvbm.crash(np.random.default_rng(seed))

    def restore(self, replica=None):
        self.injector.disarm()
        self.tree = pm_restore(self.dram, self.nvbm, dim=2,
                               config=self.config, injector=self.injector,
                               replica=replica)
        return self.tree

    def power_cycle(self, seed: int, replica=None) -> Dict[int, tuple]:
        """Power loss, then restore: the verified recovered signature.
        ``replica`` feeds the media-aware restore's repair ladder."""
        self.crash(seed)
        return _verified(self.restore(replica))

    @staticmethod
    def blank_node() -> Tuple[MemoryArena, MemoryArena]:
        """Empty ``(dram, nvbm)`` of a replacement node, on its own clock —
        what a replica restore materialises into."""
        clock = SimClock()
        return (MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 2048),
                MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 15))


@dataclass
class Scenario:
    """One crash scenario — the only shape the runner knows.

    ``act`` runs with the site armed on ``injector`` and must die of the
    injected crash.  ``recover`` then applies the power loss and runs the
    recovery, yielding one ``(view, state)`` pair per recovered view (a
    local restore, a replacement node's restore from the replica, ...);
    each state must equal one of ``accepted``, whose label the outcome
    reports.  ``accepted`` is read when the crash has fired, so ``act`` may
    keep it current (the workload moves ``last-persist`` every step).
    ``unfired`` explains an ``act`` that completes without visiting the
    site; ``rig`` is the PM rig whose ordering tracker is counted.
    """

    injector: FailureInjector
    act: Callable[[], object]
    recover: Callable[[], Iterable[Tuple[str, object]]]
    accepted: Dict[str, object]
    unfired: str
    rig: Optional[_Rig] = None

    #: what a recovered *state* is wherever a checker compares trees
    signature = staticmethod(_signature)

    @staticmethod
    def landed_on(state, accepted: Iterable[Tuple[object, object]]):
        """Which accepted state is this: the label of the first
        ``(label, state)`` pair that equals it, ``None`` for none."""
        for label, want in accepted:
            if state == want:
                return label
        return None


# ----------------------------------------------------------------- workload

def _setup_workload(rig: _Rig) -> List[int]:
    """Refine to 16 leaves and register a movable hot-region feature.

    Returns the one-element ``hot`` cell the step function rotates, so every
    layout transformation evicts the stale subtree and loads the fresh one.
    """
    tree = rig.grow(2).tree
    hot = [morton.loc_from_coords(1, (0, 0), 2)]
    # quadrant hot[0] and every octant under it (the root, code 1, never
    # matches a level-1 code)
    tree.register_feature(
        lambda b: (b.locs >> b.dim * np.maximum(b.levels - 1, 0)) == hot[0])
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


# ---------------------------------------------------------------- scenarios
# ``(site, max_steps, seed) -> Scenario``: only what is specific to the
# protocol; arming, the crash, not-fired, errors and the verdict are the
# runner's.

def _workload(site: str, max_steps: int, seed: int) -> Scenario:
    rig = _Rig()
    tree = rig.tree
    hot = _setup_workload(rig)
    tree.persist(transform=True)
    accepted = {"last-persist": _signature(tree), "committed-at-crash": None}

    def act() -> None:
        for step in range(max_steps):
            _busy_step(rig, hot, step, seed)
            accepted["last-persist"] = _signature(tree)

    def recover():
        # a crash after the atomic root publish keeps the working version
        # as it stood at that instant
        try:
            accepted["committed-at-crash"] = _signature(tree)
        except ReproError:
            pass  # crash mid-operation can leave volatile index mid-edit
        yield "restored state", rig.power_cycle(seed)

    return Scenario(rig.injector, act, recover, accepted,
                    f"never reached in {max_steps} steps", rig)


def _swap(site: str, max_steps: int, seed: int) -> Scenario:
    """roots.swap.mid: the exchange must be all-or-nothing."""
    rig = _Rig().grow(1)
    rig.tree.persist(transform=False)
    # a raw root-slot exchange is itself a publish: discharge any write
    # obligations first (under the epoch pipeline, persist() alone only
    # *enqueues* the flush train)
    rig.nvbm.flush()
    accepted = {"last-persist": _signature(rig.tree)}
    roots = rig.nvbm.roots
    before = (roots.get(SLOT_PREV), roots.get(SLOT_CURR))

    def recover():
        after = (roots.get(SLOT_PREV), roots.get(SLOT_CURR))
        if after != before:
            raise ConsistencyError(
                f"mid-swap crash tore the slots: {before} -> {after}")
        yield "restored state", rig.power_cycle(seed)

    return Scenario(rig.injector, lambda: roots.swap(SLOT_PREV, SLOT_CURR),
                    recover, accepted,
                    "swap completed without visiting the site", rig)


def _replica(site: str, max_steps: int, seed: int) -> Scenario:
    """replica.before_publish: node-loss restore interrupted, then retried."""
    rig = _Rig().grow(1)
    rig.tree.persist(transform=False)
    accepted = {"last-persist": _signature(rig.tree)}
    session = ReplicaSession(rig.tree)
    session.ship()
    replica = session.replica
    injector = FailureInjector()
    dram2, nvbm2 = _Rig.blank_node()

    def recover():
        # the half-materialised arena dies with the replacement node; the
        # replica survives on its peer, so the restore is simply retried
        nvbm2.crash(np.random.default_rng(seed))
        yield "replica retry", _verified(
            restore_from_replica(replica, *_Rig.blank_node(), dim=2))

    return Scenario(
        injector,
        lambda: restore_from_replica(replica, dram2, nvbm2, dim=2,
                                     injector=injector),
        recover, accepted, "replica restore never visited the site", rig)


def _protocol(site: str, max_steps: int, seed: int) -> Scenario:
    """replica.ship.* / replica.resync.begin: crash inside the replication
    protocol, then verify both recovery paths still work.

    The host crashes mid-ship (before send / after the peer applied / after
    the ack / at the start of a resync).  The invariants: the host's local
    restore lands exactly on its last persisted version (shipping never
    gates the local commit), and a fresh session converges the replica so a
    replacement-node restore reproduces the same version.
    """
    rig = _Rig().grow(2)
    tree = rig.tree
    tree.persist(transform=False)
    session = ReplicaSession(tree)
    session.ship()  # replica holds version 1

    # a second persisted version, shipped with the site armed
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (float(i), 1.0, 0.0, 0.0))
    tree.persist(transform=False)
    accepted = {"last-persist": _signature(tree)}
    replica = session.replica

    if site == site_registry.REPLICA_RESYNC_BEGIN:
        # Divergence needs a host whose session state died with it: crash
        # and restore first, then re-ship through a fresh session — the
        # peer's non-empty store classifies the delta as diverged.
        rig.crash(seed)
        session = ReplicaSession(rig.restore(), replica=replica)

    def recover():
        # host power-loss mid-protocol: local restore must land on the persist
        yield "local restore", rig.power_cycle(seed)
        # the protocol must still converge the replica after the crash ...
        fresh = ReplicaSession(rig.tree, replica=replica)
        fresh.ship()
        if not fresh.protected:
            raise RecoveryError("session not protected after re-ship")
        # ... so a replacement node can materialise the same version from it
        yield "replica restore", _verified(
            restore_from_replica(replica, *_Rig.blank_node(), dim=2))

    return Scenario(rig.injector, session.ship, recover, accepted,
                    "ship never visited the site", rig)


def _skewed_forest(seed: int):
    """A 16-leaf forest dealt out skewed over 4 ranks: rank 0 holds most of
    the curve, so the weighted cut must ship multi-octant batches across
    every boundary.  Returns ``(comm, pieces, weights, truth)`` with
    ``truth`` the ``{loc: payload}`` every recovery must preserve."""
    dim, max_level, nranks = 2, 2, 4
    rng = np.random.default_rng(seed)
    locs = sorted(
        (morton.loc_from_coords(max_level, (x, y), dim)
         for x in range(4) for y in range(4)),
        key=lambda loc: morton.zorder_key(loc, dim, max_level),
    )
    payloads = rng.random((len(locs), 4))
    truth = {loc: tuple(payloads[i]) for i, loc in enumerate(locs)}
    weights = np.array([float(1.0 + rng.integers(0, 5)) for _ in locs])
    bounds = [0, 10, 12, 14, 16]
    pieces = [
        LinearOctree(dim, locs[lo:hi], payloads[lo:hi], max_level=max_level)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    wlists = [weights[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    ranks = [RankContext(rank=r, node=r) for r in range(nranks)]
    comm = SimCommunicator(ranks, Network(TITAN.network))
    return comm, pieces, wlists, truth


#: The accepted outcomes of a migration recovery.  The forest itself has one
#: accepted state and :func:`audit_migration` proves it; what is left to
#: name is which repair arms ``(re-driven, rolled back)`` got there.
_REPAIR_ARMS = {"re-driven": (True, False), "rolled-back": (False, True),
                "re-driven+rolled-back": (True, True)}


def _migration(site: str, max_steps: int, seed: int) -> Scenario:
    """migrate.*: tear the publish-before-retire octant migration.

    A skewed 4-rank forest is repartitioned by work weight with the site
    armed; after the simulated power loss, :func:`recover_migration` must
    leave every octant in exactly one rank's store with its payload intact
    (rolling partial publishes back, re-driving missing retires), and a
    re-run of the repartition from the recovered pieces must complete and
    balance — :func:`audit_migration`.

    ``migrate.recover.mid`` loses power *again*, during the recovery: the
    migration is first torn where a published batch awaits its retire, then
    the armed action is :func:`recover_migration` itself.  The second,
    un-armed recovery must finish the repair — both arms are idempotent, so
    a half-repaired journal is just re-walked.
    """
    comm, pieces, wlists, truth = _skewed_forest(seed)
    injector = FailureInjector()
    state = MigrationState()

    def migrate() -> None:
        repartition(comm, pieces, weights=wlists, injector=injector,
                    state=state)

    act, accepted = migrate, _REPAIR_ARMS
    unfired = "migration completed without visiting the site"
    if site == site_registry.MIGRATE_RECOVER_MID:
        injector.arm(site_registry.MIGRATE_PRE_RETIRE, at_hit=1)
        try:
            migrate()
        except SimulatedCrash:
            pass

        act = lambda: recover_migration(state, injector=injector)
        accepted = {"recovery-re-driven": _REPAIR_ARMS["re-driven"]}
        unfired = "recovery completed without visiting the site"

    def recover():
        # power loss mid-migration: the journal survives; recover from it
        rec = recover_migration(state)
        breach = audit_migration(state, truth, comm)
        if breach:
            raise PartitionError(breach)
        arms = (rec.redriven > 0, rec.rolled_back > 0)
        yield "repair (re-driven, rolled back)", arms

    return Scenario(injector, act, recover, accepted, unfired)


def _media(site: str, max_steps: int, seed: int) -> Scenario:
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
    rig = _Rig().grow(2)
    tree = rig.tree
    tree.persist(transform=False)
    accepted = {"last-persist": _signature(tree)}
    session = ReplicaSession(tree)
    session.ship()
    replica = session.replica

    published = sorted(tree.reachable_from(rig.nvbm.roots.get(SLOT_PREV)))
    bad = published[seed % len(published)]
    model = MediaFaultModel()
    rig.nvbm.attach_fault_model(model)
    model.plant_stuck(index_of(bad) * LINES_PER_RECORD)

    return Scenario(
        rig.injector, lambda: scrub(tree, replica=replica),
        lambda: [("restored state", rig.power_cycle(seed, replica))],
        accepted, "scrub never visited the site", rig)


def _epoch(site: str, max_steps: int, seed: int) -> Scenario:
    """epoch.*: tear the persist pipeline mid-flight.

    The rig runs pipelined (``max_inflight=1``).  Epoch A is persisted and
    fully drained (so a committed predecessor is always published), epoch B
    is enqueued and left *in flight*, then a third persist is issued with
    the site armed — its enqueue path walks every persist site in order
    (the overlap site while B still drains, the backpressure settle of B
    with its mid-drain, pre- and post-publish sites, then epoch C's own
    merge and before-flush site).  After the simulated power loss, recovery
    must land bit-for-bit on epoch B's state (B's drain committed before
    the tear) or epoch A's (it did not) — never a blend, never anything
    older.  Of the ``persist.*`` sites only ``persist.before_root_swap``
    is swept here, where it tears B; the others run on the default
    workload, whose persists settle inline.
    """
    rig = _Rig(max_inflight=1).grow(2)
    tree = rig.tree

    def enqueue(stamp: float) -> None:
        for i, leaf in enumerate(sorted(tree.leaves())[:4]):
            tree.set_payload(leaf, (stamp, float(i), 0.0, 0.0))
        tree.persist(transform=False)

    # epoch A: enqueued, then drained to completion -> published
    enqueue(1.0)
    tree.drain_persists()
    sig_a = _signature(tree)
    # epoch B: enqueued, deliberately left in flight (the signature probe
    # runs unmetered so it does not burn down B's drain window)
    enqueue(2.0)
    with tree.unmetered_inspection():
        sig_b = _signature(tree)

    def act() -> None:
        # epoch C: persisted back-to-back so B is still in flight
        tree.persist(transform=False)
        tree.drain_persists()

    return Scenario(
        rig.injector, act,
        lambda: [("restored state", rig.power_cycle(seed))],
        {"epoch-i": sig_b, "epoch-i-1": sig_a},
        "pipelined persist never visited the site", rig)


#: site -> scenario builder; every site not listed runs :func:`_workload`
_DRIVERS: Dict[str, Callable[[str, int, int], Scenario]] = {
    site_registry.ROOTS_SWAP_MID: _swap,
    site_registry.REPLICA_BEFORE_PUBLISH: _replica,
    site_registry.REPLICA_SHIP_BEFORE_SEND: _protocol,
    site_registry.REPLICA_SHIP_AFTER_APPLY: _protocol,
    site_registry.REPLICA_SHIP_BEFORE_ACK: _protocol,
    site_registry.REPLICA_RESYNC_BEGIN: _protocol,
    site_registry.MIGRATE_RECOVER_MID: _migration,
    **dict.fromkeys(site_registry.MIGRATE_SITES, _migration),
    **dict.fromkeys(site_registry.MEDIA_SITES, _media),
    **dict.fromkeys(site_registry.EPOCH_SITES, _epoch),
}


# ----------------------------------------------------------------- public API

def sweep_site(site: str, max_steps: int = 8,
               seed: Optional[int] = None) -> SweepOutcome:
    """Arm one site, run its scenario, verify recovery — the one runner."""
    if seed is None:
        seed = sum(ord(c) for c in site) % 997
    sc = _DRIVERS.get(site, _workload)(site, max_steps, seed)

    def outcome(fired: bool, recovered: Optional[bool], matched: str = "",
                detail: str = "") -> SweepOutcome:
        violations = len(sc.rig.tracker.violations) if sc.rig else 0
        return SweepOutcome(site, fired, recovered, matched, detail,
                            violations)

    sc.injector.reset_hits()
    sc.injector.arm(site, at_hit=1)
    try:
        sc.act()
    except SimulatedCrash:
        pass
    else:
        return outcome(False, None, detail=sc.unfired)
    matched = ""
    try:
        for view, state in sc.recover():
            label = Scenario.landed_on(state, sc.accepted.items())
            if label is None or matched not in ("", label):
                # every view of one recovery must show the same version
                return outcome(True, False, detail=(
                    f"{view} is none of: "
                    f"{matched or ' / '.join(sc.accepted)}"))
            matched = label
    except ReproError as exc:
        return outcome(True, False, detail=f"recovery failed: {exc}")
    return outcome(True, True, matched)


def sweep_all(names: Optional[Sequence[str]] = None,
              max_steps: int = 8) -> List[SweepOutcome]:
    """Sweep every registered site (or a given subset), in sorted order."""
    if names is None:
        names = sorted(site_registry.all_sites())
    return [sweep_site(name, max_steps=max_steps) for name in names]
