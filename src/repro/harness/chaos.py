"""Seeded chaos harness: random fault schedules against the recovery stack.

Each *trial* derives a :class:`ChaosSchedule` from ``(seed, trial)`` — a set
of per-link fault probabilities plus scheduled events drawn from one pool
(host kills with or without node reboot, replica-peer kills, concurrent
host+peer kills, partition windows, message-loss bursts, torn octant
migrations, NVBM media faults, mid-drain kills of the epoch pipeline) — and
runs the droplet workload on a
:class:`~repro.parallel.cluster.SimulatedCluster` whose interconnect obeys
that schedule.  After every recovery, and again at the end of the trial, the
harness asserts the fault-tolerance invariants:

* a restored tree is identical to the last successfully persisted version
  (local restore) or to a persisted-and-replicated version no older than the
  last acknowledged ship (replica restore);
* replica protection is re-established on a live peer after every recovery,
  or the trial ends in an explicit :class:`~repro.core.recovery.Degraded`
  outcome — never an unhandled exception;
* a media fault that strikes a protected session is repaired without
  changing a payload byte; one that strikes while the replica lags (or is
  gone) ends the trial ``degraded`` naming what was lost — never silently.

Crash verdicts are shared with the sweep (:mod:`repro.analysis.sweep`): a
mid-drain kill *is* ``sweep_site``, a restored tree is located among the
persisted versions by ``Scenario.landed_on``, a torn migration is judged
by :func:`~repro.parallel.partition.audit_migration`.

A failing trial is *shrunk*: events are removed one at a time (and the link
faults zeroed) while the failure reproduces, yielding a minimal seeded
reproducer the report prints alongside the exact CLI line that replays it.

Everything is deterministic in ``(seed, trial)``: schedules come from
``random.Random``, network fault decisions from the plan's own seeded RNG,
and NVBM power-loss tearing from per-rank numpy generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sweep import Scenario, sweep_site
from repro.config import PMOctreeConfig, SolverConfig, TITAN
from repro.core.api import pm_create
from repro.core.pmoctree import SLOT_PREV
from repro.core.recovery import Degraded, recover_host, reprotect, scrub
from repro.core.replication import RetryPolicy, choose_replica_peer
from repro.errors import (
    PartitionError,
    ReplicationTimeoutError,
    ReproError,
    SimulatedCrash,
)
from repro.nvbm import sites as site_registry
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import NULL_HANDLE, index_of, is_nvbm
from repro.octree.linear import LinearOctree
from repro.parallel.cluster import SimulatedCluster
from repro.parallel.detector import DetectorConfig, FailureDetector
from repro.parallel.faults import LinkFaults, NetworkFaultPlan
from repro.parallel.partition import (
    MigrationState,
    audit_migration,
    recover_migration,
    repartition,
)
from repro.parallel.simmpi import SimCommunicator
from repro.solver.features import partition_work_weights
from repro.solver.simulation import DropletSimulation

#: Event kinds a schedule may contain, with selection weights — one pool,
#: every trial can draw any of them.
_EVENT_KINDS: Tuple[Tuple[str, int], ...] = (
    ("kill_host", 4),
    ("kill_peer", 3),
    ("kill_both", 1),
    ("partition", 3),
    ("loss_burst", 3),
    ("kill_migration", 2),
    # a published NVBM line rots or sticks and the scrub/repair ladder must
    # handle it — including the no-redundancy case, where the protecting
    # peer is killed *first* and the trial must end ``degraded``, never
    # silently corrupt
    ("media_rot", 3),
    ("media_stuck", 3),
    ("kill_peer_then_rot", 2),
    # the simulated power cord is pulled while an epoch's flush train is
    # still draining behind the solver, at one of the ``epoch.*`` crash
    # sites — recovery must land bit-for-bit on epoch i or epoch i-1
    ("kill_mid_drain", 2),
)

#: The kinds that plant an NVBM media fault (``drop`` picks the victim).
_MEDIA_KINDS = ("media_rot", "media_stuck", "kill_peer_then_rot")


@dataclass
class ChaosEvent:
    """One scheduled fault.

    ``returns`` only applies to ``kill_host`` (the node reboots and its NVBM
    survives); ``duration`` (steps) and ``drop`` only to windowed kinds;
    ``site`` only to ``kill_migration`` / ``kill_mid_drain`` (which
    ``migrate.*`` / ``epoch.*`` crash site tears the protocol).
    """

    kind: str
    step: int
    returns: bool = False
    duration: int = 1
    drop: float = 0.0
    site: str = ""

    def describe(self) -> str:
        extra = ""
        if self.kind == "kill_host":
            extra = "+reboot" if self.returns else "+gone"
        elif self.kind in ("partition", "loss_burst"):
            extra = f"x{self.duration}"
            if self.kind == "loss_burst":
                extra += f"@{self.drop:.2f}"
        elif self.kind in ("kill_migration", "kill_mid_drain"):
            extra = f"[{self.site}]"
        return f"{self.kind}{extra}@{self.step}"


@dataclass
class ChaosSchedule:
    """Fully describes one trial; derivable from ``(seed, trial)`` alone."""

    seed: int
    trial: int
    steps: int
    faults: LinkFaults
    events: Tuple[ChaosEvent, ...]

    def describe(self) -> str:
        evs = ", ".join(e.describe() for e in self.events) or "none"
        return (f"faults(drop={self.faults.drop:.3f}, "
                f"dup={self.faults.duplicate:.3f}, "
                f"delay={self.faults.delay:.3f}) events=[{evs}]")


def derive_schedule(seed: int, trial: int, steps: int = 10) -> ChaosSchedule:
    """The schedule for one trial — pure function of ``(seed, trial)``."""
    rng = random.Random(f"chaos:{seed}:{trial}")
    faults = LinkFaults(
        drop=round(rng.uniform(0.0, 0.25), 3),
        duplicate=round(rng.uniform(0.0, 0.15), 3),
        delay=round(rng.uniform(0.0, 0.30), 3),
        delay_ns=20_000.0,
    )
    kinds, weights = zip(*_EVENT_KINDS)
    events: List[ChaosEvent] = []
    # Leave quiet steps at the tail so post-recovery re-replication has a
    # fault-free-ish window to converge in before the end-of-trial check.
    last_step = max(3, steps - 3)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choices(kinds, weights)[0]
        ev = ChaosEvent(kind=kind, step=rng.randint(2, last_step))
        if kind == "kill_host":
            ev.returns = rng.random() < 0.5
        elif kind in ("partition", "loss_burst"):
            ev.duration = rng.randint(1, 2)
            if kind == "loss_burst":
                ev.drop = round(rng.uniform(0.50, 0.85), 3)
        elif kind == "kill_migration":
            ev.site = rng.choice(site_registry.MIGRATE_SITES)
        elif kind == "kill_mid_drain":
            ev.site = rng.choice(site_registry.EPOCH_SITES)
        elif kind in _MEDIA_KINDS:
            # drop doubles as the deterministic victim selector: the event
            # targets published record floor(drop * n) of the sorted set
            ev.drop = round(rng.random(), 3)
        events.append(ev)
    events.sort(key=lambda e: (e.step, e.kind))
    return ChaosSchedule(seed=seed, trial=trial, steps=steps,
                         faults=faults, events=tuple(events))


@dataclass
class TrialResult:
    """Invariant verdict and protocol counters for one trial."""

    trial: int
    seed: int
    outcome: str               #: "protected" | "degraded" | "failed"
    violations: List[str] = field(default_factory=list)
    degraded_reason: str = ""
    steps_run: int = 0
    recoveries: int = 0
    events_applied: List[str] = field(default_factory=list)
    ships: int = 0
    retries: int = 0
    resyncs: int = 0
    wait_ns: float = 0.0
    schedule: Optional[ChaosSchedule] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_row(self) -> Dict[str, object]:
        return {
            "trial": self.trial,
            "outcome": self.outcome,
            "steps": self.steps_run,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "resyncs": self.resyncs,
            "wait_ms": round(self.wait_ns / 1e6, 3),
            "events": ", ".join(self.events_applied) or "-",
            "detail": self.degraded_reason or "; ".join(self.violations) or "-",
        }


class _TrialState:
    """Mutable wiring of one running trial (who serves, who protects)."""

    def __init__(self, cluster, policy: RetryPolicy,
                 break_acks: bool) -> None:
        self.cluster = cluster
        self.policy = policy
        self.break_acks = break_acks
        self.host_rank = 0
        self.tree = None
        self.session = None
        self.replica_peer: Optional[int] = None
        self.replica_store = None
        self.sessions: list = []     #: every session ever created (stats)
        self.history: List[Dict[int, tuple]] = []
        self.last_acked_idx = -1     #: history index of last acked ship
        self.degraded: Optional[Degraded] = None

    def adopt_session(self, session, peer: Optional[int]) -> None:
        self.session = session
        if session is not None:
            self.sessions.append(session)
            self.replica_peer = peer
            self.replica_store = session.replica

    @property
    def protected(self) -> bool:
        return self.session is not None and self.session.protected

    def note_acked_if_protected(self) -> None:
        if self.protected:
            self.last_acked_idx = len(self.history) - 1

    def reprotect(self) -> None:
        """Re-replicate onto a freshly chosen live peer, if there is one."""
        session, peer, _ = reprotect(self.cluster, self.tree, self.host_rank,
                                     policy=self.policy,
                                     break_acks=self.break_acks)
        self.adopt_session(session, peer)
        self.note_acked_if_protected()

    def reship(self) -> None:
        """Ship the published version through the live session.  A timeout
        leaves the host unprotected, not failed — the local version is
        committed either way and the next persist retries the ship."""
        try:
            self.session.ship()
        except ReplicationTimeoutError:
            pass
        self.note_acked_if_protected()

    def kill_peer(self) -> bool:
        """Kill the protecting peer's node; False when nobody protects."""
        peer = self.replica_peer
        if peer is None or not self.cluster.ranks[peer].alive:
            return False
        self.cluster.kill_node(self.cluster.ranks[peer].node)
        return True

    def drop_protection(self) -> None:
        """Nobody protects the host any more: forget session, store, peer."""
        self.session = None
        self.replica_store = None
        self.replica_peer = None
        self.tree.replicator = None
        self.tree.replica = None


def _exercise_migration_kill(cluster, tree, site: str, result) -> None:
    """Tear the octant-migration protocol at ``site`` and verify recovery.

    The host tree's leaves are dealt out skewed across the live ranks (one
    rank owning most of the curve, so the weighted cut must ship real
    batches), the repartition runs with the crash site armed — over the
    trial's own lossy interconnect — and after the simulated power loss
    :func:`repro.parallel.partition.recover_migration` must restore the
    migration invariant (:func:`repro.parallel.partition.audit_migration`:
    every octant in exactly one rank's store with its payload intact, an
    empty in-flight journal, the repartition re-driven to completion).
    Any breach is a trial violation.
    """
    live = [c for c in cluster.ranks if c.alive]
    lin = LinearOctree.from_tree(tree)
    nl = len(live)
    n = len(lin)
    if nl < 2 or n < 2 * nl:
        return  # nothing to migrate between
    # skew: the first live rank owns all but a sliver of the curve
    bounds = [0] + [n - (nl - 1) + i for i in range(nl)]
    pieces = [lin.slice(bounds[r], bounds[r + 1]) for r in range(nl)]
    w_all = partition_work_weights(lin)
    wlists = [w_all[bounds[r]:bounds[r + 1]] for r in range(nl)]
    truth = {int(loc): tuple(lin.payloads[i])
             for i, loc in enumerate(lin.locs)}
    comm = SimCommunicator(live, cluster.network)
    injector = FailureInjector()
    injector.arm(site, at_hit=1)
    state = MigrationState()
    try:
        repartition(comm, pieces, weights=wlists, injector=injector,
                    state=state)
    except SimulatedCrash:
        pass
    except ReproError:
        return  # partition window / dead link: migration legitimately refused
    else:
        result.violations.append(f"migration crash site {site} never fired")
        return
    recover_migration(state)
    try:
        breach = audit_migration(state, truth, comm)
    except PartitionError as exc:
        # an unhealed partition window starving the retries is an
        # interconnect fault, not a recovery bug
        breach = (None if "undeliverable" in str(exc)
                  else f"re-driven repartition failed: {exc}")
    except ReproError:
        breach = None  # interconnect faults again; recovery itself held
    if breach:
        result.violations.append(f"{site}: {breach}")


def _detect_failure(cluster, dead_rank: int) -> bool:
    """Heartbeat-driven detection gate: recovery only starts once the
    observer's failure detector actually suspects the dead rank."""
    live = [c.rank for c in cluster.ranks if c.alive]
    if not live:
        return False
    obs = cluster.ranks[live[0]]
    cfg = DetectorConfig()
    det = FailureDetector(cluster, cfg, observer_rank=obs.rank)
    det.poll(obs.clock.now_ns)
    # Detection latency: miss_threshold missed beats plus one interval.
    obs.clock.advance((cfg.miss_threshold + 1) * cfg.heartbeat_interval_ns)
    det.poll(obs.clock.now_ns)
    return det.is_suspected(dead_rank, obs.clock.now_ns)


def run_trial(schedule: ChaosSchedule, break_acks: bool = False,
              policy: Optional[RetryPolicy] = None) -> TrialResult:
    """Run one seeded trial; never raises for in-model faults."""
    result = TrialResult(trial=schedule.trial, seed=schedule.seed,
                         outcome="protected", schedule=schedule)
    policy = policy or RetryPolicy()
    plan = NetworkFaultPlan(
        seed=schedule.seed * 1_000_003 + schedule.trial,
        default=schedule.faults,
    )
    # cores_per_node=1: every rank is its own node, so any rank on another
    # node is a legal replica target and node kills hit exactly one rank.
    spec = replace(TITAN, cores_per_node=1)
    cluster = SimulatedCluster(4, spec=spec, fault_plan=plan)

    st = _TrialState(cluster, policy, break_acks)
    ctx0 = cluster.ranks[0]
    pmcfg = PMOctreeConfig(dram_capacity_octants=4096)
    st.tree = pm_create(ctx0.resources["dram"], ctx0.resources["nvbm"],
                        dim=2, config=pmcfg, injector=ctx0.injector)

    def persist_cb(sim_) -> None:
        try:
            sim_.tree.persist(transform=False)
        except ReplicationTimeoutError:
            pass  # local persist committed; remote protection stalled
        st.history.append(Scenario.signature(sim_.tree))
        st.note_acked_if_protected()

    solver = SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)
    sim = DropletSimulation(st.tree, solver, clock=ctx0.clock,
                            persistence=persist_cb)
    sim.construct()
    persist_cb(sim)

    st.reprotect()

    #: (step, undo) of every open partition window and loss-burst link
    expiries: List[Tuple[int, Callable[[], object]]] = []

    def now() -> float:
        return cluster.ranks[st.host_rank].clock.now_ns

    def check_restore(rec) -> None:
        try:
            rec.tree.check_invariants()
        except ReproError as exc:
            result.violations.append(f"restored tree inconsistent: {exc}")
            return
        # which persisted version is this — the newest one that matches
        idx = Scenario.landed_on(Scenario.signature(rec.tree),
                                 reversed(list(enumerate(st.history))))
        if rec.kind == "local":
            if idx != len(st.history) - 1:
                result.violations.append(
                    "local restore does not match the last persisted version")
        else:
            if idx is None:
                result.violations.append(
                    "replica restore matches no persisted version")
            elif idx < st.last_acked_idx:
                result.violations.append(
                    "replica restore is older than the last acked ship")
        if not result.violations:
            # recovery rolled history back to the restored point
            del st.history[idx + 1:]
            st.last_acked_idx = min(st.last_acked_idx, idx)

    def pick_victim(ev: ChaosEvent) -> Optional[int]:
        """Deterministic victim: the first line of a published record.

        ``kill_peer_then_rot`` always condemns the published *root* — an
        internal record the local clean-leaf rung can never rebuild, so
        with the replica dead the only correct outcome is degradation.
        """
        nvbm = cluster.ranks[st.host_rank].resources["nvbm"]
        root = nvbm.roots.get(SLOT_PREV)
        if root == NULL_HANDLE or not is_nvbm(root):
            return None
        if ev.kind != "kill_peer_then_rot":
            published = sorted(st.tree.reachable_from(root))
            root = published[int(ev.drop * len(published)) % len(published)]
        return index_of(root) * LINES_PER_RECORD

    def apply_media_fault(ev: ChaosEvent, step: int) -> None:
        before = Scenario.signature(st.tree)
        if ev.kind == "kill_peer_then_rot" and st.kill_peer():
            st.drop_protection()
        # The repair ladder looks the bad record up *by handle* in the
        # replica, and the replica holds what the last acked ship carried:
        # only a protected session guarantees the fault is repairable.
        protected = st.protected
        gline = pick_victim(ev)
        if gline is None:
            return  # nothing published yet; the fault has nothing to hit
        dev = cluster.ranks[st.host_rank].resources["nvbm"].device
        if dev.fault_model is None:  # attached on the host's first fault
            dev.attach_fault_model(MediaFaultModel(
                seed=schedule.seed * 7919 + schedule.trial))
        if ev.kind == "media_stuck":
            dev.fault_model.plant_stuck(gline)
        else:
            dev.fault_model.plant_rot(gline)
        report = scrub(st.tree, replica=st.replica_store)
        if report.unrepaired:
            lost = [hex(loc) for loc in report.unrepaired]
            if protected:
                result.violations.append(
                    f"{ev.kind}: media fault unrepaired despite a protected "
                    f"replica: locs {lost}")
                return
            # graceful degradation: the loss is declared, never silent
            why = ("with no replica left" if st.replica_store is None else
                   "while the replica lags the published version (last "
                   f"ship unacknowledged; lost locs {lost})")
            st.degraded = Degraded(
                reason=f"NVBM media fault at step {step} {why}: "
                       f"{len(report.unrepaired)} subtree(s) unreadable",
                lost_locs=report.unrepaired)
            return
        if Scenario.signature(st.tree) != before:
            result.violations.append(
                f"{ev.kind}: media repair changed payload bytes")
            return
        try:
            st.tree.check_invariants()
        except ReproError as exc:
            result.violations.append(
                f"{ev.kind}: tree inconsistent after media repair: {exc}")
            return
        if report.relocated and st.session is not None:
            # mandatory reprotect after every recovery: the repair
            # republished the root->bad chain under fresh handles the
            # replica has never seen, so a back-to-back fault on it would
            # find nothing to rebuild from
            st.reship()

    def apply_event(ev: ChaosEvent, step: int) -> None:
        result.events_applied.append(ev.describe())
        if ev.kind in _MEDIA_KINDS:
            apply_media_fault(ev, step)
        elif ev.kind in ("kill_host", "kill_both"):
            if ev.kind == "kill_both":
                st.kill_peer()  # the host dies next: nothing left to rewire
            dead = st.host_rank
            cluster.kill_node(cluster.ranks[dead].node)
            if not any(c.alive for c in cluster.ranks):
                # total cluster loss: nobody is left to run a detector or
                # drive recovery — a declared degradation, not a harness
                # invariant breach (same contract as media loss with no
                # replica: the loss is loud, never silent)
                st.degraded = Degraded(
                    reason=f"every rank dead at step {step}: no surviving "
                           "observer to detect or recover the host",
                    lost_locs=[])
                return
            if not _detect_failure(cluster, dead):
                result.violations.append(
                    f"detector never suspected dead rank {dead}")
                return
            rec = recover_host(
                cluster, dead,
                replica=st.replica_store, replica_peer=st.replica_peer,
                host_node_returns=(ev.kind == "kill_host" and ev.returns),
                dim=2, config=pmcfg, policy=policy, break_acks=break_acks,
            )
            if rec.degraded:
                st.degraded = rec
                return
            result.recoveries += 1
            check_restore(rec)
            # rewire the trial onto the recovered tree and its new host
            st.tree = sim.tree = rec.tree
            st.host_rank = rec.host_rank
            st.adopt_session(rec.session, rec.replica_peer)
            sim.clock = cluster.ranks[rec.host_rank].clock
            rec.tree.register_feature(sim._next_step_feature)
        elif ev.kind == "kill_peer":
            if not st.kill_peer():
                return  # nothing protecting us; nothing to kill
            st.drop_protection()
            st.reprotect()
        elif ev.kind == "partition":
            others = [c.rank for c in cluster.ranks
                      if c.alive and c.rank != st.host_rank]
            w = plan.start_partition([[st.host_rank], others], now())
            expiries.append((step + ev.duration, lambda: w.heal(now())))
        elif ev.kind == "kill_migration":
            _exercise_migration_kill(cluster, st.tree, ev.site, result)
        elif ev.kind == "kill_mid_drain":
            # pull the cord at an ``epoch.*`` site while a flush train
            # drains — the site's sweep scenario on a fresh pipelined rig:
            # recovery must land bit-for-bit on epoch i or i-1
            out = sweep_site(ev.site,
                             seed=schedule.seed * 8191 + schedule.trial)
            if not out.fired:
                result.violations.append(
                    f"{ev.site}: mid-drain kill never fired")
            elif not out.recovered:
                result.violations.append(
                    f"{ev.site}: recovery landed on neither epoch i nor "
                    f"i-1 ({out.detail})")
        elif ev.kind == "loss_burst":
            burst = LinkFaults(drop=ev.drop)
            targets = [c.rank for c in cluster.ranks
                       if c.rank != st.host_rank]
            for t in targets:
                for key in ((st.host_rank, t), (t, st.host_rank)):
                    if key not in plan.links:
                        plan.links[key] = burst
                        expiries.append((
                            step + ev.duration,
                            lambda key=key: plan.links.pop(key, None)))

    for step in range(1, schedule.steps + 1):
        for due, undo in [e for e in expiries if step >= e[0]]:
            undo()
            expiries.remove((due, undo))
        for ev in (e for e in schedule.events if e.step == step):
            apply_event(ev, step)
            if st.degraded is not None:
                break
        if st.degraded is not None or result.violations:
            break
        if st.session is None:
            st.reprotect()
        sim.step()
        result.steps_run = step

    # ---- end-of-trial verdict ------------------------------------------
    if st.degraded is not None:
        result.outcome = "degraded"
        result.degraded_reason = st.degraded.reason
    elif not result.violations:
        for _ in range(3):
            if st.session is not None and not st.protected:
                st.reship()
            if st.protected:
                break
            st.drop_protection()  # the ship timed out: try a fresh peer
            st.reprotect()
        if st.protected:
            result.outcome = "protected"
        elif choose_replica_peer(cluster, st.host_rank) is None:
            result.outcome = "degraded"
            result.degraded_reason = "no live peer for re-replication"
        else:
            result.violations.append(
                "replica protection not re-established despite a live peer")
    if result.violations:
        result.outcome = "failed"
    for s in st.sessions:
        result.ships += s.stats.ships
        result.retries += s.stats.retries
        result.resyncs += s.stats.resyncs
        result.wait_ns += s.stats.wait_ns
    return result


# ------------------------------------------------------------------ shrinking


def shrink_schedule(schedule: ChaosSchedule,
                    break_acks: bool = False) -> ChaosSchedule:
    """Minimise a failing schedule while it keeps failing.

    Greedy delta-debugging: first try zeroing the link faults, then try
    dropping each event, repeating to a fixpoint.  The result is the
    minimal reproducer the report prints.
    """

    def fails(cand: ChaosSchedule) -> bool:
        return not run_trial(cand, break_acks=break_acks).ok

    current = schedule
    changed = True
    while changed:
        changed = False
        if current.faults != LinkFaults():
            cand = replace(current, faults=LinkFaults())
            if fails(cand):
                current = cand
                changed = True
        for i in range(len(current.events)):
            cand = replace(current, events=current.events[:i]
                           + current.events[i + 1:])
            if fails(cand):
                current = cand
                changed = True
                break
    return current


@dataclass
class ChaosReport:
    """Outcome of a whole chaos run."""

    seed: int
    trials: List[TrialResult]
    reproducer: Optional[Dict[str, object]] = None

    @property
    def passed(self) -> int:
        return sum(1 for t in self.trials if t.ok)

    @property
    def failed(self) -> int:
        return sum(1 for t in self.trials if not t.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_chaos(trials: int = 25, seed: int = 0, steps: int = 10,
              break_acks: bool = False,
              only_trial: Optional[int] = None) -> ChaosReport:
    """Run ``trials`` seeded trials; shrink the first failure found.
    ``only_trial`` replays a single trial index (the reproducer path)."""
    report = ChaosReport(seed=seed, trials=[])
    indices = [only_trial] if only_trial is not None else range(trials)
    for t in indices:
        schedule = derive_schedule(seed, t, steps=steps)
        result = run_trial(schedule, break_acks=break_acks)
        report.trials.append(result)
        if not result.ok and report.reproducer is None:
            minimal = shrink_schedule(schedule, break_acks=break_acks)
            cmd = (f"python -m repro chaos --seed {seed} --trial {t} "
                   f"--steps {steps}")
            if break_acks:
                cmd += " --break-acks"
            report.reproducer = {
                "seed": seed,
                "trial": t,
                "violations": list(result.violations),
                "command": cmd,
                "minimal_schedule": minimal.describe(),
                "minimal_events": [e.describe() for e in minimal.events],
            }
    return report
