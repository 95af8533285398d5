"""Acknowledged replication protocol: seq/ack/retry/backoff/idempotency."""

import pytest

from repro.config import GEMINI_SPEC, SolverConfig
from repro.core.replication import (
    FaultyTransport,
    ReplicaSession,
    ReplicaStore,
    RetryPolicy,
    restore_from_replica,
)
from repro.errors import RecoveryError, ReplicationTimeoutError
from repro.nvbm.clock import Category
from repro.parallel.faults import Delivery, FaultyNetwork, LinkFaults, \
    NetworkFaultPlan
from repro.parallel.network import Network


def _prepare(rig, rounds=2):
    t = rig.tree
    for _ in range(rounds):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    return t


def _sig(tree):
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


class _ScriptedTransport:
    """Transport whose delivery fates are scripted per message kind."""

    def __init__(self, data_fates=None, ack_fates=None):
        self.data_fates = list(data_fates or [])
        self.ack_fates = list(ack_fates or [])
        self.data_sent = 0
        self.acks_sent = 0

    def _next(self, fates):
        return fates.pop(0) if fates else Delivery(True, 1, 0.0)

    def send_data(self, nbytes):
        self.data_sent += 1
        return self._next(self.data_fates)

    def send_ack(self):
        self.acks_sent += 1
        return self._next(self.ack_fates)


class _CountingStore(ReplicaStore):
    def __init__(self):
        super().__init__()
        self.applies = 0

    def apply_delta(self, *a, **kw):
        status = super().apply_delta(*a, **kw)
        if status == "applied":
            self.applies += 1
        return status


# ------------------------------------------------------------- happy path


def test_ship_sequences_and_protects(rig):
    t = _prepare(rig)
    s = ReplicaSession(t)
    r1 = s.ship()
    assert (r1.seq, r1.attempts, r1.resynced) == (1, 1, False)
    assert s.protected
    t.set_payload(sorted(t.leaves())[0], (1.0, 0, 0, 0))
    t.persist(transform=False)
    assert not s.protected          # new persist not yet shipped
    r2 = s.ship()
    assert r2.seq == 2 and s.protected
    assert r2.bytes_shipped < r1.bytes_shipped   # delta, not full tree
    assert s.replica.applied_seq == 2


def test_ship_without_persist_rejected(rig):
    with pytest.raises(RecoveryError):
        ReplicaSession(rig.tree).ship()


def test_reship_same_version_is_a_noop(rig):
    t = _prepare(rig)
    s = ReplicaSession(t, replica=_CountingStore())
    s.ship()
    report = s.ship()  # peer already holds this version: nothing crosses
    assert report.attempts == 0 and report.bytes_shipped == 0
    assert s.replica.applies == 1
    assert s.protected


# -------------------------------------------------------- loss and retries


def test_lost_delta_retried_with_backoff_on_sim_clock(rig):
    t = _prepare(rig)
    policy = RetryPolicy(ack_timeout_ns=1000.0, base_backoff_ns=100.0,
                         backoff_factor=2.0, max_retries=4)
    transport = _ScriptedTransport(data_fates=[
        Delivery(False, 0, 50.0, "drop"),
        Delivery(False, 0, 50.0, "drop"),
    ])
    before = rig.clock.category_ns(Category.COMM)
    s = ReplicaSession(t, transport=transport, policy=policy)
    report = s.ship()
    assert report.attempts == 3
    # waits: (1000+100) after attempt 1, (1000+200) after attempt 2
    assert report.wait_ns == pytest.approx(2300.0)
    charged = rig.clock.category_ns(Category.COMM) - before
    # waits + the wire cost of the two dropped sends (third send is free)
    assert charged == pytest.approx(2300.0 + 2 * 50.0)
    assert s.stats.deltas_lost == 2 and s.stats.retries == 2


def test_lost_ack_retransmit_is_idempotent(rig):
    t = _prepare(rig)
    store = _CountingStore()
    transport = _ScriptedTransport(ack_fates=[Delivery(False, 0, 0.0)])
    s = ReplicaSession(t, replica=store, transport=transport,
                       policy=RetryPolicy(max_retries=3))
    report = s.ship()
    assert report.attempts == 2
    assert store.applies == 1       # retransmit re-acked, NOT re-applied
    assert s.stats.acks_lost == 1
    assert s.protected


def test_network_duplicate_applied_once(rig):
    t = _prepare(rig)
    store = _CountingStore()
    transport = _ScriptedTransport(data_fates=[Delivery(True, 2, 0.0)])
    s = ReplicaSession(t, replica=store, transport=transport)
    report = s.ship()
    assert store.applies == 1
    assert report.duplicates_ignored == 1


def test_retry_budget_exhausted_raises_typed_error(rig):
    t = _prepare(rig)

    class _BlackHole:
        def send_data(self, nbytes):
            return Delivery(False, 0, 10.0, "drop")

        def send_ack(self):  # pragma: no cover - never reached
            return Delivery(True, 1, 0.0)

    policy = RetryPolicy(max_retries=3)
    s = ReplicaSession(t, transport=_BlackHole(), policy=policy)
    with pytest.raises(ReplicationTimeoutError) as exc:
        s.ship()
    assert exc.value.attempts == 4  # initial try + max_retries
    assert s.stats.deltas_lost == 4


def test_break_acks_never_converges(rig):
    t = _prepare(rig)
    s = ReplicaSession(t, policy=RetryPolicy(max_retries=2),
                       break_acks=True)
    with pytest.raises(ReplicationTimeoutError):
        s.ship()
    assert not s.protected


# ------------------------------------------------------------- divergence


def test_fresh_session_against_populated_peer_resyncs(rig):
    t = _prepare(rig)
    s1 = ReplicaSession(t)
    s1.ship()
    t.set_payload(sorted(t.leaves())[0], (2.0, 0, 0, 0))
    t.persist(transform=False)
    s1.ship()
    # host process dies: session state (next_seq, peer_root) is lost; a
    # fresh session knows nothing and must fall back to a full resync
    s2 = ReplicaSession(t, replica=s1.replica)
    t.set_payload(sorted(t.leaves())[1], (3.0, 0, 0, 0))
    t.persist(transform=False)
    report = s2.ship()
    assert report.resynced
    assert s2.stats.resyncs == 1
    assert s2.protected
    # the resynced replica is a faithful recovery source
    from tests.core.test_replication import _fresh_arenas

    dram2, nvbm2 = _fresh_arenas()
    t2 = restore_from_replica(s1.replica, dram2, nvbm2, dim=2)
    assert _sig(t2) == _sig(t)


# -------------------------------------------------------- reused handles


class _Outage:
    """Transport that loses every data message while ``down``."""

    down = False

    def send_data(self, nbytes):
        if self.down:
            return Delivery(False, 0, 0.0, "outage")
        return Delivery(True, 1, 0.0)

    def send_ack(self):
        return Delivery(True, 1, 0.0)


def test_replica_restores_after_a_missed_ship_and_slot_reuse(rig):
    """One ship times out; GC then frees slots the replica still holds and
    the next epoch reuses them.  Every acked DELTA from then on must leave
    a replica that restores the host's last persisted leaves."""
    from repro.solver.simulation import DropletSimulation
    from tests.core.test_replication import _fresh_arenas

    t = rig.tree
    outage = _Outage()
    session = t.attach_replication_session(ReplicaSession(
        t, transport=outage, policy=RetryPolicy(max_retries=1)))
    timeouts, restored = [], []

    def persistence(sim_):
        outage.down = sim_.step_count == 3
        try:
            sim_.tree.persist()
        except ReplicationTimeoutError as exc:
            timeouts.append(exc)
        sim_.tree.gc()
        if timeouts and session.protected:
            dram2, nvbm2 = _fresh_arenas()
            t2 = restore_from_replica(session.replica, dram2, nvbm2, dim=2)
            restored.append(_sig(t2) == _sig(sim_.tree))

    sim = DropletSimulation(
        t, SolverConfig(dim=2, min_level=2, max_level=6, dt=0.01),
        clock=rig.clock, persistence=persistence)
    sim.run(6)
    assert len(timeouts) == 1
    assert restored == [True] * 3


# ------------------------------------------- lossy end-to-end convergence


def test_converges_over_20pct_lossy_network(rig):
    """The acceptance scenario: 20% drop on both link directions."""
    t = _prepare(rig)
    plan = NetworkFaultPlan(seed=11, default=LinkFaults(drop=0.20))
    net = FaultyNetwork(Network(GEMINI_SPEC), plan)
    transport = FaultyTransport(net, host_rank=0, peer_rank=1,
                                clock=rig.clock)
    s = ReplicaSession(t, transport=transport, clock=rig.clock)
    comm_before = rig.clock.category_ns(Category.COMM)
    for step in range(8):
        t.set_payload(sorted(t.leaves())[step % 4], (float(step), 0, 0, 0))
        t.persist(transform=False)
        report = s.ship()
        assert s.protected, f"step {step} did not converge"
        assert report.seq == step + 1
    # the lossy link actually lost something, and every retry's
    # timeout+backoff is visible in the simulated clock
    assert s.stats.deltas_lost + s.stats.acks_lost > 0
    assert s.stats.wait_ns > 0
    assert rig.clock.category_ns(Category.COMM) - comm_before >= \
        s.stats.wait_ns
    # converged replica == host's persisted version
    from tests.core.test_replication import _fresh_arenas

    dram2, nvbm2 = _fresh_arenas()
    t2 = restore_from_replica(s.replica, dram2, nvbm2, dim=2)
    assert _sig(t2) == _sig(t)


# ------------------------------------------------- the write set, not a walk


def test_delta_ship_walks_nothing_resync_walks_once(rig):
    """A DELTA carries the published epochs' write sets: shipping one never
    walks the tree.  A resync (and a first ship to an empty peer) sends the
    whole version and walks it once."""
    t = _prepare(rig)
    calls = []
    orig = t.reachable_from
    t.reachable_from = lambda root: (calls.append(root) or orig(root))

    session = ReplicaSession(t)
    first = session.ship()            # empty peer: the whole version
    assert len(calls) == 1
    assert first.bytes_shipped == session.replica.bytes_stored()

    calls.clear()
    t.set_payload(sorted(t.leaves())[0], (5.0, 0, 0, 0))
    t.persist(transform=False)
    delta = session.ship()
    assert calls == [] and 0 < delta.records < first.records

    calls.clear()
    fresh = ReplicaSession(t, replica=session.replica)  # host restarted
    t.set_payload(sorted(t.leaves())[1], (6.0, 0, 0, 0))
    t.persist(transform=False)
    report = fresh.ship()             # a fresh seq diverges: one resync
    assert report.resynced and len(calls) == 1
