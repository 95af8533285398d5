"""Multi-failure recovery drivers: every §3.4 scenario plus the compound
failures — host-then-replica loss, concurrent host+peer loss, mandatory
re-replication after every recovery."""

from dataclasses import replace

from repro.config import PMOctreeConfig, TITAN
from repro.core.api import pm_create
from repro.core.recovery import Degraded, Recovered, recover_host, reprotect
from repro.core.replication import choose_replica_peer
from repro.parallel.cluster import SimulatedCluster
from repro.parallel.faults import NetworkFaultPlan

ONE_PER_NODE = replace(TITAN, cores_per_node=1)
PMCFG = PMOctreeConfig(dram_capacity_octants=2048)


def _sig(tree):
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _cluster_with_host(nranks=4, fault_plan=None):
    cluster = SimulatedCluster(nranks, spec=ONE_PER_NODE,
                               fault_plan=fault_plan)
    ctx = cluster.ranks[0]
    tree = pm_create(ctx.resources["dram"], ctx.resources["nvbm"], dim=2,
                     config=PMCFG, injector=ctx.injector)
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())):
        tree.set_payload(leaf, (float(i), 0.0, 0.0, 0.0))
    tree.persist(transform=False)
    return cluster, tree


def _protect(cluster, tree, host=0):
    session, peer, detail = reprotect(cluster, tree, host)
    assert session is not None, detail
    return session, peer


def test_reprotect_picks_live_peer_and_ships_full():
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    assert peer == choose_replica_peer(cluster, 0)
    assert session.protected
    assert tree.replicator is session  # future persists ship automatically


def test_reprotect_waits_for_a_published_version():
    """A pipelined tree's first epoch is still in flight after its first
    persist: there is nothing to ship, so ``reprotect`` attaches nothing
    and says so, and the same call protects the host once it publishes."""
    cluster = SimulatedCluster(2, spec=ONE_PER_NODE)
    ctx = cluster.ranks[0]
    tree = pm_create(ctx.resources["dram"], ctx.resources["nvbm"], dim=2,
                     config=replace(PMCFG, max_inflight_epochs=1),
                     injector=ctx.injector)
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    tree.persist(transform=False)
    assert reprotect(cluster, tree, 0) == (None, None,
                                           "nothing published yet")
    assert tree.replicator is None
    tree.drain_persists()
    session, peer = _protect(cluster, tree)
    assert peer == 1 and session.protected
    assert tree.replicator is session


def test_host_reboot_restores_locally_and_reprotects():
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    persisted = _sig(tree)
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=True,
                       config=PMCFG)
    assert isinstance(rec, Recovered) and not rec.degraded
    assert rec.kind == "local" and rec.host_rank == 0
    assert _sig(rec.tree) == persisted
    assert rec.protected and rec.session.protected  # mandatory re-replication
    assert cluster.ranks[rec.replica_peer].alive


def test_host_reboot_survives_replica_loss_too():
    """Host-loss-then-replica-loss: the local NVBM path needs no replica."""
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    persisted = _sig(tree)
    cluster.kill_node(cluster.ranks[peer].node)   # replica gone first
    cluster.kill_node(0)                          # then the host
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=True,
                       config=PMCFG)
    assert not rec.degraded and rec.kind == "local"
    assert _sig(rec.tree) == persisted
    assert rec.protected
    assert rec.replica_peer != peer               # reprotected elsewhere


def test_host_gone_recovers_from_replica_on_peer():
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    persisted = _sig(tree)
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=False,
                       config=PMCFG)
    assert not rec.degraded and rec.kind == "replica"
    assert rec.host_rank == peer                  # peer now serves the tree
    assert _sig(rec.tree) == persisted
    rec.tree.check_invariants()
    assert rec.protected and rec.replica_peer not in (None, peer)


def test_concurrent_host_and_peer_loss_degrades_gracefully():
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    cluster.kill_node(cluster.ranks[peer].node)
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=False,
                       config=PMCFG)
    assert isinstance(rec, Degraded) and rec.degraded
    assert "replica peer died with the host" in rec.reason
    assert 0 in rec.lost_ranks and peer in rec.lost_ranks
    assert rec.snapshot_restart


def test_host_gone_with_nothing_shipped_degrades():
    cluster, tree = _cluster_with_host()
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=None, replica_peer=None,
                       host_node_returns=False, config=PMCFG)
    assert rec.degraded
    assert "no replica was ever shipped" in rec.reason


def test_recovery_without_any_live_peer_is_unprotected_not_fatal():
    cluster, tree = _cluster_with_host(nranks=2)
    session, peer = _protect(cluster, tree)
    assert peer == 1
    cluster.kill_node(0)
    # only the replica peer remains: recovery serves from it, but there is
    # no third node to re-replicate onto — recovered yet unprotected
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=False,
                       config=PMCFG)
    assert not rec.degraded and rec.kind == "replica"
    assert not rec.protected
    assert "no live peer" in rec.detail


def test_reprotect_over_faulty_network_uses_faulty_transport():
    from repro.core.replication import FaultyTransport

    cluster, tree = _cluster_with_host(
        fault_plan=NetworkFaultPlan(seed=0))
    session, peer = _protect(cluster, tree)
    assert isinstance(session.transport, FaultyTransport)
    assert session.transport.peer_rank == peer


def test_persist_after_recovery_keeps_shipping():
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=True,
                       config=PMCFG)
    t = rec.tree
    t.set_payload(sorted(t.leaves())[0], (42.0, 0.0, 0.0, 0.0))
    t.persist(transform=False)                    # auto-ships via session
    assert rec.session.protected


def test_outcomes_are_reported_never_raised():
    """A ReplicaSession that cannot converge must yield an unprotected
    Recovered, not leak ReplicationTimeoutError out of recover_host."""
    cluster, tree = _cluster_with_host()
    session, peer = _protect(cluster, tree)
    cluster.kill_node(0)
    rec = recover_host(cluster, 0, replica=session.replica,
                       replica_peer=peer, host_node_returns=True,
                       config=PMCFG, break_acks=True)
    assert not rec.degraded
    assert not rec.protected
    assert "timed out" in rec.detail
