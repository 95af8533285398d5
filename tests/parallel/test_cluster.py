"""SimulatedCluster node-loss semantics: what dies, what survives."""

from dataclasses import replace

from repro.config import PMOctreeConfig, TITAN
from repro.core.api import pm_create
from repro.core.recovery import attach_and_restore
from repro.parallel.cluster import SimulatedCluster
from repro.parallel.faults import FaultyNetwork, NetworkFaultPlan

ONE_PER_NODE = replace(TITAN, cores_per_node=1)


def _host_tree(cluster, rank=0):
    ctx = cluster.ranks[rank]
    tree = pm_create(ctx.resources["dram"], ctx.resources["nvbm"], dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=2048),
                     injector=ctx.injector)
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())):
        tree.set_payload(leaf, (float(i), 0.0, 0.0, 0.0))
    return ctx, tree


def _sig(tree):
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def test_kill_node_loses_dram_keeps_persisted_nvbm():
    cluster = SimulatedCluster(2, spec=ONE_PER_NODE)
    ctx, tree = _host_tree(cluster)
    tree.persist(transform=False)
    persisted = _sig(tree)
    # volatile work after the persist must die with the node
    tree.set_payload(sorted(tree.leaves())[0], (99.0, 0.0, 0.0, 0.0))

    killed = cluster.kill_node(0)
    assert killed == [0]
    assert not ctx.alive
    assert list(ctx.resources["dram"].live_handles()) == []
    # NVBM backing survives: the same arenas restore the persisted version
    restored = attach_and_restore(ctx.resources["dram"],
                                  ctx.resources["nvbm"], dim=2)
    restored.check_invariants()
    assert _sig(restored) == persisted


def test_kill_node_hits_every_rank_on_the_node():
    cluster = SimulatedCluster(4, spec=replace(TITAN, cores_per_node=2))
    assert [r.node for r in cluster.ranks] == [0, 0, 1, 1]
    assert sorted(cluster.kill_node(1)) == [2, 3]
    assert cluster.ranks[0].alive and cluster.ranks[1].alive


def test_killing_dead_node_is_noop():
    cluster = SimulatedCluster(2, spec=ONE_PER_NODE)
    ctx, tree = _host_tree(cluster)
    tree.persist(transform=False)
    assert cluster.kill_node(0) == [0]
    # a dead node cannot lose power twice: no re-tearing, no new kills
    assert cluster.kill_node(0) == []
    restored = attach_and_restore(ctx.resources["dram"],
                                  ctx.resources["nvbm"], dim=2)
    restored.check_invariants()


def test_revive_rank_migrates_to_replacement_node():
    cluster = SimulatedCluster(3, spec=ONE_PER_NODE)
    cluster.kill_node(1)
    ctx = cluster.revive_rank(1, node=7)
    assert ctx.alive and ctx.node == 7
    # revive without a node keeps the old placement (same node rebooted)
    cluster.kill_node(7)
    ctx = cluster.revive_rank(1)
    assert ctx.alive and ctx.node == 7


def test_fault_plan_wraps_network():
    plan = NetworkFaultPlan(seed=9)
    cluster = SimulatedCluster(2, spec=ONE_PER_NODE, fault_plan=plan)
    assert isinstance(cluster.network, FaultyNetwork)
    assert cluster.network.plan is plan
    cluster.comm.barrier()  # collectives still run over the wrapper
    plain = SimulatedCluster(2, spec=ONE_PER_NODE)
    assert not isinstance(plain.network, FaultyNetwork)
