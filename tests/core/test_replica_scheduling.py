"""Replica peer selection (the §3.4/§6 scheduler)."""


from repro.core.replication import choose_replica_peer
from repro.nvbm.records import OctantRecord
from repro.parallel.cluster import SimulatedCluster


def _cluster(nranks=40):
    # Titan spec: 16 cores/node -> ranks 0-15 node 0, 16-31 node 1, ...
    return SimulatedCluster(nranks, dram_octants_per_rank=64,
                            nvbm_octants_per_rank=64)


def test_peer_is_on_another_node():
    cluster = _cluster()
    peer = choose_replica_peer(cluster, host_rank=0)
    assert peer is not None
    assert cluster.ranks[peer].node != cluster.ranks[0].node


def test_peer_prefers_emptier_nvbm():
    cluster = _cluster()
    # fill most NVBM arenas except rank 20's (node 1)
    for ctx in cluster.ranks:
        if ctx.node == 0 or ctx.rank == 20:
            continue
        nv = ctx.resources["nvbm"]
        for _ in range(32):
            nv.new_octant(OctantRecord())
    peer = choose_replica_peer(cluster, host_rank=0)
    assert peer == 20


def test_single_node_cluster_has_no_peer():
    cluster = _cluster(nranks=8)  # all on node 0
    assert choose_replica_peer(cluster, host_rank=0) is None


def test_dead_ranks_skipped():
    cluster = _cluster(nranks=32)  # nodes 0 and 1
    cluster.kill_node(1)
    assert choose_replica_peer(cluster, host_rank=0) is None
    # host on node 1 (dead ranks can't host, but selection still works the
    # other way): a live node-0 rank serves a node-1 host
    peer = choose_replica_peer(cluster, host_rank=16)
    assert peer is not None
    assert cluster.ranks[peer].node == 0


def test_end_to_end_replica_on_chosen_peer():
    """Ship deltas to the scheduler-chosen peer's NVBM arena and recover."""
    from repro.config import PMOctreeConfig
    from repro.core.api import pm_create
    from repro.core.replication import ReplicaSession, restore_from_replica
    from repro.octree import morton

    cluster = _cluster(nranks=32)
    host = cluster.ranks[0]
    tree = pm_create(host.resources["dram"], host.resources["nvbm"], dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=64))
    tree.refine(morton.ROOT_LOC)
    tree.persist(transform=False)
    peer = choose_replica_peer(cluster, host_rank=0)
    session = ReplicaSession(tree)
    shipped = session.ship().bytes_shipped
    replica = session.replica
    assert shipped > 0
    # node 0 dies; recover on the peer's node using its arenas
    cluster.kill_node(0)
    peer_ctx = cluster.ranks[peer]
    t2 = restore_from_replica(
        replica, peer_ctx.resources["dram"], peer_ctx.resources["nvbm"], dim=2
    )
    assert t2.num_octants() == 5
