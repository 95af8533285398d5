"""SFC repartitioning tests."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.octree import morton
from repro.octree.linear import LinearOctree
from repro.parallel.cluster import SimulatedCluster
from repro.parallel.partition import (
    MigrationState,
    audit_migration,
    repartition,
)


def _uniform_leaves(level, dim=2):
    side = 1 << level
    if dim == 2:
        return [
            morton.loc_from_coords(level, (x, y), dim)
            for x in range(side)
            for y in range(side)
        ]
    raise NotImplementedError


def _cluster(n):
    return SimulatedCluster(n, dram_octants_per_rank=4096,
                            nvbm_octants_per_rank=4096)


def test_skewed_to_balanced():
    cluster = _cluster(4)
    leaves = _uniform_leaves(3)  # 64 leaves
    # rank 0 owns everything initially
    pieces = [
        LinearOctree(2, leaves),
        LinearOctree(2, [], max_level=3),
        LinearOctree(2, [], max_level=3),
        LinearOctree(2, [], max_level=3),
    ]
    res = repartition(cluster.comm, pieces)
    sizes = [len(p) for p in res.pieces]
    assert sizes == [16, 16, 16, 16]
    assert res.octants_moved == 48  # three quarters shipped away
    assert res.balanced


def test_preserves_octant_set_and_payloads():
    cluster = _cluster(3)
    leaves = _uniform_leaves(2)  # 16 leaves
    payloads = np.arange(16 * 4, dtype=float).reshape(16, 4)
    pieces = [
        LinearOctree(2, leaves, payloads),
        LinearOctree(2, [], max_level=2),
        LinearOctree(2, [], max_level=2),
    ]
    before = {int(leaf): tuple(p) for leaf, p in zip(pieces[0].locs, pieces[0].payloads)}
    res = repartition(cluster.comm, pieces)
    after = {}
    for p in res.pieces:
        for leaf, pay in zip(p.locs, p.payloads):
            after[int(leaf)] = tuple(pay)
    assert after == before


def test_pieces_stay_zorder_contiguous():
    cluster = _cluster(4)
    leaves = _uniform_leaves(3)
    pieces = [LinearOctree(2, leaves)] + [
        LinearOctree(2, [], max_level=3) for _ in range(3)
    ]
    res = repartition(cluster.comm, pieces)
    # global z-order must be piece0 ++ piece1 ++ ...: each piece's max key
    # is below the next piece's min key
    for a, b in zip(res.pieces, res.pieces[1:]):
        if len(a) and len(b):
            assert a.keys[-1] < b.keys[0]


def test_already_balanced_moves_nothing():
    cluster = _cluster(2)
    leaves = _uniform_leaves(2)
    lin = LinearOctree(2, leaves)
    (a0, a1), (b0, b1) = lin.split_ranges(2)
    pieces = [lin.slice(a0, a1), lin.slice(b0, b1)]
    res = repartition(cluster.comm, pieces)
    assert res.octants_moved == 0
    assert res.bytes_moved == 0


def test_comm_time_charged_when_moving():
    cluster = _cluster(2)
    leaves = _uniform_leaves(3)
    pieces = [LinearOctree(2, leaves), LinearOctree(2, [], max_level=3)]
    t0 = cluster.comm.makespan_ns()
    res = repartition(cluster.comm, pieces)
    assert res.octants_moved > 0
    assert cluster.comm.makespan_ns() > t0
    assert cluster.network.bytes_moved >= res.bytes_moved


def test_empty_forest_rejected():
    cluster = _cluster(2)
    pieces = [LinearOctree(2, [], max_level=1), LinearOctree(2, [], max_level=1)]
    with pytest.raises(PartitionError):
        repartition(cluster.comm, pieces)


def test_piece_count_mismatch_rejected():
    cluster = _cluster(3)
    with pytest.raises(PartitionError):
        repartition(cluster.comm, [LinearOctree(2, [morton.ROOT_LOC])])


def test_balanced_is_weighted_not_count_based():
    """Regression: ``balanced`` used to compare raw leaf counts, which is
    wrong once cuts are weight-based — a rank holding a few heavy interface
    octants IS balanced despite owning far fewer leaves."""
    cluster = _cluster(2)
    leaves = _uniform_leaves(2)  # 16 leaves
    pieces = [LinearOctree(2, leaves), LinearOctree(2, [], max_level=2)]
    weights = [np.array([9.0] + [1.0] * 15), np.array([])]
    res = repartition(cluster.comm, pieces, weights=weights)
    sizes = [len(p) for p in res.pieces]
    assert sizes[0] < sizes[1]  # the heavy-octant rank gets fewer leaves
    loads = res.weighted_loads
    mean = sum(loads) / len(loads)
    assert max(loads) <= mean + res.max_weight + 1e-9
    assert res.balanced  # weighted verdict, despite the unequal counts
    assert res.imbalance >= res.imbalance_after


def test_empty_piece_after_cut_carries_forest_max_level():
    """Regression: a rank owning zero leaves after the cut used to get a
    ``LinearOctree`` with ``max_level`` copied from a peer — keys stopped
    being comparable across ranks.  Every rebuilt piece (empty included)
    must carry the forest's agreed depth, never a stale peer value."""
    cluster = _cluster(3)
    leaves = _uniform_leaves(1)  # 4 leaves at level 1
    pieces = [
        LinearOctree(2, leaves, max_level=1),
        LinearOctree(2, [], max_level=7),  # stale depth from a dead peer
        LinearOctree(2, [], max_level=7),
    ]
    weights = [np.array([10.0, 1.0, 1.0, 1.0]), np.array([]), np.array([])]
    res = repartition(cluster.comm, pieces, weights=weights)
    assert [len(p) for p in res.pieces] == [1, 0, 3]  # middle rank empty
    assert all(p.max_level == 1 for p in res.pieces)


def test_threshold_skip_returns_pieces_untouched():
    cluster = _cluster(2)
    leaves = _uniform_leaves(2)
    lin = LinearOctree(2, leaves)
    (a0, a1), (b0, b1) = lin.split_ranges(2)
    pieces = [lin.slice(a0, a1), lin.slice(b0, b1)]
    res = repartition(cluster.comm, pieces, threshold=1.1)
    assert res.skipped and res.octants_moved == 0
    assert res.pieces[0] is pieces[0] and res.pieces[1] is pieces[1]
    assert res.imbalance == res.imbalance_after == pytest.approx(1.0)


def test_obs_counters_and_migrate_spans():
    from repro.obs import Observability

    cluster = _cluster(4)
    obs = Observability(cluster.ranks[0].clock)
    leaves = _uniform_leaves(3)
    pieces = [LinearOctree(2, leaves)] + [
        LinearOctree(2, [], max_level=3) for _ in range(3)
    ]
    res = repartition(cluster.comm, pieces, obs=obs)
    m = obs.metrics
    assert m.get("partition.octants_moved").value == res.octants_moved
    assert m.get("partition.bytes_moved").value == res.bytes_moved
    assert m.get("partition.imbalance").value == pytest.approx(res.imbalance)
    names = [s.name for s in obs.tracer.spans]
    assert "partition.migrate" in names and "migrate.batch" in names
    # the batch spans nest under the migrate span
    outer = obs.tracer.named("partition.migrate")[0]
    assert obs.tracer.children_of(outer)
    # a second call on the now-balanced pieces skips under a threshold
    res2 = repartition(cluster.comm, res.pieces, threshold=1.5, obs=obs)
    assert res2.skipped
    assert m.get("partition.skipped").value == 1


def test_migration_audit_reports_each_breach():
    """One audit, one breach per hand-corrupted state: duplicate, lost,
    torn, left in flight — and none on the untouched forest."""
    cluster = _cluster(2)
    leaves = _uniform_leaves(2)  # 16 leaves
    payloads = np.arange(16 * 4, dtype=float).reshape(16, 4)
    pieces = [LinearOctree(2, leaves[:12], payloads[:12]),
              LinearOctree(2, leaves[12:], payloads[12:])]
    truth = {int(loc): tuple(piece.payloads[i])
             for piece in pieces for i, loc in enumerate(piece.locs)}

    def corrupted(corrupt):
        state = MigrationState()
        state.load(pieces, [np.ones(len(p)) for p in pieces], max_level=2)
        corrupt(state, int(pieces[0].locs[0]))
        return audit_migration(state, truth, cluster.comm)

    def duplicate(state, loc):
        state.stores[1][loc] = state.stores[0][loc]

    def tear(state, loc):
        state.stores[0][loc] = state.stores[0][loc] + 1.0

    assert corrupted(lambda state, loc: None) is None
    assert "duplicated across ranks" in corrupted(duplicate)
    assert corrupted(lambda state, loc: state.stores[0].pop(loc)) \
        == "octants lost: 1 missing"
    assert corrupted(tear) == "payload torn on 1 octants"
    assert corrupted(lambda state, loc: state.log.begin(0, 1, [loc])) \
        == "1 batches left in flight"


def test_cluster_node_layout():
    cluster = SimulatedCluster(40)
    assert cluster.nranks == 40
    assert cluster.nnodes == 3  # 16 cores/node on Titan
    assert len(cluster.ranks_on_node(0)) == 16
    assert len(cluster.ranks_on_node(2)) == 8


def test_kill_node_semantics():
    cluster = _cluster(2)
    ctx = cluster.ranks[0]
    dram, nvbm = ctx.resources["dram"], ctx.resources["nvbm"]
    from repro.nvbm.records import OctantRecord

    dram.new_octant(OctantRecord(loc=1))
    h = nvbm.new_octant(OctantRecord(loc=1))
    nvbm.flush()
    killed = cluster.kill_node(0)
    assert killed == [0, 1]  # both ranks share node 0 (16 cores/node)
    assert not ctx.alive
    assert dram.used == 0          # DRAM gone
    assert nvbm.read_octant(h).loc == 1  # flushed NVBM survives
    cluster.revive_rank(0, node=5)
    assert ctx.alive and ctx.node == 5
