"""Remote replicas and recovery onto a replacement node (§3.4 scenario 2)."""

import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC, OCTANT_RECORD_SIZE
from repro.core.replication import (
    ReplicaSession,
    ReplicaStore,
    restore_from_replica,
)
from repro.errors import RecoveryError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton
from repro.octree.store import validate_tree


def _fresh_arenas():
    clock = SimClock()
    return (
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 4096),
        MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 16),
    )


def _signature(tree):
    return {loc: tree.get_payload(loc) for loc in tree.leaves()}


def test_delta_before_persist_rejected(rig):
    with pytest.raises(RecoveryError):
        ReplicaSession(rig.tree).ship()


def test_first_ship_is_full_tree(rig):
    t = rig.tree
    for leaf in list(t.leaves()):
        t.refine(leaf)
    t.persist(transform=False)
    session = ReplicaSession(t)
    shipped = session.ship().bytes_shipped
    replica = session.replica
    assert shipped == 5 * OCTANT_RECORD_SIZE
    assert len(replica.records) == 5
    assert replica.root == rig.nvbm.roots.get("V_prev")


def test_subsequent_ships_are_deltas(rig):
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    session = ReplicaSession(t)
    full = session.ship().bytes_shipped
    # one leaf changes -> only the rewritten path ships
    leaf = morton.loc_from_coords(2, (2, 2), 2)
    t.set_payload(leaf, (4.0, 0, 0, 0))
    t.persist(transform=False)
    delta = session.ship().bytes_shipped
    assert delta == 3 * OCTANT_RECORD_SIZE  # leaf + parent + root
    assert delta < full


def test_replica_prunes_stale_records(rig):
    t = rig.tree
    for leaf in list(t.leaves()):
        t.refine(leaf)
    t.persist(transform=False)
    session = ReplicaSession(t)
    session.ship()
    t.coarsen(morton.ROOT_LOC)
    t.persist(transform=False)
    session.ship()
    replica = session.replica
    # replica holds exactly the live persistent version (1 root octant)
    assert len(replica.records) == 1


def test_restore_on_replacement_node(rig):
    """The crashed node never returns: rebuild from the peer's replica."""
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    for i, leaf in enumerate(sorted(t.leaves())):
        t.set_payload(leaf, (float(i), 0, 0, 0))
    t.persist(transform=False)
    sig = _signature(t)
    session = ReplicaSession(t)
    session.ship()
    replica = session.replica

    # node lost entirely: new arenas on a replacement node
    new_dram, new_nvbm = _fresh_arenas()
    t2 = restore_from_replica(replica, new_dram, new_nvbm, dim=2)
    assert _signature(t2) == sig
    validate_tree(t2)
    t2.check_invariants()
    # and the recovered tree is fully usable
    t2.refine(sorted(t2.leaves())[0])
    t2.persist(transform=False)


def test_restore_from_empty_replica_rejected():
    new_dram, new_nvbm = _fresh_arenas()
    with pytest.raises(RecoveryError):
        restore_from_replica(ReplicaStore(), new_dram, new_nvbm)


def test_swizzling_rewrites_all_pointers(rig):
    """Records on the new node must never point into the dead node's arenas."""
    t = rig.tree
    for leaf in list(t.leaves()):
        t.refine(leaf)
    t.persist(transform=False)
    session = ReplicaSession(t)
    session.ship()
    replica = session.replica
    new_dram, new_nvbm = _fresh_arenas()
    restore_from_replica(replica, new_dram, new_nvbm, dim=2)
    for h in list(new_nvbm.live_handles()):
        rec = new_nvbm.read_octant(h)
        for child in rec.live_children():
            # every pointer resolves on the NEW node (a raw copy of the old
            # records would reference unallocated slots here)
            assert new_nvbm.contains(child)


def test_replica_survives_while_host_churns(rig):
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    session = ReplicaSession(t)
    session.ship()
    for step in range(3):
        t.set_payload(sorted(t.leaves())[step], (float(step), 0, 0, 0))
        t.persist(transform=False)
        session.ship()
        t.gc()
    replica = session.replica
    sig = _signature(t)
    new_dram, new_nvbm = _fresh_arenas()
    t2 = restore_from_replica(replica, new_dram, new_nvbm, dim=2)
    assert _signature(t2) == sig
