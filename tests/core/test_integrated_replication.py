"""Replication integrated into the persist path (the §3.4 user switch):
``attach_replication_session`` is the one way to turn it on."""


from repro.config import OCTANT_RECORD_SIZE
from repro.core.replication import (
    ReplicaSession, ReplicaStore, restore_from_replica,
)
from repro.nvbm.pointers import NULL_HANDLE
from repro.octree import morton


def test_persist_ships_automatically(rig):
    t = rig.tree
    session = t.attach_replication_session(ReplicaSession(t))
    for leaf in list(t.leaves()):
        t.refine(leaf)
    t.persist(transform=False)
    assert (session.stats.ships, session.stats.bytes_shipped) \
        == (1, 5 * OCTANT_RECORD_SIZE)
    assert len(session.replica.records) == 5
    # a second persist with one change ships only the delta
    t.set_payload(sorted(t.leaves())[0], (1.0, 0, 0, 0))
    t.persist(transform=False)
    assert session.stats.ships == 2
    assert session.stats.bytes_shipped == 7 * OCTANT_RECORD_SIZE  # leaf + root


def test_disabled_by_default(rig):
    assert rig.tree.replicator is None
    rig.tree.refine(morton.ROOT_LOC)
    rig.tree.persist()  # must not try to ship anywhere


def test_replica_recovers_full_simulation_state(rig):
    from repro.config import SolverConfig
    from repro.solver.simulation import DropletSimulation

    t = rig.tree
    replica = t.attach_replication_session(ReplicaSession(t)).replica
    sim = DropletSimulation(
        t, SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01),
        clock=rig.clock, persistence=lambda s: s.tree.persist(),
    )
    sim.run(5)
    sig = {loc: t.get_payload(loc) for loc in t.leaves()}
    # the node is gone; rebuild from the replica on fresh arenas
    from repro.config import DRAM_SPEC, NVBM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.clock import SimClock
    from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM

    clock = SimClock()
    t2 = restore_from_replica(
        replica,
        MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14),
        MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 16),
        dim=2,
    )
    assert {loc: t2.get_payload(loc) for loc in t2.leaves()} == sig


def test_external_replica_object_accepted(rig):
    mine = ReplicaStore()
    session = rig.tree.attach_replication_session(
        ReplicaSession(rig.tree, replica=mine))
    assert session.replica is mine
    rig.tree.refine(morton.ROOT_LOC)
    rig.tree.persist(transform=False)
    assert mine.root != NULL_HANDLE
