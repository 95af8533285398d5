#!/usr/bin/env python
"""Failure recovery, §5.6 style: kill the simulation at step 20, recover.

Runs the droplet workload on all three octree implementations, kills the
node mid-run, and compares simulated restart times — including the second
scenario where the node never returns and PM-octree recovers from a remote
replica while the out-of-core database is simply gone.

Run:  python examples/failure_recovery.py
"""

import numpy as np

from repro.config import (
    DRAM_SPEC,
    NVBM_FS_SPEC,
    NVBM_SPEC,
    PFS_SPEC,
    SolverConfig,
)
from repro.baselines.etree import EtreeOctree
from repro.baselines.incore import CheckpointPolicy, InCoreOctree
from repro.core import pm_create, pm_restore
from repro.core.replication import ReplicaSession, restore_from_replica
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.solver.simulation import DropletSimulation
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem

SOLVER = SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)
KILL_STEP = 20


def leaves_signature(tree):
    return {loc: tree.get_payload(loc) for loc in tree.leaves()}


def run_pm():
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 15)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 19)
    tree = pm_create(dram, nvbm, dim=2)
    # every persist ships its write set to the peer's replica
    replica = tree.attach_replication_session(ReplicaSession(tree)).replica
    sim = DropletSimulation(tree, SOLVER, clock=clock,
                            persistence=lambda s: s.tree.persist())
    sim.run(KILL_STEP)
    before = leaves_signature(tree)

    # ---- crash: power loss on the node -----------------------------------
    dram.crash()
    nvbm.crash(np.random.default_rng(1))

    # scenario 1: same node reboots
    t0 = clock.now_ns
    tree = pm_restore(dram, nvbm, dim=2)
    t_same = (clock.now_ns - t0) * 1e-9
    assert leaves_signature(tree) == before
    print(f"PM-octree  same node : {t_same * 1e3:9.3f} ms  "
          f"({tree.num_octants()} octants back, state verified)")

    # scenario 2: node replaced; recover from the peer replica
    clock2 = SimClock()
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 1 << 15)
    nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 19)
    t0 = clock2.now_ns
    tree2 = restore_from_replica(replica, dram2, nvbm2, dim=2)
    t_new = (clock2.now_ns - t0) * 1e-9
    assert leaves_signature(tree2) == before
    print(f"PM-octree  new node  : {t_new * 1e3:9.3f} ms  "
          f"(replica of {replica.bytes_stored()} bytes swizzled onto the "
          "replacement node)")


def run_incore():
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 17)
    pfs = SimFileSystem(BlockDevice(PFS_SPEC, clock))
    tree = InCoreOctree(dram, dim=2)
    policy = CheckpointPolicy(pfs, interval=10)
    sim = DropletSimulation(
        tree, SOLVER, clock=clock,
        persistence=lambda s: policy.maybe_checkpoint(tree, s.step_count),
    )
    sim.run(KILL_STEP)
    dram.crash()
    t0 = clock.now_ns
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 17)
    tree2 = InCoreOctree.restore_from(pfs, policy.latest(), dram2)
    t = (clock.now_ns - t0) * 1e-9
    print(f"in-core    any node  : {t * 1e3:9.3f} ms  "
          f"(re-read snapshot; steps since checkpoint are lost)")


def run_etree():
    clock = SimClock()
    device = BlockDevice(NVBM_FS_SPEC, clock)
    tree = EtreeOctree(device, dim=2)
    sim = DropletSimulation(tree, SOLVER, clock=clock)
    sim.run(KILL_STEP)
    device.crash()
    t0 = clock.now_ns
    n = tree.recover_check()
    t = (clock.now_ns - t0) * 1e-9
    print(f"out-of-core same node: {t * 1e3:9.3f} ms  "
          f"({n} leaves verified; durable database)")
    print("out-of-core new node : UNRECOVERABLE (octants were on the dead "
          "node's device, no replication)")


def main() -> None:
    print(f"killing each implementation at step {KILL_STEP} "
          "and measuring simulated restart time:\n")
    run_pm()
    run_incore()
    run_etree()


if __name__ == "__main__":
    main()
