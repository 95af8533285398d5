#!/usr/bin/env python
"""A second AMR application on PM-octree: an expanding seismic wavefront.

The paper's future work (§6) is to exercise PM-octree with other AMR
simulations; this example runs the :mod:`repro.solver.wave` workload — a
radially expanding pulse whose hot region sweeps the whole domain — on a
fixed C0 DRAM budget, so the layout transformation has to follow the front
(and therefore the working set) as it grows and then leaves the domain.

Run:  python examples/seismic_wave.py [steps]
"""

import sys

from repro.config import DRAM_SPEC, NVBM_SPEC, PMOctreeConfig
from repro.core import pm_create
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree.vtkout import tree_to_vtk
from repro.solver.wave import WaveConfig, WaveSimulation


def main() -> None:
    steps = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 19)
    config = PMOctreeConfig(dram_capacity_octants=1024)
    tree = pm_create(dram, nvbm, dim=2, config=config)

    def persist_and_gc(sim_):
        sim_.tree.persist(keep_resident=True)
        sim_.tree.gc()

    cfg = WaveConfig(dim=2, min_level=2, max_level=6, dt=0.02, speed=0.6)
    sim = WaveSimulation(tree, cfg, clock=clock,
                         persistence=persist_and_gc)

    print(f"expanding wavefront for {steps} steps "
          f"(epicenter {cfg.epicenter}, speed {cfg.speed}, "
          f"C0 budget {config.dram_capacity_octants} octants)\n")
    for r in sim.run(steps):
        if r.step % 5 == 0:
            print(f"  step {r.step:3d}  t={r.t:4.2f}  front r={r.front_radius:4.2f}  "
                  f"leaves={r.leaves:5d}  written={r.cells_written:5d}")

    print(f"\nsimulated execution time: {clock.now_s:.4f} s")
    print(f"NVBM writes: {nvbm.device.stats.writes}, "
          f"evictions: {tree.stats.evictions}, "
          f"transformations: {tree.stats.transformations}")

    out = "wavefront.vtk"
    with open(out, "w") as fh:
        fh.write(tree_to_vtk(tree, payload_slot=0, field_name="amplitude",
                             title=f"wavefront t={sim.t:.2f}"))
    print(f"wrote {out} ({tree.num_leaves()} cells) — open in ParaView")


if __name__ == "__main__":
    main()
