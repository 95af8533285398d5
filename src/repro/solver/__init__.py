"""A compact multiphase flow workload: droplet ejection (§5.1).

The paper drives its evaluation with a Gerris simulation of inkjet droplet
ejection: a liquid jet leaves a nozzle, a capillary (Rayleigh-Plateau)
instability grows on its surface, the jet pinches off and breaks into
droplets.  Resolving the pinch-off needs locally very fine cells — the
poster child for octree AMR.

This package implements the same *shape* of workload at simulator scale:

* an analytic two-phase geometry (jet column + growing perturbation +
  post-breakup droplets) that moves through the domain over time,
* a VOF colour field advected with a prescribed velocity and sharpened
  against the analytic interface each step,
* an optional pressure-projection solve on the extracted leaf graph,
* interface-band refinement criteria that double as PM-octree feature
  functions (§3.3),
* a time-stepping driver that runs the same simulation over any
  :class:`~repro.octree.store.AdaptiveTree` implementation.

What matters for reproducing the paper is the induced *tree access pattern*
(write intensity, step-to-step overlap, moving hot region), not CFD
fidelity; see DESIGN.md's substitution table.
"""

from repro.solver.geometry import DropletGeometry
from repro.solver.fields import FieldView, PRESSURE, U, V, VOF
from repro.solver.features import interface_criterion
from repro.solver.advection import advect_vof, initialize_vof
from repro.solver.poisson import pressure_solve
from repro.solver.simulation import DropletSimulation, StepReport

__all__ = [
    "DropletGeometry",
    "DropletSimulation",
    "FieldView",
    "PRESSURE",
    "StepReport",
    "U",
    "V",
    "VOF",
    "advect_vof",
    "initialize_vof",
    "interface_criterion",
    "pressure_solve",
]
