"""The droplet-ejection time-stepping driver.

Runs the §5.1 workload over *any* AdaptiveTree implementation: per step it
(1) adapts the mesh to the moving interface (Refine & Coarsen + Balance),
(2) runs the VOF transport sweep and optionally the pressure solve, and
(3) invokes the persistence hook — ``pm_persistent`` for PM-octree, the
snapshot policy for the in-core baseline, nothing for Etree.

Phases are labelled on the rank's simulated clock so the harness can print
the Fig 7/8b breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.config import SolverConfig
from repro.nvbm.clock import SimClock
from repro.obs.instrument import sim_phase
from repro.octree.balance import balance_tree
from repro.octree.refine import RefinementEngine, refine_uniform
from repro.octree.store import AdaptiveTree
from repro.solver.advection import advect_vof, initialize_vof
from repro.solver.features import change_feature, interface_criterion
from repro.solver.fields import count_droplets
from repro.solver.geometry import DropletGeometry
from repro.solver.poisson import pressure_solve, smooth_pressure

#: Estimated flop time per leaf per sweep, charged as compute (the memory
#: traffic is charged exactly by the arenas; this stands in for arithmetic).
COMPUTE_NS_PER_LEAF = 120.0


@dataclass
class StepReport:
    """What one time step did."""

    step: int
    t: float
    leaves: int
    octants: int
    refined: int
    coarsened: int
    droplets: int
    overlap_ratio: Optional[float] = None


class DropletSimulation:
    """Droplet ejection over an adaptive tree."""

    def __init__(self, tree: AdaptiveTree, config: Optional[SolverConfig] = None,
                 clock: Optional[SimClock] = None,
                 persistence: Optional[Callable[["DropletSimulation"], None]] = None,
                 pressure_every: int = 0, pressure_smooth: int = 0):
        self.tree = tree
        self.config = config or SolverConfig(dim=tree.dim)
        if self.config.dim != tree.dim:
            raise ValueError("config dim does not match tree dim")
        self.geometry = DropletGeometry(self.config)
        self.clock = clock
        self.persistence = persistence
        self.pressure_every = pressure_every
        #: red-black smoothing sweeps per step (0 = off)
        self.pressure_smooth = pressure_smooth
        self.step_count = 0
        self.t = 0.0
        self.history: List[StepReport] = []
        #: optional repro.obs.Observability; phases become trace spans too
        self.obs = None
        # hand the feature function to PM-octree when driving one (§3.3):
        # the write-set predictor for the *next* step's time
        if hasattr(tree, "register_feature"):
            tree.register_feature(self._next_step_feature)

    def _next_step_feature(self, batch):
        """Feature bound to the next step: which octants will be written?"""
        return change_feature(self.geometry, self.t + self.config.dt)(batch)

    # -- lifecycle -----------------------------------------------------------

    def construct(self) -> None:
        """Build the initial mesh (*Construct*): refine to the base level,
        then adapt to the initial interface and fill the fields."""
        with sim_phase(self, "construct"):
            refine_uniform(self.tree, self.config.min_level)
            self._adapt()
            balance_tree(self.tree, max_level=self.config.max_level)
            initialize_vof(self.tree, self.geometry, self.t)

    def _adapt(self):
        criterion = interface_criterion(self.geometry, self.config, self.t)
        # balance=False: the driver runs the explicit Balance pass itself so
        # the Fig 7/8b breakdown separates Refine&Coarsen from Balance
        engine = RefinementEngine(
            criterion,
            min_level=self.config.min_level,
            max_level=self.config.max_level,
            balance=False,
        )
        return engine.adapt(self.tree, rounds=self.config.max_level)

    def step(self) -> StepReport:
        """Advance one time step; returns the step report."""
        self.step_count += 1
        self.t = self.step_count * self.config.dt
        with sim_phase(self, "step"):
            with sim_phase(self, "refine"):
                res = self._adapt()
            with sim_phase(self, "balance"):
                balance_tree(self.tree, max_level=self.config.max_level)
            with sim_phase(self, "solve"):
                counters = advect_vof(self.tree, self.geometry, self.config,
                                      self.t, obs=self.obs)
                if self.pressure_smooth:
                    smooth_pressure(self.tree, sweeps=self.pressure_smooth,
                                    obs=self.obs)
                if self.pressure_every \
                        and self.step_count % self.pressure_every == 0:
                    pressure_solve(self.tree, obs=self.obs)
                if self.clock is not None:
                    self.clock.advance(
                        COMPUTE_NS_PER_LEAF * counters["reads"]
                    )
            if self.persistence is not None:
                # "persist.enqueue": the compute-path half of the persist
                # point.  Background drain time never lands here — the
                # epoch pipeline charges stalls under its own nested
                # "persist.drain" phase, so the span tree attributes flush
                # waits to the drain, not to compute.  The synchronous path
                # simply spends its whole persist inside this span.
                with sim_phase(self, "persist.enqueue"):
                    self.persistence(self)
        report = StepReport(
            step=self.step_count,
            t=self.t,
            leaves=self.tree.num_leaves(),
            octants=self.tree.num_octants(),
            refined=res.refined,
            coarsened=res.coarsened,
            droplets=count_droplets(self.tree),
            overlap_ratio=(
                self.tree.overlap_ratio()
                if hasattr(self.tree, "overlap_ratio")
                else None
            ),
        )
        self.history.append(report)
        return report

    def run(self, steps: int) -> List[StepReport]:
        """Run several steps (constructing first if never constructed)."""
        if self.step_count == 0 and self.tree.num_octants() <= 1:
            self.construct()
        return [self.step() for _ in range(steps)]
