"""A second AMR workload: an expanding seismic-style wavefront.

The paper's §6 future work is to "test PM-octree with other flow solvers
and simulations requiring adaptive mesh refinement"; its related work cites
octree-based earthquake ground-motion modelling (Kim et al.).  This module
provides such a workload with a *different* access pattern from droplet
ejection: an annular wavefront expands radially from an epicenter, so the
hot region is a growing ring that sweeps the whole domain — broader, faster
moving, and without the quiescent tail of the jet.

The field is a prescribed radial pulse

    u(x, t) = exp(-((|x - epicenter| - c*t) / width)^2)

stored in payload slot 0; refinement follows the pulse (|u| above a
threshold), and the per-step sweep writes every cell whose value changed —
the same solver-shaped traffic the droplet workload produces, through the
same :class:`~repro.octree.store.AdaptiveTree` protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nvbm.clock import SimClock
from repro.obs.instrument import sim_phase
from repro.octree import morton, soa
from repro.octree.balance import balance_tree
from repro.octree.refine import Action, RefinementEngine
from repro.octree.store import AdaptiveTree


@dataclass
class WaveConfig:
    """Parameters of the expanding-wavefront workload."""

    dim: int = 2
    min_level: int = 2
    max_level: int = 6
    epicenter: Tuple[float, ...] = (0.5, 0.5)
    speed: float = 0.6       #: wavefront speed (domain units / time unit)
    width: float = 0.05      #: Gaussian pulse width
    threshold: float = 0.1   #: refine where u exceeds this
    dt: float = 0.02

    def __post_init__(self) -> None:
        if len(self.epicenter) != self.dim:
            raise ValueError("epicenter dimensionality mismatch")
        if self.speed <= 0 or self.width <= 0:
            raise ValueError("speed and width must be positive")


class WaveField:
    """The analytic pulse and its cell-averaged evaluation."""

    def __init__(self, config: WaveConfig):
        self.config = config

    def value(self, point, t: float) -> float:
        # Spelled so the SoA sweep can replicate it bitwise: an explicit
        # left-to-right sum of squares (math.dist's fused form has no numpy
        # twin), math.sqrt (bit-equal to np.sqrt), and np.exp (math.exp is
        # NOT bit-equal to it).
        s = 0.0
        for p, e in zip(point, self.config.epicenter):
            d = p - e
            s += d * d
        r = math.sqrt(s)
        z = (r - self.config.speed * t) / self.config.width
        return float(np.exp(-z * z))

    def radii(self, centers: np.ndarray) -> np.ndarray:
        """Distance of many points from the epicenter — the arithmetic of
        :meth:`value` elementwise (left-to-right sum of squares, sqrt)."""
        d = centers - np.asarray(self.config.epicenter, dtype=np.float64)
        s = d[:, 0] * d[:, 0]
        for axis in range(1, self.config.dim):
            s = s + d[:, axis] * d[:, axis]
        return np.sqrt(s)

    def values(self, centers: np.ndarray, t: float) -> np.ndarray:
        """:meth:`value` at many points (bit-identical per element)."""
        z = (self.radii(centers) - self.config.speed * t) / self.config.width
        return np.exp(-z * z)

    def cell_value(self, loc: int, t: float) -> float:
        """Pulse amplitude at the cell center (adequate: the pulse is wider
        than the finest cells)."""
        return self.value(morton.cell_center(loc, self.config.dim), t)

    def front_radius(self, t: float) -> float:
        return self.config.speed * t


@dataclass
class WaveStepReport:
    step: int
    t: float
    leaves: int
    refined: int
    coarsened: int
    cells_written: int
    front_radius: float


class WaveSimulation:
    """Time-stepping driver for the wavefront workload.

    Mirrors :class:`~repro.solver.simulation.DropletSimulation`: adapt to
    the moving feature, sweep the field, invoke the persistence hook.
    """

    def __init__(self, tree: AdaptiveTree, config: Optional[WaveConfig] = None,
                 clock: Optional[SimClock] = None,
                 persistence: Optional[Callable[["WaveSimulation"], None]] = None):
        self.tree = tree
        self.config = config or WaveConfig(dim=tree.dim)
        if self.config.dim != tree.dim:
            raise ValueError("config dim does not match tree dim")
        self.field = WaveField(self.config)
        self.clock = clock
        self.persistence = persistence
        self.obs = None
        self.step_count = 0
        self.t = 0.0
        self.history: List[WaveStepReport] = []
        if hasattr(tree, "register_feature"):
            tree.register_feature(self._next_step_feature)

    def _next_step_feature(self, batch: soa.LeafBatch) -> np.ndarray:
        """Which octants change next step? (the §3.3 feature function)"""
        t_next = self.t + self.config.dt
        return np.abs(self.field.values(batch.centers, t_next)
                      - batch.payloads[:, 0]) > 1e-6

    def _criterion(self, t: float):
        cfg = self.config
        front = self.field.front_radius(t)

        def criterion(batch: soa.LeafBatch) -> np.ndarray:
            # refine wherever the pulse (evaluated over the cell, padded by
            # one cell width) is significant
            near = np.abs(self.field.radii(batch.centers) - front) \
                < (cfg.width * 2.5 + batch.h)
            actions = np.full(len(batch), Action.KEEP, dtype=np.int8)
            actions[near & (batch.levels < cfg.max_level)] = Action.REFINE
            actions[~near & (batch.levels > cfg.min_level)] = Action.COARSEN
            return actions

        return criterion

    def construct(self) -> None:
        with sim_phase(self, "construct"):
            frontier = [
                leaf for leaf in self.tree.leaves()
                if morton.level_of(leaf, self.tree.dim) < self.config.min_level
            ]
            while frontier:
                nxt = []
                for loc in frontier:
                    for c in self.tree.refine(loc):
                        if morton.level_of(c, self.tree.dim) < self.config.min_level:
                            nxt.append(c)
                frontier = nxt
            self._adapt()
            balance_tree(self.tree, max_level=self.config.max_level)
            self._sweep()

    def _adapt(self):
        engine = RefinementEngine(
            self._criterion(self.t),
            min_level=self.config.min_level,
            max_level=self.config.max_level,
            balance=False,
        )
        return engine.adapt(self.tree, rounds=self.config.max_level)

    def _sweep(self) -> int:
        """Write the pulse value into every cell whose value changed.

        Gathers every leaf, evaluates the pulse elementwise with the exact
        :meth:`WaveField.value` arithmetic and writes back the changed
        cells in leaf order (bit-identical to the per-octant oracle in
        ``tests/oracles`` in values and device metering)."""
        batch = soa.gather(self.tree, self.tree.leaves())
        n = len(batch)
        if self.obs is not None:
            self.obs.metrics.counter("kernel.batch_elems").inc(n)
        if n == 0:
            return 0
        new = self.field.values(batch.centers, self.t)
        payloads = batch.payloads
        write_pos = np.nonzero(np.abs(payloads[:, 0] - new) > 1e-12)[0]
        loc_list = batch.loc_list
        items = [
            (loc_list[i],
             (float(new[i]), float(payloads[i, 1]),
              float(payloads[i, 2]), float(payloads[i, 3])))
            for i in write_pos
        ]
        self.tree.batch_set_payloads(items)
        return len(items)

    def step(self) -> WaveStepReport:
        self.step_count += 1
        self.t = self.step_count * self.config.dt
        with sim_phase(self, "step"):
            with sim_phase(self, "refine"):
                res = self._adapt()
            with sim_phase(self, "balance"):
                balance_tree(self.tree, max_level=self.config.max_level)
            with sim_phase(self, "solve"):
                written = self._sweep()
            if self.persistence is not None:
                with sim_phase(self, "persist.enqueue"):
                    self.persistence(self)
        report = WaveStepReport(
            step=self.step_count,
            t=self.t,
            leaves=self.tree.num_leaves(),
            refined=res.refined,
            coarsened=res.coarsened,
            cells_written=written,
            front_radius=self.field.front_radius(self.t),
        )
        self.history.append(report)
        return report

    def run(self, steps: int) -> List[WaveStepReport]:
        if self.step_count == 0 and self.tree.num_octants() <= 1:
            self.construct()
        return [self.step() for _ in range(steps)]
