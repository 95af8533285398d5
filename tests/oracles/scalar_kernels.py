"""Per-octant scalar solver kernels — the oracle for the batch kernels.

Moved verbatim from ``repro.solver.advection._advect_vof_scalar``, the scalar
loop of ``repro.solver.wave.WaveSimulation._sweep`` and the scalar branch of
``repro.solver.poisson.smooth_pressure`` when ``src`` kept one body per
kernel.  Each visits one leaf at a time through the per-octant accessors
(``get_payload``/``set_payload``/``get_field``/``set_field``), so it is the
access sequence the batch kernels must reproduce bit for bit in values *and*
in device metering.

:func:`inject` swaps them in under the module-level names the drivers call
(the same names ``bench/trace.py`` patches), so a whole simulation — or a
whole ``run_parallel`` — runs on the oracle.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.config import SolverConfig
from repro.octree import morton
from repro.octree.neighbors import face_neighbor_leaves, leaf_neighbor
from repro.octree.store import AdaptiveTree
from repro.solver.fields import PRESSURE, U, V, VOF, FieldView
from repro.solver.geometry import DropletGeometry


def advect_vof(tree: AdaptiveTree, geometry: DropletGeometry,
               config: SolverConfig, t: float, sharpen: float = 0.7,
               always_write: bool = False, obs=None) -> Dict[str, int]:
    dim = tree.dim
    vertical_axis = dim - 1
    fields = FieldView(tree)
    # Gather phase: read each leaf and its upwind (below) neighbor.  The
    # neighbor probe needs one quantity, so it goes through the
    # field-granular accessor (8 bytes), not a whole-payload load.
    updates: Dict[int, float] = {}
    current: Dict[int, tuple] = {}
    reads = 0
    for loc in tree.leaves():
        payload = tree.get_payload(loc)
        current[loc] = payload
        vof = payload[VOF]
        reads += 1
        below = leaf_neighbor(tree, loc, vertical_axis, -1)
        if below is not None and tree.is_leaf(below):
            vof_up = fields.get(below, VOF)
            reads += 1
        else:
            vof_up = 0.0  # inflow of gas at the bottom boundary, except the nozzle
            center = morton.cell_center(loc, dim)
            if geometry.axis_distance(center) <= config.nozzle_radius:
                vof_up = 1.0  # the nozzle keeps feeding liquid
        h = morton.cell_size(loc, dim)
        speed = geometry.velocity(morton.cell_center(loc, dim), t)[-1]
        cfl = min(1.0, speed * config.dt / h)
        transported = vof + cfl * (vof_up - vof)
        lo, hi = morton.cell_bounds(loc, dim)
        analytic = geometry.vof_of_cell(lo, hi, t)
        updates[loc] = (1.0 - sharpen) * transported + sharpen * analytic
    # Scatter phase: write only cells whose state actually changed.  Far
    # from the interface nothing moves, so most octants go untouched — the
    # step-to-step overlap the multi-version sharing exploits (Fig 3).
    writes = 0
    skipped = 0
    for loc, vof in updates.items():
        vel = geometry.velocity(morton.cell_center(loc, dim), t)
        old = current[loc]
        if (
            not always_write
            and abs(old[VOF] - vof) < 1e-12
            and abs(old[U] - vel[0]) < 1e-12
            and abs(old[V] - vel[-1]) < 1e-12
        ):
            skipped += 1
            continue
        tree.set_payload(loc, (vof, old[PRESSURE], vel[0], vel[-1]))
        writes += 1
    return {"reads": reads, "writes": writes, "skipped": skipped}


def wave_sweep(self) -> int:
    """Scalar ``WaveSimulation._sweep``: write the pulse value into every
    cell whose value changed."""
    written = 0
    for loc in list(self.tree.leaves()):
        new = self.field.cell_value(loc, self.t)
        payload = self.tree.get_payload(loc)
        if abs(payload[0] - new) > 1e-12:
            self.tree.set_payload(
                loc, (new, payload[1], payload[2], payload[3])
            )
            written += 1
    return written


def smooth_pressure(tree: AdaptiveTree, sweeps: int = 2,
                    obs=None) -> Dict[str, float]:
    leaves: List[int] = sorted(tree.leaves())
    n = len(leaves)
    if n == 0 or sweeps <= 0:
        return {"n": float(n), "written": 0.0, "sweeps": float(sweeps)}
    idx = {loc: i for i, loc in enumerate(leaves)}
    dim = tree.dim

    # topology — structural walks only, no payload traffic
    nb_idx: List[List[int]] = [[] for _ in range(n)]
    nb_t: List[List[float]] = [[] for _ in range(n)]
    diag = np.zeros(n)
    colors = np.zeros(n, dtype=np.int64)
    for loc in leaves:
        i = idx[loc]
        h_i = morton.cell_size(loc, dim)
        colors[i] = sum(morton.coords_of(loc, dim)) % 2
        for other, _axis, _direction in face_neighbor_leaves(tree, loc):
            h_j = morton.cell_size(other, dim)
            area = min(h_i, h_j) ** (dim - 1)
            dist = 0.5 * (h_i + h_j)
            tcoef = area / dist
            nb_idx[i].append(idx[other])
            nb_t[i].append(tcoef)
            diag[i] += tcoef
        for axis in range(dim):
            for direction in (-1, 1):
                if morton.neighbor_of(loc, dim, axis, direction) is None:
                    diag[i] += h_i ** (dim - 1) / (0.5 * h_i)

    fields = FieldView(tree)
    rhs = np.array([fields.get(loc, VOF) for loc in leaves])
    p = np.array([fields.get(loc, PRESSURE) for loc in leaves])
    p0 = p.copy()

    color_lists = [np.nonzero(colors == c)[0] for c in (0, 1)]
    for _ in range(sweeps):
        for members in color_lists:
            new_vals = []
            for i in members:
                acc = 0.0
                row_j = nb_idx[i]
                row_t = nb_t[i]
                for k in range(len(row_j)):
                    acc = acc + row_t[k] * p[row_j[k]]
                new_vals.append((rhs[i] + acc) / diag[i])
            for i, v in zip(members, new_vals):
                p[i] = v

    changed = np.nonzero(np.abs(p - p0) > 1e-12)[0]
    for i in changed:
        fields.set(leaves[i], PRESSURE, float(p[i]))
    return {"n": float(n), "written": float(len(changed)),
            "sweeps": float(sweeps)}


def inject(monkeypatch) -> None:
    """Run the drivers on the scalar kernels for the rest of the test."""
    monkeypatch.setattr("repro.solver.simulation.advect_vof", advect_vof)
    monkeypatch.setattr("repro.solver.simulation.smooth_pressure",
                        smooth_pressure)
    monkeypatch.setattr("repro.solver.wave.WaveSimulation._sweep", wave_sweep)
