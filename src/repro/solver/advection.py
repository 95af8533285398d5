"""VOF transport: upwind advection + analytic sharpening.

Each step does a real finite-volume sweep — for every leaf, read the upwind
face neighbor (through the tree's neighbor resolution, i.e. Gerris'
``ftt_cell_neighbor``) and write back an updated VOF — so the memory access
pattern is that of an actual solver: ~2 reads and 1 write per leaf.

Because the velocity is prescribed, pure first-order upwinding would smear
the interface across the band within a few steps; after the transport sweep
the colour field is *sharpened* against the analytic geometry (a stand-in
for the geometric VOF reconstruction a production solver performs).  The
blend keeps both properties the evaluation needs: solver-like traffic and a
crisp, moving interface.

The sweep has one body, written over arrays: gather every leaf into a
:class:`repro.octree.soa.LeafBatch` through the tree protocol's
``batch_read_payloads``, resolve each leaf's upwind neighbor with
``leaf_neighbor`` + ``is_leaf`` (a structural query *on the tree* — on the
Etree baseline it is the B-tree search §5.4 charges for, so it is never
answered from the gathered arrays), read the hit neighbors' VOF with one
``batch_read_fields``, evaluate the transport/sharpening arithmetic
elementwise and replay the write-back in leaf order through
``batch_set_payloads``.  Every tree runs this same body; PM-octree
aggregates the device charge of a batch, the baselines inherit the
loop-backed accessors.  Values *and* device metering are bit-identical to
the per-octant scalar sweep kept in ``tests/oracles`` — enforced by the
differential battery under ``tests/solver``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.config import SolverConfig
from repro.octree import soa
from repro.octree.neighbors import leaf_neighbor
from repro.octree.store import AdaptiveTree
from repro.solver.fields import PRESSURE, U, V, VOF, FieldView
from repro.solver.geometry import DropletGeometry


def initialize_vof(tree: AdaptiveTree, geometry: DropletGeometry,
                   t: float = 0.0) -> None:
    """Fill the VOF and velocity fields from the geometry at time ``t``.

    The geometry is evaluated once over all leaves; the stores stay one
    read-modify-write per leaf, in leaf order."""
    fields = FieldView(tree)
    locs = list(tree.leaves())
    _h, mins, maxs, centers = soa.code_geometry(locs, tree.dim)
    vof = geometry.vof_of_cells(mins, maxs, t).tolist()
    speed = geometry.vertical_velocities(centers, t).tolist()
    for loc, f, v in zip(locs, vof, speed):
        fields.set_many(loc, {VOF: f, U: 0.0, V: v})


def advect_vof(tree: AdaptiveTree, geometry: DropletGeometry,
               config: SolverConfig, t: float,
               sharpen: float = 0.7, always_write: bool = False,
               obs=None) -> Dict[str, int]:
    """One transport step ending at time ``t``; returns access counters.

    ``sharpen`` in [0, 1] blends the upwinded value toward the analytic
    fraction (1 = fully analytic re-initialisation).  ``always_write``
    disables the unchanged-cell write skip — the behaviour of a solver that
    does not diff-check its updates (used by the write-intensity study).
    ``obs`` receives the swept leaf count as ``kernel.batch_elems``.

    All arrays stay in ``leaves()`` gather order so neighbor metering and
    the write-back replay the scalar oracle's access sequence.
    """
    if not 0.0 <= sharpen <= 1.0:
        raise ValueError("sharpen must be in [0, 1]")
    dim = tree.dim
    vertical_axis = dim - 1
    batch = soa.gather(tree, tree.leaves())
    n = len(batch)
    if obs is not None:
        obs.metrics.counter("kernel.batch_elems").inc(n)
    if n == 0:
        return {"reads": 0, "writes": 0, "skipped": 0}
    vof = batch.payloads[:, VOF]

    # Upwind (below) neighbor of each leaf, asked of the tree.  A hit is a
    # leaf at-or-above the same-level neighbor code; a domain-boundary or
    # finer-region neighbor misses.
    hit_pos = []
    nb_locs = []
    miss_pos = []
    for i, loc in enumerate(batch.loc_list):
        below = leaf_neighbor(tree, loc, vertical_axis, -1)
        if below is not None and tree.is_leaf(below):
            hit_pos.append(i)
            nb_locs.append(below)
        else:
            miss_pos.append(i)

    vof_up = np.zeros(n, dtype=np.float64)
    if nb_locs:
        # the probe needs one quantity, so it is a field read (8 bytes
        # where the tree is byte-addressable), not a whole-payload load
        vof_up[hit_pos] = tree.batch_read_fields(nb_locs, VOF)
    # misses: inflow of gas at the bottom boundary, except the nozzle,
    # which keeps feeding liquid.  The small miss set goes through the
    # scalar geometry predicate (math.hypot in 3-D has no bit-equal numpy
    # twin).
    for i in miss_pos:
        center = tuple(batch.centers[i])
        if geometry.axis_distance(center) <= config.nozzle_radius:
            vof_up[i] = 1.0

    speed = geometry.vertical_velocities(batch.centers, t)
    cfl = np.minimum(1.0, speed * config.dt / batch.h)
    transported = vof + cfl * (vof_up - vof)
    analytic = geometry.vof_of_cells(batch.mins, batch.maxs, t)
    new_vof = (1.0 - sharpen) * transported + sharpen * analytic

    # Scatter: write only cells whose state actually changed.  Far from the
    # interface nothing moves, so most octants go untouched — the
    # step-to-step overlap the multi-version sharing exploits (Fig 3).  The
    # prescribed horizontal velocity is identically 0.0, so the
    # unchanged-cell predicate needs only VOF, U and the vertical speed.
    if always_write:
        write_pos = np.arange(n)
    else:
        unchanged = (np.abs(vof - new_vof) < 1e-12) \
            & (np.abs(batch.payloads[:, U] - 0.0) < 1e-12) \
            & (np.abs(batch.payloads[:, V] - speed) < 1e-12)
        write_pos = np.nonzero(~unchanged)[0]
    pressure = batch.payloads[:, PRESSURE]
    loc_list = batch.loc_list
    items = [
        (loc_list[i],
         (float(new_vof[i]), float(pressure[i]), 0.0, float(speed[i])))
        for i in write_pos
    ]
    tree.batch_set_payloads(items)
    reads = n + len(nb_locs)
    writes = len(items)
    return {"reads": reads, "writes": writes, "skipped": n - writes}
