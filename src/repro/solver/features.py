"""Refinement criteria and PM-octree feature functions.

One definition, two consumers — which is the paper's point about
feature-directed sampling imposing no extra programming burden (§3.3): the
refine/coarsen predicate the simulation already owns *is* the feature
function handed to the PM-octree library.  Both are array predicates over a
gathered :class:`~repro.octree.soa.LeafBatch`; the per-octant spellings
they must equal elementwise live in ``tests/oracles``.
"""

from __future__ import annotations

import numpy as np

from repro.config import SolverConfig
from repro.octree import morton, soa
from repro.octree.refine import Action
from repro.octree.store import Payload
from repro.solver.fields import VOF
from repro.solver.geometry import DropletGeometry

#: Extra solver work a mixed (interface) cell costs relative to a pure
#: cell: interface reconstruction + flux limiting dominate the sweep.
INTERFACE_WORK = 4.0

#: Refine/coarsen churn surcharge per level of depth (relative to the
#: forest's deepest level): fine cells sit in the adaptation band and are
#: re-gridded far more often than the coarse background.
CHURN_WORK = 1.0


def interface_band_feature(geometry: DropletGeometry,
                           t: float) -> soa.Predicate:
    """Feature: is this octant in the interface band at time ``t``?

    PM-octree pre-executes this on sampled octants to find hot subtrees.
    """

    def fn(batch: soa.LeafBatch) -> np.ndarray:
        return geometry.near_interface_cells(batch.mins, batch.maxs, t)

    return fn


def change_feature(geometry: DropletGeometry, t_next: float) -> soa.Predicate:
    """Feature: will the solver *write* this octant next step?

    Pre-executes the update predicate: a cell is hot when its analytic
    volume fraction at ``t_next`` differs from its current value — exactly
    the octants the transport sweep will rewrite and the refinement pass
    will touch.  This is the sharp prediction that makes feature-directed
    sampling beat history (§3.3): the set follows the moving front, and it
    is much smaller than the full interface band.
    """

    def fn(batch: soa.LeafBatch) -> np.ndarray:
        analytic = geometry.vof_of_cells(batch.mins, batch.maxs, t_next)
        return np.abs(analytic - batch.payloads[:, VOF]) > 1e-9

    return fn


def mixed_cell_feature(dim: int) -> soa.Predicate:
    """Feature based on the current VOF value instead of the geometry: a
    mixed cell (0 < vof < 1) is where the solver will do interface work."""

    def fn(batch: soa.LeafBatch) -> np.ndarray:
        vof = batch.payloads[:, VOF]
        return (1e-6 < vof) & (vof < 1.0 - 1e-6)

    return fn


def octant_work_weight(loc: int, payload: Payload, dim: int,
                       max_level: int) -> float:
    """Partition cost weight of one octant.

    The weight is the same feature intensity the refine criterion reads —
    §3.3's "no extra programming burden" point again: a mixed cell is where
    the solver does interface work *and* where refinement churn follows,
    so the weighted SFC cut places fewer interface cells per rank than
    pure-background cells.
    """
    w = 1.0
    vof = payload[VOF]
    if 1e-6 < vof < 1.0 - 1e-6:
        w += INTERFACE_WORK
    level = morton.level_of(loc, dim)
    w += CHURN_WORK * level / max(1, max_level)
    return w


def partition_work_weights(lin) -> np.ndarray:
    """Vectorised :func:`octant_work_weight` over a
    :class:`~repro.octree.linear.LinearOctree` (curve order preserved)."""
    n = len(lin)
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    w = np.ones(n, dtype=np.float64)
    vof = lin.payloads[:, VOF]
    w += np.where((vof > 1e-6) & (vof < 1.0 - 1e-6), INTERFACE_WORK, 0.0)
    levels = soa.levels_of_codes(lin.locs, lin.dim).astype(np.float64)
    w += CHURN_WORK * levels / max(1, lin.max_level)
    return w


def interface_criterion(geometry: DropletGeometry, config: SolverConfig,
                        t: float) -> soa.Predicate:
    """AMR criterion: max resolution in the interface band, coarse far away.

    Matches the droplet workload in the paper: the fine region follows the
    jet tip and the droplets, so the hot subdomain *moves* every time step.

    Coarsening is decided on the *parent* cell's band: children created for
    an interface their parent still straddles must not vote themselves away
    on the next sweep, or the adaptation loop ping-pongs forever.
    """
    dim = config.dim

    def criterion(batch: soa.LeafBatch) -> np.ndarray:
        near = geometry.near_interface_cells(batch.mins, batch.maxs, t)
        actions = np.full(len(batch), Action.KEEP, dtype=np.int8)
        actions[near & (batch.levels < config.max_level)] = Action.REFINE
        cand = np.nonzero(~near & (batch.levels > config.min_level))[0]
        if cand.size:
            # siblings share a parent: evaluate each parent's band once
            parents, inverse = np.unique(batch.locs[cand] >> dim,
                                         return_inverse=True)
            _h, los, his, _centers = soa.code_geometry(parents, dim)
            parent_near = geometry.near_interface_cells(los, his, t)
            actions[cand[~parent_near[inverse]]] = Action.COARSEN
        return actions

    return criterion
