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
from repro.octree import soa
from repro.octree.refine import Action
from repro.solver.fields import VOF
from repro.solver.geometry import DropletGeometry

#: Extra solver work a mixed (interface) cell costs relative to a pure
#: cell: interface reconstruction + flux limiting dominate the sweep.
INTERFACE_WORK = 4.0

#: Refine/coarsen churn surcharge per level of depth (relative to the
#: forest's deepest level): fine cells sit in the adaptation band and are
#: re-gridded far more often than the coarse background.
CHURN_WORK = 1.0


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


def partition_work_weights(lin) -> np.ndarray:
    """Partition cost weight of each octant of a
    :class:`~repro.octree.linear.LinearOctree` (curve order preserved).

    The weight is the same feature intensity the refine criterion reads —
    §3.3's "no extra programming burden" point again: a mixed cell is where
    the solver does interface work *and* where refinement churn follows,
    so the weighted SFC cut places fewer interface cells per rank than
    pure-background cells.
    """
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

    A code's band answer depends on its box and ``t`` alone, so the closure
    (one per adapt, for one ``t``) judges each code once: leaves and parents
    earlier rounds judged are looked up, not re-sampled.
    """
    dim = config.dim
    judged = np.zeros(1, dtype=np.int64)  # sorted codes (0 is none) ...
    answers = np.zeros(1, dtype=bool)     # ... and their band answers

    def near(codes: np.ndarray, boxes) -> np.ndarray:
        # boxes(rows): (mins, maxs) of codes[rows], asked for unjudged ones
        nonlocal judged, answers
        at = np.searchsorted(judged, codes).clip(max=len(judged) - 1)
        rows = np.flatnonzero(judged[at] != codes)
        new, first = np.unique(codes[rows], return_index=True)
        if new.size:
            at = np.searchsorted(judged, new)
            judged = np.insert(judged, at, new)
            answers = np.insert(answers, at, geometry.near_interface_cells(
                *boxes(rows[first]), t))
        return answers[np.searchsorted(judged, codes)]

    def criterion(batch: soa.LeafBatch) -> np.ndarray:
        near_leaf = near(batch.locs,
                         lambda rows: (batch.mins[rows], batch.maxs[rows]))
        actions = np.full(len(batch), Action.KEEP, dtype=np.int8)
        actions[near_leaf & (batch.levels < config.max_level)] = Action.REFINE
        cand = np.nonzero(~near_leaf & (batch.levels > config.min_level))[0]
        if cand.size:
            up = batch.locs[cand] >> dim
            actions[cand[~near(up, lambda rows: soa.code_geometry(
                up[rows], dim)[1:3])]] = Action.COARSEN
        return actions

    return criterion
