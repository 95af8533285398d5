"""Pressure solve on the adaptive leaf graph.

A projection-style Poisson solve: assemble the cell-centred finite-volume
Laplacian over the leaves (face terms through the neighbor resolution, with
the standard distance-weighted transmissibility across level jumps) and
solve ``-div(grad p) = f`` with scipy's sparse machinery.  The source is the
VOF "divergence" surrogate — liquid cells push, gas cells don't — which
produces pressure fields that look like surface-tension-driven flow without
a momentum equation.

This is the read-heavy phase of the workload (many neighbor reads per leaf,
one write), complementing the write-heavy refinement phase; together they
reproduce the 41-72 % write mix the paper measured (§1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.octree import soa
from repro.octree.store import AdaptiveTree
from repro.solver.fields import PRESSURE, VOF


def _operator(tree: AdaptiveTree, leaves: List[int]) -> Tuple[
        soa.FaceTable, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The finite-volume Laplacian over ``leaves`` (sorted): the face table,
    each entry's neighbor index and transmissibility, the diagonal and the
    min-corner coordinates.

    Structural queries only, no payload traffic.  Every cell size is a
    power of two, so areas and distances are exact; the diagonal adds its
    neighbor terms in table order and then one Dirichlet (p = 0) term per
    boundary face, the order the per-leaf oracle in ``tests/oracles`` adds
    them in, so it comes out bit-identical.
    """
    dim = tree.dim
    locs = np.array(leaves, dtype=np.int64)
    levels = soa.levels_of_codes(locs, dim)
    coords = soa.coords_of_codes(locs, levels, dim)
    table = tree.face_neighbors(leaves)
    rows = table.rows()
    h_i = np.ldexp(1.0, -levels)
    h_j = np.ldexp(1.0, -soa.levels_of_codes(table.codes, dim))
    # face area between two leaves is the smaller face
    tcoef = np.minimum(h_i[rows], h_j) ** (dim - 1) \
        / (0.5 * (h_i[rows] + h_j))
    diag = np.bincount(rows, weights=tcoef, minlength=len(leaves))
    on_boundary = ((coords == 0).sum(axis=1)
                   + (coords == ((1 << levels) - 1)[:, None]).sum(axis=1))
    dirichlet = h_i ** (dim - 1) / (0.5 * h_i)
    for k in range(2 * dim):
        diag = diag + np.where(on_boundary > k, dirichlet, 0.0)
    return table, soa.index_in(locs, table.codes), tcoef, diag, coords


def pressure_solve(tree: AdaptiveTree, rtol: float = 1e-8,
                   obs=None) -> Dict[str, float]:
    """Solve for pressure over the leaves and write it back.

    Returns diagnostics: residual norm and matrix size.
    """
    leaves: List[int] = sorted(tree.leaves())
    n = len(leaves)
    if n == 0:
        return {"n": 0, "residual": 0.0}
    table, cols, tcoef, diag, _coords = _operator(tree, leaves)
    if obs is not None:
        obs.metrics.counter("kernel.batch_elems").inc(n)
    # liquid pushes; with p=0 on the boundary this gives a positive
    # pressure hill centred on the liquid
    rhs = tree.batch_read_fields(leaves, VOF)
    # off-diagonals row by row in table order, then the diagonal (Dirichlet
    # terms included, so the system is non-singular)
    every = np.arange(n)
    a = sp.csr_matrix(
        (np.concatenate([-tcoef, diag]),
         (np.concatenate([table.rows(), every]),
          np.concatenate([cols, every]))), shape=(n, n))

    p, info = spla.cg(a, rhs, rtol=rtol, maxiter=10 * n)
    if info != 0:  # pragma: no cover - CG on an SPD M-matrix converges
        p = spla.spsolve(a.tocsc(), rhs)
    residual = float(np.linalg.norm(a @ p - rhs))

    tree.batch_set_fields(leaves, p, PRESSURE)
    return {"n": float(n), "residual": residual}


def smooth_pressure(tree: AdaptiveTree, sweeps: int = 2,
                    obs=None) -> Dict[str, float]:
    """Red-black relaxation sweeps of the same finite-volume operator.

    The cheap companion to :func:`pressure_solve`: instead of a full CG
    solve, run ``sweeps`` two-color Jacobi-within-color relaxations of
    ``diag * p = rhs + sum(tcoef * p_neighbor)`` (colors by coordinate
    parity; on an adaptive mesh parity is not a strict 2-coloring across
    level jumps, so each color updates from a consistent pre-color
    snapshot).  Reads one VOF and one PRESSURE slot per leaf, writes the
    changed pressures — all field-granular, as batches.

    Neighbor terms are accumulated in k-ascending (face-table) order, which
    keeps the padded-array relaxation bit-identical to the per-octant
    oracle in ``tests/oracles``.
    """
    leaves: List[int] = sorted(tree.leaves())
    n = len(leaves)
    if n == 0 or sweeps <= 0:
        return {"n": float(n), "written": 0.0, "sweeps": float(sweeps)}
    table, cols, tcoef, diag, coords = _operator(tree, leaves)
    colors = coords.sum(axis=1) % 2

    if obs is not None:
        obs.metrics.counter("kernel.batch_elems").inc(n)
    rhs = tree.batch_read_fields(leaves, VOF)
    p = tree.batch_read_fields(leaves, PRESSURE)
    p0 = p.copy()

    # CSR rows -> padded (n, maxdeg) arrays
    rows = table.rows()
    col = np.arange(rows.size) - table.offsets[rows]
    maxdeg = int(np.diff(table.offsets).max())
    nb_pad = np.zeros((n, maxdeg), dtype=np.int64)
    t_pad = np.zeros((n, maxdeg), dtype=np.float64)
    nb_pad[rows, col] = cols
    t_pad[rows, col] = tcoef
    color_pos = [np.nonzero(colors == c)[0] for c in (0, 1)]
    for _ in range(sweeps):
        for pos in color_pos:
            if not pos.size:
                continue
            sub_nb = nb_pad[pos]
            sub_t = t_pad[pos]
            acc = np.zeros(pos.size)
            for k in range(maxdeg):
                # padded columns contribute an exact ±0.0 — a no-op on the
                # accumulator, matching the oracle's early stop
                acc = acc + sub_t[:, k] * p[sub_nb[:, k]]
            p[pos] = (rhs[pos] + acc) / diag[pos]

    changed = np.nonzero(np.abs(p - p0) > 1e-12)[0]
    tree.batch_set_fields([leaves[i] for i in changed.tolist()], p[changed],
                          PRESSURE)
    return {"n": float(n), "written": float(len(changed)),
            "sweeps": float(sweeps)}
