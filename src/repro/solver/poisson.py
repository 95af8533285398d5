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

from typing import Dict, List

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.octree import morton
from repro.octree.neighbors import face_neighbor_leaves
from repro.octree.store import AdaptiveTree
from repro.solver.fields import PRESSURE, VOF, FieldView


def pressure_solve(tree: AdaptiveTree, rtol: float = 1e-8) -> Dict[str, float]:
    """Solve for pressure over the leaves and write it back.

    Returns diagnostics: residual norm and matrix size.
    """
    fields = FieldView(tree)
    leaves: List[int] = sorted(tree.leaves())
    n = len(leaves)
    if n == 0:
        return {"n": 0, "residual": 0.0}
    idx = {loc: i for i, loc in enumerate(leaves)}
    dim = tree.dim

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs = np.zeros(n)
    diag = np.zeros(n)

    for loc in leaves:
        i = idx[loc]
        h_i = morton.cell_size(loc, dim)
        vof = fields.get(loc, VOF)
        rhs[i] = vof  # liquid pushes; with p=0 on the boundary this gives a
        # positive pressure hill centred on the liquid
        for other, _axis, _direction in face_neighbor_leaves(tree, loc):
            j = idx[other]
            h_j = morton.cell_size(other, dim)
            # face area between two leaves is the smaller face
            area = min(h_i, h_j) ** (dim - 1)
            dist = 0.5 * (h_i + h_j)
            tcoef = area / dist
            rows.append(i)
            cols.append(j)
            vals.append(-tcoef)
            diag[i] += tcoef
    # Dirichlet p=0 on the domain boundary, applied through the diagonal so
    # the system is non-singular.
    for loc in leaves:
        i = idx[loc]
        h_i = morton.cell_size(loc, dim)
        for axis in range(dim):
            for direction in (-1, 1):
                if morton.neighbor_of(loc, dim, axis, direction) is None:
                    diag[i] += h_i ** (dim - 1) / (0.5 * h_i)
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    a = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))

    p, info = spla.cg(a, rhs, rtol=rtol, maxiter=10 * n)
    if info != 0:  # pragma: no cover - CG on an SPD M-matrix converges
        p = spla.spsolve(a.tocsc(), rhs)
    residual = float(np.linalg.norm(a @ p - rhs))

    for loc in leaves:
        fields.set(loc, PRESSURE, float(p[idx[loc]]))
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

    The topology (neighbor/transmissibility lists in
    ``face_neighbor_leaves`` order, Dirichlet boundary terms on the
    diagonal) comes from structural walks on the tree; neighbor terms are
    accumulated in k-ascending order, which keeps the padded-array
    relaxation bit-identical to the per-octant oracle in ``tests/oracles``.
    """
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

    if obs is not None:
        obs.metrics.counter("kernel.batch_elems").inc(n)
    rhs = tree.batch_read_fields(leaves, VOF)
    p = tree.batch_read_fields(leaves, PRESSURE)
    p0 = p.copy()

    maxdeg = max((len(row) for row in nb_idx), default=0)
    nb_pad = np.zeros((n, maxdeg), dtype=np.int64)
    t_pad = np.zeros((n, maxdeg), dtype=np.float64)
    for i, (row_j, row_t) in enumerate(zip(nb_idx, nb_t)):
        if row_j:
            nb_pad[i, :len(row_j)] = row_j
            t_pad[i, :len(row_t)] = row_t
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
    tree.batch_set_fields(
        [(leaves[i], float(p[i])) for i in changed], PRESSURE)
    return {"n": float(n), "written": float(len(changed)),
            "sweeps": float(sweeps)}
