"""Per-octant scalar solver kernels — the oracle for the batch kernels.

Moved verbatim from ``repro.solver.advection._advect_vof_scalar``, the scalar
loop of ``repro.solver.wave.WaveSimulation._sweep`` and the scalar branch of
``repro.solver.poisson.smooth_pressure`` when ``src`` kept one body per
kernel.  Each visits one leaf at a time through the per-octant accessors
(``get_payload``/``set_payload``/``get_field``/``set_field``), so it is the
access sequence the batch kernels must reproduce bit for bit in values *and*
in device metering.

The same holds for the predicates: the per-octant ``(loc, payload)`` bodies
of ``interface_criterion``, ``change_feature``, the wave criterion and the
wave feature, the per-leaf ``RefinementEngine._sweep``, the per-pick
``sample_frequency`` loop (and, when ``src`` sampled every candidate with
one gather, its per-candidate driver ``sample_frequencies``) and the
per-leaf ``initialize_vof`` moved here
when ``src`` made criteria and features array predicates over a
``LeafBatch``.  The wave criterion's distance is the explicit sum of
squares + ``sqrt`` (``math.dist`` has no bit-equal numpy twin), the
``WaveField.value`` spelling.

:func:`inject` swaps them in under the module-level names the drivers call
(the same names ``bench/trace.py`` patches), so a whole simulation — or a
whole ``run_parallel`` — runs on the oracle.

The per-leaf topology walks moved here the same way when ``src`` made
structure a batch (``tree.face_neighbors``): ``pressure_solve``,
``count_droplets`` (with its networkx graph — a test-only dependency now),
``find_violation`` and ``balance_tree`` with its unfiltered queue, each
calling ``face_neighbor_leaves`` / ``exists`` / ``is_leaf`` once per leaf.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.config import SolverConfig
from repro.core.merge import subtree_locs
from repro.octree import morton, soa
from repro.octree.neighbors import face_neighbor_leaves, leaf_neighbor
from repro.octree.refine import Action, RefinementResult
from repro.octree.store import AdaptiveTree, Payload
from repro.solver.fields import PRESSURE, U, V, VOF, FieldView, liquid_leaves
from repro.solver.geometry import DropletGeometry


def initialize_vof(tree: AdaptiveTree, geometry: DropletGeometry,
                   t: float = 0.0) -> None:
    fields = FieldView(tree)
    dim = tree.dim
    for loc in tree.leaves():
        lo, hi = morton.cell_bounds(loc, dim)
        vof = geometry.vof_of_cell(lo, hi, t)
        vel = geometry.velocity(morton.cell_center(loc, dim), t)
        fields.set_many(loc, {VOF: vof, U: vel[0], V: vel[-1]})


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


def pressure_solve(tree: AdaptiveTree, rtol: float = 1e-8,
                   obs=None) -> Dict[str, float]:
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


def count_droplets(tree: AdaptiveTree, threshold: float = 0.5) -> int:
    import networkx as nx

    liquid = set(liquid_leaves(tree, threshold))
    g = nx.Graph()
    g.add_nodes_from(liquid)
    for loc in liquid:
        for other, _axis, _direction in face_neighbor_leaves(tree, loc):
            if other in liquid:
                g.add_edge(loc, other)
    return nx.number_connected_components(g) if liquid else 0


# ---------------------------------------------------------------- Balance

def find_violation(tree: AdaptiveTree) -> Optional[tuple]:
    for loc in tree.leaves():
        own = morton.level_of(loc, tree.dim)
        for leaf, _axis, _direction in face_neighbor_leaves(tree, loc):
            if morton.level_of(leaf, tree.dim) - own > 1:
                return loc, leaf
    return None


def balance_tree(tree: AdaptiveTree, max_level: Optional[int] = None,
                 seeds: Optional[Iterable[int]] = None) -> int:
    dim = tree.dim
    queue = deque(seeds if seeds is not None else tree.leaves())
    refined = 0
    while queue:
        loc = queue.popleft()
        if not tree.exists(loc) or not tree.is_leaf(loc):
            continue  # stale entry: got refined while queued
        level = morton.level_of(loc, dim)
        # A leaf at `level` forces every face-adjacent region to be refined
        # to at least `level - 1`.
        if level <= 1:
            continue
        for axis in range(dim):
            for direction in (-1, 1):
                code = morton.neighbor_of(loc, dim, axis, direction)
                if code is None:
                    continue
                # Find the existing ancestor covering this neighbor code.
                anc = code
                while not tree.exists(anc):
                    anc = morton.parent_of(anc, dim)
                if not tree.is_leaf(anc):
                    continue  # neighbor region is at least as fine
                anc_level = morton.level_of(anc, dim)
                while anc_level < level - 1:
                    if max_level is not None and anc_level >= max_level:
                        break
                    children = tree.refine(anc)
                    refined += 1
                    # Each new child may in turn violate 2:1 with *its*
                    # neighbors: ripple.
                    queue.extend(children)
                    anc = morton.ancestor_at(code, dim, anc_level + 1)
                    anc_level += 1
    return refined


# ------------------------------------------------------------- predicates

def interface_criterion(geometry: DropletGeometry, config: SolverConfig,
                        t: float) -> Callable[[int, Payload], Action]:
    dim = config.dim
    near_cache: dict = {}

    def near(loc: int) -> bool:
        hit = near_cache.get(loc)
        if hit is None:
            lo, hi = morton.cell_bounds(loc, dim)
            hit = geometry.near_interface(lo, hi, t)
            near_cache[loc] = hit
        return hit

    def criterion(loc: int, payload: Payload) -> Action:
        level = morton.level_of(loc, dim)
        if near(loc):
            if level < config.max_level:
                return Action.REFINE
            return Action.KEEP
        if level > config.min_level and not near(morton.parent_of(loc, dim)):
            return Action.COARSEN
        return Action.KEEP

    return criterion


def interface_band_feature(geometry: DropletGeometry,
                           t: float) -> Callable[[int, Payload], bool]:
    dim = geometry.config.dim

    def fn(loc: int, payload: Payload) -> bool:
        lo, hi = morton.cell_bounds(loc, dim)
        return geometry.near_interface(lo, hi, t)

    return fn


def change_feature(geometry: DropletGeometry,
                   t_next: float) -> Callable[[int, Payload], bool]:
    dim = geometry.config.dim

    def fn(loc: int, payload: Payload) -> bool:
        lo, hi = morton.cell_bounds(loc, dim)
        analytic = geometry.vof_of_cell(lo, hi, t_next)
        return abs(analytic - payload[VOF]) > 1e-9

    return fn


def mixed_cell_feature(dim: int) -> Callable[[int, Payload], bool]:
    def fn(loc: int, payload: Payload) -> bool:
        return 1e-6 < payload[VOF] < 1.0 - 1e-6

    return fn


def wave_criterion(self, t: float) -> Callable[[int, Payload], Action]:
    """Scalar ``WaveSimulation._criterion``."""
    cfg = self.config
    fld = self.field

    def criterion(loc: int, payload: Payload) -> Action:
        level = morton.level_of(loc, cfg.dim)
        # refine wherever the pulse (evaluated over the cell, padded by
        # one cell width) is significant
        h = morton.cell_size(loc, cfg.dim)
        s = 0.0
        for p, e in zip(morton.cell_center(loc, cfg.dim), cfg.epicenter):
            d = p - e
            s += d * d
        r = math.sqrt(s)
        front = fld.front_radius(t)
        near = abs(r - front) < (cfg.width * 2.5 + h)
        if near and level < cfg.max_level:
            return Action.REFINE
        if not near and level > cfg.min_level:
            return Action.COARSEN
        return Action.KEEP

    return criterion


def wave_next_step_feature(self, loc: int, payload: Payload) -> bool:
    """Scalar ``WaveSimulation._next_step_feature``."""
    t_next = self.t + self.config.dt
    return abs(self.field.cell_value(loc, t_next) - payload[0]) > 1e-6


# --------------------------------------------- refine sweep, feature sampler

def _one(tree, loc: int, payload: Payload) -> soa.LeafBatch:
    return soa.LeafBatch(tree.dim, [loc],
                         np.array([payload], dtype=np.float64))


def refine_sweep(self, tree: AdaptiveTree) -> RefinementResult:
    """Per-leaf ``RefinementEngine._sweep``: one ``get_payload`` and one
    criterion call per leaf (on a one-leaf batch)."""
    dim = tree.dim
    res = RefinementResult()
    to_refine = []
    votes = {}  # parent loc -> #children voting COARSEN
    for loc in list(tree.leaves()):
        level = morton.level_of(loc, dim)
        action = self.criterion(_one(tree, loc, tree.get_payload(loc)))[0]
        if action == Action.REFINE and level < self.max_level:
            to_refine.append(loc)
        elif action == Action.COARSEN and level > self.min_level:
            parent = morton.parent_of(loc, dim)
            votes[parent] = votes.get(parent, 0) + 1
    for loc in to_refine:
        if tree.is_leaf(loc):  # may have been consumed by coarsening
            tree.refine(loc)
            res.refined += 1
    fanout = morton.fanout(dim)
    for parent, n in votes.items():
        # Re-check children are all still leaves (none refined above).
        if n == fanout and tree.exists(parent) \
                and not tree.is_leaf(parent) \
                and all(tree.is_leaf(c)
                        for c in morton.children_of(parent, dim)):
            tree.coarsen(parent)
            res.coarsened += 1
    if self.balance and (res.refined or res.coarsened):
        res.balance_refined = balance_tree(tree, max_level=self.max_level)
    return res


def sample_frequency(pmo, root_loc: int, rng: np.random.Generator):
    """Per-pick ``repro.core.transform.sample_frequency``: one
    ``get_payload`` per sampled octant, features tried until one fires."""
    locs = subtree_locs(pmo, root_loc)
    size = len(locs)
    if size == 0 or not pmo.features:
        return 0.0, size
    n = min(pmo.config.n_sample_max, size)
    picks = rng.choice(size, size=n, replace=False)
    hits = 0
    for i in picks:
        loc = locs[int(i)]
        one = _one(pmo, loc, pmo.get_payload(loc))
        for fn in pmo.features:
            if fn(one)[0]:
                hits += 1
                break  # an octant is "of interest" once any feature fires
    # normalise to the whole subtree so different sample sizes compare
    return hits * (size / n), size


def sample_frequencies(pmo, roots, rng: np.random.Generator):
    """Per-candidate ``repro.core.transform.sample_frequencies``: each
    subtree drawn, read pick by pick and judged before the next one."""
    return [sample_frequency(pmo, root, rng) for root in roots]


def inject(monkeypatch) -> None:
    """Run the drivers on the scalar kernels, the per-octant predicates
    (lifted by ``soa.per_octant``), the per-leaf refine sweep, the per-pick
    sampler and the per-leaf topology walks for the rest of the test."""
    lift = soa.per_octant
    monkeypatch.setattr("repro.solver.simulation.initialize_vof",
                        initialize_vof)
    monkeypatch.setattr("repro.solver.simulation.interface_criterion",
                        lambda *a: lift(interface_criterion(*a)))
    monkeypatch.setattr("repro.solver.simulation.change_feature",
                        lambda *a: lift(change_feature(*a)))
    monkeypatch.setattr("repro.solver.wave.WaveSimulation._criterion",
                        lambda self, t: lift(wave_criterion(self, t)))
    monkeypatch.setattr(
        "repro.solver.wave.WaveSimulation._next_step_feature",
        lambda self, batch: lift(partial(wave_next_step_feature, self))(batch))
    monkeypatch.setattr("repro.octree.refine.RefinementEngine._sweep",
                        refine_sweep)
    monkeypatch.setattr("repro.core.transform.sample_frequencies",
                        sample_frequencies)
    monkeypatch.setattr("repro.solver.simulation.advect_vof", advect_vof)
    monkeypatch.setattr("repro.solver.simulation.smooth_pressure",
                        smooth_pressure)
    monkeypatch.setattr("repro.solver.wave.WaveSimulation._sweep", wave_sweep)
    monkeypatch.setattr("repro.solver.simulation.pressure_solve",
                        pressure_solve)
    monkeypatch.setattr("repro.solver.simulation.count_droplets",
                        count_droplets)
    for module in ("solver.simulation", "solver.wave", "octree.refine"):
        monkeypatch.setattr(f"repro.{module}.balance_tree", balance_tree)
