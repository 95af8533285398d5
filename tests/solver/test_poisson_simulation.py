"""Pressure solve + end-to-end simulation driver tests."""

import pytest

from repro.config import SolverConfig
from repro.nvbm.clock import SimClock
from repro.octree import morton
from repro.octree.balance import is_balanced
from repro.octree.refine import refine_uniform
from repro.octree.store import validate_tree
from repro.solver.advection import initialize_vof
from repro.solver.fields import PRESSURE, VOF, FieldView
from repro.solver.geometry import DropletGeometry
from repro.solver.poisson import pressure_solve
from repro.solver.simulation import DropletSimulation
from tests.solver.test_fields_advection import liquid_volume


def test_pressure_solve_on_uniform_mesh(quadtree):
    refine_uniform(quadtree, 4)
    cfg = SolverConfig(dim=2)
    initialize_vof(quadtree, DropletGeometry(cfg), t=0.3)
    diag = pressure_solve(quadtree)
    assert diag["n"] == 256
    assert diag["residual"] < 1e-6
    fv = FieldView(quadtree)
    # pressure is higher inside the liquid column than far away
    p_in = fv.get(quadtree.find_leaf_at((0.5, 0.1)), PRESSURE)
    p_out = fv.get(quadtree.find_leaf_at((0.95, 0.95)), PRESSURE)
    assert p_in > p_out


def test_pressure_solve_on_adaptive_mesh(quadtree):
    kids = quadtree.refine(morton.ROOT_LOC)
    quadtree.refine(kids[0])
    quadtree.refine(kids[3])
    cfg = SolverConfig(dim=2)
    initialize_vof(quadtree, DropletGeometry(cfg), t=0.2)
    diag = pressure_solve(quadtree)
    assert diag["residual"] < 1e-6
    # every leaf got a pressure value
    fv = FieldView(quadtree)
    for loc in quadtree.leaves():
        assert fv.get(loc, PRESSURE) == fv.get(loc, PRESSURE)  # not NaN


def test_pressure_solve_empty_ish(quadtree):
    diag = pressure_solve(quadtree)
    assert diag["n"] == 1


def _run_sim(steps=30, max_level=5, clock=None, tree=None, **cfg_kw):
    from repro.config import DRAM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.pointers import ARENA_DRAM
    from repro.octree.tree import PointerOctree

    clock = clock or SimClock()
    if tree is None:
        arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 17)
        tree = PointerOctree(arena, dim=2)
    cfg = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01, **cfg_kw)
    sim = DropletSimulation(tree, cfg, clock=clock)
    reports = sim.run(steps)
    return sim, reports


def test_simulation_tracks_interface():
    sim, reports = _run_sim(steps=25)
    assert reports[0].leaves > 16  # adapted beyond the base mesh
    validate_tree(sim.tree)
    assert is_balanced(sim.tree)
    # the mesh grows as the jet lengthens
    assert reports[-1].leaves > reports[0].leaves
    # volume tracks the analytic value
    assert liquid_volume(sim.tree) > 0


def test_simulation_produces_droplets():
    sim, reports = _run_sim(steps=70)
    assert reports[10].droplets == 1
    assert reports[-1].droplets >= 2  # pinch-off happened


def test_fine_cells_follow_interface():
    sim, _ = _run_sim(steps=20)
    geo = sim.geometry
    # every interface cell must have been driven to the max level...
    near_leaves = [
        loc for loc in sim.tree.leaves()
        if geo.near_interface(*morton.cell_bounds(loc, 2), sim.t)
    ]
    assert near_leaves
    at_max = sum(
        morton.level_of(loc, 2) == sim.config.max_level for loc in near_leaves
    )
    assert at_max / len(near_leaves) > 0.6
    # ...and far-field cells must stay coarse
    far = sim.tree.find_leaf_at((0.95, 0.95))
    assert morton.level_of(far, 2) <= sim.config.min_level + 1


def test_phase_breakdown_recorded():
    clock = SimClock()
    sim, _ = _run_sim(steps=10, clock=clock)
    for phase in ("construct", "refine", "solve"):
        assert clock.phase_ns(phase) > 0
    # balance may legitimately be 0 when the engine's own balancing already
    # satisfied 2:1 (then the explicit pass does no memory work)
    assert clock.phase_ns("balance") >= 0


def test_persistence_hook_called():
    calls = []
    from repro.config import DRAM_SPEC
    from repro.nvbm.arena import MemoryArena
    from repro.nvbm.pointers import ARENA_DRAM
    from repro.octree.tree import PointerOctree

    clock = SimClock()
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 17)
    tree = PointerOctree(arena, dim=2)
    cfg = SolverConfig(dim=2, min_level=2, max_level=4)
    sim = DropletSimulation(tree, cfg, clock=clock,
                            persistence=lambda s: calls.append(s.step_count))
    sim.run(5)
    assert calls == [1, 2, 3, 4, 5]
    assert clock.phase_ns("persist") >= 0


def test_simulation_on_pm_octree():
    """The same driver runs over PM-octree, registering features and
    persisting every step."""
    from tests.core.conftest import PMRig

    rig = PMRig(dram_octants=1 << 14, nvbm_octants=1 << 16)
    cfg = SolverConfig(dim=2, min_level=2, max_level=5)
    sim = DropletSimulation(
        rig.tree, cfg, clock=rig.clock,
        persistence=lambda s: s.tree.persist(),
    )
    assert len(rig.tree.features) == 1  # driver registered its write-set feature
    reports = sim.run(8)
    assert reports[-1].overlap_ratio is not None
    assert 0.0 < reports[-1].overlap_ratio <= 1.0
    rig.tree.check_invariants()
    validate_tree(rig.tree)
    # crash and recover mid-simulation
    sig = {leaf: rig.tree.get_payload(leaf) for leaf in rig.tree.leaves()}
    rig.crash()
    t = rig.restore()
    assert {leaf: t.get_payload(leaf) for leaf in t.leaves()} == sig


def test_simulation_rejects_dim_mismatch(quadtree):
    with pytest.raises(ValueError):
        DropletSimulation(quadtree, SolverConfig(dim=3))


def test_simulation_with_pressure():
    sim, _ = _run_sim(steps=4, max_level=4)
    sim.pressure_every = 2
    sim.step()
    sim.step()  # pressure solve ran here
    fv = FieldView(sim.tree)
    values = {fv.get(loc, PRESSURE) for loc in sim.tree.leaves()}
    assert len(values) > 1  # a non-trivial pressure field was written
