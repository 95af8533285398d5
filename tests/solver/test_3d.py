"""3-D (true octree) end-to-end coverage for both workloads."""

import pytest

from repro.config import SolverConfig
from repro.octree import morton
from repro.octree.balance import is_balanced
from repro.octree.refine import refine_uniform
from repro.octree.store import validate_tree
from repro.solver.fields import VOF, FieldView
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from tests.solver.test_fields_advection import liquid_volume


def test_droplet_3d_on_pointer_octree(octree3d):
    cfg = SolverConfig(dim=3, min_level=2, max_level=3, dt=0.01)
    sim = DropletSimulation(octree3d, cfg)
    sim.run(6)
    validate_tree(octree3d)
    assert is_balanced(octree3d)
    # the jet column exists: liquid on the axis near the bottom
    fv = FieldView(octree3d)
    axis_leaf = octree3d.find_leaf_at((0.5, 0.5, 0.02))
    assert fv.get(axis_leaf, VOF) > 0.0
    corner_leaf = octree3d.find_leaf_at((0.95, 0.95, 0.95))
    assert fv.get(corner_leaf, VOF) == 0.0
    # interface cells got refined beyond the base level
    assert morton.level_of(axis_leaf, 3) >= morton.level_of(corner_leaf, 3)


def test_droplet_3d_on_pm_octree():
    from tests.core.conftest import PMRig

    rig = PMRig(dim=3, dram_octants=1 << 14, nvbm_octants=1 << 17)
    cfg = SolverConfig(dim=3, min_level=2, max_level=3, dt=0.01)
    sim = DropletSimulation(
        rig.tree, cfg, clock=rig.clock,
        persistence=lambda s: s.tree.persist(),
    )
    sim.run(4)
    rig.tree.check_invariants()
    validate_tree(rig.tree)
    sig = {loc: rig.tree.get_payload(loc) for loc in rig.tree.leaves()}
    rig.crash()
    t = rig.restore()
    assert {loc: t.get_payload(loc) for loc in t.leaves()} == sig


def test_wave_3d(octree3d):
    cfg = WaveConfig(dim=3, min_level=1, max_level=3,
                     epicenter=(0.5, 0.5, 0.5), dt=0.05)
    sim = WaveSimulation(octree3d, cfg)
    reports = sim.run(5)
    validate_tree(octree3d)
    assert is_balanced(octree3d)
    assert reports[-1].leaves > 8  # the shell got refined


def test_3d_volume_conservation(octree3d):
    """3-D VOF volume tracks the analytic liquid volume."""
    from repro.solver.advection import initialize_vof
    from repro.solver.geometry import DropletGeometry

    refine_uniform(octree3d, 3)
    cfg = SolverConfig(dim=3)
    geo = DropletGeometry(cfg)
    t = 0.3
    initialize_vof(octree3d, geo, t=t)
    measured = liquid_volume(octree3d)
    # analytic column: roughly pi * R^2 * tip height
    import math

    expected = math.pi * cfg.nozzle_radius ** 2 * geo.tip(t)
    assert measured == pytest.approx(expected, rel=0.5)
    assert measured > 0
