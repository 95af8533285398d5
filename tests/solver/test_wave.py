"""The second AMR workload: expanding seismic-style wavefront."""

import math

import pytest

from repro.octree import morton, soa
from repro.octree.balance import is_balanced
from repro.octree.store import validate_tree
from repro.solver.wave import WaveConfig, WaveField, WaveSimulation


def test_config_validation():
    with pytest.raises(ValueError):
        WaveConfig(dim=3, epicenter=(0.5, 0.5))
    with pytest.raises(ValueError):
        WaveConfig(speed=0.0)
    with pytest.raises(ValueError):
        WaveConfig(width=-1.0)


def test_field_pulse_shape():
    cfg = WaveConfig()
    field = WaveField(cfg)
    t = 0.5
    r_front = field.front_radius(t)
    on_front = (0.5 + r_front, 0.5)
    assert field.value(on_front, t) == pytest.approx(1.0)
    far = (0.5 + r_front + 10 * cfg.width, 0.5)
    assert field.value(far, t) < 1e-6
    behind = (0.5, 0.5)
    assert field.value(behind, t) < field.value(on_front, t)


def test_simulation_tracks_expanding_ring(quadtree):
    cfg = WaveConfig(dim=2, min_level=2, max_level=5, dt=0.02)
    sim = WaveSimulation(quadtree, cfg)
    sim.run(10)
    validate_tree(quadtree)
    assert is_balanced(quadtree)
    # fine cells hug the front
    front = sim.field.front_radius(sim.t)
    fine = [
        loc for loc in quadtree.leaves()
        if morton.level_of(loc, 2) == cfg.max_level
    ]
    assert fine
    for loc in fine:
        r = math.dist(morton.cell_center(loc, 2), cfg.epicenter)
        assert abs(r - front) < 0.25  # within the band (plus 2:1 halo)


def test_ring_grows_then_leaves_domain(quadtree):
    cfg = WaveConfig(dim=2, min_level=2, max_level=4, dt=0.05, speed=0.8)
    sim = WaveSimulation(quadtree, cfg)
    reports = sim.run(25)
    leaves = [r.leaves for r in reports]
    # mesh grows while the ring expands inside the domain...
    assert max(leaves[:12]) > leaves[0]
    # ...then shrinks back toward the base mesh once it exits
    assert leaves[-1] < max(leaves)


def test_sweep_writes_only_changing_cells(quadtree):
    cfg = WaveConfig(dim=2, min_level=2, max_level=4)
    sim = WaveSimulation(quadtree, cfg)
    sim.run(4)
    last = sim.history[-1]
    assert 0 < last.cells_written < last.leaves  # far field untouched


def test_wave_on_pm_octree_with_persistence():
    from tests.core.conftest import PMRig

    rig = PMRig(dram_octants=1 << 13, nvbm_octants=1 << 16)
    cfg = WaveConfig(dim=2, min_level=2, max_level=4)
    sim = WaveSimulation(
        rig.tree, cfg, clock=rig.clock,
        persistence=lambda s: s.tree.persist(),
    )
    assert len(rig.tree.features) == 1  # the wave's write-set feature
    sim.run(6)
    rig.tree.check_invariants()
    validate_tree(rig.tree)
    sig = {leaf: rig.tree.get_payload(leaf) for leaf in rig.tree.leaves()}
    rig.crash()
    t = rig.restore()
    assert {leaf: t.get_payload(leaf) for leaf in t.leaves()} == sig


def test_wave_feature_predicts_front(quadtree):
    cfg = WaveConfig(dim=2, min_level=2, max_level=4)
    sim = WaveSimulation(quadtree, cfg)
    sim.run(3)
    # the feature fires near the (next) front, not in the far field
    front = sim.field.front_radius(sim.t + cfg.dt)
    batch = soa.gather(quadtree, quadtree.leaves())
    hot = batch.locs[sim._next_step_feature(batch)].tolist()
    assert hot
    for loc in hot:
        r = math.dist(morton.cell_center(loc, 2), cfg.epicenter)
        assert abs(r - front) < 6 * cfg.width + 0.3


def test_dim_mismatch_rejected(octree3d):
    with pytest.raises(ValueError):
        WaveSimulation(octree3d, WaveConfig(dim=2))
