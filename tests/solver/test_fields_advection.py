"""Field views, VOF transport, and droplet counting."""

import pytest

from repro.config import SolverConfig
from repro.octree import morton, soa
from repro.octree.refine import refine_uniform
from repro.solver.advection import advect_vof, initialize_vof
from repro.solver.fields import (
    PRESSURE,
    U,
    V,
    VOF,
    FieldView,
    count_droplets,
    liquid_leaves,
)
from repro.solver.geometry import DropletGeometry


def liquid_volume(tree) -> float:
    """The volume-weighted VOF total over the leaves, from one gather."""
    batch = soa.gather(tree, list(tree.leaves()))
    cells = 0.5 ** (tree.dim * batch.levels)
    return float((batch.payloads[:, VOF] * cells).sum())


@pytest.fixture
def cfg():
    return SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)


@pytest.fixture
def geo(cfg):
    return DropletGeometry(cfg)


@pytest.fixture
def tree(quadtree):
    refine_uniform(quadtree, 4)
    return quadtree


def test_field_view_set_get(tree):
    fv = FieldView(tree)
    loc = morton.loc_from_coords(4, (3, 3), 2)
    fv.set(loc, VOF, 0.5)
    fv.set(loc, PRESSURE, 2.0)
    assert fv.get(loc, VOF) == 0.5
    assert fv.get(loc, PRESSURE) == 2.0
    # other slots untouched
    assert fv.get(loc, U) == 0.0


def test_initialize_vof(tree, geo):
    initialize_vof(tree, geo, t=0.1)
    fv = FieldView(tree)
    nozzle_leaf = tree.find_leaf_at((0.5, 0.03))
    assert fv.get(nozzle_leaf, VOF) > 0.0
    far_leaf = tree.find_leaf_at((0.9, 0.9))
    assert fv.get(far_leaf, VOF) == 0.0
    assert fv.get(nozzle_leaf, V) == geo.config.jet_speed


def test_weighted_total_is_liquid_volume(tree, geo):
    initialize_vof(tree, geo, t=0.2)
    vol = liquid_volume(tree)
    # analytic: column of radius ~<= R0 and height tip -> area < 2*R0*tip
    assert 0.0 < vol < 2 * geo.config.nozzle_radius * geo.tip(0.2) * 1.5


def test_advect_moves_liquid_up(tree, geo, cfg):
    initialize_vof(tree, geo, t=0.2)
    fv = FieldView(tree)
    probe = tree.find_leaf_at((0.5, geo.tip(0.2) + 0.03))
    before = fv.get(probe, VOF)
    for k in range(1, 8):
        advect_vof(tree, geo, cfg, 0.2 + k * cfg.dt)
    after = fv.get(probe, VOF)
    assert before == 0.0
    assert after > 0.0  # the front reached the probe cell


def test_advect_counts_accesses(tree, geo, cfg):
    initialize_vof(tree, geo, t=0.2)
    counters = advect_vof(tree, geo, cfg, 0.21)
    n = tree.num_leaves()
    assert counters["reads"] >= n  # each leaf + most upwind neighbors
    # every leaf is either written or skipped as unchanged
    assert counters["writes"] + counters["skipped"] == n
    assert counters["writes"] > 0
    # the quiescent far field must be skipped, not rewritten (this is what
    # gives PM-octree its high step-to-step overlap ratio)
    assert counters["skipped"] > n / 2


def test_advect_validates_sharpen(tree, geo, cfg):
    with pytest.raises(ValueError):
        advect_vof(tree, geo, cfg, 0.1, sharpen=1.5)


def test_vof_stays_in_unit_interval(tree, geo, cfg):
    initialize_vof(tree, geo, t=0.1)
    fv = FieldView(tree)
    for k in range(1, 10):
        advect_vof(tree, geo, cfg, 0.1 + k * cfg.dt, sharpen=0.5)
    for loc in tree.leaves():
        assert -1e-9 <= fv.get(loc, VOF) <= 1.0 + 1e-9


def test_liquid_leaves_and_droplet_count_column(tree, geo):
    initialize_vof(tree, geo, t=0.3)
    assert len(liquid_leaves(tree)) > 0
    assert count_droplets(tree) == 1  # attached column = one component


def test_droplet_count_after_breakup(tree, geo, cfg):
    t = cfg.breakup_time + 0.25
    initialize_vof(tree, geo, t=t)
    assert count_droplets(tree) >= 2  # column + at least one free droplet


def test_droplet_count_empty(quadtree):
    assert count_droplets(quadtree) == 0
