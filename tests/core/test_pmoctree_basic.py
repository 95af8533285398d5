"""PM-octree as an AdaptiveTree: meshing operations and invariants."""

import pytest

from repro.errors import ReproError
from repro.octree import morton, soa
from repro.octree.balance import balance_tree, is_balanced
from repro.octree.mesh import extract_mesh
from repro.octree.refine import Action, RefinementEngine
from repro.octree.store import validate_tree


def test_fresh_tree_is_root_leaf_in_dram(rig):
    t = rig.tree
    assert t.num_octants() == 1
    assert t.is_leaf(morton.ROOT_LOC)
    assert rig.dram.used == 1
    assert rig.nvbm.used == 0
    t.check_invariants()


def test_refine_coarsen_roundtrip(rig):
    t = rig.tree
    kids = t.refine(morton.ROOT_LOC)
    assert len(kids) == 4
    assert t.num_octants() == 5
    t.coarsen(morton.ROOT_LOC)
    assert t.num_octants() == 1
    validate_tree(t)
    t.check_invariants()


def test_refine_non_leaf_rejected(rig):
    rig.tree.refine(morton.ROOT_LOC)
    with pytest.raises(ReproError):
        rig.tree.refine(morton.ROOT_LOC)


def test_coarsen_non_parent_rejected(rig):
    with pytest.raises(ReproError):
        rig.tree.coarsen(morton.ROOT_LOC)
    kids = rig.tree.refine(morton.ROOT_LOC)
    rig.tree.refine(kids[0])
    with pytest.raises(ReproError):
        rig.tree.coarsen(morton.ROOT_LOC)


def test_payloads(rig):
    t = rig.tree
    kids = t.refine(morton.ROOT_LOC)
    t.set_payload(kids[2], (1.5, 2.5, 0.0, 0.0))
    assert t.get_payload(kids[2]) == (1.5, 2.5, 0.0, 0.0)
    assert t.get_payload(kids[0]) == (0.0, 0.0, 0.0, 0.0)


def test_children_inherit_payload(rig):
    t = rig.tree
    t.set_payload(morton.ROOT_LOC, (7.0, 0.0, 0.0, 0.0))
    for k in t.refine(morton.ROOT_LOC):
        assert t.get_payload(k)[0] == 7.0


def test_3d_pm_octree():
    from tests.core.conftest import PMRig

    rig = PMRig(dim=3)
    kids = rig.tree.refine(morton.ROOT_LOC)
    assert len(kids) == 8
    rig.tree.persist()
    rig.tree.check_invariants()
    validate_tree(rig.tree)


def test_balance_runs_on_pmoctree(rig):
    t = rig.tree
    loc = t.refine(morton.ROOT_LOC)[0]
    for _ in range(3):
        loc = t.refine(loc)[-1]
    assert not is_balanced(t)
    balance_tree(t)
    assert is_balanced(t)
    t.check_invariants()


def test_refinement_engine_runs_on_pmoctree(rig):
    def crit(loc, payload):
        lo, _ = morton.cell_bounds(loc, 2)
        return Action.REFINE if lo[0] < 0.25 else Action.KEEP

    engine = RefinementEngine(soa.per_octant(crit), max_level=3)
    engine.adapt(rig.tree, rounds=5)
    validate_tree(rig.tree)
    rig.tree.check_invariants()


def test_mesh_extraction_on_pmoctree(rig):
    t = rig.tree
    kids = t.refine(morton.ROOT_LOC)
    t.refine(kids[0])
    mesh = extract_mesh(t)
    assert mesh.num_elements == 7
    assert len(mesh.dangling) == 2


def test_balance_across_persist(rig):
    """Meshing routines keep working after octants migrate to NVBM."""
    t = rig.tree
    t.refine(morton.ROOT_LOC)
    t.persist()
    loc = t.find_leaf_at_root = None  # not part of protocol; use refine
    kids = morton.children_of(morton.ROOT_LOC, 2)
    deep = t.refine(kids[0])
    for _ in range(2):
        deep = t.refine(deep[-1])
    balance_tree(t)
    assert is_balanced(t)
    validate_tree(t)
    t.check_invariants()


def test_memory_usage_and_c0_size(rig):
    t = rig.tree
    t.refine(morton.ROOT_LOC)
    assert t.memory_usage_octants() == 5
    assert t.c0_size() == 5
    t.persist(transform=False)
    assert t.c0_size() == 0  # all merged out
    assert rig.dram.used == 0


def test_delete_all(rig):
    t = rig.tree
    t.refine(morton.ROOT_LOC)
    t.persist()
    t.delete_all()
    assert rig.dram.used == 0
    assert rig.nvbm.used == 0
    assert t.num_octants() == 0
