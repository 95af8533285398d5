"""Mark-and-sweep GC behaviour (§3.2)."""

import pytest

from repro.errors import GCDisabledError
from repro.octree import morton, soa


def _two_level_persisted(rig):
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    return t


def test_gc_on_clean_tree_frees_nothing(rig):
    t = _two_level_persisted(rig)
    res = t.gc()
    assert res.swept == 0
    assert res.marked == rig.nvbm.used


def test_gc_reclaims_superseded_cow_originals(rig):
    t = _two_level_persisted(rig)
    t.gc()
    leaf = morton.loc_from_coords(2, (1, 1), 2)
    t.set_payload(leaf, (5.0, 0, 0, 0))  # COWs 3 records
    used_mid = rig.nvbm.used
    t.persist(transform=False)  # supersedes the 3 originals
    res = t.gc()
    assert res.swept == 3
    assert rig.nvbm.used == used_mid - 3
    t.check_invariants()


def test_gc_does_not_touch_live_versions(rig):
    t = _two_level_persisted(rig)
    leaf = morton.loc_from_coords(2, (0, 1), 2)
    t.set_payload(leaf, (5.0, 0, 0, 0))
    # mid-step: both V_{i-1} (old records) and V_i (copies) must survive
    prev = t.reachable_from(rig.nvbm.roots.get("V_prev"))
    curr = set(t._index.values())
    t.gc()
    for h in prev | curr:
        assert rig.nvbm.contains(h)


def test_gc_reclaims_coarsened_children_after_persist(rig):
    t = _two_level_persisted(rig)
    t.gc()
    parent = morton.loc_from_coords(1, (1, 0), 2)
    t.coarsen(parent)
    t.persist(transform=False)
    res = t.gc()
    # 4 children + COW originals of the parent path become garbage
    assert res.swept >= 4
    t.check_invariants()


def test_gc_refused_during_merge(rig):
    t = _two_level_persisted(rig)
    t.merging = True
    with pytest.raises(GCDisabledError):
        t.gc()
    t.merging = False
    t.gc()


def test_gc_triggered_by_nvbm_pressure():
    """persist() runs GC on demand when free NVBM drops below threshold."""
    from tests.core.conftest import PMRig

    rig = PMRig(nvbm_octants=96, threshold_nvbm=0.6)
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)  # 21 records
    # churn payloads to pile up superseded records past the 60%-free line
    for step in range(4):
        for leaf in sorted(t.leaves())[:6]:
            t.set_payload(leaf, (float(step), 0, 0, 0))
        t.persist(transform=False)
    assert t.stats.gc_runs >= 1
    t.check_invariants()


def test_gc_keeps_dram_origins(rig):
    """Origins of C0 octants are GC roots (needed for sharing at merge)."""
    from repro.core.transform import detect_and_transform

    t = _two_level_persisted(rig)
    t.register_feature(soa.per_octant(lambda loc, p: True))
    detect_and_transform(t)
    assert t._origin
    origin_handles = set(t._origin.values())
    t.gc()
    for h in origin_handles:
        assert rig.nvbm.contains(h)
    t.check_invariants()


def test_gc_sweeps_torn_crash_garbage(rig):
    t = _two_level_persisted(rig)
    t.gc()
    baseline = rig.nvbm.used
    for leaf in sorted(t.leaves())[:5]:
        t.refine(leaf)  # 5*4 children + COW copies, never persisted
    rig.crash()
    t = rig.restore()
    res = t.gc()
    assert res.swept >= 20
    assert rig.nvbm.used == baseline
