"""Crash injection + recovery: the consistency claims, actually exercised.

The paper's argument (§3): because updates are COW and the persist point is
one atomic root-slot store, *no* fence ordering is needed during a step —
whatever a crash tears, the previous version stays consistent.  These tests
crash at every declared site and verify pm_restore always reproduces the
last persisted tree exactly.
"""

import numpy as np
import pytest

from repro.errors import RecoveryError, SimulatedCrash
from repro.octree import morton, soa
from repro.octree.store import validate_tree


def _tree_signature(tree):
    """Full logical content: {leaf loc: payload} plus octant count."""
    return (
        {loc: tree.get_payload(loc) for loc in tree.leaves()},
        tree.num_octants(),
    )


def _build_and_persist(rig, salt=0.0):
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    for i, leaf in enumerate(sorted(t.leaves())):
        t.set_payload(leaf, (salt + i, 0.0, 0.0, 0.0))
    t.persist(transform=False)
    return _tree_signature(t)


def test_restore_without_persist_fails(rig):
    rig.crash()
    with pytest.raises(RecoveryError):
        rig.restore()


def test_restore_after_clean_persist(rig):
    sig = _build_and_persist(rig)
    rig.crash()
    t = rig.restore()
    assert _tree_signature(t) == sig
    validate_tree(t)
    t.check_invariants()


def test_unpersisted_step_is_rolled_back(rig):
    sig = _build_and_persist(rig)
    t = rig.tree
    # a whole step's worth of un-persisted work
    leaf = sorted(t.leaves())[0]
    t.refine(leaf)
    t.set_payload(sorted(t.leaves())[-1], (99.0, 0, 0, 0))
    rig.crash()
    t = rig.restore()
    assert _tree_signature(t) == sig  # back to the persisted state


@pytest.mark.parametrize("site,hit", [
    ("cow.after_copy", 1),
    ("cow.after_copy", 2),
    ("persist.begin", 1),
    ("persist.before_flush", 1),
    ("persist.before_root_swap", 1),
])
def test_crash_before_commit_point_preserves_old_version(rig, site, hit):
    sig = _build_and_persist(rig)
    t = rig.tree
    rig.injector.reset_hits()  # count hits from this step on
    rig.injector.arm(site, at_hit=hit)
    with pytest.raises(SimulatedCrash):
        # a busy step: COW updates and refinement in NVBM, then persist
        for i, leaf in enumerate(sorted(t.leaves())):
            t.set_payload(leaf, (100.0 + i, 0, 0, 0))
        t.refine(sorted(t.leaves())[0])
        t.persist(transform=False)
    rig.crash(seed=hit)
    t = rig.restore()
    assert _tree_signature(t) == sig
    t.check_invariants()


@pytest.mark.parametrize("site,hit", [
    ("merge.octant", 1),
    ("merge.octant", 3),
    ("merge.subtree_done", 1),
])
def test_crash_mid_merge_preserves_old_version(rig, site, hit):
    """Crashing while C0 merges out to NVBM must not damage V_{i-1}."""
    from repro.core.transform import detect_and_transform

    sig = _build_and_persist(rig)
    t = rig.tree
    # pull the (whole, small) tree into DRAM so the next persist has a real
    # C0 merge to crash in
    t.register_feature(soa.per_octant(lambda loc, payload: True))
    detect_and_transform(t)
    assert t.c0_size() > 0
    rig.injector.reset_hits()
    rig.injector.arm(site, at_hit=hit)
    with pytest.raises(SimulatedCrash):
        for i, leaf in enumerate(sorted(t.leaves())):
            t.set_payload(leaf, (100.0 + i, 0, 0, 0))
        t.persist(transform=False)
    rig.crash(seed=hit)
    t = rig.restore()
    assert _tree_signature(t) == sig
    t.check_invariants()


def test_crash_after_root_swap_recovers_new_version(rig):
    _build_and_persist(rig)
    t = rig.tree
    for i, leaf in enumerate(sorted(t.leaves())):
        t.set_payload(leaf, (200.0 + i, 0, 0, 0))
    new_sig = _tree_signature(t)
    rig.injector.reset_hits()
    rig.injector.arm("persist.after_root_swap")
    with pytest.raises(SimulatedCrash):
        t.persist(transform=False)
    rig.crash()
    t = rig.restore()
    # commit point passed: recovery must see the NEW version
    assert _tree_signature(t) == new_sig
    t.check_invariants()


def test_crash_mid_first_persist_is_unrecoverable_by_design(rig):
    """Before the first persist completes there is nothing durable."""
    t = rig.tree
    t.refine(morton.ROOT_LOC)
    rig.injector.arm("persist.before_root_swap")
    with pytest.raises(SimulatedCrash):
        t.persist()
    rig.crash()
    with pytest.raises(RecoveryError):
        rig.restore()


def test_repeated_crash_restore_cycles(rig):
    sig = _build_and_persist(rig)
    for cycle in range(4):
        t = rig.tree
        leaf = sorted(t.leaves())[cycle]
        t.set_payload(leaf, (float(cycle), 0, 0, 0))
        if cycle % 2 == 0:
            rig.crash(seed=cycle)
            t = rig.restore()
            assert _tree_signature(t) == sig
        else:
            t.persist(transform=False)
            sig = _tree_signature(t)
    t.check_invariants()


def test_gc_after_recovery_reclaims_crash_garbage(rig):
    _build_and_persist(rig)
    t = rig.tree
    # generate plenty of would-be-lost work
    for leaf in sorted(t.leaves())[:8]:
        t.refine(leaf)
    rig.crash()
    t = rig.restore()
    used_before = rig.nvbm.used
    res = t.gc()
    assert res.swept > 0
    assert rig.nvbm.used < used_before
    t.check_invariants()
    validate_tree(t)


def test_restore_work_is_proportional_to_tree_not_to_garbage(rig):
    """Near-instantaneous recovery: restore reads the persistent tree only
    (GC of crash garbage is deferred)."""
    _build_and_persist(rig)
    t = rig.tree
    n_tree = t.num_octants()
    for leaf in sorted(t.leaves()):
        t.refine(leaf)  # lots of doomed work
    rig.crash()
    reads_before = rig.nvbm.device.stats.reads
    t = rig.restore()
    reads = rig.nvbm.device.stats.reads - reads_before
    # one read per restored octant plus small constant overhead
    assert reads <= n_tree + 5


def test_epoch_advances_past_restored_records(rig):
    _build_and_persist(rig)
    rig.crash()
    t = rig.restore()
    prev_root = rig.nvbm.roots.get("V_prev")
    max_epoch = max(
        rig.nvbm.read_octant(h).epoch for h in t.reachable_from(prev_root)
    )
    assert t.epoch > max_epoch
    # therefore the first write after recovery COWs instead of corrupting
    leaf = sorted(t.leaves())[0]
    old = t.handle_of(leaf)
    t.set_payload(leaf, (1.0, 0, 0, 0))
    assert t.handle_of(leaf) != old


@pytest.mark.parametrize("seed", range(6))
def test_torn_write_fuzz(rig, seed):
    """Random torn-line outcomes at crash never corrupt the restored tree."""
    sig = _build_and_persist(rig)
    t = rig.tree
    rng = np.random.default_rng(seed)
    # interleave DRAM-free and COW work with cache-resident writes
    for leaf in sorted(t.leaves())[: 4 + seed]:
        t.set_payload(leaf, (rng.random(), 0, 0, 0))
    t.refine(sorted(t.leaves())[seed])
    rig.crash(seed=seed)
    t = rig.restore()
    assert _tree_signature(t) == sig
    t.check_invariants()


# -- a replaced tree dies by reference count -------------------------------

@pytest.mark.parametrize("max_inflight", [1, 2])
def test_restore_frees_the_old_tree_without_the_cyclic_collector(max_inflight):
    """``EpochPipeline.pmo`` used to close a cycle with
    ``PMOctree._pipeline``: every tree a ``pm_restore`` replaced stayed
    alive until the cyclic collector ran (1.35 MB per restore on the bench's
    20-restore drill)."""
    import gc
    import weakref

    from tests.core.conftest import PMRig

    rig = PMRig(max_inflight_epochs=max_inflight)
    _build_and_persist(rig)
    rig.tree.drain_persists()
    old_tree = weakref.ref(rig.tree)
    old_pipeline = weakref.ref(rig.tree._pipeline)
    gc.collect()
    gc.disable()
    try:
        rig.crash()
        new = rig.restore()  # rebinding rig.tree drops the last strong ref
        assert new is not None and old_tree() is None
        assert old_pipeline() is None
        assert new._pipeline.pmo is new
    finally:
        gc.enable()


def test_replaced_tree_with_a_replication_session_dies_too(rig):
    import gc
    import weakref

    from repro.core.replication import ReplicaSession

    _build_and_persist(rig)
    session = ReplicaSession(rig.tree)
    rig.tree.attach_replication_session(session)
    session.ship()
    assert session.pmo is rig.tree
    old_tree = weakref.ref(rig.tree)
    gc.collect()
    gc.disable()
    try:
        rig.crash()
        rig.restore()
        assert old_tree() is None
        assert session.pmo is None  # the session outlives its tree
    finally:
        gc.enable()
