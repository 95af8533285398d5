"""The scrub/repair ladder: retry, local rebuild, replica rebuild, degrade."""

import pytest

from repro.core.api import pm_restore
from repro.core.pmoctree import SLOT_PREV
from repro.core.recovery import scrub
from repro.core.replication import ReplicaSession
from repro.config import OCTANT_RECORD_SIZE
from repro.errors import MediaUnrepairableError, UncorrectableError
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import index_of

from .conftest import PMRig


def _signature(tree):
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _persisted_rig(seed=0):
    """A rig with a refined, payload-stamped, persisted tree."""
    rig = PMRig(dram_octants=2048, nvbm_octants=1 << 15)
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())):
        tree.set_payload(leaf, (float(seed), float(i), 1.0, 2.0))
    tree.persist(transform=False)
    return rig


def _published(rig):
    root = rig.nvbm.roots.get(SLOT_PREV)
    return root, sorted(rig.tree.reachable_from(root))


def _attach(rig):
    model = MediaFaultModel()
    rig.nvbm.attach_fault_model(model)
    return model


def _gline(handle, line=0):
    return index_of(handle) * LINES_PER_RECORD + line


# ------------------------------------------------------------------- rung 1


def test_transient_upsets_clear_on_retry(monkeypatch):
    """A read error the next read does not repeat: the bounded re-read
    rung clears it, and each re-read is a metered read."""
    rig = _persisted_rig()
    before = _signature(rig.tree)
    root, _ = _published(rig)
    read = rig.nvbm.read_octant
    failed = []

    def fails_once(handle):
        if handle == root and not failed:
            failed.append(handle)
            rig.nvbm.device.on_read(OCTANT_RECORD_SIZE)
            raise UncorrectableError("nvbm", index_of(handle), "transient",
                                     lines=(_gline(handle),))
        return read(handle)

    stats = rig.nvbm.device.stats
    start = stats.reads
    clean = scrub(rig.tree)
    clean_reads = stats.reads - start
    monkeypatch.setattr(rig.nvbm, "read_octant", fails_once)
    start = stats.reads
    report = scrub(rig.tree)
    assert report.ok
    assert report.detected == {"transient": 1}
    assert report.repaired_retry == 1      # the bounded re-read rung fired
    assert report.relocated == 0           # nothing was actually damaged
    assert report.scanned == clean.scanned
    assert stats.reads - start == clean_reads + 1
    assert _signature(rig.tree) == before


# ------------------------------------------------------------------- rung 3


def test_rot_rebuilt_from_replica_frees_slot():
    rig = _persisted_rig()
    before = _signature(rig.tree)
    session = ReplicaSession(rig.tree)
    session.ship()
    replica = session.replica
    root, _published_handles = _published(rig)
    model = _attach(rig)
    model.plant_rot(_gline(root))          # internal: local rung cannot help
    report = scrub(rig.tree, replica=replica)
    assert report.ok
    assert report.detected == {"rot": 1}
    assert report.repaired_replica == 1
    assert report.relocated == 1
    assert report.retired_lines == 0       # rot frees; it does not retire
    idx = index_of(root)
    assert not rig.nvbm.allocator.is_retired(idx)
    assert not rig.nvbm._present[idx]      # slot genuinely reclaimed
    new_root, published = _published(rig)
    assert new_root != root
    assert root not in published
    assert _signature(rig.tree) == before
    rig.tree.check_invariants()


def test_stuck_line_retires_slot():
    rig = _persisted_rig()
    session = ReplicaSession(rig.tree)
    session.ship()
    replica = session.replica
    root, published = _published(rig)
    victim = published[len(published) // 2]
    model = _attach(rig)
    model.plant_stuck(_gline(victim))
    report = scrub(rig.tree, replica=replica)
    assert report.ok
    assert report.detected == {"stuck": 1}
    assert report.relocated == 1
    assert report.retired_lines == LINES_PER_RECORD
    assert rig.nvbm.allocator.is_retired(index_of(victim))
    _root, still_published = _published(rig)
    assert victim not in still_published
    rig.tree.check_invariants()


def test_repair_survives_crash_and_restore():
    """The republished tree is a real persist: power loss right after the
    repair must land restore on the same payloads."""
    rig = _persisted_rig()
    before = _signature(rig.tree)
    session = ReplicaSession(rig.tree)
    session.ship()
    replica = session.replica
    root, _ = _published(rig)
    model = _attach(rig)
    model.plant_stuck(_gline(root))
    assert scrub(rig.tree, replica=replica).ok
    rig.crash(seed=5)
    restored = rig.restore()
    assert _signature(restored) == before
    restored.check_invariants()


# ----------------------------------------------------------------- degrade


def test_unrepairable_without_replica_degrades_not_corrupts():
    rig = _persisted_rig()
    root, _ = _published(rig)
    model = _attach(rig)
    model.plant_rot(_gline(root))          # no replica, internal record
    report = scrub(rig.tree)
    assert not report.ok
    assert len(report.unrepaired) == 1
    assert report.relocated == 0


def test_restore_raises_unrepairable_with_lost_locs():
    rig = _persisted_rig()
    root, _ = _published(rig)
    model = _attach(rig)
    model.plant_rot(_gline(root))
    rig.crash(seed=2)
    with pytest.raises(MediaUnrepairableError) as ei:
        pm_restore(rig.dram, rig.nvbm, dim=2, config=rig.config,
                   injector=rig.injector)
    assert ei.value.lost_locs


# ----------------------------------------------- clean scrub is read-only


def test_scrub_on_clean_tree_is_pure_read():
    rig = _persisted_rig()
    before = _signature(rig.tree)
    stats = rig.nvbm.device.stats
    writes0, bw0, reads0 = stats.writes, stats.bytes_written, stats.reads
    t0 = rig.clock.now_ns
    report = scrub(rig.tree)
    assert report.ok and report.detected_total == 0
    assert report.scanned == len(list(rig.tree.reachable_from(
        rig.nvbm.roots.get(SLOT_PREV))))
    assert stats.writes == writes0             # no payload byte moved
    assert stats.bytes_written == bw0
    assert stats.reads > reads0                # only the read clock advanced
    assert rig.clock.now_ns > t0
    assert _signature(rig.tree) == before
    rig.tree.check_invariants()


# ------------------------------------------------- scrub with an epoch in flight


def test_scrub_drains_an_epoch_in_flight_before_repairing():
    """A repair republishes ``V_prev``: an unpublished epoch whose root
    reaches the relocated chain would, once it settles, publish a tree
    that names the freed slot.  The scrub is a persist barrier, so the
    restore after the drain lands on the host's payloads."""
    rig = PMRig(dram_octants=2048, nvbm_octants=1 << 15,
                max_inflight_epochs=1)
    tree = rig.tree
    for _ in range(2):
        for leaf in list(tree.leaves()):
            tree.refine(leaf)
    leaves = sorted(tree.leaves())
    assert len(leaves) == 16
    for i, leaf in enumerate(leaves):
        tree.set_payload(leaf, (0.0, float(i), 1.0, 2.0))
    tree.persist(transform=False)
    tree.drain_persists()
    session = ReplicaSession(tree)
    session.ship()
    for i, leaf in enumerate(leaves[:4]):
        tree.set_payload(leaf, (1.0, float(i), 3.0, 4.0))
    tree.persist(transform=False)
    [inflight] = tree._pipeline.live_roots()
    _root, published = _published(rig)
    shared = sorted(set(published) & set(tree.reachable_from(inflight)))
    victim = next(h for h in shared if rig.nvbm.read_octant(h).is_leaf)
    before = _signature(tree)
    _attach(rig).plant_stuck(_gline(victim))
    assert scrub(tree, replica=session.replica).ok
    tree.drain_persists()
    rig.crash(seed=3)
    restored = rig.restore()
    assert _signature(restored) == before
    restored.check_invariants()
