"""Replica == traversal oracle at every ship.

A DELTA carries the write sets of the versions published since the peer's
base (``repro.core.replication``); ``tests.oracles.replication`` walks the
whole published version instead.  At every ship, on droplet and wave rigs
at pipeline windows 0, 1 and 2, with tight, medium and roomy C0 budgets and
GC after every persist, the DELTA's records, their bytes and its dropped
handles must equal the oracle's, and the peer must then hold exactly the
published version.  Each rig runs two sessions: one attached (it ships
inside ``persist``) and one shipped by hand every ``LAG``-th persist, so
its peer lags and GC reuses slots that peer still holds.  The window-0
rigs repair one media fault between two ships.
"""

import pytest

from repro.config import (DRAM_SPEC, NVBM_SPEC, PMOctreeConfig,
                          SolverConfig)
from repro.core.api import pm_create
from repro.core.recovery import scrub
from repro.core.replication import ReplicaSession, ReplicaStore
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, index_of
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from tests.oracles.replication import published_images, traversal_delta

STEPS = 9
#: the by-hand session ships every LAG-th persist
LAG = 3
LEVEL = 7


class _Recording(ReplicaStore):
    """A peer store that keeps every DELTA it applied."""

    def __init__(self):
        super().__init__()
        self.deltas = []

    def apply_delta(self, seq, base_root, records, dropped, new_root,
                    resync=False):
        status = super().apply_delta(seq, base_root, records, dropped,
                                     new_root, resync)
        if status == "applied":
            assert not resync
            self.deltas.append((dict(records), set(dropped), new_root))
        return status


class _Checked:
    """One session and the oracle's view of what its peer holds."""

    def __init__(self, tree, attach):
        self.session = ReplicaSession(tree, replica=_Recording())
        if attach:
            tree.attach_replication_session(self.session)
        self.held = {}
        self.seen = 0
        self.reused = 0

    def check(self, tree):
        """The DELTAs since the last check, against the oracle."""
        store = self.session.replica
        records, dropped, root = traversal_delta(tree, self.held)
        fresh = store.deltas[self.seen:]
        self.seen = len(store.deltas)
        if not fresh:
            assert not records and not dropped
            return
        assert len(fresh) == 1
        sent, gone, new_root = fresh[0]
        assert new_root == root
        assert set(sent) == set(records)
        assert sent == records
        assert gone == dropped
        self.reused += len(set(sent) & set(self.held))
        _, self.held = published_images(tree)
        assert store.records == self.held
        assert store.root == root


def _rig(c0, window):
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=c0,
                         max_inflight_epochs=window)
    return nvbm, pm_create(dram, nvbm, dim=2, config=cfg)


def _repair_one(nvbm, tree, replica):
    """Rot one published record and let the scrub relocate its chain."""
    _, images = published_images(tree)
    victim = sorted(images)[len(images) // 2]
    model = MediaFaultModel()
    nvbm.attach_fault_model(model)
    model.plant_rot(index_of(victim) * LINES_PER_RECORD)
    report = scrub(tree, replica=replica)
    nvbm.attach_fault_model(None)
    assert report.ok and report.relocated == 1
    assert victim not in published_images(tree)[1]


def _run(driver, c0, window):
    nvbm, tree = _rig(c0, window)
    attached, by_hand = _Checked(tree, True), _Checked(tree, False)

    def persistence(sim_):
        sim_.tree.persist()
        attached.check(tree)
        if sim_.step_count % LAG == 0 and tree._pipeline.stats.drained:
            by_hand.session.ship()
            by_hand.check(tree)
        if window == 0 and sim_.step_count == 4:
            _repair_one(nvbm, tree, attached.session.replica)
            by_hand.session.ship()
            by_hand.check(tree)
        sim_.tree.gc()

    if driver == "droplet":
        sim = DropletSimulation(
            tree, SolverConfig(dim=2, min_level=2, max_level=LEVEL, dt=0.01),
            persistence=persistence)
    else:
        sim = WaveSimulation(tree, WaveConfig(dim=2, min_level=2,
                                              max_level=LEVEL - 1),
                             persistence=persistence)
    sim.run(STEPS)
    tree.drain_persists()
    for checked in (attached, by_hand):
        checked.session.ship()
        checked.check(tree)
    return attached, by_hand


@pytest.mark.parametrize("window", [0, 1, 2])
@pytest.mark.parametrize("c0", [64, 512, 1 << 16])
@pytest.mark.parametrize("driver", ["droplet", "wave"])
def test_replica_equals_traversal_oracle_at_every_ship(driver, c0, window):
    attached, by_hand = _run(driver, c0, window)
    assert attached.seen >= STEPS - window
    assert by_hand.seen >= STEPS // LAG


def test_lagging_peer_sees_reused_slots():
    """The by-hand peer lags, so GC frees and later epochs reuse slots it
    still holds: the oracle twin above covers that case."""
    _, by_hand = _run("droplet", 64, 0)
    assert by_hand.reused > 0


def test_same_window_garbage_is_neither_written_nor_dropped():
    """Records an epoch allocates and detaches again before it persists —
    a dirtied subtree evicted, loaded back and coarsened away in one
    window — are in neither the write set nor the dropped set."""
    from repro.core.merge import evict_subtree, load_subtree
    from repro.octree import morton
    from tests.core.conftest import PMRig

    rig = PMRig()
    t = rig.tree
    for _ in range(3):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    checked = _Checked(t, False)
    checked.session.ship()
    checked.check(t)
    a = morton.loc_from_coords(2, (1, 1), 2)
    assert load_subtree(t, a)
    for leaf in morton.children_of(a, 2):
        t.set_payload(leaf, (7.0, 0, 0, 0))
    evict_subtree(t, a)
    assert load_subtree(t, a)
    garbage = [t._origin[leaf] for leaf in morton.children_of(a, 2)]
    t.coarsen(a)
    assert set(garbage) <= set(t._detached)
    t.persist(transform=False)
    checked.session.ship()
    checked.check(t)
    sent, gone, _ = checked.session.replica.deltas[-1]
    assert not set(garbage) & (set(sent) | gone)


def test_repair_of_a_chain_the_epoch_already_left():
    """The epoch in progress coarsened a published parent away (its COW
    original superseded, its leaves detached) when the scrub relocates
    the chain to one of those leaves: the next publish drops the fresh
    copies, not the old ones."""
    from repro.octree import morton
    from tests.core.conftest import PMRig

    rig = PMRig()
    t = rig.tree
    for _ in range(2):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False)
    checked = _Checked(t, False)
    checked.session.ship()
    checked.check(t)
    parent = morton.loc_from_coords(1, (1, 0), 2)
    leaf = morton.children_of(parent, 2)[0]
    victim = t.handle_of(leaf)
    t.coarsen(parent)
    assert victim in t._detached
    model = MediaFaultModel()
    rig.nvbm.attach_fault_model(model)
    model.plant_rot(index_of(victim) * LINES_PER_RECORD)
    assert scrub(t, replica=checked.session.replica).relocated == 1
    rig.nvbm.attach_fault_model(None)
    assert victim not in t._detached
    t.persist(transform=False)
    checked.session.ship()
    checked.check(t)
