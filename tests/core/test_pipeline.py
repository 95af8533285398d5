"""The epoch-overlap test battery for the asynchronous persist pipeline.

Three families of guarantees:

* **Differential** — the pipeline changes *when* durability work happens,
  never *what* is durable: pipelined and synchronous runs recover to
  bit-identical state, at every in-flight window size and rank count.
* **Recovery landing** — a crash mid-drain restores exactly epoch *i* or
  epoch *i−1* (the root-slot publish is the commit point), never a blend.
* **Properties** — under seeded random interleavings the in-flight window
  never exceeds its bound, and every backpressure stall is charged to the
  simulated clock under the ``persist.drain`` phase.
"""

import random

import pytest

from repro.analysis.sweep import _Rig, _signature
from repro.config import DRAM_SPEC, NVBM_SPEC, PMOctreeConfig, SolverConfig
from repro.core.api import pm_create
from repro.core.pmoctree import SLOT_PREV
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.obs import Observability
from repro.solver.simulation import DropletSimulation


def _droplet_rig(max_inflight, obs=None, steps=5, max_level=4):
    """Run the droplet workload with a persist+gc point every step."""
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=96,
                         max_inflight_epochs=max_inflight)
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    if obs is not None:
        if obs.metrics.clock is None:
            obs.bind_clock(clock)
        nvbm.attach_obs(obs)
        tree.attach_obs(obs)
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()

    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    if obs is not None:
        sim.obs = obs
    sim.run(steps)
    return clock, dram, nvbm, tree


def _recovered_signature(dram, nvbm, tree, seed=11):
    """Crash, restore, and return the structural signature."""
    from repro.core.api import pm_restore
    import numpy as np

    config = tree.config
    dram.crash()
    nvbm.crash(np.random.default_rng(seed))
    restored = pm_restore(dram, nvbm, dim=2, config=config)
    return _signature(restored)


# ----------------------------------------------------------- differential

@pytest.mark.parametrize("max_inflight", [1, 2, 3])
def test_pipelined_recovers_bit_identical_to_sync(max_inflight):
    """Same workload, same persist points: the synchronous and pipelined
    runs must crash-recover to exactly the same state."""
    clock_s, dram_s, nvbm_s, tree_s = _droplet_rig(max_inflight=0)
    sig_sync = _recovered_signature(dram_s, nvbm_s, tree_s)

    clock_p, dram_p, nvbm_p, tree_p = _droplet_rig(max_inflight=max_inflight)
    tree_p.drain_persists()           # the barrier publishes the last epoch
    sig_pipe = _recovered_signature(dram_p, nvbm_p, tree_p)

    assert sig_sync, "workload must persist a non-trivial tree"
    assert sig_pipe == sig_sync
    # and the overlap must actually have paid off on the simulated clock
    assert clock_p.now_ns <= clock_s.now_ns


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_parallel_differential_sync_vs_pipelined(nranks):
    """run_parallel with the pipeline on and off computes the identical
    state trajectory at every rank count — only the clock may differ, and
    only downward."""
    from repro.parallel.runtime import Backend, RunConfig, run_parallel

    def cfg(inflight):
        return RunConfig(backend=Backend.PM_OCTREE, nranks=nranks,
                         target_elements=1e4, steps=4,
                         max_inflight_epochs=inflight)

    sync = run_parallel(cfg(0))
    pipe = run_parallel(cfg(1))
    trajectory = [(r.leaves, r.octants, r.refined, r.coarsened, r.droplets)
                  for r in sync.step_reports]
    assert trajectory == [
        (r.leaves, r.octants, r.refined, r.coarsened, r.droplets)
        for r in pipe.step_reports]
    assert pipe.persists == sync.persists
    assert pipe.actual_octants == sync.actual_octants
    assert pipe.makespan_s <= sync.makespan_s


# ------------------------------------------------------- recovery landing

#: which epoch a crash at each persist site must restore on a pipelined rig
#: (max_inflight=1): before the publish executes the slot still names epoch
#: i-1, after it epoch i; the before-flush site is reached only after
#: backpressure published epoch i.
_EXPECTED_LANDING = {
    sites.EPOCH_OVERLAP_NEXT_STEP: "epoch-i-1",
    sites.EPOCH_DRAIN_MID: "epoch-i-1",
    sites.PERSIST_BEFORE_ROOT_SWAP: "epoch-i-1",
    sites.PERSIST_AFTER_ROOT_SWAP: "epoch-i",
    sites.PERSIST_BEFORE_FLUSH: "epoch-i",
}


@pytest.mark.parametrize("site", sorted(_EXPECTED_LANDING))
def test_mid_drain_crash_lands_on_a_whole_epoch(site, monkeypatch):
    """Recovery after a tear at each persist site of a pipelined rig
    restores bit-for-bit epoch i or epoch i-1 — and deterministically the
    one the commit-point argument predicts — never a blend of the two.
    ``sweep._DRIVERS`` routes the ``EPOCH_SITES`` to the pipelined scenario
    already; the ``persist.*`` sites outside them are swept on the
    inline-settling workload, so only those are routed here by hand."""
    from repro.analysis import sweep

    if site not in sites.EPOCH_SITES:
        monkeypatch.setitem(sweep._DRIVERS, site, sweep._epoch)
    out = sweep.sweep_site(site, max_steps=8)
    assert out.fired, f"{site} never fired"
    assert out.recovered, f"{site}: {out.detail}"
    assert out.matched == _EXPECTED_LANDING[site]


# --------------------------------------------------------------- properties

@pytest.mark.parametrize("seed", [3, 17, 404])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_inflight_window_never_exceeds_bound(seed, bound):
    """Random refine/coarsen/payload/persist interleavings: the queue depth
    stays within ``max_inflight_epochs`` at every point in time."""
    rig = _Rig(max_inflight=bound)
    tree = rig.tree
    rng = random.Random(seed)
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    for _ in range(40):
        op = rng.choice(["refine", "coarsen", "payload", "persist"])
        leaves = sorted(tree.leaves())
        if op == "refine" and len(leaves) < 64:
            tree.refine(rng.choice(leaves))
        elif op == "payload":
            tree.set_payload(rng.choice(leaves),
                             (rng.random(), 1.0, 0.0, 0.0))
        elif op == "coarsen":
            parents = sorted({loc >> tree.dim for loc in leaves if loc > 1})
            if parents:
                try:
                    tree.coarsen(rng.choice(parents))
                except Exception:
                    pass  # non-coarsenable pick; the property is the bound
        else:
            tree.persist(transform=False)
        assert tree._pipeline.inflight <= bound
    assert 0 < tree._pipeline.stats.max_inflight_seen <= bound
    tree.drain_persists()
    assert tree._pipeline.inflight == 0


def test_backpressure_stall_is_charged_to_the_sim_clock():
    """A full window stalls the *simulated* clock, under the nested
    ``persist.drain`` phase — stalls are real time, not bookkeeping."""
    rig = _Rig(max_inflight=1)
    tree = rig.tree
    for leaf in list(tree.leaves()):
        tree.refine(leaf)
    for i, leaf in enumerate(sorted(tree.leaves())[:4]):
        tree.set_payload(leaf, (float(i), 1.0, 0.0, 0.0))
    tree.persist(transform=False)         # epoch A in flight
    before = rig.clock.now_ns
    tree.set_payload(sorted(tree.leaves())[0], (9.0, 1.0, 0.0, 0.0))
    tree.persist(transform=False)         # must stall until A drains
    stats = tree._pipeline.stats
    assert stats.backpressure_waits >= 1
    assert stats.stall_ns > 0
    assert rig.clock.now_ns >= before + stats.stall_ns
    assert rig.clock.phase_ns("persist.drain") >= stats.stall_ns
    tree.drain_persists()


def test_overlap_fraction_gauge_and_phase_split():
    """The observability view of the pipeline: the droplet run reports
    its persist time under ``persist.enqueue`` (plus ``persist.drain`` for
    stalls), never under a bare ``persist``, and the folded
    ``pipeline.stall_ns``/``drain_ns`` counters reproduce the pipeline's
    own overlap accounting."""
    obs = Observability()
    clock, dram, nvbm, tree = _droplet_rig(max_inflight=1, obs=obs)
    tree.drain_persists()
    assert "persist" not in clock.by_phase
    assert clock.phase_ns("persist.enqueue") > 0
    pipe = tree._pipeline
    stall = obs.metrics.total("pipeline.stall_ns")
    drain = obs.metrics.total("pipeline.drain_ns")
    assert (stall, drain) == (pipe.stats.stall_ns, pipe.stats.drain_ns)
    assert max(0.0, 1.0 - stall / drain) == pipe.overlap_fraction() > 0
    # every drained epoch produced one pm.persist.drain span
    drain_spans = [s for s in obs.tracer.spans
                   if s.name == "pm.persist.drain"]
    assert len(drain_spans) == pipe.stats.drained > 0
    assert pipe.stats.drained == pipe.stats.enqueued


def test_window_zero_settles_before_persist_returns():
    """A window of 0 is the pipeline draining inline: every persist returns
    with its root already in ``V_prev`` and nothing queued, and no
    background drain is ever scheduled."""
    rig = _Rig(max_inflight=0).grow(1)
    tree, pipe = rig.tree, rig.tree._pipeline
    for stamp in (1.0, 2.0, 3.0):
        tree.set_payload(sorted(tree.leaves())[0], (stamp, 0.0, 0.0, 0.0))
        root = tree.persist(transform=False)
        assert rig.nvbm.roots.get(SLOT_PREV) == root
        assert pipe.inflight == 0 and pipe.live_roots() == []
    assert pipe.stats.enqueued == pipe.stats.drained == 3
    assert (pipe.stats.drain_ns, pipe.stats.stall_ns) == (0.0, 0.0)
    assert pipe.overlap_fraction() == 0.0
    tree.drain_persists()                 # nothing in flight: a no-op


def test_windows_count_the_same_work():
    """The window changes when durability work happens, not what is
    counted: one workload at windows 0 and 1 reports equal ``PMStats`` —
    the superseded marks included."""
    sync = _droplet_rig(max_inflight=0, steps=6, max_level=5)[3]
    pipe = _droplet_rig(max_inflight=1, steps=6, max_level=5)[3]
    for tree in (sync, pipe):
        # a last collection once nothing is in flight: the pipelined run's
        # GCs pinned the epoch still draining at each of them
        tree.drain_persists()
        tree.gc()
    assert sync.stats.marked_deleted > 0
    assert pipe.stats == sync.stats
