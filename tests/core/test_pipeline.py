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
from repro.nvbm import sites
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.obs import Observability
from repro.solver.simulation import DropletSimulation


def _droplet_rig(max_inflight, obs=None, steps=5):
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
    solver = SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)

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

#: which epoch a crash at each pipeline site must restore (max_inflight=1):
#: before the publish executes the slot still names epoch i-1; the
#: enqueue.mid site is reached only after backpressure published epoch i.
_EXPECTED_LANDING = {
    sites.EPOCH_OVERLAP_NEXT_STEP: "epoch-i-1",
    sites.EPOCH_DRAIN_MID: "epoch-i-1",
    sites.EPOCH_COMMIT_PRE_PUBLISH: "epoch-i-1",
    sites.EPOCH_ENQUEUE_MID: "epoch-i",
}


@pytest.mark.parametrize("site", sorted(_EXPECTED_LANDING))
def test_mid_drain_crash_lands_on_a_whole_epoch(site):
    """Recovery after a tear at each pipeline site restores bit-for-bit
    epoch i or epoch i-1 — and deterministically the one the commit-point
    argument predicts — never a blend of the two."""
    from repro.analysis.sweep import sweep_site

    out = sweep_site(site, max_steps=8)
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


def test_sync_mode_has_no_pipeline():
    clock, dram, nvbm, tree = _droplet_rig(max_inflight=0, steps=2)
    assert tree._pipeline is None
    tree.drain_persists()                 # a no-op barrier, not an error
