"""End-to-end: one Observability attached across the whole stack.

The obs counters are *folds* of the ``*Stats`` dataclasses the components
count in (DeviceStats, ArenaStats, PMStats, SessionStats, PipelineStats):
every numeric field is the counter of the same name, whenever obs was
attached, summed over every object folded under one name — and attaching
obs changes nothing the simulation can see.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import DRAM_SPEC, NVBM_SPEC, PMOctreeConfig, SolverConfig
from repro.core import pm_create, pm_restore
from repro.core.replication import ReplicaSession
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.obs import Observability, observe_rig, snapshot_wear
from repro.parallel.runtime import Backend, RunConfig, run_parallel
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation


def _rig(clock, dram, nvbm, max_inflight=0):
    # obs attaches AFTER the tree exists: a fold reports whatever its
    # stats object holds, so the construction traffic is not lost
    obs = Observability(clock)
    tree = pm_create(dram, nvbm, dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=96, seed=11,
                                           max_inflight_epochs=max_inflight))
    observe_rig(obs, arenas=(dram, nvbm), tree=tree)
    return obs, clock, dram, nvbm, tree


@pytest.fixture
def rig(clock, dram_arena, nvbm_arena):
    return _rig(clock, dram_arena, nvbm_arena)


def _run_droplet(clock, tree, steps=6, obs=None):
    solver = SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()

    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    if obs is not None:
        sim.obs = obs
    sim.run(steps)
    return sim


def _assert_fold(obs, prefix, stats, **labels):
    """Every numeric dataclass field == the counter of the same name."""
    for f in dataclasses.fields(stats):
        counter = obs.metrics.get(f"{prefix}.{f.name}", **labels)
        assert counter is not None, f"{prefix}.{f.name} missing"
        assert counter.value == getattr(stats, f.name), f.name


@pytest.mark.parametrize(
    "layer", ["arena", "device", "pipeline", "pm", "session"])
def test_counters_fold_stats(clock, dram_arena, nvbm_arena, layer):
    obs, clock, dram, nvbm, tree = _rig(clock, dram_arena, nvbm_arena,
                                        max_inflight=1)
    session = ReplicaSession(tree)
    observe_rig(obs, session=session)
    solver = SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()
        sim_.tree.drain_persists()  # a ship needs a *published* root
        session.ship()

    DropletSimulation(tree, solver, clock=clock,
                      persistence=persistence).run(6)
    # layer -> (prefix, its stats object, labels, a field the run must move)
    prefix, stats, labels, moved = {
        "device": ("device", nvbm.device.stats, {"device": nvbm.name},
                   "lines_written"),
        "arena": ("arena", nvbm.stats, {"arena": nvbm.name}, "frees"),
        "pm": ("pm", tree.stats, {}, "merge_octants_written"),
        "session": ("replication", session.stats, {"peer": "peer"},
                    "bytes_shipped"),
        "pipeline": ("pipeline", tree._pipeline.stats, {}, "drain_ns"),
    }[layer]
    assert getattr(stats, moved) > 0
    _assert_fold(obs, prefix, stats, **labels)
    if layer == "device":
        _assert_fold(obs, "device", dram.device.stats, device=dram.name)
    if layer == "session":
        assert obs.metrics.get("replication.ship_attempts",
                               peer="peer").count == stats.ships


def test_restored_tree_adds_to_its_predecessor(rig):
    """crash -> attach_and_restore -> re-attach: ``pm.*`` is the sum of
    both trees' PMStats, as push accumulation used to make it."""
    obs, clock, dram, nvbm, tree = rig
    _run_droplet(clock, tree, steps=3)
    dram.crash()
    nvbm.crash(np.random.default_rng(3))
    tree2 = pm_restore(dram, nvbm, dim=2, config=tree.config)
    tree2.attach_obs(obs)
    _run_droplet(clock, tree2, steps=2)
    assert tree2.stats.persists > 0 and tree.stats.persists > 0
    for f in dataclasses.fields(tree.stats):
        assert obs.metrics.total(f"pm.{f.name}") \
            == getattr(tree.stats, f.name) + getattr(tree2.stats, f.name)
    # the arenas survived the restart: still one source each
    _assert_fold(obs, "device", nvbm.device.stats, device=nvbm.name)


def test_attaching_twice_does_not_double(rig):
    obs, clock, dram, nvbm, tree = rig
    observe_rig(obs, arenas=(dram, nvbm), tree=tree)
    _run_droplet(clock, tree, steps=2)
    _assert_fold(obs, "arena", nvbm.stats, arena=nvbm.name)
    _assert_fold(obs, "device", nvbm.device.stats, device=nvbm.name)
    _assert_fold(obs, "pm", tree.stats)


def _observable_state(driver, observed):
    """Everything the simulation can see, after a run with or without obs."""
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 16)
    tree = pm_create(dram, nvbm, dim=2,
                     config=PMOctreeConfig(dram_capacity_octants=96,
                                           seed=11, max_inflight_epochs=1))

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()

    if driver == "droplet":
        sim = DropletSimulation(
            tree, SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01),
            clock=clock, persistence=persistence)
    else:
        sim = WaveSimulation(
            tree, WaveConfig(dim=2, min_level=2, max_level=4),
            clock=clock, persistence=persistence)
    if observed:
        observe_rig(Observability(clock), arenas=(dram, nvbm), tree=tree,
                    sim=sim)
    sim.run(4)
    tree.drain_persists()
    history = hashlib.sha256(repr(sim.history).encode()).hexdigest()
    return (clock.now_ns, dict(clock.by_phase), dict(clock.by_category),
            dram.device.stats, nvbm.device.stats,
            nvbm.device._wear.tobytes(), history)


@pytest.mark.parametrize("driver", ["droplet", "wave"])
def test_obs_is_invisible_to_the_simulation(driver):
    assert _observable_state(driver, True) == _observable_state(driver, False)


def test_simulation_spans_nest_under_step(rig):
    obs, clock, dram, nvbm, tree = rig
    _run_droplet(clock, tree, steps=3, obs=obs)
    steps = obs.tracer.named("sim.step")
    assert len(steps) == 3
    for sp in steps:
        child_names = {c.name for c in obs.tracer.children_of(sp)}
        assert {"sim.refine", "sim.balance",
                "sim.solve", "sim.persist.enqueue"} <= child_names
    # pm.persist nests under the compute-path half of the persist point
    persists = obs.tracer.named("pm.persist")
    assert persists
    parent_names = {
        next(s.name for s in obs.tracer.spans
             if s.span_id == p.parent_id)
        for p in persists
    }
    assert parent_names == {"sim.persist.enqueue"}
    # span durations are simulated time: the step spans cover the clock
    assert sum(s.duration_ns for s in steps) <= clock.now_ns

    # the wave driver records the same tree through the same helper
    wave = WaveSimulation(tree, WaveConfig(dim=2, min_level=2, max_level=4),
                          clock=clock,
                          persistence=lambda sim_: sim_.tree.persist())
    wave.obs = obs
    wave.step()
    wave_step = obs.tracer.named("sim.step")[-1]
    assert {c.name for c in obs.tracer.children_of(wave_step)} \
        == {"sim.refine", "sim.balance", "sim.solve", "sim.persist.enqueue"}


def test_wear_snapshot_matches_device(rig):
    obs, clock, dram, nvbm, tree = rig
    _run_droplet(clock, tree)
    snapshot_wear(obs, nvbm.device, nvbm.name)
    hist = obs.metrics.get("device.wear_writes_per_slot", device=nvbm.name)
    assert hist.sum == nvbm.device.wear_total()
    assert hist.max == nvbm.device.wear_max()
    assert obs.metrics.get("device.wear_max", device=nvbm.name).value \
        == nvbm.device.wear_max()


def test_run_parallel_accepts_obs_and_binds_probe_clock():
    obs = Observability()  # no clock yet: run_parallel late-binds its probe
    cfg = RunConfig(backend=Backend.PM_OCTREE, nranks=4,
                    target_elements=1e5, steps=3)
    result = run_parallel(cfg, obs=obs)
    assert obs.metrics.clock is not None
    # per-rank phase gauges exist for every rank
    for r in range(cfg.nranks):
        assert obs.metrics.get("clock.now_ns", rank=r) is not None
    makespan = obs.metrics.get("run.makespan_ns",
                               backend=Backend.PM_OCTREE.value)
    assert makespan.value == pytest.approx(result.makespan_s * 1e9)
    # device counters rode along via the resources dict
    assert obs.metrics.total("device.writes") > 0
    assert obs.tracer.named("parallel.step")
    # and the un-observed run still works exactly as before
    result2 = run_parallel(cfg)
    assert result2.makespan_s == pytest.approx(result.makespan_s)
