"""The five workloads, run as one subprocess each by ``bench/run.py``.

Everything here drives ``repro`` through its public functions and reads its
public stats objects; nothing under ``src/`` knows the benchmark exists.
Modules of ``repro`` are imported *as modules* and called through their
attributes (``core_api.pm_restore(...)``) so that the traced pass, which
replaces those attributes (see :mod:`bench.trace`), sees the same calls.

One **repeat** of a workload is: build a fresh rig, construct the mesh and
run the warm steps (``setup_s``, untimed), then the timed region — per-step
wall times, the final ``drain_persists()`` barrier and, on
``replicate_recover``, the recovery drills — then the untimed checks.  Two
clocks are read around the timed region and never mixed: **host**
(``time.perf_counter``) and **sim** (the rig's ``SimClock``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy

import repro.core as core_api
import repro.core.recovery as recovery
import repro.core.replication as replication
import repro.solver.simulation as simulation
import repro.solver.wave as wave
from repro.baselines.incore import CheckpointPolicy, InCoreOctree
from repro.config import (DRAM_SPEC, NVBM_FS_SPEC, NVBM_SPEC, TITAN,
                          PMOctreeConfig, SolverConfig)
from repro.core.pmoctree import SLOT_PREV
from repro.errors import ReproError
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.failure import default_injector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM, index_of
from repro.obs import Observability, observe_rig
from repro.octree.balance import is_balanced
from repro.parallel.faults import FaultyNetwork, LinkFaults, NetworkFaultPlan
from repro.parallel.network import Network
from repro.solver.fields import VOF
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem

from bench.trace import Tracer

WORKLOADS = ("droplet_tight", "droplet_solve", "wave_adapt", "droplet_incore",
             "replicate_recover")

#: roomy C0: every octant stays DRAM-resident
ROOMY = 1 << 16
PAYLOAD_BYTES = 32


# ---------------------------------------------------------------- inputs

@dataclass(frozen=True)
class Inputs:
    """Everything a workload is allowed to know about ``--seed``."""

    wavelength: float
    amplitude: float
    epicenter: Tuple[float, float]
    pm_seed: int
    net_seed: int
    tear_seed: int
    victim_seed: int
    #: test hook: flip one payload after a restore, before its digest check
    corrupt_restore: bool = False


def make_inputs(seed: int, corrupt_restore: bool = False) -> Inputs:
    rng = random.Random(seed)
    return Inputs(
        wavelength=rng.uniform(0.20, 0.24),
        amplitude=rng.uniform(0.22, 0.28),
        epicenter=(rng.uniform(0.4, 0.6), rng.uniform(0.4, 0.6)),
        pm_seed=rng.randrange(1 << 31),
        net_seed=rng.randrange(1 << 31),
        tear_seed=rng.randrange(1 << 31),
        victim_seed=rng.randrange(1 << 31),
        corrupt_restore=corrupt_restore,
    )


@dataclass(frozen=True)
class Size:
    """Mesh depth and step counts; ``QUICK`` is the test size."""

    droplet_level: int = 10   #: ~3.1-3.4 k leaves, ~4.5 k octants
    wave_level: int = 8       #: ~4.5 k -> ~7 k leaves over the run
    recover_level: int = 9    #: ~1.6-2 k leaves
    tight_budget: int = 512   #: C0 octants, ~1/8 of the droplet tree
    warm: int = 2
    timed: int = 6
    persist_every: int = 4    #: cadence of the non-tight workloads
    recover_steps: int = 6    #: replicate_recover: crash every 2nd of these
    restores: int = 20        #: back-to-back restores after each run
    incore_restores: int = 10  #: ... of a snapshot, each twice as long
    drill_restores: int = 20  #: ... and inside replicate_recover
    replica_restores: int = 5


FULL = Size()
QUICK = Size(droplet_level=6, wave_level=6, recover_level=6,
             tight_budget=48, warm=0, timed=2, persist_every=2,
             recover_steps=2, restores=2, incore_restores=2, drill_restores=3,
             replica_restores=1)


# ------------------------------------------------------------- op ledger

class Ops:
    """Attempted and failed operations (steps, restores, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.checks: List[str] = []
        self.failures: List[str] = []
        #: the sim is seeded, so checks of the final state that cost a
        #: step or a tree walk run on the first repeat only
        self.first_repeat = True

    def did(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.checks.append(what)
        if not ok:
            self.failures.append(what)


# ------------------------------------------------------------------- rig

@dataclass
class Rig:
    clock: SimClock
    dram: MemoryArena
    tree: Any
    nvbm: Optional[MemoryArena] = None
    config: Optional[PMOctreeConfig] = None
    fs: Optional[SimFileSystem] = None
    obs: Optional[Observability] = None
    #: PMStats of trees a restore has since replaced (they restart at zero)
    retired_pm: Dict[str, float] = field(default_factory=dict)

    def adopt(self, tree) -> None:
        """A restore returned a new tree object; keep the old one's stats."""
        for k, v in _flat("pm", self.tree.stats).items():
            self.retired_pm[k] = self.retired_pm.get(k, 0.0) + v
        self.tree = tree


def pm_rig(inp: Inputs, budget: int, inflight: int,
           obs: Optional[Observability]) -> Rig:
    default_injector().reset()
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    config = PMOctreeConfig(dram_capacity_octants=budget, seed=inp.pm_seed,
                            max_inflight_epochs=inflight)
    tree = core_api.pm_create(dram, nvbm, dim=2, config=config)
    if obs is not None:
        obs.bind_clock(clock)
        observe_rig(obs, arenas=(dram, nvbm), tree=tree)
    return Rig(clock, dram, tree, nvbm=nvbm, config=config, obs=obs)


def incore_rig(obs: Optional[Observability]) -> Rig:
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, clock))
    if obs is not None:
        obs.bind_clock(clock)
        observe_rig(obs, arenas=(dram,))
    return Rig(clock, dram, InCoreOctree(dram, dim=2), fs=fs, obs=obs)


def droplet_config(inp: Inputs, level: int) -> SolverConfig:
    return SolverConfig(dim=2, min_level=2, max_level=level, dt=0.01,
                        perturbation_wavelength=inp.wavelength,
                        perturbation_amplitude=inp.amplitude)


def unmetered(tree):
    """Inspection scope: reads inside it do not move the sim clock."""
    if hasattr(tree, "unmetered_inspection"):
        return tree.unmetered_inspection()
    return tree.arena.device.unmetered()


def leaf_digest(tree) -> str:
    """Digest of the leaf set and every leaf payload, bit for bit."""
    with unmetered(tree):
        locs = sorted(tree.leaves())
        if hasattr(tree, "batch_read_payloads"):
            payloads = np.asarray(tree.batch_read_payloads(locs),
                                  dtype=np.float64)
        else:
            payloads = np.array([tree.get_payload(loc) for loc in locs],
                                dtype=np.float64)
    h = hashlib.blake2b(np.asarray(locs, dtype=np.uint64).tobytes(),
                        digest_size=16)
    h.update(payloads.tobytes())
    return h.hexdigest()


def corrupt_one_payload(tree) -> None:
    """The planted fault of the self-test: one leaf's VOF moves by one ulp."""
    with unmetered(tree):
        loc = min(tree.leaves())
        p = tree.get_payload(loc)
        tree.set_payload(loc, (float(np.nextafter(p[0], 2.0)),) + tuple(p[1:]))


# -------------------------------------------------------------- counters

def _flat(prefix: str, obj) -> Dict[str, float]:
    return {f"{prefix}.{k}": float(v)
            for k, v in dataclasses.asdict(obj).items()}


def counters(rig: Rig) -> Dict[str, float]:
    """Flat snapshot of every public stats object on the rig."""
    snap = rig.clock.snapshot()
    out = {"clock.now_ns": snap.now_ns}
    out.update({f"phase.{k}": v for k, v in snap.by_phase.items()})
    out.update({f"category.{k}": v for k, v in snap.by_category.items()})
    out.update(_flat("dram", rig.dram.device.stats))
    if rig.nvbm is not None:
        out.update(_flat("nvbm", rig.nvbm.device.stats))
        out.update({k: v + rig.retired_pm.get(k, 0.0)
                    for k, v in _flat("pm", rig.tree.stats).items()})
        if rig.config.max_inflight_epochs:
            # PipelineStats is a public stats object, but the tree has no
            # public accessor for it: read it where repro.harness.bench
            # does, and let a rename raise instead of reading zeros
            out.update(_flat("pipeline", rig.tree._pipeline.stats))
    if rig.fs is not None:
        out.update(_flat("block", rig.fs.device.stats))
    return out


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------- repeat

@dataclass
class Repeat:
    """What one repeat measured."""

    setup_s: float = 0.0
    #: (wall seconds, leaves) per timed step
    steps: List[Tuple[float, int]] = field(default_factory=list)
    other_s: float = 0.0     #: timed segments that are not steps
    recover_wall_ms: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    sim: Dict[str, float] = field(default_factory=dict)    #: end-to-end, sim
    layer: Dict[str, float] = field(default_factory=dict)  #: per-layer
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.steps) + self.other_s

    @property
    def leaf_steps(self) -> int:
        return sum(n for _, n in self.steps)


class Region:
    """The timed region of one repeat: host wall per segment
    (``time.perf_counter``), cpu, tracer root span."""

    def __init__(self, rep: Repeat, ops: Ops, tracer: Optional[Tracer]):
        self.rep, self.ops, self.tracer = rep, ops, tracer

    def __enter__(self) -> "Region":
        gc.collect()
        if self.tracer is not None:
            self.tracer.start()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.rep.cpu_s = time.process_time() - self._cpu0
        if self.tracer is not None:
            self.tracer.stop()

    def untimed(self):
        """Scope for the benchmark's own work between timed segments
        (digests, crashes, rebuilding drivers): the trace books it
        to the ``harness`` layer instead of leaving it unattributed."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.excluded("bench.untimed")

    def step(self, sim):
        t0 = time.perf_counter()
        report = sim.step()
        self.rep.steps.append((time.perf_counter() - t0, report.leaves))
        self.ops.did()
        return report

    def timed(self, fn: Callable, *args, **kwargs):
        """Run one non-step segment; returns (result, wall seconds)."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.rep.other_s += wall
        return out, wall


def begin(mode: str, tracer: Optional[Tracer]) -> Optional[Observability]:
    """Per-repeat mode set-up: obs object, or tracing wrappers installed
    (inactive until the region opens, so set-up runs at full speed)."""
    if mode == "traced":
        tracer.install()
    return Observability() if mode == "obs" else None


def structural_checks(tree, ops: Ops) -> None:
    with unmetered(tree):
        try:
            if hasattr(tree, "check_invariants"):
                tree.check_invariants()
            else:
                tree.check_record_consistency()
            broken = None
        except ReproError as exc:  # a violation is a failed op, not a crash
            broken = exc
        ops.check(broken is None, f"check_invariants: {broken!r}")
        ops.check(is_balanced(tree), "2:1 balance")


def pm_restores(rig: Rig, inp: Inputs, n: int, expect: str, ops: Ops,
                region: Optional[Region] = None
                ) -> Tuple[Any, List[float], float]:
    """``n`` back-to-back crash -> ``pm_restore``; each must land on the
    state digest ``expect``.  Inside a timed ``region`` the restores count
    towards its wall time.  Returns (tree, wall ms each, sim us of the
    first)."""
    tear = np.random.default_rng(inp.tear_seed)
    walls, sim_us = [], 0.0
    untimed = region.untimed if region is not None else nullcontext
    for i in range(n):
        with untimed():
            rig.dram.crash()
            rig.nvbm.crash(tear)
        c0, t0 = rig.clock.now_ns, time.perf_counter()
        tree = core_api.pm_restore(rig.dram, rig.nvbm, dim=2,
                                   config=rig.config)
        walls.append((time.perf_counter() - t0) * 1e3)
        if i == 0:
            sim_us = (rig.clock.now_ns - c0) * 1e-3
        with untimed():
            if inp.corrupt_restore and i == 0:
                corrupt_one_payload(tree)
            ops.check(leaf_digest(tree) == expect, f"pm_restore #{i} landing")
            rig.adopt(tree)
    if region is not None:
        region.rep.other_s += sum(walls) * 1e-3
    return rig.tree, walls, sim_us


def mesh_info(rep: Repeat, octants: int, history) -> None:
    leaves = [r.leaves for r in history]
    rep.info.update(leaves_min=min(leaves), leaves_max=max(leaves),
                    octants_final=octants)


def sim_end_to_end(rep: Repeat, d: Dict[str, float], bytes_written: float,
                   wear_max: float, recover_sim_us: float) -> None:
    rep.sim = {
        "sim_makespan_ms": d["clock.now_ns"] * 1e-6,
        "sim_ns_per_leaf_step": ratio(d["clock.now_ns"], rep.leaf_steps),
        "nvbm_bytes_written": bytes_written,
        "nvbm_wear_max": wear_max,
        "recover_sim_us": recover_sim_us,
    }


def common_layers(rep: Repeat, rig: Rig, d: Dict[str, float], history
                  ) -> None:
    """Per-layer numbers every single-rig workload can read from the sim
    clock and the device/tree stats (all deltas over the timed region)."""
    g = d.get
    dram_ops = g("dram.reads", 0) + g("dram.writes", 0)
    nvbm_ops = g("nvbm.reads", 0) + g("nvbm.writes", 0)
    rep.layer.update({
        "solver.sim_ns": g("phase.solve", 0),
        "octree.refine.sim_ns": g("phase.refine", 0),
        "octree.balance.sim_ns": g("phase.balance", 0),
        "octree.refined": float(sum(r.refined for r in history)),
        "octree.coarsened": float(sum(r.coarsened for r in history)),
        "dram.reads": g("dram.reads", 0),
        "dram.writes": g("dram.writes", 0),
        "dram.sim_ns": g("category.mem_dram", 0),
        "nvbm.dram_access_share": ratio(dram_ops, dram_ops + nvbm_ops),
    })
    if rig.nvbm is None:
        return
    inplace, cow = g("pm.inplace_updates", 0), g("pm.cow_copies", 0)
    stall, drain = g("pipeline.stall_ns", 0), g("pipeline.drain_ns", 0)
    rep.layer.update({
        "core.persist.sim_ns":
            g("phase.persist.enqueue", 0) + g("phase.persist.drain", 0),
        "core.transform.sim_ns":
            g("phase.sample", 0) + g("phase.transform", 0),
        "core.cow_copies": cow,
        "core.inplace_updates": inplace,
        "core.inplace_share": ratio(inplace, inplace + cow),
        "core.evictions": g("pm.evictions", 0),
        "core.merges": g("pm.merges", 0),
        "core.persists": g("pm.persists", 0),
        "core.transformations": g("pm.transformations", 0),
        "core.hot_spills": g("pm.hot_spills", 0),
        "core.octants_reclaimed": g("pm.octants_reclaimed", 0),
        "core.partial_reads": g("pm.partial_reads", 0),
        "core.partial_writes": g("pm.partial_writes", 0),
        "core.pipeline.stall_ns": stall,
        "core.pipeline.drain_ns": drain,
        "core.pipeline.backpressure_waits": g("pipeline.backpressure_waits",
                                              0),
        # share of the scheduled drain time hidden behind compute
        "core.pipeline.overlap_fraction":
            max(0.0, 1.0 - stall / drain) if drain else 0.0,
        "nvbm.reads": g("nvbm.reads", 0),
        "nvbm.writes": g("nvbm.writes", 0),
        "nvbm.bytes_read": g("nvbm.bytes_read", 0),
        "nvbm.lines_read": g("nvbm.lines_read", 0),
        "nvbm.lines_written": g("nvbm.lines_written", 0),
        "nvbm.sim_ns": g("category.mem_nvbm", 0),
        "nvbm.wear_headroom": rig.nvbm.device.wear_headroom(),
        "nvbm.space_per_live_octant":
            ratio(rig.nvbm.used, rig.tree.num_octants()),
    })


def obs_layers(rep: Repeat, obs: Observability, leaf_steps: int, steps: int,
               nvbm: Optional[MemoryArena] = None) -> None:
    """Numbers only ``repro.obs`` exposes (read after the obs repeat)."""
    m = obs.metrics
    elems = m.total("kernel.batch_elems")
    fallbacks = m.total("kernel.scalar_fallbacks")
    # a fallback sweeps every leaf once; the counter records calls only
    fallback_elems = fallbacks * ratio(leaf_steps, steps)
    rep.layer.update({
        "solver.batch_elems": elems,
        "solver.scalar_fallbacks": fallbacks,
        "solver.batch_share": ratio(elems, elems + fallback_elems),
        "obs.spans": float(len(obs.tracer.spans)),
        "obs.counter_series": float(len(m)),
    })
    if nvbm is not None:
        flushes = m.get("arena.flush_calls", arena=nvbm.name)
        rep.layer["nvbm.flush_calls"] = flushes.value if flushes else 0.0


# ----------------------------------------------- PM droplet / wave workloads

@dataclass(frozen=True)
class PMSpec:
    app: str                 #: "droplet" | "wave"
    level: int
    budget: int = ROOMY
    persist_every: int = 1
    pressure_smooth: int = 0
    pressure_every: int = 0


def pm_spec(name: str, size: Size) -> PMSpec:
    if name == "droplet_tight":
        return PMSpec("droplet", size.droplet_level, budget=size.tight_budget)
    if name == "droplet_solve":
        return PMSpec("droplet", size.droplet_level,
                      persist_every=size.persist_every,
                      pressure_smooth=8, pressure_every=1)
    return PMSpec("wave", size.wave_level, persist_every=size.persist_every)


def pm_simulation(spec: PMSpec, inp: Inputs, obs: Optional[Observability]):
    """A fresh pipelined rig and the simulation of ``spec`` on it, not yet
    constructed.  Returns (rig, simulation, persistence hook)."""
    rig = pm_rig(inp, spec.budget, inflight=1, obs=obs)

    def persistence(sim_) -> None:
        if sim_.step_count % spec.persist_every == 0:
            sim_.tree.persist()
            sim_.tree.gc()

    if spec.app == "droplet":
        sim = simulation.DropletSimulation(
            rig.tree, droplet_config(inp, spec.level), clock=rig.clock,
            persistence=persistence, pressure_smooth=spec.pressure_smooth,
            pressure_every=spec.pressure_every)
    else:
        sim = wave.WaveSimulation(
            rig.tree, wave.WaveConfig(dim=2, min_level=2,
                                      max_level=spec.level, dt=0.01,
                                      epicenter=inp.epicenter),
            clock=rig.clock, persistence=persistence)
    sim.obs = obs
    return rig, sim, persistence


def run_pm(name: str, inp: Inputs, size: Size, mode: str, ops: Ops,
           tracer: Optional[Tracer]) -> Repeat:
    spec = pm_spec(name, size)
    rep = Repeat()
    t_setup = time.perf_counter()
    rig, sim, persistence = pm_simulation(spec, inp, begin(mode, tracer))
    obs = rig.obs
    sim.construct()
    for _ in range(size.warm):
        sim.step()
    rep.setup_s = time.perf_counter() - t_setup

    before = counters(rig)
    with Region(rep, ops, tracer) as region:
        history = [region.step(sim) for _ in range(size.timed)]
        # the run is durable only once the last epoch's flush train lands
        region.timed(rig.tree.drain_persists)
    d = delta(counters(rig), before)

    final = leaf_digest(rig.tree)
    overlaps = [r.overlap_ratio for r in history
                if getattr(r, "overlap_ratio", None) is not None]
    overlap_min = min(overlaps) if overlaps else rig.tree.overlap_ratio()
    mesh_info(rep, rig.tree.num_octants(), history)
    common_layers(rep, rig, d, history)
    rep.layer["core.overlap_ratio_min"] = overlap_min
    if spec.app == "wave":
        rep.layer["solver.cells_written"] = float(
            sum(r.cells_written for r in history))
        rep.layer["solver.cells_read"] = float(rep.leaf_steps)
    wear_max = float(rig.nvbm.device.wear_max())

    # the last step is a persist step and the barrier published it, so a
    # crash now must land on exactly the final state
    tree, walls, recover_us = pm_restores(rig, inp, size.restores, final, ops)
    rep.recover_wall_ms = walls
    rep.layer["core.recover.wall_ms_p50"] = statistics.median(walls)
    rep.layer["core.recover.sim_us"] = recover_us
    sim_end_to_end(rep, d, d["nvbm.bytes_written"], wear_max, recover_us)
    if ops.first_repeat:
        structural_checks(tree, ops)
        if spec.pressure_every:
            check_poisson(tree, rep, ops)
        if name == "droplet_tight":
            check_inflight_landing(rig, inp, sim, persistence, ops)
    if obs is not None:
        obs_layers(rep, obs, rep.leaf_steps, size.timed, rig.nvbm)
    return rep


def check_inflight_landing(rig: Rig, inp: Inputs, old_sim, persistence,
                           ops: Ops) -> None:
    """One more step on the restored tree, crashed with its epoch still in
    flight: recovery must land on that epoch or the one before, whole."""
    sim = simulation.DropletSimulation(rig.tree, old_sim.config,
                                       clock=rig.clock,
                                       persistence=persistence)
    sim.step_count, sim.t = old_sim.step_count, old_sim.t
    prev = leaf_digest(rig.tree)
    sim.step()
    ops.did()
    new = leaf_digest(rig.tree)
    rig.dram.crash()
    rig.nvbm.crash(np.random.default_rng(inp.tear_seed + 1))
    tree = core_api.pm_restore(rig.dram, rig.nvbm, dim=2, config=rig.config)
    ops.check(leaf_digest(tree) in (prev, new),
              "in-flight crash lands on epoch i or i-1")


def check_poisson(tree, rep: Repeat, ops: Ops, rtol: float = 1e-8) -> None:
    with unmetered(tree):
        rhs = tree.batch_read_fields(sorted(tree.leaves()), VOF)
        out = simulation.pressure_solve(tree, rtol=rtol)
    ops.check(out["residual"] <= rtol * float(np.linalg.norm(rhs)),
              "pressure_solve residual under rtol")
    rep.layer["solver.poisson.n"] = out["n"]
    rep.layer["solver.poisson.residual"] = out["residual"]


# ------------------------------------------------------------ droplet_incore

def check_equals_tight(rep: Repeat, inp: Inputs, size: Size, ops: Ops
                       ) -> None:
    """The comparator must compute the same physics as ``droplet_tight``,
    bit for bit.  The driver runs one workload per invocation, so
    ``droplet_incore`` runs its own untimed reference — after the metrics
    are taken, because the PM rig would raise ``peak_rss_mb``."""
    rig, sim, _ = pm_simulation(pm_spec("droplet_tight", size), inp, None)
    sim.construct()
    for _ in range(size.warm + size.timed):
        sim.step()
    rig.tree.drain_persists()
    ops.check(leaf_digest(rig.tree) == rep.info["final_digest"],
              "final leaf state equals droplet_tight's")


def run_incore(inp: Inputs, size: Size, mode: str, ops: Ops,
               tracer: Optional[Tracer]) -> Repeat:
    rep = Repeat()
    t_setup = time.perf_counter()
    obs = begin(mode, tracer)
    rig = incore_rig(obs)
    policy = CheckpointPolicy(rig.fs, interval=size.persist_every)
    checkpoint_bytes: List[int] = []

    def persistence(sim_) -> None:
        checkpoint_bytes.append(
            policy.maybe_checkpoint(sim_.tree, sim_.step_count))

    sim = simulation.DropletSimulation(
        rig.tree, droplet_config(inp, size.droplet_level), clock=rig.clock,
        persistence=persistence)
    sim.obs = obs
    sim.construct()
    for _ in range(size.warm):
        sim.step()
    rep.setup_s = time.perf_counter() - t_setup
    del checkpoint_bytes[:]

    before = counters(rig)
    checkpointed = None
    with Region(rep, ops, tracer) as region:
        history = []
        for _ in range(size.timed):
            history.append(region.step(sim))
            if policy.last_step == sim.step_count:
                with region.untimed():
                    checkpointed = leaf_digest(rig.tree)
    d = delta(counters(rig), before)

    rep.info["final_digest"] = leaf_digest(rig.tree)
    mesh_info(rep, rig.tree.num_octants(), history)
    common_layers(rep, rig, d, history)

    walls, recover_us, tree = [], 0.0, rig.tree
    for i in range(size.incore_restores):
        rig.dram.crash()
        fresh = MemoryArena(ARENA_DRAM, DRAM_SPEC, rig.clock, 1 << 16)
        c0, t0 = rig.clock.now_ns, time.perf_counter()
        tree = InCoreOctree.restore_from(rig.fs, policy.latest(), fresh)
        walls.append((time.perf_counter() - t0) * 1e3)
        if i == 0:
            recover_us = (rig.clock.now_ns - c0) * 1e-3
        if inp.corrupt_restore and i == 0:
            corrupt_one_payload(tree)
        ops.check(leaf_digest(tree) == checkpointed,
                  f"restore_from #{i} equals its checkpoint")
    rep.recover_wall_ms = walls
    if ops.first_repeat:
        structural_checks(tree, ops)

    page = rig.fs.device.page_size
    pages_used = rig.fs.device.bytes_used() // page
    snapshot_bytes = d["block.page_writes"] * page
    # hottest page of the NVBM-fs device: every checkpoint allocates fresh
    # pages, so this is 1 until snapshots start rewriting pages in place
    wear = float(-(-rig.fs.device.stats.page_writes // max(1, pages_used)))
    sim_end_to_end(rep, d, snapshot_bytes, wear, recover_us)
    rep.layer.update({
        "baselines.checkpoint.bytes": float(sum(checkpoint_bytes)),
        "baselines.checkpoint.sim_ns": d.get("phase.persist.enqueue", 0.0),
        "baselines.restore.sim_us": recover_us,
        "storage.io.sim_ns": d.get("category.io", 0.0),
        "storage.page_writes": d["block.page_writes"],
    })
    if obs is not None:
        obs_layers(rep, obs, rep.leaf_steps, size.timed, rig.nvbm)
    return rep


# --------------------------------------------------------- replicate_recover

def run_replicate(inp: Inputs, size: Size, mode: str, ops: Ops,
                  tracer: Optional[Tracer]) -> Repeat:
    rep = Repeat()
    t_setup = time.perf_counter()
    obs = begin(mode, tracer)
    rig = pm_rig(inp, ROOMY, inflight=0, obs=obs)
    # quiescent until faults are planted for the repair scrub
    rig.nvbm.attach_fault_model(MediaFaultModel(seed=inp.victim_seed))
    plan = NetworkFaultPlan(seed=inp.net_seed,
                            default=LinkFaults(drop=0.15, duplicate=0.05))
    transport = replication.FaultyTransport(
        FaultyNetwork(Network(TITAN.network), plan), host_rank=0,
        peer_rank=1, clock=rig.clock)
    replica = replication.ReplicaStore()
    sessions: List[replication.ReplicaSession] = []
    config = droplet_config(inp, size.recover_level)

    def persistence(sim_) -> None:
        sim_.tree.persist()
        sessions[-1].ship()

    def drive(tree, step_count: int = 0):
        """A simulation and a replication session on ``tree``.  Host-side
        session state is volatile: a restarted host assumes nothing about
        its peer, so its first ship is a full resync."""
        session = replication.ReplicaSession(
            tree, replica=replica, transport=transport, clock=rig.clock,
            policy=replication.RetryPolicy(max_retries=12))
        sim_ = simulation.DropletSimulation(tree, config, clock=rig.clock,
                                            persistence=persistence)
        sim_.step_count, sim_.t = step_count, step_count * config.dt
        if obs is not None:
            tree.attach_obs(obs)
            session.attach_obs(obs, peer="rank1")
            sim_.obs = obs
        sessions.append(session)
        return sim_

    sim = drive(rig.tree)
    sim.construct()
    for _ in range(size.warm):
        sim.step()
    rep.setup_s = time.perf_counter() - t_setup

    tear = np.random.default_rng(inp.tear_seed)
    before = counters(rig)
    history = []
    with Region(rep, ops, tracer) as region:
        for i in range(size.recover_steps):
            history.append(region.step(sim))
            if i % 2 == 0:
                continue
            # persist is synchronous here: a crash lands on this very step
            with region.untimed():
                expect = leaf_digest(rig.tree)
                rig.dram.crash()
                rig.nvbm.crash(tear)
            tree, _ = region.timed(core_api.pm_restore, rig.dram, rig.nvbm,
                                   dim=2, config=rig.config)
            with region.untimed():
                ops.check(leaf_digest(tree) == expect,
                          f"mid-run restore {i}")
                rig.adopt(tree)
                sim = drive(tree, sim.step_count)

        with region.untimed():
            final = leaf_digest(rig.tree)
        tree, walls, recover_us = pm_restores(rig, inp, size.drill_restores,
                                              final, ops, region)

        replica_walls, replica_us, replica_ns = [], 0.0, 0.0
        for i in range(size.replica_restores):
            clock2 = SimClock()
            dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 1 << 16)
            nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 20)
            twin, dt = region.timed(replication.restore_from_replica,
                                    replica, dram2, nvbm2, dim=2,
                                    config=rig.config)
            replica_walls.append(dt * 1e3)
            replica_us = clock2.now_ns * 1e-3
            replica_ns += clock2.now_ns
            with region.untimed():
                ops.check(leaf_digest(twin) == final, f"replica restore {i}")

        c0 = rig.clock.now_ns
        clean, _ = region.timed(recovery.scrub, tree)
        clean_us = (rig.clock.now_ns - c0) * 1e-3
        ops.check(clean.ok and clean.detected_total == 0, "clean scrub")

        with region.untimed():
            published = sorted(
                tree.reachable_from(rig.nvbm.roots.get(SLOT_PREV)))
            victims = random.Random(inp.victim_seed).sample(
                published, min(6, len(published)))
            model = rig.nvbm.device.fault_model
            for k, handle in enumerate(victims):
                gline = index_of(handle) * LINES_PER_RECORD \
                    + k % LINES_PER_RECORD
                (model.plant_stuck if k % 2 else model.plant_rot)(gline)
        c0 = rig.clock.now_ns
        repair, _ = region.timed(recovery.scrub, tree, replica=replica)
        repair_us = (rig.clock.now_ns - c0) * 1e-3
        with region.untimed():
            ops.check(not repair.unrepaired and leaf_digest(tree) == final,
                      "post-repair scrub equals host state")
    d = delta(counters(rig), before)
    d["clock.now_ns"] += replica_ns  # the drill is one serial scenario

    rep.recover_wall_ms = walls
    mesh_info(rep, tree.num_octants(), history)
    common_layers(rep, rig, d, history)
    sim_end_to_end(rep, d, d["nvbm.bytes_written"],
                   float(rig.nvbm.device.wear_max()), recover_us)
    stats = [s.stats for s in sessions]
    rep.layer.update({
        "core.overlap_ratio_min": min(r.overlap_ratio for r in history),
        "core.recover.wall_ms_p50": statistics.median(walls),
        "core.recover.sim_us": recover_us,
        "core.replica_restore.wall_ms": statistics.median(replica_walls),
        "core.replica_restore.sim_us": replica_us,
        "core.scrub.clean_sim_us": clean_us,
        "core.scrub.repair_sim_us": repair_us,
        "core.scrub.repaired": float(repair.repaired_retry
                                     + repair.repaired_local
                                     + repair.repaired_replica),
        "core.scrub.unrepaired": float(len(repair.unrepaired)),
        "core.ship.bytes": float(sum(s.bytes_shipped for s in stats)),
        "core.ship.retries": float(sum(s.retries for s in stats)),
        "core.ship.resyncs": float(sum(s.resyncs for s in stats)),
        "core.ship.wait_ns": float(sum(s.wait_ns for s in stats)),
    })
    if ops.first_repeat:
        structural_checks(tree, ops)
    if obs is not None:
        obs_layers(rep, obs, rep.leaf_steps, size.recover_steps, rig.nvbm)
    return rep


def run_repeat(name: str, inp: Inputs, size: Size, mode: str, ops: Ops,
               tracer: Optional[Tracer] = None) -> Repeat:
    # the last repeat's rig goes before this one is built, so that
    # peak_rss_mb is one rig's and does not depend on the repeat count
    gc.collect()
    try:
        if name == "droplet_incore":
            return run_incore(inp, size, mode, ops, tracer)
        if name == "replicate_recover":
            return run_replicate(inp, size, mode, ops, tracer)
        return run_pm(name, inp, size, mode, ops, tracer)
    finally:
        ops.first_repeat = False
        if tracer is not None:
            tracer.uninstall()


# ------------------------------------------------------------- aggregation

def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))]


def best_step_walls(repeats: List[Repeat]) -> List[float]:
    """Wall seconds of each timed step, the fastest of its repeats.

    Every repeat runs the same seeded steps on a fresh rig, so the repeats
    of step *i* are observations of one quantity.  What differs between
    them is the host: neighbours on this shared box only ever add time, in
    bursts of 0.3 s to minutes, so the fastest observation is the one
    closest to the program's own cost and the only statistic of the repeats
    that holds still between runs (bench/README.md, "Host noise")."""
    return [min(ws) for ws in zip(*([w for w, _ in r.steps] for r in repeats))]


def best_wall_s(repeats: List[Repeat]) -> float:
    """The timed region, segment by segment the fastest of the repeats."""
    return sum(best_step_walls(repeats)) + min(r.other_s for r in repeats)


def median_wall_s(repeats: List[Repeat]) -> float:
    """The same region with the median over repeats per segment: what the
    box delivered, noise included.  Printed beside the metric, not gated."""
    steps = zip(*([w for w, _ in r.steps] for r in repeats))
    return sum(statistics.median(ws) for ws in steps) \
        + statistics.median(r.other_s for r in repeats)


def end_to_end(repeats: List[Repeat], ops: Ops) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its plain repeats.  A
    host time is the fastest of the repeats of its segment; percentiles
    are taken over segments, not over repeats."""
    leaves = [n for _, n in repeats[0].steps]
    per_leaf_us = [w / n * 1e6
                   for w, n in zip(best_step_walls(repeats), leaves)]
    wall_s = best_wall_s(repeats)
    out = {
        "setup_s": min(r.setup_s for r in repeats),
        "wall_s": wall_s,
        "leaf_steps_per_s": repeats[0].leaf_steps / wall_s,
        "wall_us_per_leaf_step_p50": statistics.median(per_leaf_us),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # one repeat's drill is its median restore; the metric is the best drill
    drills = [statistics.median(r.recover_wall_ms) for r in repeats
              if r.recover_wall_ms]
    if drills:
        out["recover_wall_ms"] = min(drills)
    out.update(repeats[0].sim)
    # the sim clock is seeded: every repeat must reproduce it exactly
    ops.check(all(r.sim == repeats[0].sim for r in repeats),
              "sim metrics identical across repeats")
    return out


#: per-layer metrics only ``repro.obs`` can supply (taken from the obs repeat)
OBS_ONLY = ("solver.batch_elems", "solver.scalar_fallbacks",
            "solver.batch_share", "obs.spans", "obs.counter_series",
            "nvbm.flush_calls")
#: trace groups of whole phases: their inclusive time (everything that
#: happens under them, whichever layer does it) is reported as well
INCLUSIVE = ("octree.adapt", "octree.balance", "core.persist", "core.gc",
             "core.recover", "core.ship", "baselines.checkpoint")
#: trace groups whose call counts are reported beside their self time
COUNTED = ("solver", "solver.predicate", "octree.adapt", "core.access",
           "nvbm.arena", "nvbm.device")


def per_layer(plain: List[Repeat], obs_rep: Repeat, traced: Repeat,
              tracer: Tracer, ops: Ops) -> Dict[str, float]:
    """The per-layer metrics: stats of the plain repeats, obs-only numbers
    of the obs repeat, host self times of the traced repeat."""
    out = dict(plain[0].layer)
    out.update({k: obs_rep.layer[k] for k in OBS_ONLY if k in obs_rep.layer})
    for group, (calls, self_ns, incl_ns, _open) in tracer.groups.items():
        out[f"{group}.wall_s"] = self_ns * 1e-9
        if group in COUNTED:
            out[f"{group}.calls"] = float(calls)
        if group in INCLUSIVE:
            out[f"{group}.incl_s"] = incl_ns * 1e-9
    for results in filter(None, tracer.kept.values()):  # advect_vof's counters
        out["solver.cells_read"] = float(sum(r["reads"] for r in results))
        out["solver.cells_written"] = float(sum(r["writes"] for r in results))
    walls = [r.wall_s for r in plain]
    # one obs and one traced repeat sit between the plain ones, so their
    # overheads are read against the plain repeats' middle, not their best
    base = median_wall_s(plain)
    per_leaf_us = [w / n * 1e6 for r in plain for w, n in r.steps]
    out.update({
        "nvbm.bytes_per_cell_written": ratio(
            plain[0].sim.get("nvbm_bytes_written", 0.0),
            out.get("solver.cells_written", 0.0) * PAYLOAD_BYTES),
        "obs.overhead_fraction": obs_rep.wall_s / base - 1.0,
        "trace.overhead_fraction": traced.wall_s / base - 1.0,
        "trace.unattributed_fraction":
            ratio(tracer.root_self_ns, tracer.root_ns),
        "trace.spans": float(len(tracer.spans) + len(tracer.aggregates)),
        "step.wall_us_per_leaf_p90": percentile(per_leaf_us, 0.9),
        "cpu_s": statistics.median(r.cpu_s for r in plain),
        "wall_spread": (max(walls) - min(walls)) / base,
    })
    ops.check(all(r.sim == plain[0].sim
                  for r in plain + [obs_rep, traced]),
              "sim metrics identical under obs and tracing")
    return out


# -------------------------------------------------------------------- main

#: plain repeats of one run, unless the elapsed budget runs out first: the
#: fastest of fewer observations follows the box's slow periods
MIN_REPEATS = 4
#: seconds of a run the repeats may take.  The driver allows a run 30 s on
#: average, and a slow period of the box stretches every repeat by up to 2x
ELAPSED_CAP_S = 24.0


def plain_repeats(name: str, inp: Inputs, size: Size, ops: Ops,
                  seconds: float, repeats: int) -> List[Repeat]:
    """Fresh-rig plain repeats: exactly ``repeats`` if given, else until
    their timed regions add up to ``seconds`` (at least ``MIN_REPEATS``),
    stopping early (never below two) when one more would pass the cap."""
    start = time.perf_counter()
    plain: List[Repeat] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        plain.append(run_repeat(name, inp, size, "plain", ops))
        elapsed = time.perf_counter() - start
        longest = max(longest, time.perf_counter() - t0)
        if repeats:
            if len(plain) >= repeats:
                return plain
            continue
        if len(plain) < 2:
            continue
        # droplet_incore steps its droplet_tight reference after the
        # repeats, which takes about as long as one of them
        reserve = longest if name == "droplet_incore" else 0.0
        if elapsed + longest > ELAPSED_CAP_S - reserve:
            return plain
        if len(plain) >= MIN_REPEATS and \
                sum(r.wall_s for r in plain) >= seconds:
            return plain


def versions() -> Dict[str, str]:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--repeats", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--corrupt-restore", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    inp = make_inputs(args.seed, corrupt_restore=args.corrupt_restore)
    size = QUICK if args.quick else FULL
    ops = Ops()
    name = args.workload

    if args.trace:
        tracer = Tracer()
        plain = [run_repeat(name, inp, size, "plain", ops)]
        traced = run_repeat(name, inp, size, "traced", ops, tracer)
        obs_rep = run_repeat(name, inp, size, "obs", ops)
        if not args.quick:
            # a second plain repeat brackets the slow ones against drift
            plain.append(run_repeat(name, inp, size, "plain", ops))
        metrics = per_layer(plain, obs_rep, traced, tracer, ops)
        if args.out:
            tracer.write_jsonl(args.out)
        info = dict(plain[0].info, repeats=len(plain),
                    layer_self_s=tracer.layer_self_s(),
                    root_s=tracer.root_ns * 1e-9)
    else:
        plain = plain_repeats(name, inp, size, ops, args.seconds,
                              args.repeats)
        metrics = end_to_end(plain, ops)
        walls = [r.wall_s for r in plain]
        info = dict(plain[0].info, repeats=len(plain),
                    steps_timed=sum(len(r.steps) for r in plain),
                    step_wall_s=[[w for w, _ in r.steps] for r in plain],
                    step_leaves=[n for _, n in plain[0].steps],
                    other_s=[r.other_s for r in plain],
                    setup_s=[r.setup_s for r in plain],
                    restore_wall_ms=[r.recover_wall_ms for r in plain],
                    restores_timed=sum(len(r.recover_wall_ms) for r in plain),
                    wall_s_median=median_wall_s(plain),
                    wall_spread=(max(walls) - min(walls))
                    / statistics.median(walls))
    if name == "droplet_incore":
        check_equals_tight(plain[0], inp, size, ops)
    if args.trace:  # after the last check, so that it counts
        metrics["failed_ops_share"] = len(ops.failures) / ops.attempted
    info.update(versions())
    json.dump({"workload": name, "metrics": metrics, "info": info,
               "attempted": ops.attempted, "failed": len(ops.failures),
               "failures": ops.failures, "checks": ops.checks}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
