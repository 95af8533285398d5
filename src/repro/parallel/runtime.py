"""Parallel meshing driver: the five routines across P simulated ranks.

How the scaling experiments run (see DESIGN.md's substitution table): ONE
real droplet simulation executes on the chosen octree backend, with every
memory/storage access charged to a probe clock by the arenas and devices.
Each time step the driver

1. measures the real per-phase work (refine / balance / solve / persist),
2. splits it over P rank clocks in proportion to each rank's share of the
   leaves *before* re-balancing (the interface concentrates in a few ranks'
   ranges, which is exactly the load imbalance Partition exists to fix),
3. runs a real SFC repartition of the P leaf ranges through the simulated
   communicator, charging latency/bandwidth per actual message, and
4. applies the element **scale factor** ``S = target_elements /
   actual_octants``: per-rank phase times and message byte counts are
   multiplied by S, representing the paper's ~1M-elements-per-rank runs with
   a tree the simulator can afford.  Meshing work per octant is constant, so
   linear extrapolation preserves the curves' shapes; every result records
   the factor used.

Execution time = the makespan over rank clocks at the final barrier, which
is what Figs 6-11 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.config import (
    NVBM_FS_SPEC,
    OCTANT_RECORD_SIZE,
    ClusterSpec,
    PMOctreeConfig,
    SolverConfig,
    TITAN,
)
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import Category, SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree.linear import LinearOctree
from repro.parallel.network import Network
from repro.parallel.partition import repartition
from repro.parallel.simmpi import RankContext, SimCommunicator
from repro.solver.features import partition_work_weights
from repro.solver.simulation import DropletSimulation
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem

#: Load-share bins: with P >> actual octants, per-rank shares quantise to
#: nothing, so shares are computed over min(P, LOAD_BINS) bins and spread
#: evenly inside a bin.
LOAD_BINS = 64

#: Per-octant handling cost of migration (pack, unpack, delete from the
#: source tree, re-insert into the destination tree, rebuild ghost/neighbor
#: info) — charged on top of the wire transfer.  Calibrated so the
#: Partition share of meshing time lands near the paper's §5.2 anchors
#: (~19% at 6 ranks, ~56% at 1000 ranks) given this driver's migration
#: volumes.
PARTITION_NS_PER_OCTANT = 150.0


class Backend(str, Enum):
    """The three octree implementations of §5.1."""

    PM_OCTREE = "pm-octree"
    IN_CORE = "in-core"
    OUT_OF_CORE = "out-of-core"


@dataclass
class RunConfig:
    """One scaling-experiment run."""

    backend: Backend
    nranks: int
    target_elements: float  #: total elements the run represents (paper scale)
    steps: int = 20
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(
        dim=2, min_level=2, max_level=5, dt=0.01))
    cluster: ClusterSpec = TITAN
    #: C0 DRAM budget as a fraction of the (actual) tree size; mirrors the
    #: paper's "x GB configured for the C0 tree" knob (Fig 10).
    dram_fraction: float = 0.5
    #: Absolute C0 budget in actual octants; overrides dram_fraction.
    dram_octants: Optional[int] = None
    transform: bool = True
    checkpoint_interval: int = 10
    partition_every: int = 1
    #: Skip repartitioning while the weighted imbalance (max/mean rank
    #: load) stays at or under this; ``None`` re-balances eagerly every
    #: ``partition_every`` steps regardless of imbalance.
    partition_threshold: Optional[float] = 1.2
    #: Cut the curve by per-octant work weights (solver feature intensity +
    #: churn) instead of raw leaf counts.
    partition_weighted: bool = True
    #: which AMR application drives the run: "droplet" (the paper's §5.1
    #: workload) or "wave" (the §6-style second workload).
    workload: str = "droplet"
    #: the persist pipeline's window (PM-octree backend only): epochs
    #: that may still be draining when a persist returns; 0 publishes first.
    max_inflight_epochs: int = 1
    seed: int = 2017


@dataclass
class RunResult:
    """What the harness reports per configuration."""

    config: RunConfig
    makespan_s: float
    phase_seconds: Dict[str, float]
    scale_factor: float
    actual_octants: int
    nvbm_writes: int
    octants_migrated: float  #: scaled, summed over steps
    merges: int
    evictions: int  #: DRAM-pressure merges of C0 subtrees (the Fig 10 count)
    persists: int
    #: repartition rounds skipped by the imbalance threshold
    partitions_skipped: int = 0
    #: scaled wire bytes actually migrated, summed over steps
    partition_bytes_moved: float = 0.0
    step_reports: list = field(default_factory=list)


def _build_backend(backend: Backend, probe: SimClock, cfg: RunConfig):
    """Instantiate the global tree + its persistence hook on the probe clock."""
    if backend is Backend.PM_OCTREE:
        # generous arenas; C0 pressure is applied via dram_capacity below
        dram = MemoryArena(ARENA_DRAM, cfg.cluster.dram, probe, 1 << 18)
        nvbm = MemoryArena(ARENA_NVBM, cfg.cluster.nvbm, probe, 1 << 20)
        # dram budget resolved after construct(); start permissive
        pm_cfg = PMOctreeConfig(dram_capacity_octants=1 << 18, seed=cfg.seed,
                                max_inflight_epochs=cfg.max_inflight_epochs)
        from repro.core.pmoctree import PMOctree

        tree = PMOctree(dram, nvbm, dim=cfg.solver.dim, config=pm_cfg)

        def persistence(sim: DropletSimulation) -> None:
            # keep_resident always: without dynamic transformation the C0
            # layout is simply *static* (whatever landed in DRAM stays —
            # Fig 5a's brute-force placement), not absent.
            tree.persist(transform=cfg.transform, keep_resident=True)

        return tree, persistence, {"dram": dram, "nvbm": nvbm}
    if backend is Backend.IN_CORE:
        from repro.baselines.incore import CheckpointPolicy, InCoreOctree

        dram = MemoryArena(ARENA_DRAM, cfg.cluster.dram, probe, 1 << 18)
        # snapshots go to NVBM behind a filesystem interface (§5.1)
        fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, probe))
        tree = InCoreOctree(dram, dim=cfg.solver.dim)
        policy = CheckpointPolicy(fs, interval=cfg.checkpoint_interval)

        def persistence(sim: DropletSimulation) -> None:
            policy.maybe_checkpoint(tree, sim.step_count)

        return tree, persistence, {"dram": dram, "fs": fs}
    if backend is Backend.OUT_OF_CORE:
        from repro.baselines.etree import EtreeOctree

        device = BlockDevice(NVBM_FS_SPEC, probe)
        tree = EtreeOctree(device, dim=cfg.solver.dim)
        return tree, None, {"device": device}
    raise ValueError(f"unknown backend {backend}")


def _equal_cuts(lin: LinearOctree, nranks: int) -> np.ndarray:
    """Z-key boundaries that split the current leaves into P equal ranges.

    ``cuts[r]`` is the first key owned by rank r; ownership of rank r is
    ``[cuts[r], cuts[r+1])`` with a +inf sentinel at the end.  These
    boundaries persist across a time step, so leaves created by refinement
    land in whichever rank owns that region — the source of the load
    imbalance Partition repairs.
    """
    n = len(lin)
    cuts = np.empty(nranks + 1, dtype=np.float64)
    cuts[0] = 0.0
    for r in range(1, nranks):
        idx = round(r * n / nranks)
        cuts[r] = float(lin.keys[min(idx, n - 1)]) if n else 0.0
    cuts[-1] = np.inf
    return cuts


def _cuts_from_pieces(pieces, nranks: int) -> np.ndarray:
    """Z-key boundaries induced by the pieces a repartition produced.

    ``cuts[r]`` is rank r's first key; a rank that owns zero leaves after a
    weighted cut inherits the next non-empty rank's boundary (an empty
    range), keeping the array monotone for searchsorted ownership tests.
    """
    cuts = np.empty(nranks + 1, dtype=np.float64)
    cuts[0] = 0.0
    cuts[-1] = np.inf
    for r in range(nranks - 1, 0, -1):
        piece = pieces[r]
        cuts[r] = float(piece.keys[0]) if len(piece) else cuts[r + 1]
    return cuts


def _ownership_counts(lin: LinearOctree, cuts: np.ndarray) -> np.ndarray:
    """Current leaves per rank range."""
    keys = lin.keys.astype(np.float64)
    idx = np.searchsorted(cuts[1:-1], keys, side="right")
    counts = np.bincount(idx, minlength=len(cuts) - 1).astype(np.float64)
    return counts


def run_parallel(cfg: RunConfig, obs=None) -> RunResult:
    """Execute one configuration and return its scaled metrics.

    ``obs`` (optional :class:`repro.obs.Observability`) is late-bound to the
    run's probe clock (unless a clock is already bound), attached to every
    memory arena, the tree and the driver, and fed per-step trace spans plus
    per-rank phase gauges at the final barrier.
    """
    probe = SimClock()
    if obs is not None and obs.metrics.clock is None:
        obs.bind_clock(probe)
    tree, persistence, resources = _build_backend(cfg.backend, probe, cfg)
    if obs is not None:
        for res in resources.values():
            if isinstance(res, MemoryArena):
                res.attach_obs(obs)
        if hasattr(tree, "attach_obs"):
            tree.attach_obs(obs)
    if cfg.workload == "droplet":
        sim = DropletSimulation(tree, cfg.solver, clock=probe,
                                persistence=persistence)
    elif cfg.workload == "wave":
        from repro.solver.wave import WaveConfig, WaveSimulation

        wave_cfg = WaveConfig(
            dim=cfg.solver.dim,
            min_level=cfg.solver.min_level,
            max_level=cfg.solver.max_level,
            dt=cfg.solver.dt,
        )
        sim = WaveSimulation(tree, wave_cfg, clock=probe,
                             persistence=persistence)
    else:
        raise ValueError(f"unknown workload {cfg.workload!r}")
    sim.obs = obs

    ranks = [RankContext(rank=r, node=r // cfg.cluster.cores_per_node)
             for r in range(cfg.nranks)]
    network = Network(cfg.cluster.network)
    comm = SimCommunicator(ranks, network)

    with probe.phase("construct"):
        sim.construct()
    actual0 = tree.num_octants()
    scale = max(1.0, cfg.target_elements / max(1, actual0))
    if cfg.backend is Backend.PM_OCTREE:
        # now that the actual tree size is known, apply the C0 DRAM budget
        # (the "x GB configured for the C0 tree" knob); eviction merging
        # brings the resident set under it on the next pressure check
        budget = cfg.dram_octants if cfg.dram_octants is not None\
            else max(8, int(cfg.dram_fraction * actual0))
        tree.config = PMOctreeConfig(
            dram_capacity_octants=budget,
            t_transform=tree.config.t_transform,
            max_inflight_epochs=cfg.max_inflight_epochs,
            seed=cfg.seed,
        )
        if tree.dram.used > budget:
            tree._ensure_dram_capacity(1)

    # distribute construct time evenly (uniform base mesh)
    construct_each = probe.phase_ns("construct") * scale / cfg.nranks
    for ctx in ranks:
        with ctx.clock.phase("construct"):
            ctx.clock.advance(construct_each)

    migrated_total = 0.0
    skipped_total = 0
    bytes_moved_total = 0.0
    prev_snapshot = probe.snapshot()
    surface_over_volume = (
        scale ** ((cfg.solver.dim - 1) / cfg.solver.dim) / scale
    )
    prev_lin = LinearOctree.from_tree(tree)
    cuts = _equal_cuts(prev_lin, cfg.nranks)
    uniform = np.full(cfg.nranks, 1.0 / cfg.nranks)
    from contextlib import nullcontext

    for _step in range(cfg.steps):
        prev_leaves = set(int(loc) for loc in prev_lin.locs)
        step_span = (
            obs.tracer.span("parallel.step", step=_step,
                            backend=cfg.backend.value)
            if obs is not None else nullcontext()
        )
        with step_span:
            sim.step()
        lin = LinearOctree.from_tree(tree)
        prev_lin = lin
        # Ownership is still last step's ranges: refinement near the moving
        # interface piled new leaves into a few ranks' ranges.
        counts = _ownership_counts(lin, cuts)
        raw = counts / max(1.0, counts.sum())
        # Volume shares: where the *standing* octants sit.  Raw deviations
        # from uniform come from changed (surface) octants whose target-
        # scale fraction shrinks by surface_scale/scale — damp accordingly.
        shares = uniform + (raw - uniform) * surface_over_volume
        shares = np.clip(shares, 0.0, None)
        total = shares.sum()
        volume_shares = shares / total if total > 0 else uniform
        # Change shares: where this step's *new* leaves landed.  Refinement,
        # balancing and delta-persist work concentrates on these ranks —
        # the load imbalance that makes the paper's refine makespan grow
        # 16x while per-rank element counts stay constant (§5.2).
        new_locs = [int(loc) for loc in lin.locs if int(loc) not in prev_leaves]
        if new_locs:
            changed_lin = LinearOctree(cfg.solver.dim, new_locs,
                                       max_level=lin.max_level)
            ccounts = _ownership_counts(changed_lin, cuts)
            csum = ccounts.sum()
            change_shares = ccounts / csum if csum > 0 else uniform
        else:
            change_shares = uniform
        snap = probe.snapshot()
        # Per-phase scale exponents.  Interface-tracking AMR does
        # refine/balance work proportional to the *interface* (surface),
        # not the volume — the paper's own §5.2 observation ("897X" problem
        # growth -> "16X" refine time, i.e. ~N^0.4).  PM-octree's persist
        # writes the changed (surface) octants only, while the in-core
        # snapshot serialises the whole volume.  "sample" is fixed-size
        # (min(100, size) per candidate) and does not scale at all.
        surface_scale = scale ** ((cfg.solver.dim - 1) / cfg.solver.dim)
        persist_scale = (
            surface_scale if cfg.backend is Backend.PM_OCTREE else scale
        )
        phase_scales = {
            "refine": surface_scale, "balance": surface_scale,
            "solve": scale, "persist.enqueue": persist_scale,
            "persist.drain": persist_scale,
            "transform": surface_scale, "sample": 1.0,
        }
        deltas = {
            ph: snap.by_phase.get(ph, 0.0) - prev_snapshot.by_phase.get(ph, 0.0)
            for ph in phase_scales
        }
        prev_snapshot = snap
        # Which ranks do each phase's work: solve sweeps the standing
        # octants; refine/balance/transform (and PM's delta persist) follow
        # the changed cells; in-core's full snapshot is volume work.
        persist_shares = (
            change_shares if cfg.backend is Backend.PM_OCTREE
            else volume_shares
        )
        phase_shares = {
            "refine": change_shares, "balance": change_shares,
            "solve": volume_shares, "persist.enqueue": persist_shares,
            "persist.drain": persist_shares,
            "transform": change_shares, "sample": uniform,
        }
        # Total scaled work of a phase is delta*scale; rank r does share_r.
        for ph, delta in deltas.items():
            if delta <= 0:
                continue
            scaled = delta * phase_scales[ph]
            for ctx, share in zip(ranks, phase_shares[ph]):
                if share <= 0:
                    continue
                with ctx.clock.phase(ph):
                    ctx.clock.advance(scaled * share)
        # Partition: rebalance the SFC ranges through the real communicator
        if cfg.nranks > 1 and (_step + 1) % cfg.partition_every == 0:
            from contextlib import ExitStack

            idx_bounds = np.concatenate(
                ([0], np.cumsum(counts).astype(int))
            )
            idx_bounds[-1] = len(lin)
            pieces = [
                lin.slice(int(idx_bounds[r]), int(idx_bounds[r + 1]))
                for r in range(cfg.nranks)
            ]
            if cfg.partition_weighted:
                w_all = partition_work_weights(lin)
                wlists = [
                    w_all[int(idx_bounds[r]):int(idx_bounds[r + 1])]
                    for r in range(cfg.nranks)
                ]
            else:
                wlists = None
            with ExitStack() as stack:
                for ctx in ranks:
                    stack.enter_context(ctx.clock.phase("partition"))
                res = repartition(comm, pieces, weights=wlists,
                                  threshold=cfg.partition_threshold,
                                  obs=obs)
            if res.skipped:
                # the estimator's allgather was charged by the communicator;
                # no octant moved and the old cuts stay in force
                skipped_total += 1
            else:
                # Migration windows shift with the whole SFC ordering, so
                # the moved volume scales with the octant count (Gerris'
                # cost-based partitioner likewise moves volume-proportional
                # chunks); charge each rank its share of the scaled wire
                # bytes plus per-octant partitioner handling.
                moved_scaled = res.octants_moved * scale
                per_rank_bytes = int(
                    moved_scaled * OCTANT_RECORD_SIZE / cfg.nranks
                )
                extra_ns = (
                    cfg.cluster.network.transfer_ns(per_rank_bytes)
                    + moved_scaled * PARTITION_NS_PER_OCTANT / cfg.nranks
                )
                for ctx in ranks:
                    with ctx.clock.phase("partition"):
                        ctx.clock.advance(extra_ns, Category.COMM)
                migrated_total += moved_scaled
                bytes_moved_total += res.bytes_moved * scale
                cuts = _cuts_from_pieces(res.pieces, cfg.nranks)
        comm.barrier()

    # Drain any in-flight persist epochs before taking the makespan: the
    # final barrier cannot retire while a flush train is still in the air.
    # The residual wait (charged to the probe under "persist.drain" by the
    # pipeline) is a full-stop barrier, so every rank pays it in full.
    drain = getattr(tree, "drain_persists", None)
    if drain is not None:
        drain()
        snap = probe.snapshot()
        residual = (snap.by_phase.get("persist.drain", 0.0)
                    - prev_snapshot.by_phase.get("persist.drain", 0.0))
        if residual > 0:
            surface_scale = scale ** ((cfg.solver.dim - 1) / cfg.solver.dim)
            drain_scale = (surface_scale
                           if cfg.backend is Backend.PM_OCTREE else scale)
            for ctx in ranks:
                with ctx.clock.phase("persist.drain"):
                    ctx.clock.advance(residual * drain_scale, Category.MEM_NVBM)
            comm.barrier()

    makespan = comm.makespan_ns()
    phases = comm.phase_breakdown()
    stats = getattr(tree, "stats", None)
    if obs is not None:
        from repro.obs import snapshot_clock

        for ctx in ranks:
            snapshot_clock(obs, ctx.clock, rank=ctx.rank)
        obs.metrics.gauge("run.makespan_ns",
                          backend=cfg.backend.value).set(makespan)
        obs.metrics.gauge("run.scale_factor",
                          backend=cfg.backend.value).set(scale)
    return RunResult(
        config=cfg,
        makespan_s=makespan * 1e-9,
        phase_seconds={k: v * 1e-9 for k, v in phases.items()},
        scale_factor=scale,
        actual_octants=tree.num_octants(),
        nvbm_writes=_nvbm_writes(cfg.backend, resources),
        octants_migrated=migrated_total,
        merges=stats.merges if stats else 0,
        evictions=stats.evictions if stats else 0,
        persists=stats.persists if stats else 0,
        partitions_skipped=skipped_total,
        partition_bytes_moved=bytes_moved_total,
        step_reports=sim.history,
    )


def _nvbm_writes(backend: Backend, resources: Dict) -> int:
    if backend is Backend.PM_OCTREE:
        return resources["nvbm"].device.stats.writes
    if backend is Backend.IN_CORE:
        return resources["fs"].device.stats.page_writes
    return resources["device"].stats.page_writes
