"""Runners reproducing every table and figure of §5 (see DESIGN.md's index).

Scale mapping, used consistently below: the paper's element counts are
represented by a smaller *actual* tree plus an element scale factor (see
:mod:`repro.parallel.runtime`).  Paper GB sizes for the C0 budget (Fig 10)
map to fractions of the octree's maximum size, with 8 GB corresponding to
"the working version fits" (the paper's own observation for that point).
Every result carries the factors it used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import (
    DRAM_SPEC,
    INFINIBAND_SPEC,
    NVBM_SPEC,
    OCTANT_RECORD_SIZE,
    PFS_SPEC,
    PMOctreeConfig,
    SolverConfig,
)
from repro.core.api import pm_create, pm_restore
from repro.core.replication import ReplicaSession, restore_from_replica
from repro.core.transform import detect_and_transform
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton
from repro.parallel.runtime import Backend, RunConfig, RunResult, run_parallel
from repro.solver.simulation import DropletSimulation
from repro.storage.block import BlockDevice
from repro.storage.filesystem import SimFileSystem

#: Solver settings shared by the scaling experiments (kept modest so the
#: whole benchmark suite runs in minutes; raise max_level for finer runs).
SCALING_SOLVER = SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01)


def _pm_rig(dram_octants: int = 1 << 16, nvbm_octants: int = 1 << 20,
            dram_budget: Optional[int] = None, seed: int = 2017,
            max_inflight: int = 0):
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, dram_octants)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, nvbm_octants)
    cfg = PMOctreeConfig(
        dram_capacity_octants=dram_budget or dram_octants, seed=seed,
        max_inflight_epochs=max_inflight,
    )
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    return clock, dram, nvbm, tree


# --------------------------------------------------------------------- Table 2

def exp_table2() -> List[Tuple[str, float, float, float]]:
    """Device characteristics as modelled (must equal Table 2)."""
    return [
        (spec.name, spec.read_latency_ns, spec.write_latency_ns,
         spec.endurance_writes)
        for spec in (DRAM_SPEC, NVBM_SPEC)
    ]


# ---------------------------------------------------------------------- Fig 3

@dataclass
class Fig3Row:
    step: int
    overlap_ratio: float
    octants: int
    records_total: int
    kb_per_1000_octants: float
    reduction_vs_two_copies: float  #: <= 2.0; the paper reports up to 1.98
    factor_vs_single_copy: float    #: >= 1.0; the paper reports 1.01 at 99.5%


def exp_fig3(steps: int = 220, max_level: int = 5) -> List[Fig3Row]:
    """Overlap ratio and memory usage per 1000 octants over the simulation.

    The interesting moment is *just before* each persist point: V_{i-1} is
    the last persisted version, V_i carries a whole step of changes, and the
    shared fraction is what multi-versioning saves.  The persistence hook
    takes the measurements, then persists and GCs.
    """
    clock, dram, nvbm, tree = _pm_rig()
    # The nozzle shuts off at t=0.9 so the run covers the whole ejection
    # life cycle: active jetting (low overlap) through quiescence after the
    # droplets leave (the 99%-overlap regime at the right edge of Fig 3).
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01,
                          shutoff_time=0.9)
    rows: List[Fig3Row] = []

    def measure_then_persist(sim_) -> None:
        from repro.nvbm.pointers import is_dram

        t = sim_.tree
        n_curr = t.num_octants()
        prev = t.reachable_from(nvbm.roots.get("V_prev"))
        n_prev = len(prev)
        overlap = t.overlap_ratio()
        # unique octant records across both versions: everything in NVBM
        # plus DRAM-resident octants that have no NVBM shadow yet (a clean
        # resident octant and its shadow are one logical record)
        dram_unique = sum(
            1 for loc, h in t._index.items()
            if is_dram(h) and loc not in t._origin
        )
        records = nvbm.used + dram_unique
        two_copies = n_prev + n_curr
        if n_prev:  # skip the pre-first-persist step
            rows.append(Fig3Row(
                step=sim_.step_count,
                overlap_ratio=overlap,
                octants=n_curr,
                records_total=records,
                kb_per_1000_octants=(
                    records * OCTANT_RECORD_SIZE / 1024.0
                    / max(1e-9, n_curr / 1000.0)
                ),
                reduction_vs_two_copies=two_copies / max(1, records),
                factor_vs_single_copy=records / max(1, n_curr),
            ))
        t.persist()
        t.gc()

    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=measure_then_persist)
    sim.run(steps)
    return rows


# ---------------------------------------------------------------------- Fig 5

@dataclass
class Fig5Result:
    writes_oblivious: int
    writes_aware: int

    @property
    def pct_more_writes(self) -> float:
        return 100.0 * (self.writes_oblivious - self.writes_aware) \
            / max(1, self.writes_aware)


def exp_fig5(max_level: int = 5) -> Fig5Result:
    """NVBM writes of an interface-update burst under the two layouts.

    The hot subdomain is one level-1 quadrant.  The aware layout puts as
    much of the hot subtree as the DRAM budget allows in DRAM via
    feature-directed transformation; the oblivious layout spends the same
    budget on a cold subtree (Fig 5a's "brute-force approach without
    considering data access pattern").  The burst then updates every hot
    leaf — the mesh work a refinement pass performs on the subdomain —
    and we count the NVBM writes each layout served.

    The DRAM budget deliberately covers only part of the hot region, so the
    aware layout also pays some NVBM writes and the comparison is the
    paper's finite "~89% more" rather than a division by zero.
    """
    hot = morton.loc_from_coords(1, (0, 0), 2)
    cold = morton.loc_from_coords(1, (1, 1), 2)

    def build(aware: bool) -> int:
        clock, dram, nvbm, tree = _pm_rig()
        for _ in range(max_level - 1):
            for leaf in list(tree.leaves()):
                tree.refine(leaf)
        # budget ~ half a quadrant: L_sub lands one level below the
        # quadrants, so the aware layout fits ~2 of the 4 hot sub-subtrees
        quadrant = tree.num_octants() // 4
        tree.config = PMOctreeConfig(dram_capacity_octants=quadrant // 2)
        tree.persist(transform=False)
        region = hot if aware else cold
        # the region and every octant under it (the root, code 1, never
        # matches a level-1 code)
        tree.register_feature(
            lambda b: (b.locs >> b.dim * np.maximum(b.levels - 1, 0))
            == region)
        detect_and_transform(tree)
        w0 = nvbm.device.stats.writes
        # the update burst hits every leaf of the hot quadrant
        for leaf in sorted(tree.leaves()):
            if leaf != morton.ROOT_LOC and morton.ancestor_at(leaf, 2, 1) == hot:
                tree.set_payload(leaf, (1.0, 0.0, 0.0, 0.0))
        return nvbm.device.stats.writes - w0

    return Fig5Result(writes_oblivious=build(False), writes_aware=build(True))


# ------------------------------------------------------------------- Figs 6+7

WEAK_POINTS = (1, 6, 64, 250, 1000)

#: The paper's runs used eager equal-count repartitioning every step —
#: that is the scheme behind Fig 7's partition-share curve (56 % at 1000
#: ranks), so the figure reproductions pin it rather than inherit the
#: runtime's default work-weighted threshold-gated scheme.
PAPER_PARTITION = dict(partition_threshold=None, partition_weighted=False)


def exp_weak_scaling(backends=tuple(Backend), points=WEAK_POINTS,
                     steps: int = 20,
                     elements_per_rank: float = 1e6
                     ) -> Dict[Backend, List[RunResult]]:
    """Fig 6 (execution time) and Fig 7 (breakdown) share these runs."""
    out: Dict[Backend, List[RunResult]] = {}
    for backend in backends:
        runs = []
        for nranks in points:
            runs.append(run_parallel(RunConfig(
                backend=backend, nranks=nranks,
                target_elements=elements_per_rank * nranks,
                steps=steps, solver=SCALING_SOLVER,
                **PAPER_PARTITION,
            )))
        out[backend] = runs
    return out


def meshing_breakdown(result: RunResult) -> Dict[str, float]:
    """Fig 7/8b percentages over the meshing routines (solver excluded,
    matching the paper's breakdown set)."""
    keys = ("construct", "refine", "balance", "partition")
    vals = {k: result.phase_seconds.get(k, 0.0) for k in keys}
    total = sum(vals.values()) or 1.0
    return {k: 100.0 * v / total for k, v in vals.items()}


# ------------------------------------------------------------------- Figs 8+9

STRONG_POINTS = (240, 500, 750, 1000)


def exp_strong_scaling(backends=(Backend.PM_OCTREE,), points=STRONG_POINTS,
                       total_elements: float = 150e6, steps: int = 12
                       ) -> Dict[Backend, List[RunResult]]:
    """Fig 8 (PM vs ideal) and Fig 9 (three implementations).

    Each rank's DRAM is fixed while its element count shrinks as 1/P, so
    PM-octree's C0 covers a growing fraction of the per-rank octants — the
    §5.3 mechanism that shrinks in-core's lead from 48% to 36%.  The C0
    budget fraction therefore scales as P/P_0.
    """
    out: Dict[Backend, List[RunResult]] = {}
    base_p = points[0]
    for backend in backends:
        out[backend] = [
            run_parallel(RunConfig(
                backend=backend, nranks=nranks,
                target_elements=total_elements,
                steps=steps, solver=SCALING_SOLVER,
                dram_fraction=min(1.0, 0.5 * nranks / base_p),
                **PAPER_PARTITION,
            ))
            for nranks in points
        ]
    return out


# --------------------------------------------------------------------- Fig 10

@dataclass
class Fig10Row:
    label: str
    dram_budget_octants: int
    makespan_s: float
    merges: int


def exp_fig10(gb_points=(1, 2, 4, 8), demand_gb: float = 8.0,
              nranks: int = 100, target_elements: float = 6.75e6,
              steps: int = 20) -> List[Fig10Row]:
    """Execution time vs DRAM configured for C0 (plus both baselines).

    Paper anchors: 6.75M elements on 100 ranks; C0 budgets of 1/2/4/8 GB.
    The paper reports that at 8 GB the C0 tree "only needs to be merged ...
    at the end of each time step" — i.e. the working version effectively
    fits — so GB values map to budget fractions of x/8 of the octree's
    maximum size (``demand_gb`` makes the mapping explicit).
    """
    # in-core reference run also discovers the maximum octant demand
    incore = run_parallel(RunConfig(
        backend=Backend.IN_CORE, nranks=nranks,
        target_elements=target_elements, steps=steps, solver=SCALING_SOLVER,
    ))
    n_max = max(r.octants for r in incore.step_reports)
    rows: List[Fig10Row] = []
    for gb in gb_points:
        budget = max(8, int(gb / demand_gb * n_max))
        res = run_parallel(RunConfig(
            backend=Backend.PM_OCTREE, nranks=nranks,
            target_elements=target_elements, steps=steps,
            solver=SCALING_SOLVER, dram_octants=budget,
        ))
        rows.append(Fig10Row(
            label=f"PM-octree {gb}GB", dram_budget_octants=budget,
            makespan_s=res.makespan_s, merges=res.evictions,
        ))
    rows.append(Fig10Row(
        label="in-core", dram_budget_octants=n_max,
        makespan_s=incore.makespan_s, merges=0,
    ))
    ooc = run_parallel(RunConfig(
        backend=Backend.OUT_OF_CORE, nranks=nranks,
        target_elements=target_elements, steps=steps, solver=SCALING_SOLVER,
    ))
    rows.append(Fig10Row(
        label="out-of-core", dram_budget_octants=0,
        makespan_s=ooc.makespan_s, merges=0,
    ))
    return rows


# --------------------------------------------------------------------- Fig 11

@dataclass
class Fig11Row:
    target_elements: float
    max_level: int
    time_without_s: float
    time_with_s: float
    nvbm_writes_without: int
    nvbm_writes_with: int

    @property
    def time_reduction_pct(self) -> float:
        return 100.0 * (self.time_without_s - self.time_with_s) \
            / max(1e-12, self.time_without_s)

    @property
    def write_reduction_pct(self) -> float:
        return 100.0 * (self.nvbm_writes_without - self.nvbm_writes_with) \
            / max(1, self.nvbm_writes_without)


#: (target elements, actual max_level) ladder mirroring the paper's
#: 1.19M..224M sweep — deeper actual trees shrink the C0 coverage fraction,
#: which is what makes transformation matter at the large sizes.
FIG11_SIZES = ((1.19e6, 4), (3.75e6, 4), (6.75e6, 5), (22.5e6, 5), (224e6, 6))


def exp_fig11(sizes=FIG11_SIZES, nranks: int = 100,
              steps: int = 30, dram_octants: int = 180) -> List[Fig11Row]:
    """Execution time and NVBM writes without/with dynamic transformation.

    The C0 budget is held fixed while the mesh grows (the paper's setup:
    fixed DRAM, growing problem), so at the large end C0 covers only a small
    fraction of the octants and the layout choice dominates.
    """
    rows: List[Fig11Row] = []
    for target, max_level in sizes:
        solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
        res = {}
        for transform in (False, True):
            res[transform] = run_parallel(RunConfig(
                backend=Backend.PM_OCTREE, nranks=nranks,
                target_elements=target, steps=steps, solver=solver,
                dram_octants=dram_octants, transform=transform,
            ))
        rows.append(Fig11Row(
            target_elements=target,
            max_level=max_level,
            time_without_s=res[False].makespan_s,
            time_with_s=res[True].makespan_s,
            nvbm_writes_without=res[False].nvbm_writes,
            nvbm_writes_with=res[True].nvbm_writes,
        ))
    return rows


# ----------------------------------------------------------------------- §5.6

@dataclass
class RecoveryResult:
    """Simulated restart times (seconds), §5.6's two scenarios."""

    incore_same_node_s: float
    pm_same_node_s: float
    ooc_same_node_s: float
    incore_new_node_s: float
    pm_new_node_s: float
    pm_replica_transfer_s: float
    ooc_new_node_recoverable: bool


def exp_recovery(target_elements: float = 6.75e6, nranks: int = 100,
                 kill_step: int = 20, max_level: int = 5) -> RecoveryResult:
    """Restart-time comparison after killing the simulation at step 20.

    All three implementations run the same workload to the kill point; the
    per-rank recovery time is the simulated time of the recovery path scaled
    to the per-rank element count (elements/rank = target/nranks).
    """
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)

    # ---------------- PM-octree ------------------------------------------
    clock, dram, nvbm, tree = _pm_rig()
    replica = tree.attach_replication_session(ReplicaSession(tree)).replica
    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=lambda s: s.tree.persist())
    sim.run(kill_step)
    n_actual = tree.num_octants()
    per_rank_scale = (target_elements / nranks) / n_actual

    # scenario 1: same node reboots; NVBM contents survive
    dram.crash()
    nvbm.crash(np.random.default_rng(0))
    t0 = clock.now_ns
    tree = pm_restore(dram, nvbm, dim=2)
    pm_same = (clock.now_ns - t0) * per_rank_scale * 1e-9

    # scenario 2: node gone; pull the replica over InfiniBand onto a new node
    clock2 = SimClock()
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 1 << 16)
    nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 20)
    replica_bytes = replica.bytes_stored() * per_rank_scale
    transfer_s = INFINIBAND_SPEC.transfer_ns(int(replica_bytes)) * 1e-9
    t0 = clock2.now_ns
    restore_from_replica(replica, dram2, nvbm2, dim=2)
    pm_new = (clock2.now_ns - t0) * per_rank_scale * 1e-9 + transfer_s

    # ---------------- in-core ---------------------------------------------
    from repro.baselines.incore import CheckpointPolicy, InCoreOctree

    clock3 = SimClock()
    dram3 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock3, 1 << 18)
    pfs = SimFileSystem(BlockDevice(PFS_SPEC, clock3))
    tree3 = InCoreOctree(dram3, dim=2)
    policy = CheckpointPolicy(pfs, interval=10)
    sim3 = DropletSimulation(
        tree3, solver, clock=clock3,
        persistence=lambda s: policy.maybe_checkpoint(tree3, s.step_count),
    )
    sim3.run(kill_step)
    dram3.crash()
    t0 = clock3.now_ns
    dram3b = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock3, 1 << 18)
    InCoreOctree.restore_from(pfs, policy.latest(), dram3b)
    incore_same = (clock3.now_ns - t0) * per_rank_scale * 1e-9
    # snapshots live on the shared PFS, immune to node loss: same cost
    incore_new = incore_same

    # ---------------- out-of-core -----------------------------------------
    from repro.baselines.etree import EtreeOctree
    from repro.config import NVBM_FS_SPEC

    clock4 = SimClock()
    device4 = BlockDevice(NVBM_FS_SPEC, clock4)
    tree4 = EtreeOctree(device4, dim=2)
    sim4 = DropletSimulation(tree4, solver, clock=clock4)
    sim4.run(kill_step)
    device4.crash()
    t0 = clock4.now_ns
    tree4.recover_check()
    ooc_same = (clock4.now_ns - t0) * per_rank_scale * 1e-9

    return RecoveryResult(
        incore_same_node_s=incore_same,
        pm_same_node_s=pm_same,
        ooc_same_node_s=ooc_same,
        incore_new_node_s=incore_new,
        pm_new_node_s=pm_new,
        pm_replica_transfer_s=transfer_s,
        ooc_new_node_recoverable=False,  # no replication in Etree (§5.6)
    )


# ----------------------------------------------------------- §1 write intensity

@dataclass
class WriteIntensity:
    avg_pct: float
    max_pct: float
    per_step_pct: List[float]


def exp_write_intensity(steps: int = 30, max_level: int = 5) -> WriteIntensity:
    """Fraction of memory accesses that are writes (paper: 41% avg, 72% max).

    Measured on the in-core (Gerris-like) configuration, whose solver does
    not diff-check updates — every cell is rewritten each sweep, as the
    paper's profiled application did.  The initial mesh construction is the
    write-heaviest sample (allocation + refinement storms), matching where
    the 72% peak comes from.
    """
    from repro.octree.tree import PointerOctree
    from repro.solver.advection import advect_vof as _advect

    clock = SimClock()
    arena = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 18)
    tree = PointerOctree(arena, dim=2)
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    sim = DropletSimulation(tree, solver, clock=clock)
    fractions: List[float] = []

    def sample():
        nonlocal prev_r, prev_w
        r, w = arena.device.stats.reads, arena.device.stats.writes
        dr, dw = r - prev_r, w - prev_w
        prev_r, prev_w = r, w
        if dr + dw:
            fractions.append(100.0 * dw / (dr + dw))

    prev_r = prev_w = 0
    sim.construct()
    sample()  # construction burst: the write-intensity peak
    for _ in range(steps):
        sim.step_count += 1
        sim.t = sim.step_count * solver.dt
        sim._adapt()
        from repro.octree.balance import balance_tree

        balance_tree(tree, max_level=solver.max_level)
        _advect(tree, sim.geometry, solver, sim.t, always_write=True)
        sample()
    return WriteIntensity(
        avg_pct=float(np.mean(fractions)),
        max_pct=float(np.max(fractions)),
        per_step_pct=fractions,
    )


# ------------------------------------------------------ sampling-policy ablation

@dataclass
class AblationRow:
    policy: str
    nvbm_writes: int
    makespan_s: float


def exp_ablation_sampling(steps: int = 10, max_level: int = 5,
                          dram_octants: int = 90) -> List[AblationRow]:
    """Compare placement policies: feature-directed (paper), history-based
    (last step's mixed cells), and no transformation.

    Feature-directed sampling pre-executes the *next* step's predicates, so
    it tracks the moving interface; history lags it by one step (§3.3's
    argument for why history is a poor predictor under AMR).
    """
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    rows: List[AblationRow] = []
    for policy in ("feature-directed", "history", "none"):
        clock, dram, nvbm, tree = _pm_rig(dram_budget=dram_octants)

        if policy == "none":
            persistence = lambda s: s.tree.persist(transform=False)
            sim = DropletSimulation(tree, solver, clock=clock,
                                    persistence=persistence)
            sim.tree.features.clear()
        elif policy == "history":
            from repro.solver.features import mixed_cell_feature

            persistence = lambda s: s.tree.persist(transform=True)
            sim = DropletSimulation(tree, solver, clock=clock,
                                    persistence=persistence)
            # drop the forward-looking band feature: only the (lagging)
            # current VOF state drives placement
            sim.tree.features = [mixed_cell_feature(2)]
        else:
            persistence = lambda s: s.tree.persist(transform=True)
            sim = DropletSimulation(tree, solver, clock=clock,
                                    persistence=persistence)
        sim.run(steps)
        rows.append(AblationRow(
            policy=policy,
            nvbm_writes=nvbm.device.stats.writes,
            makespan_s=clock.now_s,
        ))
    return rows


# --------------------------------------------------- NVBM-latency sensitivity

@dataclass
class LatencyRow:
    write_latency_factor: float
    pm_time_s: float
    incore_time_s: float

    @property
    def slowdown_vs_incore(self) -> float:
        return self.pm_time_s / max(1e-12, self.incore_time_s)


def exp_nvbm_latency_sensitivity(factors=(1.0, 2.0, 4.0),
                                 steps: int = 15, max_level: int = 5,
                                 dram_fraction: float = 0.25
                                 ) -> List[LatencyRow]:
    """How the PM-octree/in-core gap responds to slower NVBM parts.

    The design premise (§1): NVBM write latency is the cost PM-octree's
    layout machinery exists to hide.  Sweeping the write latency from the
    Table-2 value (150 ns) upward must widen PM-octree's gap to in-core —
    if it did not, the transformation would be solving a non-problem.  The
    factor scales both NVBM latencies via ``DeviceSpec.scaled``.
    """
    from repro.solver.simulation import DropletSimulation

    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    rows: List[LatencyRow] = []
    # in-core never touches NVBM latencies except snapshots: run once
    clock_ic = SimClock()
    from repro.baselines.incore import CheckpointPolicy, InCoreOctree
    from repro.config import NVBM_FS_SPEC

    dram_ic = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock_ic, 1 << 17)
    fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, clock_ic))
    tree_ic = InCoreOctree(dram_ic, dim=2)
    policy = CheckpointPolicy(fs, interval=10)
    sim_ic = DropletSimulation(
        tree_ic, solver, clock=clock_ic,
        persistence=lambda s: policy.maybe_checkpoint(tree_ic, s.step_count),
    )
    sim_ic.run(steps)
    incore_time = clock_ic.now_s

    for factor in factors:
        clock = SimClock()
        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC.scaled(factor), clock, 1 << 20)
        # budget: a fraction of the in-core run's final tree size
        budget = max(16, int(dram_fraction * tree_ic.num_octants()))
        tree = pm_create(dram, nvbm, dim=2,
                         config=PMOctreeConfig(dram_capacity_octants=budget))
        sim = DropletSimulation(
            tree, solver, clock=clock,
            persistence=lambda s: s.tree.persist(keep_resident=True),
        )
        sim.run(steps)
        rows.append(LatencyRow(
            write_latency_factor=factor,
            pm_time_s=clock.now_s,
            incore_time_s=incore_time,
        ))
    return rows


# -------------------------------------------------------- endurance ablation

@dataclass
class EnduranceRow:
    policy: str
    total_writes: int
    max_slot_wear: int
    lifetime_multiplier: float  #: vs the LIFO baseline


def exp_endurance(steps: int = 20, max_level: int = 5,
                  nvbm_octants: int = 4096) -> List[EnduranceRow]:
    """Per-cell NVBM wear under LIFO vs wear-leveling slot recycling.

    Table 2 gives NVBM 1e6-1e8 writes/bit, so the slot-recycling policy
    decides device lifetime: LIFO reuse concentrates the churning COW/GC
    slots; FIFO wear-leveling rotates them across the arena.  Lifetime
    scales inversely with the *maximum* per-cell wear.
    """
    from repro.solver.simulation import DropletSimulation

    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    results = {}
    for wear_leveling in (False, True):
        clock = SimClock()
        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 14)
        nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, nvbm_octants,
                           wear_leveling=wear_leveling)
        tree = pm_create(dram, nvbm, dim=2,
                         config=PMOctreeConfig(dram_capacity_octants=128))
        sim = DropletSimulation(
            tree, solver, clock=clock,
            persistence=lambda s: (s.tree.persist(keep_resident=True),
                                   s.tree.gc()),
        )
        sim.run(steps)
        results[wear_leveling] = (
            nvbm.device.wear_total(), nvbm.device.wear_max()
        )
    base_max = results[False][1]
    rows = []
    for wl, (total, peak) in results.items():
        rows.append(EnduranceRow(
            policy="wear-leveling (FIFO)" if wl else "LIFO reuse",
            total_writes=total,
            max_slot_wear=peak,
            lifetime_multiplier=base_max / max(1, peak),
        ))
    return rows


# --------------------------------------------------- out-of-core medium study

@dataclass
class MediumRow:
    medium: str
    makespan_s: float
    page_reads: int
    page_writes: int


def exp_etree_medium(steps: int = 8, max_level: int = 4) -> List[MediumRow]:
    """Etree on spinning disk vs on NVBM-behind-a-filesystem.

    §5.1 modifies Etree to "use NVBM instead of disks"; §2 notes NVBM
    latencies are 4-5 orders of magnitude below disks.  This study runs the
    same out-of-core workload on both media — the disk configuration is what
    Etree was actually designed for, and the gap shows why the paper still
    rejects the design even on NVBM (the remaining software costs, not the
    medium, dominate there).
    """
    from repro.baselines.etree import EtreeOctree
    from repro.config import DISK_SPEC, NVBM_FS_SPEC
    from repro.solver.simulation import DropletSimulation

    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    rows: List[MediumRow] = []
    for name, spec in (("HDD", DISK_SPEC), ("NVBM-fs", NVBM_FS_SPEC)):
        clock = SimClock()
        device = BlockDevice(spec, clock)
        tree = EtreeOctree(device, dim=2)
        sim = DropletSimulation(tree, solver, clock=clock)
        sim.run(steps)
        rows.append(MediumRow(
            medium=name,
            makespan_s=clock.now_s,
            page_reads=device.stats.page_reads,
            page_writes=device.stats.page_writes,
        ))
    return rows


# ------------------------------------------------ checkpoint-cadence ablation

@dataclass
class CadenceRow:
    interval: int
    checkpoint_cost_s: float   #: snapshot time, scaled to target elements
    expected_lost_steps: float  #: mean steps lost on a uniformly-timed crash
    pm_persist_cost_s: float   #: PM-octree per-step persistence, same scale


def exp_checkpoint_cadence(intervals=(1, 5, 10, 20), steps: int = 40,
                           max_level: int = 5,
                           target_elements: float = 1e6) -> List[CadenceRow]:
    """The in-core snapshot-interval trade-off PM-octree dissolves.

    Sparse checkpoints are cheap but lose work on a crash (expected loss =
    (interval-1)/2 steps for a uniformly-timed failure); dense checkpoints
    bound the loss but pay full-tree I/O every time.  PM-octree persists
    *every* step for less than in-core's cheapest cadence because it only
    writes deltas — the §1 argument in one table.
    """
    from repro.baselines.incore import CheckpointPolicy, InCoreOctree
    from repro.config import NVBM_FS_SPEC
    from repro.solver.simulation import DropletSimulation

    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)

    # PM-octree reference: per-step persistence cost
    clock_pm = SimClock()
    dram_pm = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock_pm, 1 << 14)
    nvbm_pm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock_pm, 1 << 18)
    tree_pm = pm_create(dram_pm, nvbm_pm, dim=2,
                        config=PMOctreeConfig(dram_capacity_octants=1 << 14))
    sim_pm = DropletSimulation(
        tree_pm, solver, clock=clock_pm,
        persistence=lambda s: s.tree.persist(keep_resident=True),
    )
    sim_pm.run(steps)
    # Scale to target size with the usual exponents: a full snapshot is
    # volume work, a PM delta persist is surface (changed-octant) work.
    n_actual = tree_pm.num_octants()
    scale = max(1.0, target_elements / n_actual)
    surface_scale = scale ** 0.5
    pm_persist = (clock_pm.phase_ns("persist.enqueue")
                  + clock_pm.phase_ns("persist.drain")) * 1e-9 * surface_scale

    rows: List[CadenceRow] = []
    for interval in intervals:
        clock = SimClock()
        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 17)
        fs = SimFileSystem(BlockDevice(NVBM_FS_SPEC, clock))
        tree = InCoreOctree(dram, dim=2)
        policy = CheckpointPolicy(fs, interval=interval)
        sim = DropletSimulation(
            tree, solver, clock=clock,
            persistence=lambda s, p=policy, t=tree: p.maybe_checkpoint(
                t, s.step_count),
        )
        sim.run(steps)
        rows.append(CadenceRow(
            interval=interval,
            checkpoint_cost_s=clock.phase_ns("persist.enqueue") * 1e-9 * scale,
            expected_lost_steps=(interval - 1) / 2.0,
            pm_persist_cost_s=pm_persist,
        ))
    return rows
