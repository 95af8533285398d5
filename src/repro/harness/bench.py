"""The pinned benchmark suite behind ``python -m repro bench``.

Five components run with fixed seeds against the observability layer:

* **droplet** — the §5.1 workload on PM-octree with a persist + GC every
  step, reporting simulated makespan, NVBM traffic, COW volume, flush
  counts, wear and the minimum overlap ratio.
* **recovery** — the §5.6 pair: restore from local NVBM after a crash, and
  materialise a replica onto a fresh node.
* **replication** — the acknowledged delta-shipping protocol over a seeded
  lossy network, reporting shipped bytes, retries and backoff time.
* **partition** — threshold-gated incremental repartitioning against an
  eager cut every step, reporting partition share of makespan and migrated
  bytes per step.
* **media** — the makespan cost of a quiescent fault model (gated at
  none), a clean scrub, and the repair of planted media faults.

Every number is a *simulated* quantity (clock ticks, access counts), so the
resulting :func:`repro.harness.report.bench_envelope` is byte-identical
across machines and commits cleanly as ``BENCH_pr<N>.json``.
:func:`compare_envelopes` applies the :data:`GATES` tolerances between a
committed baseline and a fresh run — the CI regression gate.

Host wall-clock is measured end to end by ``python3 bench/run.py``, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.config import (
    DRAM_SPEC,
    NVBM_SPEC,
    OCTANT_RECORD_SIZE,
    PMOctreeConfig,
    SolverConfig,
    TITAN,
)
from repro.core import pm_create, pm_restore
from repro.core.replication import (
    FaultyTransport,
    ReplicaSession,
    RetryPolicy,
    restore_from_replica,
)
from repro.harness.report import BENCH_SCHEMA, bench_envelope
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.obs import Observability, snapshot_clock, snapshot_wear
from repro.parallel.faults import FaultyNetwork, LinkFaults, NetworkFaultPlan
from repro.parallel.network import Network
from repro.solver.simulation import DropletSimulation

#: (metric, relative tolerance, direction).  ``lower`` means lower is
#: better: the gate fails when current > baseline * (1 + tolerance).
#: ``higher`` fails when current < baseline * (1 - tolerance).
GATES: List[Dict[str, Any]] = [
    {"metric": "droplet.makespan_ns", "tolerance": 0.10, "direction": "lower"},
    {"metric": "droplet.nvbm_writes", "tolerance": 0.10, "direction": "lower"},
    {"metric": "droplet.nvbm_reads", "tolerance": 0.15, "direction": "lower"},
    {"metric": "droplet.nvbm_bytes_written", "tolerance": 0.10,
     "direction": "lower"},
    {"metric": "droplet.nvbm_lines_touched", "tolerance": 0.10,
     "direction": "lower"},
    {"metric": "droplet.flushes", "tolerance": 0.10, "direction": "lower"},
    {"metric": "droplet.cow_copies", "tolerance": 0.15, "direction": "lower"},
    {"metric": "droplet.wear_max", "tolerance": 0.25, "direction": "lower"},
    {"metric": "droplet.wear_headroom", "tolerance": 0.01,
     "direction": "higher"},
    {"metric": "droplet.overlap_ratio_min", "tolerance": 0.05,
     "direction": "higher"},
    {"metric": "recovery.local_restore_ns", "tolerance": 0.15,
     "direction": "lower"},
    {"metric": "recovery.replica_restore_ns", "tolerance": 0.15,
     "direction": "lower"},
    {"metric": "replication.bytes_shipped", "tolerance": 0.10,
     "direction": "lower"},
    {"metric": "replication.retries", "tolerance": 0.25, "direction": "lower"},
    {"metric": "replication.wait_ns", "tolerance": 0.25, "direction": "lower"},
    {"metric": "partition.fraction_of_makespan", "tolerance": 0.15,
     "direction": "lower"},
    {"metric": "partition.bytes_moved_per_step", "tolerance": 0.10,
     "direction": "lower"},
    {"metric": "media.nofault_makespan_ratio", "tolerance": 0.01,
     "direction": "lower"},
    {"metric": "media.scrub_clean_ns", "tolerance": 0.15,
     "direction": "lower"},
    {"metric": "media.repair_ns", "tolerance": 0.25, "direction": "lower"},
    {"metric": "pipeline.overlap_fraction", "tolerance": 0.05,
     "direction": "higher"},
    {"metric": "droplet.stall_ns", "tolerance": 0.25, "direction": "lower"},
]

SUITE = "droplet+recovery+replication+partition+media"


def _rig(seed: int = 2017, dram_budget: Optional[int] = None,
         max_inflight: int = 0):
    """One PM-octree rig on a fresh clock (mirrors the experiment harness)."""
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=dram_budget or (1 << 16),
                         seed=seed, max_inflight_epochs=max_inflight)
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    return clock, dram, nvbm, tree


def bench_droplet(steps: int = 12, max_level: int = 5,
                  obs: Optional[Observability] = None) -> Dict[str, float]:
    """Droplet workload with a persist point every step, fully observed.

    The DRAM budget is deliberately tight (a fraction of the tree) so the
    run exercises eviction merging and copy-on-write, not just the happy
    everything-resident path — otherwise the COW and eviction gates would
    sit on a meaningless zero baseline.
    """
    clock, dram, nvbm, tree = _rig(dram_budget=96, max_inflight=1)
    obs = obs if obs is not None else Observability()
    if obs.metrics.clock is None:
        obs.bind_clock(clock)
    dram.attach_obs(obs)
    nvbm.attach_obs(obs)
    tree.attach_obs(obs)
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        sim_.tree.gc()

    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    sim.obs = obs
    sim.run(steps)
    # the run is durable only once the last epoch's flush train lands;
    # residual waits here are genuine stalls (nothing left to hide behind)
    tree.drain_persists()
    snapshot_wear(obs, nvbm.device, nvbm.name)
    snapshot_clock(obs, clock)
    m = obs.metrics
    overlaps = [r.overlap_ratio for r in sim.history
                if r.overlap_ratio is not None]
    return {
        "droplet.makespan_ns": clock.now_ns,
        "droplet.nvbm_writes": m.get("device.writes", device=nvbm.name).value,
        "droplet.nvbm_reads": m.get("device.reads", device=nvbm.name).value,
        "droplet.nvbm_bytes_written":
            m.get("device.bytes_written", device=nvbm.name).value,
        "droplet.nvbm_lines_touched":
            m.get("device.lines_read", device=nvbm.name).value
            + m.get("device.lines_written", device=nvbm.name).value,
        "droplet.partial_reads": m.total("pm.partial_reads"),
        "droplet.partial_writes": m.total("pm.partial_writes"),
        "droplet.flushes": m.get("arena.flush_calls", arena=nvbm.name).value,
        "droplet.stores": m.get("arena.stores", arena=nvbm.name).value,
        "droplet.cow_copies": m.total("pm.cow_copies"),
        "droplet.merge_octants_written":
            m.total("pm.merge_octants_written"),
        "droplet.persists": m.total("pm.persists"),
        "droplet.octants_reclaimed": m.total("pm.octants_reclaimed"),
        "droplet.wear_max": float(nvbm.device.wear_max()),
        "droplet.wear_headroom": nvbm.device.wear_headroom(),
        "droplet.overlap_ratio_min": min(overlaps) if overlaps else 0.0,
        "droplet.trace_spans": float(len(obs.tracer.spans)),
        "pipeline.overlap_fraction": tree._pipeline.overlap_fraction(),
        "droplet.stall_ns": tree._pipeline.stats.stall_ns,
    }


def bench_recovery(steps: int = 6, max_level: int = 4) -> Dict[str, float]:
    """Local-NVBM restart and replica materialisation, on simulated clocks."""
    clock, dram, nvbm, tree = _rig()
    replica = tree.attach_replication_session(ReplicaSession(tree)).replica
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)
    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=lambda s: s.tree.persist())
    sim.run(steps)

    # scenario 1: same node reboots; local NVBM survives (seeded torn lines)
    dram.crash()
    nvbm.crash(np.random.default_rng(0))
    t0 = clock.now_ns
    pm_restore(dram, nvbm, dim=2)
    local_ns = clock.now_ns - t0

    # scenario 2: node gone; materialise the replica on a fresh node
    clock2 = SimClock()
    dram2 = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock2, 1 << 16)
    nvbm2 = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock2, 1 << 20)
    t0 = clock2.now_ns
    restore_from_replica(replica, dram2, nvbm2, dim=2)
    replica_ns = clock2.now_ns - t0

    return {
        "recovery.local_restore_ns": local_ns,
        "recovery.replica_restore_ns": replica_ns,
        "recovery.replica_records":
            float(replica.bytes_stored() // OCTANT_RECORD_SIZE),
    }


def bench_replication(steps: int = 6, max_level: int = 4,
                      obs: Optional[Observability] = None
                      ) -> Dict[str, float]:
    """Acknowledged delta shipping over a seeded lossy link."""
    clock, dram, nvbm, tree = _rig()
    obs = obs if obs is not None else Observability()
    if obs.metrics.clock is None:
        obs.bind_clock(clock)
    plan = NetworkFaultPlan(seed=7,
                            default=LinkFaults(drop=0.15, duplicate=0.05))
    network = FaultyNetwork(Network(TITAN.network), plan)
    transport = FaultyTransport(network, host_rank=0, peer_rank=1,
                                clock=clock)
    session = ReplicaSession(tree, transport=transport, clock=clock,
                             policy=RetryPolicy(max_retries=12))
    session.attach_obs(obs, peer="rank1")
    solver = SolverConfig(dim=2, min_level=2, max_level=max_level, dt=0.01)

    def persistence(sim_):
        sim_.tree.persist()
        session.ship()

    sim = DropletSimulation(tree, solver, clock=clock,
                            persistence=persistence)
    sim.run(steps)
    s = session.stats
    return {
        "replication.ships": float(s.ships),
        "replication.bytes_shipped": float(s.bytes_shipped),
        "replication.retries": float(s.retries),
        "replication.resyncs": float(s.resyncs),
        "replication.acks_lost": float(s.acks_lost),
        "replication.deltas_lost": float(s.deltas_lost),
        "replication.wait_ns": s.wait_ns,
    }


def bench_partition(steps: int = 8, nranks: int = 8,
                    max_level: int = 5) -> Dict[str, float]:
    """Threshold-gated incremental repartitioning vs eager-every-step.

    Two :func:`~repro.parallel.runtime.run_parallel` droplet runs of the
    same work-weighted workload: the default scheme (imbalance threshold,
    minimal-movement incremental migration) and the same weights cut to
    the ideal Salmon positions eagerly every step
    (``partition_threshold=None``).  The gated quantities are the gated
    run's partition fraction of makespan and its migrated bytes per step;
    the eager run's bytes/step is reported alongside so the envelope
    records the incremental scheme's traffic saving.
    """
    from repro.parallel.runtime import Backend, RunConfig, run_parallel

    base = dict(
        backend=Backend.PM_OCTREE, nranks=nranks, target_elements=2e5,
        steps=steps,
        solver=SolverConfig(dim=2, min_level=2, max_level=max_level,
                            dt=0.01),
    )
    weighted = run_parallel(RunConfig(**base))
    eager = run_parallel(RunConfig(**base, partition_threshold=None))
    part_s = weighted.phase_seconds.get("partition", 0.0)
    makespan = weighted.makespan_s
    return {
        "partition.fraction_of_makespan":
            part_s / makespan if makespan else 0.0,
        "partition.bytes_moved_per_step":
            weighted.partition_bytes_moved / steps,
        "partition.eager_bytes_per_step":
            eager.partition_bytes_moved / steps,
        "partition.skipped_rounds": float(weighted.partitions_skipped),
        "partition.octants_migrated": weighted.octants_migrated,
        "partition.makespan_ns": weighted.makespan_s * 1e9,
    }


def bench_media(steps: int = 6, max_level: int = 4) -> Dict[str, float]:
    """Media-integrity costs: the no-fault path must be free, repair is not.

    Three seeded measurements:

    * **no-fault overhead** — the droplet workload run twice, once without
      and once with a (quiescent) :class:`MediaFaultModel` attached.  The
      makespan ratio is gated at 1.0: CRC sealing and fault checks ride
      along with reads the workload already pays for, so arming integrity
      on healthy media costs exactly nothing.
    * **clean scrub** — a full read-verify pass over the published tree
      with nothing wrong; its clock cost is the background-scrub budget.
    * **repair** — rot and stuck lines planted on published records, then
      a scrub that drives the whole ladder (retry, replica rebuild,
      relocate, republish, retire).  The clock delta is the repair bill.
    """
    from repro.core.pmoctree import SLOT_PREV
    from repro.core.recovery import scrub
    from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
    from repro.nvbm.pointers import index_of

    def droplet(quiet_model: bool):
        clock, dram, nvbm, tree = _rig()
        if quiet_model:
            nvbm.attach_fault_model(MediaFaultModel())
        solver = SolverConfig(dim=2, min_level=2, max_level=max_level,
                              dt=0.01)
        sim = DropletSimulation(tree, solver, clock=clock,
                                persistence=lambda s: s.tree.persist())
        sim.run(steps)
        return clock, nvbm, tree

    clock_ref, _, _ = droplet(False)
    clock, nvbm, tree = droplet(True)
    ratio = clock.now_ns / clock_ref.now_ns

    tree.persist()  # drain the write-back cache so scrub reads the medium
    t0 = clock.now_ns
    clean = scrub(tree)
    scrub_clean_ns = clock.now_ns - t0

    session = ReplicaSession(tree)
    session.ship()
    replica = session.replica
    model = nvbm.device.fault_model
    root = nvbm.roots.get(SLOT_PREV)
    published = sorted(tree.reachable_from(root))
    victims = published[:: max(1, len(published) // 6)][:6]
    for i, handle in enumerate(victims):
        gline = index_of(handle) * LINES_PER_RECORD + (i % LINES_PER_RECORD)
        if i % 2:
            model.plant_stuck(gline)
        else:
            model.plant_rot(gline)
    t0 = clock.now_ns
    repair = scrub(tree, replica=replica)
    repair_ns = clock.now_ns - t0

    return {
        "media.nofault_makespan_ratio": ratio,
        "media.scrub_clean_ns": scrub_clean_ns,
        "media.scrub_scanned": float(clean.scanned),
        "media.repair_ns": repair_ns,
        "media.ue_detected": float(repair.detected_total),
        "media.repaired": float(repair.repaired_retry
                                + repair.repaired_local
                                + repair.repaired_replica),
        "media.relocated": float(repair.relocated),
        "media.retired_lines": float(repair.retired_lines),
        "media.unrepaired": float(len(repair.unrepaired)),
    }


def run_bench(pr: int = 0) -> Dict[str, Any]:
    """Run the pinned suite and return the versioned envelope."""
    metrics: Dict[str, float] = {}
    metrics.update(bench_droplet())
    metrics.update(bench_recovery())
    metrics.update(bench_replication())
    metrics.update(bench_partition())
    metrics.update(bench_media())
    return bench_envelope(pr=pr, suite=SUITE, metrics=metrics, gates=GATES)


# ------------------------------------------------------------------ comparison


@dataclass
class Regression:
    """One failed gate (or structural problem) in a bench comparison."""

    metric: str
    kind: str  #: "regression" | "missing" | "schema"
    direction: str = ""
    tolerance: float = 0.0
    baseline: float = 0.0
    current: float = 0.0

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        if self.kind == "schema":
            return f"{self.metric}: {self.direction}"
        if self.kind == "missing":
            return f"{self.metric}: present in baseline, absent in current"
        worse = "above" if self.direction == "lower" else "below"
        return (
            f"{self.metric}: {self.current:g} vs baseline {self.baseline:g} "
            f"({self.ratio:.3f}x) is {worse} the "
            f"{self.tolerance:.0%} tolerance"
        )

    def to_row(self) -> Dict[str, Any]:
        return {
            "metric": self.metric, "kind": self.kind,
            "direction": self.direction, "tolerance": self.tolerance,
            "baseline": self.baseline, "current": self.current,
            "detail": self.describe(),
        }


@dataclass
class CompareReport:
    """Typed verdict of ``bench --compare``."""

    ok: bool
    checked: int
    regressions: List[Regression] = field(default_factory=list)

    def rows(self) -> List[Dict[str, Any]]:
        return [r.to_row() for r in self.regressions]


def compare_envelopes(baseline: Dict[str, Any],
                      current: Dict[str, Any]) -> CompareReport:
    """Apply the *baseline's* gates between two envelopes.

    The baseline's gate list governs so a PR cannot silently loosen its own
    thresholds; schema mismatches and metrics that vanished are failures in
    their own right, not skips.
    """
    regressions: List[Regression] = []
    for env, label in ((baseline, "baseline"), (current, "current")):
        if env.get("schema") != BENCH_SCHEMA:
            regressions.append(Regression(
                metric="schema", kind="schema",
                direction=f"{label} schema {env.get('schema')!r} != "
                          f"{BENCH_SCHEMA!r}",
            ))
    if regressions:
        return CompareReport(ok=False, checked=0, regressions=regressions)

    base_metrics = baseline.get("metrics", {})
    curr_metrics = current.get("metrics", {})
    checked = 0
    for gate in baseline.get("gates", []):
        name = gate["metric"]
        tol = float(gate["tolerance"])
        direction = gate["direction"]
        if name not in base_metrics:
            continue  # the baseline never measured it; nothing to gate
        if name not in curr_metrics:
            regressions.append(Regression(
                metric=name, kind="missing", direction=direction,
                tolerance=tol, baseline=float(base_metrics[name]),
            ))
            continue
        checked += 1
        base_v = float(base_metrics[name])
        curr_v = float(curr_metrics[name])
        if direction == "lower":
            bad = curr_v > base_v * (1.0 + tol) + 1e-12
        else:
            bad = curr_v < base_v * (1.0 - tol) - 1e-12
        if bad:
            regressions.append(Regression(
                metric=name, kind="regression", direction=direction,
                tolerance=tol, baseline=base_v, current=curr_v,
            ))
    return CompareReport(ok=not regressions, checked=checked,
                         regressions=regressions)
