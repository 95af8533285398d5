"""Differential equivalence battery for the solver kernels.

``src`` holds one (batch) body per kernel; two things keep it honest:

* **Pinned digests** recorded at the last commit that still shipped the
  scalar twins (PR 11, ``930f3fe``): clock, device/block counters, wear,
  history and crash-recovered state of droplet+wave on PMOctree, and
  clock/counters/leaf state on ``InCoreOctree`` and ``EtreeOctree`` over
  NVBM-fs and HDD.  The baselines ran the scalar sweep then and run the
  batch kernel over the loop-backed accessors now, so these pins are what
  says the three-way comparison did not move.  Etree ``page_reads`` is the
  value that drifts if the upwind neighbor is ever resolved in memory
  instead of through ``tree.exists``/``tree.is_leaf`` (B-tree searches).
* **src vs oracle**: the scalar kernels in ``tests/oracles`` are injected
  under the drivers' module-level names and the whole run must be
  *bit-identical* — same recovered NVBM state after a crash, same device
  byte/line counters, same wear maps, same simulated clock — over the
  epoch-pipeline depths ``max_inflight_epochs in {0, 1, 2}`` and over rank
  counts ``P in {1, 2, 4}`` through the parallel runtime.
* **batch structure vs per-leaf walks**: the oracle's ``pressure_solve``,
  ``count_droplets``, ``find_violation`` and ``balance_tree`` call
  ``face_neighbor_leaves``/``exists``/``is_leaf`` per leaf; ``src`` makes one
  ``tree.face_neighbors`` call per kernel.  The CSR matrix CG receives, the
  pressure vector, the residual, the droplet count and the recorded sequence
  of ``refine`` calls must be equal, and the modelled machine (both
  ``DeviceStats``, clock tables, wear) unmoved, on PM-octree (tight and
  roomy C0, sync and pipelined) and in-core.
"""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.analysis.sweep import _signature
from repro.baselines.etree import EtreeOctree
from repro.baselines.incore import InCoreOctree
from repro.config import (
    DISK_SPEC,
    DRAM_SPEC,
    NVBM_FS_SPEC,
    NVBM_SPEC,
    PMOctreeConfig,
    SolverConfig,
)
from repro.core.api import pm_create, pm_restore
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.failure import default_injector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.octree import morton
from repro.octree.balance import balance_tree, find_violation
from repro.octree.neighbors import neighbor_level_gap
from repro.octree.tree import PointerOctree
from repro.parallel.runtime import Backend, RunConfig, run_parallel
from repro.solver.fields import VOF, count_droplets
from repro.solver.poisson import pressure_solve
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from repro.storage.block import BlockDevice
from tests.oracles import scalar_kernels

SEED = 7


def _rig(max_inflight: int):
    default_injector().reset()
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(dram_capacity_octants=96, seed=SEED,
                         max_inflight_epochs=max_inflight)
    tree = pm_create(dram, nvbm, dim=2, config=cfg)
    return clock, dram, nvbm, cfg, tree


def _persistence(sim):
    sim.tree.persist()
    sim.tree.gc()


def _droplet_sim(tree, clock, persistence=None):
    # pressure_smooth so the red-black smoother is under test too
    return DropletSimulation(
        tree, SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01),
        clock=clock, persistence=persistence, pressure_smooth=2,
    )


def _wave_sim(tree, clock, persistence=None):
    return WaveSimulation(
        tree, WaveConfig(dim=2, min_level=2, max_level=5, dt=0.02),
        clock=clock, persistence=persistence,
    )


SIMS = {"droplet": _droplet_sim, "wave": _wave_sim}


def _run_pm(scenario: str, max_inflight: int, steps: int = 6):
    clock, dram, nvbm, cfg, tree = _rig(max_inflight)
    sim = SIMS[scenario](tree, clock, _persistence)
    sim.run(steps)
    tree.drain_persists()
    return clock, dram, nvbm, cfg, tree, sim


def _observables(clock, dram, nvbm, cfg, tree, sim):
    """Everything both paths must agree on, bit for bit."""
    # crash both arenas and restore: the *recovered NVBM state* is the
    # durability contract the batch metering must not have perturbed
    dram.crash()
    nvbm.crash(np.random.default_rng(SEED))
    restored = pm_restore(dram, nvbm, dim=2, config=cfg)
    return {
        "clock_ns": clock.now_ns,
        "dram_stats": dataclasses.asdict(dram.device.stats),
        "nvbm_stats": dataclasses.asdict(nvbm.device.stats),
        "wear": nvbm.device._wear.tolist(),
        "history": sim.history,
        "recovered": _signature(restored),
    }


# ------------------------------------------------------------ pinned digests

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _state_digest(signature) -> str:
    return _digest(sorted(signature.items()))


def _pinnable(obs):
    return {
        "clock_ns": obs["clock_ns"],
        "dram_stats": obs["dram_stats"],
        "nvbm_stats": obs["nvbm_stats"],
        "wear": _digest(obs["wear"]),
        "history": _digest(obs["history"]),
        "recovered": _state_digest(obs["recovered"]),
    }


PINNED_PM = {
    # (scenario, max_inflight_epochs): _pinnable(_observables(...)) at 930f3fe
    ("droplet", 0): {
        "clock_ns": 1650510.0,
        "dram_stats": {"reads": 2542, "writes": 689, "bytes_read": 105248,
                      "bytes_written": 41632, "lines_read": 3026,
                      "lines_written": 972},
        "nvbm_stats": {"reads": 6305, "writes": 2306, "bytes_read": 270743,
                      "bytes_written": 136275, "lines_read": 7830,
                      "lines_written": 3281},
        "wear": "5af6d2e6cdaf27c8", "history": "e883713e7faff257",
        "recovered": "d0f9fffa0ecd864d",
    },
    ("droplet", 1): {
        "clock_ns": 1484760.0,
        "dram_stats": {"reads": 2542, "writes": 689, "bytes_read": 105248,
                      "bytes_written": 41632, "lines_read": 3026,
                      "lines_written": 972},
        "nvbm_stats": {"reads": 6023, "writes": 2021, "bytes_read": 270080,
                      "bytes_written": 135948, "lines_read": 7545,
                      "lines_written": 2996},
        "wear": "2111f99b5d5d4c38", "history": "e883713e7faff257",
        "recovered": "d0f9fffa0ecd864d",
    },
    ("wave", 0): {
        "clock_ns": 3609530.0,
        "dram_stats": {"reads": 2345, "writes": 565, "bytes_read": 120256,
                      "bytes_written": 42464, "lines_read": 2816,
                      "lines_written": 832},
        "nvbm_stats": {"reads": 16012, "writes": 6621, "bytes_read": 745297,
                      "bytes_written": 389236, "lines_read": 19712,
                      "lines_written": 9443},
        "wear": "c9511796d165531c", "history": "95580896a2f6fcd3",
        "recovered": "49c81ee27da83deb",
    },
    ("wave", 1): {
        "clock_ns": 3255830.0,
        "dram_stats": {"reads": 2345, "writes": 565, "bytes_read": 120256,
                      "bytes_written": 42464, "lines_read": 2816,
                      "lines_written": 832},
        "nvbm_stats": {"reads": 15009, "writes": 5614, "bytes_read": 744040,
                      "bytes_written": 388187, "lines_read": 18707,
                      "lines_written": 8436},
        "wear": "a8df3f3451a9f208", "history": "95580896a2f6fcd3",
        "recovered": "49c81ee27da83deb",
    },
}


@pytest.mark.parametrize("scenario,max_inflight", sorted(PINNED_PM))
def test_pmoctree_matches_pinned_parent(scenario, max_inflight):
    got = _pinnable(_observables(*_run_pm(scenario, max_inflight)))
    assert got == PINNED_PM[(scenario, max_inflight)]


def _baseline_rig(kind: str):
    clock = SimClock()
    if kind == "incore":
        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
        return clock, InCoreOctree(dram, dim=2), dram.device
    spec = {"etree-nvbmfs": NVBM_FS_SPEC, "etree-hdd": DISK_SPEC}[kind]
    device = BlockDevice(spec, clock)
    return clock, EtreeOctree(device, dim=2), device


def _run_baseline(kind: str, scenario: str, steps: int = 4):
    clock, tree, device = _baseline_rig(kind)
    SIMS[scenario](tree, clock).run(steps)
    # counters first: reading the leaf state back is itself metered
    return {
        "clock_ns": clock.now_ns,
        "stats": dataclasses.asdict(device.stats),
        "leaves": _state_digest(_signature(tree)),
    }


PINNED_BASELINES = {
    # (tree kind, scenario): _run_baseline(...) at 930f3fe
    ("incore", "droplet"): {
        "clock_ns": 386280.0,
        "stats": {"reads": 3459, "writes": 1060, "bytes_read": 120768,
                  "bytes_written": 71360, "lines_read": 3564,
                  "lines_written": 1450},
        "leaves": "1b0bc1af0c0970e7",
    },
    ("incore", "wave"): {
        "clock_ns": 531480.0,
        "stats": {"reads": 5249, "writes": 2074, "bytes_read": 200704,
                  "bytes_written": 180992, "lines_read": 5590,
                  "lines_written": 3268},
        "leaves": "9dffee69b47da4b1",
    },
    ("etree-nvbmfs", "droplet"): {
        "clock_ns": 34898592.0,
        "stats": {"page_reads": 24921, "page_writes": 1400},
        "leaves": "3fdef313b2fd90cf",
    },
    # re-pinned at PR 21: WaveSimulation.step reports num_leaves() instead
    # of enumerating leaves(), a metered index scan on Etree (31234 -> 31220
    # page reads over the four steps)
    ("etree-nvbmfs", "wave"): {
        "clock_ns": 46453736.0,
        "stats": {"page_reads": 31220, "page_writes": 3633},
        "leaves": "d5a0cc19b17b4fe2",
    },
    ("etree-hdd", "droplet"): {
        "clock_ns": 132323824213.38377,
        "stats": {"page_reads": 24921, "page_writes": 1400},
        "leaves": "3fdef313b2fd90cf",
    },
    ("etree-hdd", "wave"): {  # re-pinned at PR 21, as above
        "clock_ns": 175216719253.3125,
        "stats": {"page_reads": 31220, "page_writes": 3633},
        "leaves": "d5a0cc19b17b4fe2",
    },
}


@pytest.mark.parametrize("kind,scenario", sorted(PINNED_BASELINES))
def test_baseline_matches_pinned_parent(kind, scenario):
    assert _run_baseline(kind, scenario) == PINNED_BASELINES[(kind, scenario)]


# ------------------------------------------------------------- src vs oracle

@pytest.mark.parametrize("scenario", sorted(SIMS))
@pytest.mark.parametrize("max_inflight", [0, 1, 2])
def test_vectorized_matches_scalar(scenario, max_inflight, monkeypatch):
    vec = _observables(*_run_pm(scenario, max_inflight))
    scalar_kernels.inject(monkeypatch)
    scalar = _observables(*_run_pm(scenario, max_inflight))
    assert vec["recovered"] == scalar["recovered"]
    assert vec["clock_ns"] == scalar["clock_ns"]
    assert vec["dram_stats"] == scalar["dram_stats"]
    assert vec["nvbm_stats"] == scalar["nvbm_stats"]
    assert vec["wear"] == scalar["wear"]
    assert vec["history"] == scalar["history"]


@pytest.mark.parametrize("scenario", sorted(SIMS))
def test_live_state_matches_scalar(scenario, monkeypatch):
    """Pre-crash (live) leaf payloads agree too, not just recovered ones."""
    tree_v = _run_pm(scenario, 1)[4]
    scalar_kernels.inject(monkeypatch)
    tree_s = _run_pm(scenario, 1)[4]
    assert _signature(tree_v) == _signature(tree_s)


@pytest.mark.parametrize("workload", ["droplet", "wave"])
@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_parallel_runtime_matches_scalar(workload, nranks, monkeypatch):
    def run():
        return run_parallel(RunConfig(
            backend=Backend.PM_OCTREE, nranks=nranks,
            target_elements=1e6 * nranks, steps=4,
            solver=SolverConfig(dim=2, min_level=2, max_level=4, dt=0.01),
            workload=workload, seed=2017,
        ))
    vec = run()
    scalar_kernels.inject(monkeypatch)
    scalar = run()
    assert vec.makespan_s == scalar.makespan_s
    assert vec.nvbm_writes == scalar.nvbm_writes
    assert vec.evictions == scalar.evictions
    assert vec.merges == scalar.merges
    assert vec.persists == scalar.persists
    assert vec.step_reports == scalar.step_reports


# ------------------------------------------- batch structure vs per-leaf walks

def _solve_rig(kind: str, max_inflight: int):
    """``pm-tight`` (C0 = 96 octants: evictions, NVBM stores, COW under the
    pressure writes), ``pm-roomy`` (everything C0-resident) or ``incore``."""
    if kind == "incore":
        clock = SimClock()
        dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
        return clock, [dram], InCoreOctree(dram, dim=2), None
    default_injector().reset()
    clock = SimClock()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 20)
    cfg = PMOctreeConfig(
        dram_capacity_octants=96 if kind == "pm-tight" else 1 << 14,
        seed=SEED, max_inflight_epochs=max_inflight)
    return clock, [dram, nvbm], pm_create(dram, nvbm, dim=2, config=cfg), \
        _persistence


def _run_solve(kind: str, max_inflight: int, steps: int = 4):
    clock, arenas, tree, persistence = _solve_rig(kind, max_inflight)
    sim = DropletSimulation(
        tree, SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01),
        clock=clock, persistence=persistence,
        pressure_every=1, pressure_smooth=2)
    sim.run(steps)
    if persistence is not None:
        tree.drain_persists()
    return {
        "clock_ns": clock.now_ns,
        "by_category": dict(clock.by_category),
        "by_phase": dict(clock.by_phase),
        "stats": [dataclasses.asdict(a.device.stats) for a in arenas],
        "wear": [a.device._wear.tolist() for a in arenas],
        "history": sim.history,
        "live": _signature(tree),
    }, tree


SOLVE_RIGS = [("pm-tight", 0), ("pm-tight", 1), ("pm-roomy", 0),
              ("pm-roomy", 1), ("incore", 0)]


@pytest.mark.parametrize("kind,max_inflight", SOLVE_RIGS)
def test_pressure_solve_matches_oracle(kind, max_inflight, monkeypatch):
    """Whole runs with the CG solve every step: every matrix handed to CG
    (CSR arrays as built, not canonicalised), every right-hand side and
    pressure vector, and the whole modelled machine, bit for bit."""
    solves = []
    real_cg = spla.cg

    def recording_cg(a, b, **kwargs):
        p, info = real_cg(a, b, **kwargs)
        solves.append([a.indptr, a.indices, a.data, b, p])
        return p, info

    monkeypatch.setattr(spla, "cg", recording_cg)
    vec, tree_v = _run_solve(kind, max_inflight)
    vec_solves, solves[:] = list(solves), []
    scalar_kernels.inject(monkeypatch)
    scalar, tree_s = _run_solve(kind, max_inflight)
    assert vec == scalar
    assert len(vec_solves) == len(solves) == 4
    for got, want in zip(vec_solves, solves):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
    # the returned diagnostics (CG residual), kernel against kernel
    assert pressure_solve(tree_v) == scalar_kernels.pressure_solve(tree_s)
    assert _signature(tree_v) == _signature(tree_s)


def _random_tree(dim: int, seed: int, splits: int, cap: int = 6):
    """A PointerOctree refined at ``splits`` random leaves — unbalanced on
    purpose (level gaps >= 2 are common)."""
    rng = random.Random(seed)
    tree = PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 1 << 16), dim=dim)
    for _ in range(splits):
        open_leaves = sorted(loc for loc in tree.leaves()
                             if morton.level_of(loc, dim) < cap)
        tree.refine(rng.choice(open_leaves))
    return tree, rng


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_count_droplets_matches_oracle(dim, seed):
    tree, rng = _random_tree(dim, seed, splits=30)
    for loc in tree.leaves():
        tree.set_field(loc, VOF, rng.random())
    # ~half the leaves liquid: several components, some of one leaf
    assert count_droplets(tree) == scalar_kernels.count_droplets(tree)
    assert count_droplets(tree, threshold=2.0) == 0


def _recording(tree):
    calls = []
    refine = tree.refine

    def recorded(loc):
        calls.append(loc)
        return refine(loc)

    tree.refine = recorded
    return calls


def _gap_max(tree) -> int:
    return max(neighbor_level_gap(tree, loc) for loc in tree.leaves())


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("max_level", [None, 3, 5])
@pytest.mark.parametrize("seed", range(4))
def test_balance_refine_sequence_matches_oracle(dim, max_level, seed):
    """Same ``refine`` calls in the same order — hence the same allocations
    and COW copies — from the filtered queue, with the ``max_level`` cap
    biting (cap 3 on trees refined to 6) and gaps >= 2 throughout."""
    tree_v, _ = _random_tree(dim, seed, splits=25)
    tree_s, _ = _random_tree(dim, seed, splits=25)
    assert find_violation(tree_v) == scalar_kernels.find_violation(tree_v)
    assert _gap_max(tree_v) >= 2
    calls_v, calls_s = _recording(tree_v), _recording(tree_s)
    assert balance_tree(tree_v, max_level=max_level) \
        == scalar_kernels.balance_tree(tree_s, max_level=max_level)
    assert calls_v == calls_s and calls_v
    assert list(tree_v.leaves()) == list(tree_s.leaves())
    assert find_violation(tree_v) == scalar_kernels.find_violation(tree_v)
    if max_level is None:
        assert find_violation(tree_v) is None


@pytest.mark.parametrize("seed", range(4))
def test_seeded_balance_matches_oracle(seed):
    """Incremental Balance: the queue starts from the caller's seeds (stale
    and balanced ones among them), filtered the same way."""
    tree_v, rng = _random_tree(2, seed, splits=25)
    tree_s, _ = _random_tree(2, seed, splits=25)
    seeds = rng.sample(sorted(tree_v._index), 12)
    calls_v, calls_s = _recording(tree_v), _recording(tree_s)
    assert balance_tree(tree_v, seeds=seeds) \
        == scalar_kernels.balance_tree(tree_s, seeds=seeds)
    assert calls_v == calls_s
