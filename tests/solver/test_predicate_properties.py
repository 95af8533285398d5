"""Seeded property tests for the array predicates.

Criteria and features are array predicates over a ``LeafBatch``; the
per-octant ``(loc, payload)`` bodies they replaced live in ``tests/oracles``.
Each ``src`` predicate must equal its oracle, lifted by ``soa.per_octant``,
**elementwise and exactly** — on adapted (non-uniform) droplet trees in 2-D
and 3-D and on wave trees, at several times including after breakup, over
leaves *and* internal octants (the §3.3 sampler picks both).  The refine
phase must also be batch-first in its traffic: no per-leaf ``get_payload``,
one ``batch_read_payloads`` per sweep round.
"""

from functools import partial

import numpy as np
import pytest

from repro.config import DRAM_SPEC, SolverConfig
from repro.core.pmoctree import PMOctree
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.pointers import ARENA_DRAM
from repro.octree import morton, soa
from repro.octree.refine import RefinementEngine
from repro.octree.tree import PointerOctree
from repro.solver import features
from repro.solver.advection import initialize_vof
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from tests.core.conftest import PMRig
from tests.oracles import scalar_kernels as oracle

#: before breakup, around it, after it (droplets exist), and late
TIMES = [0.0, 0.03, 0.2, 0.55, 0.61, 0.9]


def _tree(dim):
    return PointerOctree(
        MemoryArena(ARENA_DRAM, DRAM_SPEC, SimClock(), 1 << 16), dim=dim)


def _batch_with_parents(tree, seed):
    """Leaves plus their parents, with seeded noise on the payloads so the
    value thresholds (mixed cell, changed cell) see both sides."""
    leaves = sorted(tree.leaves())
    parents = sorted({morton.parent_of(loc, tree.dim) for loc in leaves
                      if loc != morton.ROOT_LOC})
    batch = soa.gather(tree, leaves + parents)
    rng = np.random.default_rng(seed)
    noisy = batch.payloads.copy()
    flip = rng.random(len(batch)) < 0.3
    noisy[flip, 0] = rng.random(int(flip.sum()))
    return soa.LeafBatch(tree.dim, batch.loc_list, noisy)


def _droplet(dim, max_level, steps):
    cfg = SolverConfig(dim=dim, min_level=2, max_level=max_level, dt=0.01)
    sim = DropletSimulation(_tree(dim), cfg)
    sim.run(steps)
    levels = {morton.level_of(loc, dim) for loc in sim.tree.leaves()}
    assert len(levels) > 1  # adapted, non-uniform
    return sim


@pytest.fixture(scope="module", params=[(2, 6, 4), (3, 4, 2)],
                ids=["droplet2d", "droplet3d"])
def droplet(request):
    return _droplet(*request.param)


@pytest.mark.parametrize("t", TIMES)
def test_droplet_predicates_equal_oracle(droplet, t):
    geo, cfg = droplet.geometry, droplet.config
    batch = _batch_with_parents(droplet.tree, seed=int(t * 100))
    pairs = [
        (features.interface_criterion(geo, cfg, t),
         oracle.interface_criterion(geo, cfg, t)),
        (features.change_feature(geo, t), oracle.change_feature(geo, t)),
        (features.interface_band_feature(geo, t),
         oracle.interface_band_feature(geo, t)),
        (features.mixed_cell_feature(cfg.dim),
         oracle.mixed_cell_feature(cfg.dim)),
    ]
    for batch_fn, scalar_fn in pairs:
        got = batch_fn(batch)
        want = soa.per_octant(scalar_fn)(batch)
        assert got.shape == want.shape
        assert np.array_equal(got, want), scalar_fn.__qualname__
    assert features.interface_criterion(geo, cfg, t)(batch).dtype == np.int8


@pytest.mark.parametrize("t", TIMES)
def test_near_interface_cells_equals_per_cell(droplet, t):
    geo, dim = droplet.geometry, droplet.config.dim
    batch = _batch_with_parents(droplet.tree, seed=1)
    got = geo.near_interface_cells(batch.mins, batch.maxs, t)
    want = [geo.near_interface(*morton.cell_bounds(loc, dim), t)
            for loc in batch.loc_list]
    assert got.tolist() == want
    assert any(want) and not all(want)


@pytest.fixture(scope="module", params=[2, 3], ids=["wave2d", "wave3d"])
def wave(request):
    dim = request.param
    cfg = WaveConfig(dim=dim, min_level=2, max_level=5 if dim == 2 else 4,
                     epicenter=(0.5,) * dim if dim == 2 else (0.4, 0.5, 0.6))
    sim = WaveSimulation(_tree(dim), cfg)
    sim.run(4)
    return sim


@pytest.mark.parametrize("t", [0.0, 0.08, 0.1, 0.37, 0.8])
def test_wave_predicates_equal_oracle(wave, t):
    batch = _batch_with_parents(wave.tree, seed=int(t * 100))
    got = wave._criterion(t)(batch)
    want = soa.per_octant(oracle.wave_criterion(wave, t))(batch)
    assert got.dtype == np.int8
    assert np.array_equal(got, want)
    t0 = wave.t
    try:
        wave.t = t  # the feature looks one dt past the driver's time
        got = wave._next_step_feature(batch)
        want = soa.per_octant(
            partial(oracle.wave_next_step_feature, wave))(batch)
    finally:
        wave.t = t0
    assert np.array_equal(got, want)
    # the shared pulse arithmetic is the scalar spelling, per element
    values = wave.field.values(batch.centers, t)
    assert values.tolist() == [
        wave.field.cell_value(loc, t) for loc in batch.loc_list]


def test_initialize_vof_equals_per_leaf_oracle(droplet):
    geo, dim = droplet.geometry, droplet.config.dim
    runs = []
    for fill in (initialize_vof, oracle.initialize_vof):
        tree = _tree(dim)
        tree.refine_uniform(2)
        for loc in sorted(tree.leaves())[::3]:
            tree.refine(loc)
        fill(tree, geo, 0.61)
        device = tree.arena.device
        runs.append(({loc: tree.get_payload(loc) for loc in tree.leaves()},
                     device.stats, device.clock.now_ns))
    assert runs[0] == runs[1]


# ------------------------------------------------------- refine-phase traffic

def _count_refine_traffic(sim, monkeypatch):
    """Step once; count the payload reads made while ``_adapt`` runs."""
    counts = {"get_payload": 0, "batch_read_payloads": 0, "rounds": 0}
    state = {"refining": False}

    def counting(cls, name, key):
        inner = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            if state["refining"]:
                counts[key] += 1
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(PMOctree, "get_payload", "get_payload")
    counting(PMOctree, "batch_read_payloads", "batch_read_payloads")
    counting(RefinementEngine, "_sweep", "rounds")
    adapt = sim._adapt

    def refining():
        state["refining"] = True
        try:
            return adapt()
        finally:
            state["refining"] = False

    monkeypatch.setattr(sim, "_adapt", refining)
    sim.step()
    return counts


@pytest.mark.parametrize("workload", ["droplet", "wave"])
def test_refine_phase_reads_one_batch_per_round(workload, monkeypatch):
    rig = PMRig(dram_octants=256)
    if workload == "droplet":
        sim = DropletSimulation(
            rig.tree, SolverConfig(dim=2, min_level=2, max_level=5, dt=0.01),
            clock=rig.clock, persistence=lambda s: s.tree.persist())
    else:
        sim = WaveSimulation(
            rig.tree, WaveConfig(dim=2, min_level=2, max_level=5),
            clock=rig.clock, persistence=lambda s: s.tree.persist())
    sim.run(2)
    counts = _count_refine_traffic(sim, monkeypatch)
    assert counts["rounds"] >= 1
    assert counts["get_payload"] == 0
    assert counts["batch_read_payloads"] == counts["rounds"]
