"""The batch persist point equals the per-record oracles.

``repro.core.merge.merge_subtree`` moves a chunk of postorder visits per
arena call; its one-``read_octant``/``new_octant``-per-octant predecessor
lives verbatim in ``tests/oracles/structure_walks.py``.  Twin rigs built
identically — the seeded droplet and wave runs of ``test_frontier_walks.py``,
2-D and 3-D, tight and roomy C0, synchronous and pipelined, C0 kept resident
or dissolved at every persist, pressure evictions in between — must agree
after every step in everything a merge leaves behind: the NVBM bytes on the
medium and in the write-back cache, the cache directory's order, both
allocators, ``_index``/``_origin``/``_dirty``/``_detached``, every ``*Stats``,
the ``SimClock`` tables, the wear arrays and the injector's hit counts.

While a crash plan is armed on ``merge.octant`` (or a media fault can fail a
read) the chunk is one record, so a crash at *any* visit must leave exactly
the oracle's arena — before and after the torn-line ``crash()`` — and
recover the same tree.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import (DRAM_SPEC, NVBM_SPEC, PMOctreeConfig,
                          SolverConfig)
from repro.core import merge
from repro.core.api import pm_create, pm_restore
from repro.errors import MediaError, SimulatedCrash
from repro.nvbm.arena import MemoryArena
from repro.nvbm.clock import SimClock
from repro.nvbm.device import LINES_PER_RECORD, MediaFaultModel
from repro.nvbm.failure import FailureInjector
from repro.nvbm.pointers import ARENA_DRAM, ARENA_NVBM
from repro.nvbm.sites import MERGE_OCTANT
from repro.octree import morton
from repro.solver.simulation import DropletSimulation
from repro.solver.wave import WaveConfig, WaveSimulation
from tests.core.conftest import PMRig
from tests.core.test_frontier_walks import CASES
from tests.oracles import structure_walks as oracle


# ----------------------------------------------------------- what a merge leaves

def _arena_state(arena: MemoryArena) -> dict:
    n = arena.slots
    return {
        "medium": arena._rows[:n].tobytes(),
        "present": arena._present[:n].tolist(),
        "seal": arena._seal[:n].tolist(),
        "dirty_lines": arena._dirty_mask[:n].tolist(),
        # cache-insertion order: the order a crash draws its tears in
        "cache_order": arena.dirty_handles(),
        "cache": [arena._crows[crow].tobytes()
                  for crow in arena._cdir.values()],
        "live": list(arena.live_handles()),
        "free": list(arena.allocator._free),
        "bump": arena.allocator._bump,
        "stats": dataclasses.asdict(arena.stats),
        "device": dataclasses.asdict(arena.device.stats),
        "wear": arena.device._wear.tolist(),
    }


def _state(rig) -> dict:
    tree = rig.tree
    return {
        "nvbm": _arena_state(rig.nvbm),
        "dram": _arena_state(rig.dram),
        "roots": dict(rig.nvbm.roots._slots),
        "index": list(tree._index.items()),
        "origin": list(tree._origin.items()),
        "dirty": sorted(tree._dirty),
        "detached": list(tree._detached),
        "superseded": list(tree._superseded),
        "c0": [(root, s.size, s.accesses, sorted(s.locs))
               for root, s in tree._c0_roots.items()],
        "epoch": tree.epoch,
        "pm": dataclasses.asdict(tree.stats),
        "now_ns": rig.clock.now_ns,
        "by_phase": dict(rig.clock.by_phase),
        "by_category": dict(rig.clock.by_category),
        "hits": dict(rig.injector.hits),
        "fired": list(rig.injector.fired),
    }


def _leaves(tree) -> dict:
    return {loc: tuple(tree.get_payload(loc)) for loc in tree.leaves()}


def _agree(ours, theirs) -> None:
    a, b = _state(ours), _state(theirs)
    for key in a:  # a readable failure: name the part that differs
        assert a[key] == b[key], key


# ------------------------------------------------------ seeded simulations

@dataclasses.dataclass
class SimRig:
    clock: SimClock
    dram: MemoryArena
    nvbm: MemoryArena
    injector: FailureInjector
    tree: object
    sim: object


def _sim_rig(scenario: str, dim: int, budget: int, inflight: int,
             keep_resident) -> SimRig:
    clock = SimClock()
    injector = FailureInjector()
    dram = MemoryArena(ARENA_DRAM, DRAM_SPEC, clock, 1 << 16)
    nvbm = MemoryArena(ARENA_NVBM, NVBM_SPEC, clock, 1 << 18)
    config = PMOctreeConfig(dram_capacity_octants=budget, seed=11,
                            max_inflight_epochs=inflight)
    tree = pm_create(dram, nvbm, dim=dim, config=config, injector=injector)
    level = 5 if dim == 2 else 3

    def persistence(sim):
        sim.tree.persist(keep_resident=keep_resident)
        sim.tree.gc()

    if scenario == "droplet":
        sim = DropletSimulation(
            tree, SolverConfig(dim=dim, min_level=2, max_level=level,
                               dt=0.01),
            clock=clock, persistence=persistence)
    else:
        sim = WaveSimulation(
            tree, WaveConfig(dim=dim, min_level=2, max_level=level, dt=0.02,
                             epicenter=(0.5,) * dim),
            clock=clock, persistence=persistence)
    return SimRig(clock, dram, nvbm, injector, tree, sim)


@pytest.mark.parametrize("keep_resident", [None, False],
                         ids=["keep-resident", "dissolve-c0"])
@pytest.mark.parametrize("scenario,dim,budget,inflight", CASES)
def test_merge_equals_oracle_step_by_step(monkeypatch, scenario, dim, budget,
                                          inflight, keep_resident):
    # a chunk far smaller than a subtree: children and parents fall into
    # different chunks, origins are read a few at a time
    monkeypatch.setattr(merge, "_CHUNK", 7)
    ours, theirs = (_sim_rig(scenario, dim, budget, inflight, keep_resident)
                    for _ in "ab")

    def both(act) -> None:
        act(ours)
        with monkeypatch.context() as patch:
            oracle.inject_merge(patch)
            act(theirs)
        _agree(ours, theirs)

    both(lambda rig: rig.sim.construct())
    for _ in range(4):
        both(lambda rig: rig.sim.step())
    both(lambda rig: rig.tree.drain_persists())
    stats = ours.tree.stats
    assert stats.merge_octants_written > 50
    assert stats.merge_octants_shared > 0 or keep_resident is False
    if budget < 100:
        assert stats.evictions > 0  # pressure merges rode along
    ours.tree.check_invariants()


def test_one_chunk_per_subtree_equals_oracle(monkeypatch):
    """The shipped chunk size (a whole test-sized subtree per call)."""
    ours, theirs = (_sim_rig("droplet", 2, 1 << 14, 1, None) for _ in "ab")
    for step in range(4):
        (ours.sim.step if step else ours.sim.construct)()
        with monkeypatch.context() as patch:
            oracle.inject_merge(patch)
            (theirs.sim.step if step else theirs.sim.construct)()
        _agree(ours, theirs)
    assert ours.tree.stats.merge_octants_shared > 0
    assert len(ours.tree._index) < merge._CHUNK


# -------------------------------------------------- crash at every visit

def _grown(levels: int = 3, **kw) -> PMRig:
    """A persisted, C0-resident tree with a step's worth of changes on top:
    dirty payloads, a refined leaf, a coarsened family — and clean octants
    whose origins the merge will re-link to."""
    rig = PMRig(dram_octants=1024, nvbm_octants=1 << 12, **kw)
    t = rig.tree
    for _ in range(levels):
        for leaf in list(t.leaves()):
            t.refine(leaf)
    t.persist(transform=False, keep_resident=True)
    _mutate(t)
    return rig


def _mutate(t) -> None:
    leaves = sorted(t.leaves())
    for i, leaf in enumerate(leaves[::5]):
        t.set_payload(leaf, (float(i), 1.0, 0.0, 0.0))
    t.refine(leaves[3])
    parent = leaves[-1] >> t.dim
    t.coarsen(parent)


def _persist(rig: PMRig, use_oracle: bool, monkeypatch):
    """``persist`` on ``rig``; returns the crash or media error it raised."""
    with monkeypatch.context() as patch:
        if use_oracle:
            oracle.inject_merge(patch)
        try:
            rig.tree.persist(transform=False, keep_resident=True)
        except (SimulatedCrash, MediaError) as exc:
            return exc
    return None


def _visits_of_one_persist(monkeypatch) -> int:
    rig = _grown()
    before = rig.injector.hits.get(MERGE_OCTANT, 0)
    assert _persist(rig, True, monkeypatch) is None
    return rig.injector.hits[MERGE_OCTANT] - before


def test_crash_at_every_visit_equals_oracle(monkeypatch):
    visits = _visits_of_one_persist(monkeypatch)
    assert visits > 15
    for k in range(1, visits + 1):
        ours, theirs = _grown(), _grown()
        for rig, use_oracle in ((ours, False), (theirs, True)):
            rig.injector.reset_hits()
            rig.injector.arm(MERGE_OCTANT, at_hit=k)
            crash = _persist(rig, use_oracle, monkeypatch)
            assert isinstance(crash, SimulatedCrash), k
        _agree(ours, theirs)  # store k landed, store k + 1 did not
        assert ours.injector.hits[MERGE_OCTANT] == k
        for rig in (ours, theirs):
            rig.crash(seed=k)
        _agree(ours, theirs)  # the same lines torn
        assert _leaves(ours.restore()) == _leaves(theirs.restore())
        _agree(ours, theirs)


@pytest.mark.parametrize("plan", [dict(hits=[2, 5, 6]), dict(every_hit=True)],
                         ids=["hits-list", "every-hit"])
def test_repeated_crashes_equal_oracle(monkeypatch, plan):
    """A plan that outlives its first crash keeps the merge record by
    record: restore, redo the step, crash again."""
    ours, theirs = _grown(), _grown()
    for rig in (ours, theirs):
        rig.injector.reset_hits()
        rig.injector.arm(MERGE_OCTANT, **plan)
    for round_ in range(3):
        for rig, use_oracle in ((ours, False), (theirs, True)):
            crash = _persist(rig, use_oracle, monkeypatch)
            assert isinstance(crash, SimulatedCrash)
            assert rig.injector.armed(MERGE_OCTANT) == (
                round_ < 2 or "every_hit" in plan)
        _agree(ours, theirs)
        for rig in (ours, theirs):
            rig.crash(seed=round_)
            # not PMRig.restore(): that would disarm the plan
            rig.tree = pm_restore(rig.dram, rig.nvbm, dim=rig.dim,
                                  config=rig.config, injector=rig.injector)
            assert merge.load_subtree(rig.tree, morton.ROOT_LOC)
            _mutate(rig.tree)
        _agree(ours, theirs)
    assert ours.injector.fired == [MERGE_OCTANT] * 3


def test_pipelined_crash_equals_oracle(monkeypatch):
    """Under the epoch pipeline a merge's stores are deferred drain work
    and its detached origins are GC pins: both must match at the crash."""
    for k in (1, 4, 9):
        ours, theirs = (_grown(max_inflight_epochs=1) for _ in "ab")
        for rig, use_oracle in ((ours, False), (theirs, True)):
            rig.injector.reset_hits()
            rig.injector.arm(MERGE_OCTANT, at_hit=k)
            assert isinstance(_persist(rig, use_oracle, monkeypatch),
                              SimulatedCrash)
        _agree(ours, theirs)
        assert ours.tree._detached


# ---------------------------------------------------------- media faults

def _clean_origins(t) -> list:
    return [t._origin[loc] for loc in merge._postorder_locs(t, morton.ROOT_LOC)
            if loc in t._origin and loc not in t._dirty]


def test_rotted_origins_raise_as_the_oracle_does(monkeypatch):
    """Three planted rot lines among the origins: the model is not
    quiescent, so the merge reads origin by origin and raises at the first
    rotted one, after exactly the oracle's reads and stores."""
    ours, theirs = _grown(), _grown()
    errors = []
    for rig, use_oracle in ((ours, False), (theirs, True)):
        model = MediaFaultModel(seed=3)
        rig.nvbm.attach_fault_model(model)
        origins = _clean_origins(rig.tree)
        assert len(origins) > 30
        for origin in origins[10::9][:3]:
            slot = int(rig.nvbm.slots_of(np.array([origin],
                                                  dtype=np.uint64))[0])
            model.plant_rot(slot * LINES_PER_RECORD + 1)
        assert not model.quiescent
        errors.append(_persist(rig, use_oracle, monkeypatch))
    mine, want = errors
    assert isinstance(mine, MediaError) and isinstance(want, MediaError)
    assert (mine.kind, mine.slot, mine.lines) == \
        (want.kind, want.slot, want.lines) and mine.kind == "rot"
    _agree(ours, theirs)
    assert ours.nvbm.stats.stores > 0  # it was partway through the merge


def test_quiescent_fault_model_keeps_the_batch(monkeypatch):
    """An attached model with nothing armed or planted cannot fail a read:
    the merge stays chunked, and still equals the oracle."""
    ours, theirs = _grown(), _grown()
    for rig, use_oracle in ((ours, False), (theirs, True)):
        rig.nvbm.attach_fault_model(MediaFaultModel(seed=3))
        assert not merge._record_by_record(rig.tree)
        assert _persist(rig, use_oracle, monkeypatch) is None
    _agree(ours, theirs)


def test_freed_origin_is_judged_at_its_own_visit(monkeypatch):
    """An origin freed behind the tree's back may get its slot handed out
    again by an earlier store of the same merge; whether it is a live
    record is then only known at its own visit.  (GC pins origins, so this
    takes a rogue ``free`` — the chunk still has to equal the visits.)"""
    ours, theirs = _grown(), _grown()
    for rig, use_oracle in ((ours, False), (theirs, True)):
        rig.nvbm.free(_clean_origins(rig.tree)[-2])
        assert _persist(rig, use_oracle, monkeypatch) is None
    _agree(ours, theirs)
    assert _leaves(ours.tree) == _leaves(theirs.tree)


# ----------------------------------------------------- the injector's half

def test_bulk_site_visit_is_the_visits_in_order():
    bulk, single = FailureInjector(), FailureInjector()
    bulk.site(MERGE_OCTANT, count=5)
    for _ in range(5):
        single.site(MERGE_OCTANT)
    assert bulk.hits == single.hits == {MERGE_OCTANT: 5}
    assert not bulk.armed(MERGE_OCTANT)
    bulk.arm(MERGE_OCTANT, at_hit=8)
    assert bulk.armed(MERGE_OCTANT) and not bulk.armed("persist.begin")
    with pytest.raises(SimulatedCrash):
        bulk.site(MERGE_OCTANT, count=5)
    # stopped at the visit that fired, and the spent plan is gone
    assert bulk.hits[MERGE_OCTANT] == 8
    assert not bulk.armed(MERGE_OCTANT)
